"""Brute-force oracles and seeded instance generators shared across the tests.

Everything random is driven by an explicit random.Random so failures are
reproducible.  Generators use rejection sampling with hard size caps to keep
the enumeration-based oracles tractable; a draw that comes out empty or too
large is simply redrawn.
"""

from __future__ import annotations

import random

from tokfst import (
    EPSILON,
    BpeTokenizer,
    Dfa,
    EnumerationError,
    Fst,
    PromotionResult,
    SymbolTable,
    Transition,
    Vocabulary,
    compose,
    count_segmentations,
    enumerate_language,
    epsilon_remove,
    project_output,
    promote_agnostic,
    promote_bpe,
    trim,
)

# ---------------------------------------------------------------------------
# small machine constructors


def line_dfa(table: SymbolTable, ids: tuple[int, ...]) -> Dfa:
    """Acceptor whose language is exactly the one given sequence."""
    arcs = tuple(
        Transition(n, sym, sym, n + 1) for n, sym in enumerate(ids)
    )
    return Dfa(table, len(ids) + 1, 0, frozenset({len(ids)}), arcs)


def transduce(machine: Fst, table: SymbolTable, ids: tuple[int, ...],
              max_out: int | None = None) -> set[tuple[int, ...]]:
    """All output sequences the transducer can produce for one input."""
    if max_out is None:
        max_out = len(ids) + 2
    composed = compose(line_dfa(table, ids), machine)
    acceptor = epsilon_remove(project_output(composed))
    return enumerate_language(acceptor, max_out)


def enumerate_pairs(machine: Fst, max_len: int,
                    max_paths: int = 500_000) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (input, output) relation of a failure-free transducer, bounded.

    Dedupes on (state, input, output) so epsilon self-loops terminate.
    """
    pairs: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    seen = {(machine.start, (), ())}
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(machine.start, (), ())]
    explored = 0
    while stack:
        state, ins, outs = stack.pop()
        explored += 1
        if explored > max_paths:
            raise AssertionError("pair enumeration blew its budget")
        if state in machine.finals:
            pairs.add((ins, outs))
        for inp, out, dst in machine.arcs.get(state, ()):
            nins = ins if inp == EPSILON else ins + (inp,)
            nouts = outs if out == EPSILON else outs + (out,)
            if len(nins) > max_len or len(nouts) > max_len:
                continue
            key = (dst, nins, nouts)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return pairs


# ---------------------------------------------------------------------------
# random pattern text


def random_pattern_text(rng: random.Random, chars: str, depth: int) -> str:
    """A syntactically valid pattern string, nested at most `depth` deep."""
    if depth == 0:
        return rng.choice(chars)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(chars)
    if kind == 1:
        return "."
    if kind == 2:
        picked = rng.sample(chars, rng.randint(1, len(chars)))
        neg = "^" if rng.random() < 0.3 else ""
        return f"[{neg}{''.join(picked)}]"
    if kind == 3:
        n = rng.randint(2, 3)
        return "".join(f"({random_pattern_text(rng, chars, depth - 1)})" for _ in range(n))
    if kind == 4:
        a = random_pattern_text(rng, chars, depth - 1)
        b = random_pattern_text(rng, chars, depth - 1)
        return f"(({a})|({b}))"
    op = rng.choice("*+?")
    inner = random_pattern_text(rng, chars, depth - 1)
    return f"({inner}){op}"


# ---------------------------------------------------------------------------
# random machine generators


def random_transducer(rng: random.Random, table: SymbolTable, max_states: int = 5,
                      eps_out: bool = True) -> Fst:
    """Random transducer for composition oracles.

    Inputs are always real symbols so path length bounds the output length of
    anything composed on the right; outputs may be epsilon when eps_out is set.
    """
    syms = sorted(table.token_ids())
    n = rng.randint(1, max_states)
    arcs = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        src = rng.randrange(n)
        inp = rng.choice(syms)
        out = EPSILON if eps_out and rng.random() < 0.3 else rng.choice(syms)
        arcs.append(Transition(src, inp, out, rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
    return Fst(table, n, 0, finals, tuple(arcs))


def random_vocab(rng: random.Random, chars: str, extra: int) -> Vocabulary:
    """Characters plus up to `extra` distinct multi-character tokens."""
    tokens = list(chars)
    seen = set(tokens)
    misses = 0
    while len(tokens) < len(chars) + extra and misses < 50:
        tok = "".join(rng.choice(chars) for _ in range(rng.randint(2, 4)))
        if tok in seen:
            misses += 1
            continue
        seen.add(tok)
        tokens.append(tok)
    return Vocabulary.from_tokens(tokens)


def random_merge_tokenizer(rng: random.Random, chars: str, k: int) -> BpeTokenizer:
    """A valid tokenizer with up to k merges, operands drawn from what exists."""
    tokens = list(chars)
    merges: list[tuple[str, str]] = []
    misses = 0
    while len(merges) < k and misses < 200:
        x = rng.choice(tokens)
        y = rng.choice(tokens)
        if x + y in tokens or len(x + y) > 8:
            misses += 1
            continue
        tokens.append(x + y)
        merges.append((x, y))
    vocab = Vocabulary.from_tokens(tokens)
    return BpeTokenizer.from_token_pairs(vocab, merges)


def random_pattern_dfa(rng: random.Random, table: SymbolTable, *,
                       max_states: int = 8, exact_states: int | None = None,
                       max_strings: int = 200, max_chars: int = 12,
                       max_segmentations: int | None = None,
                       vocab: Vocabulary | None = None) -> Dfa | None:
    """One rejection-sampling draw of a trimmed character-level DFA.

    Returns None when the draw is empty, too big to enumerate, or fails the
    requested caps; callers loop until a draw sticks.
    """
    chars = sorted(table.char_ids())
    n = exact_states if exact_states is not None else rng.randint(2, max_states)
    prob = rng.uniform(0.25, 0.6)
    arcs = []
    for src in range(n):
        for sym in chars:
            if rng.random() < prob:
                arcs.append(Transition(src, sym, sym, rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.35)
    if not finals:
        return None
    machine = trim(Dfa(table, n, 0, finals, tuple(arcs)))
    if not machine.finals:
        return None
    if exact_states is not None and machine.num_states != exact_states:
        return None
    try:
        strings = enumerate_language(machine, max_chars, max_paths=6000)
    except EnumerationError:
        return None
    if not strings or len(strings) > max_strings:
        return None
    if max_segmentations is not None and vocab is not None:
        total = 0
        for ids in strings:
            word = "".join(table.token(i) for i in ids)
            total += count_segmentations(word, vocab)
            if total > max_segmentations:
                return None
    return machine


def draw_until(make, limit: int = 500):
    """Run a nullary sampler until it returns something."""
    for _ in range(limit):
        candidate = make()
        if candidate is not None:
            return candidate
    raise AssertionError("rejection sampling failed to produce an instance")


# ---------------------------------------------------------------------------
# cached acceptance-scale instance sets (built once, reused across criteria)

_AGNOSTIC: list[tuple[Dfa, Vocabulary, PromotionResult]] | None = None
_BPE: list[tuple[Dfa, BpeTokenizer, PromotionResult]] | None = None

AGNOSTIC_SEED = 1303
BPE_SEED = 1505
INSTANCES = 100


def agnostic_instances() -> list[tuple[Dfa, Vocabulary, PromotionResult]]:
    """100 seeded (pattern, vocabulary) pairs with their promoted automata."""
    global _AGNOSTIC
    if _AGNOSTIC is None:
        rng = random.Random(AGNOSTIC_SEED)
        out = []
        while len(out) < INSTANCES:
            chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
            vocab = random_vocab(rng, chars, rng.randint(0, 10 - len(chars)))
            machine = random_pattern_dfa(
                rng, vocab.table, max_states=8, max_strings=150,
                max_chars=12, max_segmentations=5000, vocab=vocab)
            if machine is None:
                continue
            out.append((machine, vocab, promote_agnostic(machine, vocab)))
        _AGNOSTIC = out
    return _AGNOSTIC


def bpe_instances() -> list[tuple[Dfa, BpeTokenizer, PromotionResult]]:
    """100 seeded (pattern, tokenizer) pairs with their promoted automata."""
    global _BPE
    if _BPE is None:
        rng = random.Random(BPE_SEED)
        out = []
        while len(out) < INSTANCES:
            chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 3))))
            tok = random_merge_tokenizer(rng, chars, rng.randint(0, 10))
            machine = random_pattern_dfa(
                rng, tok.vocab.table, max_states=8, max_strings=120, max_chars=12)
            if machine is None:
                continue
            out.append((machine, tok, promote_bpe(machine, tok)))
        _BPE = out
    return _BPE
