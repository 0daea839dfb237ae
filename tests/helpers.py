"""Brute-force oracles and seeded instance generators shared across the tests.

Everything random is driven by an explicit random.Random so failures are
reproducible.  Generators use rejection sampling with hard size caps to keep
the enumeration-based oracles tractable; a draw that comes out empty or too
large is simply redrawn.
"""

from __future__ import annotations

import json
import random
from collections import deque

from tokfst import (
    END_OF_SEQUENCE,
    EPSILON,
    FAILURE,
    BpeTokenizer,
    Dfa,
    EnumerationError,
    Fst,
    IncompleteGenerationError,
    PromotionResult,
    SymbolTable,
    Transition,
    Vocabulary,
    allowed_tokens,
    build_lexicon_transducer,
    build_merge_gadget,
    canonical_form,
    compose,
    constrained_decode,
    constraint_advance,
    constraint_begin,
    enumerate_language,
    epsilon_remove,
    maxmatch_tokenize,
    minimize,
    project_output,
    promote_agnostic,
    promote_bpe,
    trim,
)
from tokfst.fst import _discover, _expansion, _failure_free, _output_subsets
from tokfst.lexicon import TokenTrie, build_token_trie
from tokfst.symbols import RESERVED

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


def lexicon_promotion(a: Dfa, v: Vocabulary) -> tuple[Dfa, bool]:
    """The paper's agnostic construction: the pattern composed with the
    lexicon transducer, its output side walked by one subset construction,
    then minimized. Returns the machine and whether the walk merged no
    targets."""
    walked, deterministic = _output_subsets(compose(a, build_lexicon_transducer(v)))
    return minimize(walked), deterministic


def trie_spellings(trie: TokenTrie, table: SymbolTable) -> list[str]:
    """Each token trie node's text, by node id."""
    spelled = [""] * len(trie)
    for node, (_, children) in enumerate(trie):
        for ch, child in children.items():
            spelled[child] = spelled[node] + table.token(ch)
    return spelled


def greedy_failure_links(v: Vocabulary) -> list[tuple[int | None, tuple[int, ...]]]:
    """Each token trie node's (failure target, pops) by the greedy
    definition: the pops are `maxmatch_tokenize` of the node's text, cut
    after the first token whose remainder is a trie prefix, and the target
    is that remainder's node. The root fails nowhere and pops nothing."""
    table = v.table
    spelled = trie_spellings(build_token_trie(v), table)
    ids = {text: node for node, text in enumerate(spelled)}
    links: list[tuple[int | None, tuple[int, ...]]] = [(None, ())]
    for text in spelled[1:]:
        pops, rest = maxmatch_tokenize(text, v), text
        for n, token in enumerate(pops, 1):
            rest = rest[len(table.token(token)):]
            if rest in ids:
                break
        links.append((ids[rest], pops[:n]))
    return links


def gadget_stages(a: Dfa, tok: BpeTokenizer) -> tuple[Dfa, list[tuple[str, bool, bool]]]:
    """The paper's construction run one merge at a time: each merge's gadget,
    over the labels of the current minimal machine, composed with it, the
    output side walked by one subset construction, then minimized. Returns
    the last machine and, per merge, its label, whether it changed the
    machine and whether the subset construction merged no targets."""
    table = tok.vocab.table
    current = canonical_form(minimize(a))
    stages = []
    for n, pair in enumerate(tok.merges, 1):
        gadget = build_merge_gadget(pair, current.input_alphabet, table)
        walked, deterministic = _output_subsets(compose(current, gadget.fst))
        after = minimize(walked)
        label = f"merge {n} ({table.token(pair[0])}+{table.token(pair[1])})"
        stages.append((label, after != current, deterministic))
        current = after
    return current, stages


def minimal_state_count(d: Dfa) -> int:
    """The state count of the minimal trim acceptor of `d`'s language, by
    table filling. Over the states reachable from the start plus a rejecting
    sink that completes the transition function, every pair one of whose
    states is final is distinguishable, and so is every pair some symbol
    leads to a distinguishable pair. The classes of the pairs left are
    counted without the sink's, whose states accept nothing; an empty
    language still keeps its start state."""
    delta = {q: {inp: dst for inp, _, dst in arcs} for q, arcs in d.arcs.items()}
    symbols = sorted({inp for moves in delta.values() for inp in moves})
    sink = -1
    states = [d.start]
    for q in states:  # grows as the walk goes
        for r in delta.get(q, {}).values():
            if r not in states:
                states.append(r)
    states.append(sink)

    def step(q: int, sym: int) -> int:
        return delta.get(q, {}).get(sym, sink)

    marked = {frozenset((p, q)) for p in states for q in states
              if (p in d.finals) != (q in d.finals)}
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(states):
            for q in states[i + 1:]:
                pair = frozenset((p, q))
                if pair not in marked and any(
                        frozenset((step(p, s), step(q, s))) in marked for s in symbols):
                    marked.add(pair)
                    changed = True
    classes: list[int] = []
    for q in states:
        if all(frozenset((q, r)) in marked for r in classes):
            classes.append(q)
    live = [q for q in classes if q != sink and frozenset((q, sink)) in marked]
    return max(1, len(live))


def random_partial_dfa(rng: random.Random, table: SymbolTable, max_states: int) -> Dfa:
    """A DFA with a partial transition function and random finals, plus a
    twin of one state, which has its arcs and finality, a dead state
    (non-final, arcs to itself only) and an unreachable state that may be
    final. The others may enter the twin and the dead state; the
    unreachable state enters the others."""
    syms = sorted(table.token_ids())
    n = rng.randint(1, max_states)
    twin, dead, unreachable = n, n + 1, n + 2
    density = rng.uniform(0.2, 0.8)
    arcs = [Transition(q, s, s, rng.randrange(n + 2))
            for q in range(n) for s in syms if rng.random() < density]
    original = rng.randrange(n)
    arcs += [Transition(twin, s, s, dst) for q, s, _, dst in arcs if q == original]
    arcs += [Transition(dead, s, s, dead) for s in syms if rng.random() < 0.5]
    arcs += [Transition(unreachable, s, s, rng.randrange(n)) for s in syms
             if rng.random() < 0.5]
    finals = {q for q in (*range(n), unreachable) if rng.random() < 0.4}
    if original in finals:
        finals.add(twin)
    return Dfa(table, n + 3, rng.randrange(n), frozenset(finals), arcs)


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


# characters a writer must escape or pass through: quotes, backslashes,
# control characters, the DOT label separator and non-ASCII text
ODD_CHARS = ("a", "b", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", ":", " ",
             "é", "ε", "φ", "中", "😀", "\u2028")


def random_file_machine(rng: random.Random) -> Fst:
    """A machine for the file-writer oracles: up to 6 tokens of `ODD_CHARS`,
    possibly none, then either a `Dfa` or an `Fst` whose arcs may carry ε on
    either side and φ on input, at most one φ per state. Finals may be empty;
    one draw in ten has no arcs."""
    tokens = dict.fromkeys("".join(rng.choices(ODD_CHARS, k=rng.randint(1, 3)))
                           for _ in range(rng.randint(0, 6)))
    table = SymbolTable(tokens)
    syms = sorted(table.token_ids())
    n = rng.randint(1, 6)
    start = rng.randrange(n)
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    roll = rng.random()
    if roll < 0.1:
        return Fst(table, n, start, finals, ())
    if roll < 0.55:
        arcs = [Transition(q, s, s, rng.randrange(n))
                for q in range(n) for s in syms if rng.random() < 0.5]
        return Dfa(table, n, start, finals, arcs)
    arcs, failing = [], set()
    for _ in range(rng.randint(1, 3 * n)):
        q = rng.randrange(n)
        inp = rng.choice([EPSILON, FAILURE, *syms])
        if inp == FAILURE:
            if q in failing:
                continue
            failing.add(q)
        arcs.append(Transition(q, inp, rng.choice([EPSILON, *syms]), rng.randrange(n)))
    return Fst(table, n, start, finals, arcs)


def checked_arcs(deterministic: bool, table: SymbolTable, num_states: int, rows) -> dict:
    """The arcs `Fst(...)` (or `Dfa(...)`) stores for these rows, or the
    ValueError it raises: every row walks the ordered checks and each
    state's sorted arcs are compared pair by pair. The constructor must give
    the same arcs, or the same message, from its one test per row."""
    end = RESERVED + len(table)
    by_src: dict[int, list[tuple[int, int, int]]] = {}
    try:
        rows = iter(rows)
    except TypeError:
        raise ValueError(f"transitions {rows!r} are not a collection of rows") from None
    for row in rows:
        try:
            src, inp, out, dst = row
        except (TypeError, ValueError):
            raise ValueError(f"transition {row!r} is not a (src, inp, out, dst) row") from None
        if not type(src) is type(inp) is type(out) is type(dst) is int:
            problem = "has a field that is not an integer"
        elif not (0 <= src < num_states and 0 <= dst < num_states):
            problem = "references a missing state"
        elif inp != EPSILON and inp != FAILURE and not RESERVED <= inp < end:
            problem = "has an unknown input symbol"
        elif out == FAILURE or (out != EPSILON and not RESERVED <= out < end):
            problem = "has an invalid output symbol"
        elif deterministic and inp in (EPSILON, FAILURE):
            problem = "is not allowed in a deterministic acceptor"
        elif deterministic and inp != out:
            problem = "is not an acceptor arc"
        else:
            by_src.setdefault(src, []).append((inp, out, dst))
            continue
        raise ValueError(f"transition {Transition(src, inp, out, dst)} {problem}")
    arcs = {q: tuple(sorted(q_arcs)) for q, q_arcs in by_src.items()}
    for q, q_arcs in arcs.items():
        for (inp, _, _), (nxt, _, _) in zip(q_arcs, q_arcs[1:]):
            if inp == nxt == FAILURE:
                raise ValueError(f"state {q} has more than one failure arc")
            if inp == nxt and deterministic:
                raise ValueError(f"state {q} has two arcs on symbol {inp}")
    return arcs


def saved_text(m: Fst) -> str:
    """The interchange file as `json.dumps` lays it out: the text that
    `save_automaton` must write, byte for byte."""
    doc = {
        "symbols": list(m.table.tokens),
        "num_states": m.num_states,
        "start": m.start,
        "finals": sorted(m.finals),
        "transitions": [[q, *arc] for q in sorted(m.arcs) for arc in m.arcs[q]],
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def dot_text(m: Fst) -> str:
    """DOT with each arc's label rendered and escaped on its own: the text
    that `export_dot` must return."""
    table = m.table
    lines = [
        "digraph fst {",
        "  rankdir=LR;",
        '  hidden [shape=point, style=invis];',
    ]
    shown = {m.start, *m.finals, *m.arcs}
    shown.update(dst for arcs in m.arcs.values() for _, _, dst in arcs)
    for q in sorted(shown):
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {m.start};")
    for q in sorted(m.arcs):
        for inp, out, dst in m.arcs[q]:
            label = f"{table.display(inp)}:{table.display(out)}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {q} -> {dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def identifiers(seed: int, n: int) -> list[str]:
    """`n` snake_case identifiers of one to three parts, some with a digit."""
    rng = random.Random(seed)
    parts = ("get set user name id data file path max min count item list key "
             "value node tmp x y").split()
    out = []
    for _ in range(n):
        ident = "_".join(rng.choice(parts) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.2:
            ident += str(rng.randrange(10))
        out.append(ident)
    return out


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


def merges_over(vocab: Vocabulary) -> BpeTokenizer | None:
    """A tokenizer over exactly `vocab`: its merges make the longer tokens in
    order of length, each from its first split into tokens made before it.
    None when some token has no such split."""
    made = {vocab.table.token(i) for i in vocab.table.char_ids()}
    pairs = []
    for token in sorted((t for t in vocab.table.tokens if len(t) > 1), key=len):
        split = next(((token[:i], token[i:]) for i in range(1, len(token))
                      if token[:i] in made and token[i:] in made), None)
        if split is None:
            return None
        pairs.append(split)
        made.add(token)
    return BpeTokenizer.from_token_pairs(vocab, pairs)


def apply_merge(seq: tuple[int, ...], merge: tuple[int, int], table: SymbolTable) -> tuple[int, ...]:
    """Replace every adjacent occurrence of the pair in one left-to-right pass.

    After a replacement scanning resumes after the new token, so `(a, a)`
    applied to `a a a` gives `aa a`.
    """
    x, y = merge
    merged = table.id(table.token(x) + table.token(y))
    out: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and (seq[i], seq[i + 1]) == (x, y):
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def merge_list_pass(tok: BpeTokenizer, text: str) -> tuple[int, ...]:
    """The merge list applied in order, one `apply_merge` pass per merge:
    the definition that `tokenize` computes by rank."""
    seq = tok.vocab.encode_chars(text)
    for merge in tok.merges:
        seq = apply_merge(seq, merge, tok.vocab.table)
    return seq


def tokenize_incremental(tok: BpeTokenizer, text: str) -> tuple[int, ...]:
    """Repeatedly apply the earliest-listed merge present anywhere in the
    sequence. Agrees with `tok.tokenize` whenever the merge list is valid,
    because later merges never create operand pairs of earlier ones."""
    rank = {m: n for n, m in enumerate(tok.merges)}
    seq = tok.vocab.encode_chars(text)
    while True:
        present = [rank[p] for p in zip(seq, seq[1:]) if p in rank]
        if not present:
            return seq
        seq = apply_merge(seq, tok.merges[min(present)], tok.vocab.table)


def count_segmentations(text: str, vocab: Vocabulary) -> int:
    """How many distinct token sequences spell out `text`."""
    n = len(text)
    ways = [0] * (n + 1)
    ways[n] = 1
    table = vocab.table
    for i in range(n - 1, -1, -1):
        total = 0
        for length in range(1, min(vocab.max_token_len, n - i) + 1):
            if text[i : i + length] in table:
                total += ways[i + length]
        ways[i] = total
    return ways[0]


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
# the closure walk `accepts` and `enumerate_language` replaced


def random_silent_machine(rng: random.Random, table: SymbolTable, max_states: int = 6,
                          max_arcs: int = 10) -> Fst:
    """A machine for the closure oracles: an acceptor or a transducer whose
    arcs may carry ε on either side, with at most one φ per state. Start
    and finals are random; an acceptor's φ arcs emit ε."""
    syms = sorted(table.token_ids())
    n = rng.randint(1, max_states)
    acceptor = rng.random() < 0.5
    arcs, failing = [], set()
    for _ in range(rng.randint(0, max_arcs)):
        q = rng.randrange(n)
        inp = FAILURE if rng.random() < 0.1 else rng.choice([EPSILON, *syms])
        if inp == FAILURE:
            if q in failing:
                continue
            failing.add(q)
            out = EPSILON if acceptor else rng.choice([EPSILON, *syms])
        else:
            out = inp if acceptor else rng.choice([EPSILON, *syms])
        arcs.append(Transition(q, inp, out, rng.randrange(n)))
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Fst(table, n, rng.randrange(n), finals, arcs)


def _closed(a: Fst, roots) -> frozenset[int]:
    """The roots and every state their ε-input arcs reach."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for inp, _, dst in a.arcs.get(stack.pop(), ()):
            if inp == EPSILON and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return frozenset(seen)


def _stepped(a: Fst, states: frozenset[int], sym: int) -> frozenset[int]:
    return _closed(a, [dst for q in states for inp, _, dst in a.arcs.get(q, ()) if inp == sym])


def reference_accepts(a: Fst, seq) -> bool:
    """`accepts` over the input side as a closed set of states, stepped one
    symbol at a time; φ arcs are first resolved by `compose`."""
    a = _failure_free(a)
    states = _closed(a, [a.start])
    for sym in seq:
        states = _stepped(a, states, sym)
        if not states:
            return False
    return not a.finals.isdisjoint(states)


def reference_enumerate(a: Fst, max_len: int, max_paths: int = 1_000_000) -> set[tuple[int, ...]]:
    """`enumerate_language` over closed sets of states, breadth first with
    sorted symbols, raising the same `EnumerationError` past `max_paths`."""
    a = _failure_free(a)
    results: set[tuple[int, ...]] = set()
    queue = deque([((), _closed(a, [a.start]))])
    explored = 0
    while queue:
        seq, states = queue.popleft()
        explored += 1
        if explored > max_paths:
            raise EnumerationError(f"enumeration exceeded {max_paths} paths", len(results))
        if not a.finals.isdisjoint(states):
            results.add(seq)
        if len(seq) == max_len:
            continue
        candidates = {inp for q in states for inp, _, _ in a.arcs.get(q, ()) if inp != EPSILON}
        for sym in sorted(candidates):
            nxt = _stepped(a, states, sym)
            if nxt:
                queue.append((seq + (sym,), nxt))
    return results


# ---------------------------------------------------------------------------
# the composition walk whose keys carried string tags


def reference_compose(left: Fst, right: Fst) -> Fst:
    """`compose` as it was when its keys were tagged: ("s", l, r) for a
    plain pair and ("f", l, r, blocked) partway down a failure chain, the
    left target spliced in by slicing the key. Keys are discovered in the
    same order, so the result must equal `compose`'s, numbering included."""
    r_moves = right._moves
    emitting = _expansion(left, 1)
    ahead: dict[int, tuple[set[int], bool]] = {}

    def chain_viable(l: int, r: int, blocked: frozenset[int]) -> bool:
        if l not in ahead:
            can_end, moves = emitting((l,))
            ahead[l] = {label for label, _, _ in moves}, can_end
        can_emit, can_end = ahead[l]
        seen = set()
        while r not in seen:
            seen.add(r)
            symbols = r_moves.get(r, {}).keys() - {EPSILON, FAILURE}
            if can_emit & (symbols - blocked):
                return True
            if can_end and r in right.finals:
                return True
            if FAILURE not in r_moves.get(r, {}):
                return False
            blocked = blocked | symbols
            r = r_moves[r][FAILURE][0][1]
        return False

    def expand(key: tuple):
        moves = []
        here = r_moves.get(key[2], {})
        if key[0] == "s":
            _, l, r = key
            blocked: frozenset[int] = frozenset()
            for out, dst in here.get(EPSILON, ()):
                moves.append((EPSILON, out, ("s", l, dst)))
        else:
            _, l, r, blocked = key
        for inp, mid, l_dst in left.arcs.get(l, ()):
            if mid == EPSILON:
                moves.append((inp, EPSILON, (*key[:1], l_dst, *key[2:])))
            elif mid in here and mid not in blocked:
                for out, r_dst in here[mid]:
                    moves.append((inp, out, ("s", l_dst, r_dst)))
        for out, r_dst in here.get(FAILURE, ()):
            walked = frozenset(blocked | (here.keys() - {EPSILON, FAILURE}))
            if chain_viable(l, r_dst, walked):
                moves.append((EPSILON, out, ("f", l, r_dst, walked)))
        return l in left.finals and r in right.finals, dict.fromkeys(moves)

    return _discover(Fst, left.table, ("s", left.start, right.start), expand)


# ---------------------------------------------------------------------------
# the decoding loop `constrained_decode` replaced


def reference_decode(lm, d: Dfa, max_steps: int = 64, *,
                     retokenize_with=None) -> tuple[tuple[int, ...], bool]:
    """Greedy decoding through the public mask API, one `ConstraintState`,
    sorted mask and linear advance per step, calling the retokenizer after
    every step. Returns the tokens and whether decoding completed: on
    `IncompleteGenerationError`, its prefix and False."""
    state = constraint_begin(d)
    out: list[int] = []
    for _ in range(max_steps):
        allowed = sorted(allowed_tokens(state))
        if state.terminable and not allowed:
            return tuple(out), True
        scores = [lm.score(out, t) for t in allowed]
        top = max(scores)
        if state.terminable and lm.score(out, END_OF_SEQUENCE) > top:
            return tuple(out), True
        best = allowed[scores.index(top)]  # the first of equal maxima
        out.append(best)
        state = constraint_advance(state, best)
        if retokenize_with is not None:
            canonical = tuple(retokenize_with("".join(map(d.table.token, out))))
            if canonical != tuple(out):
                state = constraint_begin(d)
                for token in canonical:
                    state = constraint_advance(state, token)
                out = list(canonical)
    return tuple(out), state.terminable


def decode_outcome(lm, d: Dfa, max_steps: int, retokenize_with=None):
    """`constrained_decode`'s tokens and whether it completed, as
    `reference_decode` returns them."""
    try:
        return constrained_decode(lm, d, max_steps, retokenize_with=retokenize_with), True
    except IncompleteGenerationError as e:
        return e.prefix, False


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
