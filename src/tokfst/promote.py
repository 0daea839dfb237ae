"""Pattern promotion: lift a character-level pattern automaton to one over
subword tokens.

Each mode is one stage that builds the token-level machine as a minimal
DFA; results are in canonical form.

* agnostic: compose with the lexicon transducer, then one subset
  construction over the output side of the composition that also passes
  over arcs emitting nothing; accepts every segmentation of every matching
  string.
* maxmatch: the same with the greedy longest-match transducer; accepts only
  the longest-match segmentation of each matching string.
* bpe: the pattern's token steps (the token trie walked from each pattern
  state) times a bigram filter: one walk over (pattern state, class of the
  last token's forbidden followers) keys that keeps only canonical tokens
  and allowed pairs, then `minimize`. Accepts only the byte-pair
  segmentation of each matching string. `promote_bpe_chained` is the
  paper's construction, one merge gadget composed per merge, kept as its
  cross-check.

Lexicon stages and the bigram walk are deterministic by construction, so
no subset construction merges targets; maxmatch stages sometimes need it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import AlphabetError, ConfigError, EnumerationError
from .fst import (
    Dfa,
    Fst,
    _discover,
    _output_subsets,
    compose,
    determinize,
    enumerate_language,
    epsilon_remove,
    minimize,
    project_output,
    trim,
)
from .lexicon import (
    build_failure_trie,
    build_lexicon_transducer,
    build_maxmatch_transducer,
    build_merge_gadget,
    build_token_trie,
    token_steps,
)
from .tokenizers import BpeTokenizer, Vocabulary, iter_segmentations, maxmatch_tokenize


class StageStats(NamedTuple):
    label: str
    states: int  # after minimization
    transitions: int
    seconds: float
    deterministic_before_minimize: bool  # False: the subset construction merged targets


@dataclass(frozen=True)
class PromotionResult:
    dfa: Dfa
    mode: str  # agnostic | maxmatch | bpe
    stats: tuple[StageStats, ...]


def _checked_pattern(a: Dfa, v: Vocabulary) -> Dfa:
    if a.table != v.table:
        raise AlphabetError("pattern automaton and vocabulary use different symbol tables")
    foreign = {inp for arcs in a.arcs.values() for inp, _, _ in arcs} - v.table.char_ids()
    if foreign:
        raise AlphabetError(
            f"pattern automaton uses multi-character token "
            f"{v.table.token(min(foreign))!r}; promote from characters only"
        )
    if not isinstance(a, Dfa):
        a = Dfa.from_fst(a)
    return trim(a)


def _vocab_machine(v: Vocabulary, label: str, build: Callable[[], object]):
    """The vocabulary's machine `label`: built by `build()` the first time
    a promotion needs it, then kept by the vocabulary, as it depends only
    on the table."""
    machine = v._machines.get(label)
    if machine is None:
        machine = v._machines[label] = build()
    return machine


def _composed(
    a: Dfa, v: Vocabulary, mode: str, label: str, build: Callable[[], Fst]
) -> PromotionResult:
    """One stage: check the pattern, compose with the vocabulary's `label`
    transducer, walk the output side, minimize and record, all inside the
    clock; on an empty pattern, "empty". The vocabulary keeps the
    transducer (`_vocab_machine`), with the index `compose` makes of it."""
    started = time.perf_counter()
    current = _checked_pattern(a, v)
    if current.finals:
        walked, deterministic = _output_subsets(compose(current, _vocab_machine(v, label, build)))
    else:
        label = "empty"
        walked, deterministic = _output_subsets(current)
    d = minimize(walked)
    arcs = sum(map(len, d.arcs.values()))
    st = StageStats(label, d.num_states, arcs, time.perf_counter() - started, deterministic)
    return PromotionResult(d, mode, (st,))


def promote_agnostic(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting every segmentation of every match."""
    return _composed(a, v, "agnostic", "lexicon", lambda: build_lexicon_transducer(v))


def promote_maxmatch(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting only longest-match segmentations."""
    build = lambda: build_maxmatch_transducer(build_failure_trie(v))
    return _composed(a, v, "maxmatch", "maxmatch", build)


def promote_bpe(
    a: Dfa,
    t: BpeTokenizer,
    *,
    stage_hook: Callable[[str, Dfa], None] | None = None,
) -> PromotionResult:
    """Token-level automaton accepting only byte-pair segmentations.

    A token sequence is the tokenization of its text iff each token is
    canonical and each adjacent pair is allowed (`BigramTables`). So the
    result is the pattern read a token at a time, with the last token's
    class of forbidden followers carried along: one walk over (pattern
    state, class) keys, starting in class 0, which forbids nothing, then
    `minimize`. A key steps on token t to (δ*(q, t), class of t) when t is
    canonical and not forbidden; it is final iff its pattern state is. The
    steps are deterministic, so no subset construction runs.

    One stage, labelled "bigram" ("empty" on an empty pattern), whose clock
    covers the whole call but the one stage_hook call after it.
    """
    started = time.perf_counter()
    current = _checked_pattern(a, t.vocab)
    label = "bigram" if current.finals else "empty"
    if current.finals:
        current = minimize(_bigram_product(current, t))
    arcs = sum(map(len, current.arcs.values()))
    st = StageStats(label, current.num_states, arcs, time.perf_counter() - started, True)
    if stage_hook is not None:
        stage_hook(label, current)
    return PromotionResult(current, "bpe", (st,))


def _bigram_product(d: Dfa, t: BpeTokenizer) -> Dfa:
    canonical, classes, forbidden = t.bigram_tables
    trie = _vocab_machine(t.vocab, "trie", lambda: build_token_trie(t.vocab))
    moves = [[(tok, tok, (dst, classes[tok])) for tok, dst in q_steps if tok in canonical]
             for q_steps in token_steps(trie, d)]
    finals = d.finals

    def expand(key: tuple[int, int]) -> tuple[bool, list[tuple[int, int, tuple[int, int]]]]:
        q, c = key
        banned = forbidden[c]
        return q in finals, [m for m in moves[q] if m[0] not in banned] if banned else moves[q]

    return _discover(Dfa, d.table, (d.start, 0), expand)


def promote_bpe_chained(a: Dfa, t: BpeTokenizer) -> Dfa:
    """The one-shot composition chain: all gadgets composed first, then
    projection, epsilon removal, determinization and minimization, one
    operator each: the paper's construction. Exponentially worse than
    promote_bpe on adversarial inputs; kept as a cross-check of its walk.
    """
    a = _checked_pattern(a, t.vocab)
    table = t.vocab.table
    if not a.finals or not t.merges:
        return minimize(a)
    machine: Fst = a
    alphabet = set(table.char_ids())
    for pair in t.merges:
        gadget = build_merge_gadget(pair, frozenset(alphabet), table)
        machine = compose(machine, gadget.fst)
        alphabet.add(gadget.result)
    return minimize(determinize(epsilon_remove(project_output(machine))))


# ---------------------------------------------------------------------------
# oracle comparison

# The oracle side enumerates the pattern's strings and tokenizes each one;
# the promoted side enumerates token sequences. Bounding both by the same
# character count (token sequences by the length of their concatenation)
# makes the two sets directly comparable.


def language_by_chars(
    d: Dfa, v: Vocabulary, max_chars: int, max_paths: int = 1_000_000
) -> set[tuple[int, ...]]:
    """Accepted token sequences whose concatenation has at most max_chars
    characters.

    Walks the machine directly with the character budget so cyclic languages
    stay tractable: every token costs at least one character, which bounds
    the depth. Paths in a deterministic machine never rejoin, so no visited
    set is needed.
    """
    if max_chars < 0:
        raise ConfigError(f"max_chars must not be negative, got {max_chars}")
    table = v.table
    out: set[tuple[int, ...]] = set()
    stack: list[tuple[int, int, tuple[int, ...]]] = [(d.start, 0, ())]
    explored = 0
    while stack:
        state, used, seq = stack.pop()
        explored += 1
        if explored > max_paths:
            raise EnumerationError(
                f"enumeration exceeded {max_paths} paths"
                f" ({len(out)} sequences found so far)",
                partial_count=len(out),
            )
        if state in d.finals:
            out.add(seq)
        for inp, _, dst in d.arcs.get(state, ()):
            cost = used + len(table.token(inp))
            if cost <= max_chars:
                stack.append((dst, cost, seq + (inp,)))
    return out


def _check_oracle_mode(mode: str, tokenizer: BpeTokenizer | None) -> None:
    if mode not in ("agnostic", "maxmatch", "bpe"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "bpe" and tokenizer is None:
        raise ConfigError("bpe mode needs a tokenizer")


def expected_promotion(
    a: Dfa, v: Vocabulary, mode: str, max_chars: int, tokenizer: BpeTokenizer | None = None
) -> set[tuple[int, ...]]:
    """The reference answer, computed without any transducer machinery."""
    _check_oracle_mode(mode, tokenizer)
    strings = {
        v.decode(seq) for seq in enumerate_language(a, max_chars)
    }
    expected: set[tuple[int, ...]] = set()
    for w in strings:
        if mode == "agnostic":
            expected.update(iter_segmentations(w, v))
        elif mode == "maxmatch":
            expected.add(maxmatch_tokenize(w, v))
        else:
            expected.add(tokenizer.tokenize(w))
    return expected


def check_promotion(
    a: Dfa,
    v: Vocabulary,
    mode: str,
    max_chars: int,
    tokenizer: BpeTokenizer | None = None,
) -> tuple[str, tuple[int, ...]] | None:
    """Compare a promotion against the tokenizer oracles, up to a character
    bound. Returns None when the languages agree, otherwise the first
    counterexample as ("missing" | "unexpected", token sequence).
    """
    _check_oracle_mode(mode, tokenizer)
    if mode == "agnostic":
        result = promote_agnostic(a, v)
    elif mode == "maxmatch":
        result = promote_maxmatch(a, v)
    else:
        result = promote_bpe(a, tokenizer)

    actual = language_by_chars(result.dfa, v, max_chars)
    expected = expected_promotion(a, v, mode, max_chars, tokenizer)
    if actual == expected:
        return None
    table = v.table
    missing = sorted(expected - actual, key=lambda s: (len(s), [table.token(i) for i in s]))
    extra = sorted(actual - expected, key=lambda s: (len(s), [table.token(i) for i in s]))
    if missing:
        return ("missing", missing[0])
    return ("unexpected", extra[0])
