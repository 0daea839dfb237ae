"""Pattern promotion: lift a character-level pattern automaton to one over
subword tokens.

Three pipelines share one per-stage core (compose, project to the output
side, strip epsilons, minimize):

* agnostic: compose with the lexicon transducer; accepts every segmentation
  of every matching string. The intermediate is deterministic by
  construction, so no subset construction runs.
* maxmatch: compose with the greedy longest-match transducer; accepts only
  the longest-match segmentation of each matching string.
* bpe: compose with one merge gadget per merge, re-minimizing between
  stages; accepts only the byte-pair segmentation of each matching string.

Stages record whether the machine was already deterministic before
minimization; when it is not, a subset construction is inserted so the
result is correct either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .errors import AlphabetError, EnumerationError
from .fst import (
    Dfa,
    Fst,
    compose,
    determinize,
    enumerate_language,
    epsilon_remove,
    is_deterministic,
    minimize,
    project_output,
    trim,
)
from .lexicon import build_failure_trie, build_lexicon_transducer, build_maxmatch_transducer, build_merge_gadget
from .tokenizers import BpeTokenizer, Vocabulary, iter_segmentations, maxmatch_tokenize


@dataclass(frozen=True)
class StageStats:
    label: str
    states: int  # after minimization
    transitions: int
    seconds: float
    deterministic_before_minimize: bool


@dataclass(frozen=True)
class PromotionResult:
    dfa: Dfa
    mode: str  # agnostic | maxmatch | bpe
    stats: tuple[StageStats, ...]


def promotion_stats(r: PromotionResult) -> tuple[int, ...]:
    """Minimized state count after each stage."""
    return tuple(s.states for s in r.stats)


def _checked_pattern(a: Dfa, v: Vocabulary) -> Dfa:
    if a.table != v.table:
        raise AlphabetError("pattern automaton and vocabulary use different symbol tables")
    chars = v.table.char_ids()
    for t in a.transitions:
        if t.inp not in chars:
            raise AlphabetError(
                f"pattern automaton uses multi-character token "
                f"{v.table.token(t.inp)!r}; promote from characters only"
            )
    if not isinstance(a, Dfa):
        a = Dfa.from_fst(a)
    return trim(a)


def _stage(label: str, machine: Fst) -> tuple[Dfa, StageStats]:
    started = time.perf_counter()
    acc = epsilon_remove(project_output(machine))
    deterministic = is_deterministic(acc)
    if deterministic:
        d = Dfa._trusted(acc.table, acc.num_states, acc.start, acc.finals, acc.transitions)
    else:
        d = determinize(acc)
    d = minimize(d)
    stats = StageStats(
        label, d.num_states, len(d.transitions), time.perf_counter() - started, deterministic
    )
    return d, stats


def _identity_stage(a: Dfa, label: str) -> tuple[Dfa, StageStats]:
    started = time.perf_counter()
    d = minimize(a)
    return d, StageStats(
        label, d.num_states, len(d.transitions), time.perf_counter() - started, True
    )


def promote_agnostic(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting every segmentation of every match."""
    a = _checked_pattern(a, v)
    if not a.finals:
        d, st = _identity_stage(a, "empty")
        return PromotionResult(d, "agnostic", (st,))
    d, st = _stage("lexicon", compose(a, build_lexicon_transducer(v)))
    return PromotionResult(d, "agnostic", (st,))


def promote_maxmatch(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting only longest-match segmentations."""
    a = _checked_pattern(a, v)
    if not a.finals:
        d, st = _identity_stage(a, "empty")
        return PromotionResult(d, "maxmatch", (st,))
    machine = build_maxmatch_transducer(build_failure_trie(v))
    d, st = _stage("maxmatch", compose(a, machine))
    return PromotionResult(d, "maxmatch", (st,))


def promote_bpe(
    a: Dfa,
    t: BpeTokenizer,
    *,
    stage_hook: Callable[[str, Dfa], None] | None = None,
) -> PromotionResult:
    """Token-level automaton accepting only byte-pair segmentations.

    One gadget per merge, applied in priority order over the token alphabet
    visible at that stage; the machine is re-minimized between stages. The
    optional stage_hook receives every intermediate result.
    """
    a = _checked_pattern(a, t.vocab)
    table = t.vocab.table
    if not a.finals:
        d, st = _identity_stage(a, "empty")
        return PromotionResult(d, "bpe", (st,))
    if not t.merges:
        d, st = _identity_stage(a, "identity")
        return PromotionResult(d, "bpe", (st,))

    current = minimize(a)
    alphabet = set(table.char_ids())
    stats: list[StageStats] = []
    for n, (x, y) in enumerate(t.merges, 1):
        gadget = build_merge_gadget((x, y), frozenset(alphabet), table)
        label = f"merge {n} ({table.token(x)}+{table.token(y)})"
        current, st = _stage(label, compose(current, gadget.fst))
        stats.append(st)
        alphabet.add(gadget.result)
        if stage_hook is not None:
            stage_hook(label, current)
    return PromotionResult(current, "bpe", tuple(stats))


def promote_bpe_chained(a: Dfa, t: BpeTokenizer) -> Dfa:
    """The one-shot composition chain: all gadgets composed first, one
    projection and cleanup at the end. Exponentially worse than promote_bpe
    on adversarial inputs; kept as a cross-check of the staged schedule.
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
    return _stage("chained", machine)[0]


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
        for arc in d.arcs_from(state):
            cost = used + len(table.token(arc.inp))
            if cost <= max_chars:
                stack.append((arc.dst, cost, seq + (arc.inp,)))
    return out


def expected_promotion(
    a: Dfa, v: Vocabulary, mode: str, max_chars: int, tokenizer: BpeTokenizer | None = None
) -> set[tuple[int, ...]]:
    """The reference answer, computed without any transducer machinery."""
    strings = {
        v.decode(seq) for seq in enumerate_language(a, max_chars)
    }
    expected: set[tuple[int, ...]] = set()
    for w in strings:
        if mode == "agnostic":
            expected.update(iter_segmentations(w, v))
        elif mode == "maxmatch":
            expected.add(maxmatch_tokenize(w, v))
        elif mode == "bpe":
            assert tokenizer is not None
            expected.add(tokenizer.tokenize(w))
        else:
            raise ValueError(f"unknown mode {mode!r}")
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
    if mode == "agnostic":
        result = promote_agnostic(a, v)
    elif mode == "maxmatch":
        result = promote_maxmatch(a, v)
    elif mode == "bpe":
        if tokenizer is None:
            raise ValueError("bpe mode needs a tokenizer")
        result = promote_bpe(a, tokenizer)
    else:
        raise ValueError(f"unknown mode {mode!r}")

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
