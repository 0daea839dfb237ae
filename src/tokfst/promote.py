"""Pattern promotion: lift a character-level pattern automaton to one over
subword tokens.

Each stage builds the output side of the current machine under a
transducer as a minimal DFA; results are in canonical form. Agnostic and
maxmatch promotion are one stage each, a composition then `minimize`; BPE
promotion is one stage per merge that changes the machine.

* agnostic: compose with the lexicon transducer, then one subset
  construction over the output side of the composition that also passes
  over arcs emitting nothing; accepts every segmentation of every matching
  string.
* maxmatch: the same with the greedy longest-match transducer; accepts only
  the longest-match segmentation of each matching string.
* bpe: the pattern is minimized once, then the merges run in priority
  order, one stage per merge whose pair occurs in the current machine,
  through `merge_stage`, one walk that builds the minimal DFA that
  composing the merge gadget and minimizing would give. Accepts only the
  byte-pair segmentation of each matching string.

Lexicon and merge stages are deterministic by construction, so their subset
construction never merges targets; maxmatch stages sometimes need it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import AlphabetError, ConfigError, EnumerationError
from .fst import (
    Dfa,
    Fst,
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
    merge_stage,
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


def _composed(
    a: Dfa, v: Vocabulary, mode: str, label: str, build: Callable[[], Fst]
) -> PromotionResult:
    """One stage: check the pattern, compose with the vocabulary's `label`
    transducer, walk the output side, minimize and record, all inside the
    clock; on an empty pattern, "empty". The transducer depends only on the
    vocabulary, so `build()` runs the first time a promotion needs it and
    the vocabulary keeps the result (and the index `compose` makes of it)."""
    started = time.perf_counter()
    current = _checked_pattern(a, v)
    if current.finals:
        transducer = v._machines.get(label)
        if transducer is None:
            transducer = v._machines[label] = build()
        walked, deterministic = _output_subsets(compose(current, transducer))
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

    The pattern is settled in canonical minimal form, then the merges run
    in priority order. A merge acts only when its pair occurs in the
    current machine: some arc on x enters a state with an arc on y. Every
    machine here is trim, so that is exactly when the merge changes the
    language: it rewrites an accepted sequence holding the pair into one
    holding x+y, which none holds yet. `merge_stage` then builds, in one
    walk, the minimal DFA that composing the merge gadget and minimizing
    would give; the result is marked trim, so no later `trim` walks it.

    One stage, and one stage_hook call, per merge that acts, labelled
    "merge n (x+y)" by its position in the list. When none acts, the one
    stage is the settled pattern, "identity" or "empty", and no hook is
    called. Each stage's clock starts where the previous one stopped (the
    first before the pattern check) and the last one runs to the end, so
    the stages cover the whole call but the hooks.
    """
    started = time.perf_counter()
    current = minimize(_output_subsets(_checked_pattern(a, t.vocab))[0])
    table = t.vocab.table
    stats: list[StageStats] = []
    seen, entered = False, None  # a merge checked the machine; its arc targets by label
    for n, (x, y) in enumerate(t.merges, 1):
        if not seen:  # most machines a merge makes are checked once: one scan
            seen = True
            after_x = {dst for q_arcs in current.arcs.values() for inp, _, dst in q_arcs if inp == x}
        else:  # a merge kept the machine: index it once for the checks to come
            entered = entered or _targets_by_label(current)
            after_x = entered.get(x, ())
        if not any(inp == y for q in after_x for inp, _, _ in current.arcs.get(q, ())):
            continue
        current = merge_stage(current, (x, y))
        # trim, as current was trim without an arc on x+y (merge_stage)
        current = Dfa._trusted(table, current.num_states, current.start,
                               current.finals, current.arcs, trim=True)
        seen, entered = False, None
        label = f"merge {n} ({table.token(x)}+{table.token(y)})"
        arcs = sum(map(len, current.arcs.values()))
        stats.append(StageStats(label, current.num_states, arcs, time.perf_counter() - started, True))
        if stage_hook is not None:
            stage_hook(label, current)
        started = time.perf_counter()
    rest = time.perf_counter() - started
    if stats:
        stats[-1] = stats[-1]._replace(seconds=stats[-1].seconds + rest)
    else:
        label = "identity" if current.finals else "empty"
        arcs = sum(map(len, current.arcs.values()))
        stats.append(StageStats(label, current.num_states, arcs, rest, True))
    return PromotionResult(current, "bpe", tuple(stats))


def _targets_by_label(d: Dfa) -> dict[int, set[int]]:
    entered: dict[int, set[int]] = defaultdict(set)
    for arcs in d.arcs.values():
        for inp, _, dst in arcs:
            entered[inp].add(dst)
    return entered


def promote_bpe_chained(a: Dfa, t: BpeTokenizer) -> Dfa:
    """The one-shot composition chain: all gadgets composed first, then
    projection, epsilon removal, determinization and minimization, one
    operator each. Exponentially worse than promote_bpe on adversarial
    inputs; kept as a cross-check of the staged schedule and its walk.
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
