"""Pattern promotion: lift a character-level pattern automaton to one over
subword tokens.

Each mode, and the gadget chain, is one stage (`_stage`) that builds the
token-level machine and minimizes it; results are in canonical form.

* agnostic: the pattern's token steps: the token trie walked against the
  pattern DFA from each state q gives q --t--> δ*(q, t) for each token t
  read whole (Willard and Louf, 2023). Accepts every segmentation of every
  match, as composing with the paper's `build_lexicon_transducer` does.
* maxmatch: compose with the greedy longest-match transducer, then one
  subset construction over the output side that also passes over arcs
  emitting nothing. Accepts only longest-match segmentations.
* bpe: the token steps times a bigram filter (`_bigram_product`), which
  agnostic runs with tables that forbid nothing. Accepts only byte-pair
  segmentations. Its cross-check `promote_bpe_chained`, the paper's
  construction, composes one merge gadget per merge in the same stage.

The walk is deterministic by construction, so no subset construction
merges targets; maxmatch stages sometimes need it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import (
    AlphabetError,
    ConfigError,
    EnumerationError,
    ValidationError,
    check_count,
    check_type,
)
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
from .lexicon import (  # build_lexicon_transducer: bound for perfbench/tracing.py to patch
    build_failure_trie,
    build_lexicon_transducer,
    build_maxmatch_transducer,
    build_merge_gadget,
    token_steps,
    token_trie,
    vocab_machine,
)
from .tokenizers import BpeTokenizer, Vocabulary, iter_segmentations
from .tokenizers import maxmatch_tokenize


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


def _same_table(a: Fst, v: Vocabulary, cls: type) -> None:
    check_type(a, cls)
    check_type(v, Vocabulary)
    if a.table != v.table:
        raise AlphabetError("pattern automaton and vocabulary use different symbol tables")


def _checked_pattern(a: Fst, v: Vocabulary) -> Dfa:
    _same_table(a, v, Fst)
    if not isinstance(a, Dfa):
        try:
            a = Dfa.from_fst(a)
        except ValidationError as err:
            raise ConfigError(f"promotion needs a deterministic acceptor: {err}") from None
    foreign = {inp for arcs in a.arcs.values() for inp, _, _ in arcs} - v.table.char_ids()
    if foreign:
        raise AlphabetError(
            f"pattern automaton uses multi-character token "
            f"{v.table.token(min(foreign))!r}; promote from characters only"
        )
    return trim(a)


def _stage(
    a: Dfa, v: Vocabulary, mode: str, label: str, build: Callable[[Dfa], tuple[Fst, bool]]
) -> PromotionResult:
    """The one stage of every mode: check the pattern, `build` the token
    machine and its determinism flag from it, minimize and record, all
    inside the clock; an empty pattern builds nothing and is "empty"."""
    started = time.perf_counter()
    current = _checked_pattern(a, v)
    if current.finals:
        built, deterministic = build(current)
    else:
        label, built, deterministic = "empty", current, True
    d = minimize(built)
    arcs = sum(map(len, d.arcs.values()))
    st = StageStats(label, d.num_states, arcs, time.perf_counter() - started, deterministic)
    return PromotionResult(d, mode, (st,))


def promote_agnostic(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting every segmentation of every match:
    the bigram walk with every token canonical and forbidding nothing, so
    its keys are (q, frozenset()). One stage, labelled "steps"."""
    free = lambda d: (_bigram_product(d, v, dict.fromkeys(v.table.token_ids(), frozenset())), True)
    return _stage(a, v, "agnostic", "steps", free)


def promote_maxmatch(a: Dfa, v: Vocabulary) -> PromotionResult:
    """Token-level automaton accepting only longest-match segmentations:
    the output side of the pattern composed with the vocabulary's kept
    longest-match transducer. One stage, labelled "maxmatch"."""
    build = lambda: build_maxmatch_transducer(build_failure_trie(v))
    composed = lambda d: _output_subsets(compose(d, vocab_machine(v, "maxmatch", build)))
    return _stage(a, v, "maxmatch", "maxmatch", composed)


def promote_bpe(
    a: Dfa,
    t: BpeTokenizer,
    *,
    stage_hook: Callable[[str, Dfa], None] | None = None,
) -> PromotionResult:
    """Token-level automaton accepting only byte-pair segmentations: the
    bigram walk with `t.bigram_tables`. One stage, labelled "bigram", whose
    clock covers the whole call but the one stage_hook call after it."""
    check_type(t, BpeTokenizer)
    if stage_hook is not None and not callable(stage_hook):
        raise ConfigError(f"stage_hook must be callable, got {type(stage_hook).__name__}")
    walk = lambda d: (_bigram_product(d, t.vocab, t.bigram_tables), True)
    result = _stage(a, t.vocab, "bpe", "bigram", walk)
    if stage_hook is not None:
        stage_hook(result.stats[0].label, result.dfa)
    return result


def _bigram_product(d: Dfa, v: Vocabulary, after: dict[int, frozenset[int]]) -> Dfa:
    """The bigram walk. A token sequence is the tokenization of its text iff
    each token is a key of `after` and none is in the set of the one before
    it. So the walk reads `d` a token at a time over (pattern state, the
    last token's set) keys from (start, frozenset()): a key steps on t to
    (δ*(q, t), t's set) when t is a key and not in the key's set, and is
    final iff its pattern state is. `d` is deterministic, so the steps are
    too."""
    moves = [[(t, t, (dst, after[t])) for t, dst in q_steps if t in after]
             for q_steps in token_steps(token_trie(v), d)]
    finals = d.finals

    def expand(key: tuple[int, frozenset[int]]) -> tuple[bool, list[tuple[int, int, tuple]]]:
        q, banned = key
        return q in finals, [m for m in moves[q] if m[0] not in banned] if banned else moves[q]

    return _discover(Dfa, d.table, (d.start, frozenset()), expand)


def promote_bpe_chained(a: Dfa, t: BpeTokenizer) -> Dfa:
    """The paper's construction as one stage: a merge gadget composed per
    merge, then projection, epsilon removal, determinization and
    minimization, one operator each. Exponentially worse than promote_bpe on
    adversarial inputs; kept as a cross-check of its walk."""
    check_type(t, BpeTokenizer)

    def chain(machine: Fst) -> tuple[Fst, bool]:
        alphabet = set(machine.table.char_ids())
        for pair in t.merges:
            gadget = build_merge_gadget(pair, frozenset(alphabet), machine.table)
            machine = compose(machine, gadget.fst)
            alphabet.add(gadget.result)
        return determinize(epsilon_remove(project_output(machine))), True

    return _stage(a, t.vocab, "bpe", "chained", chain).dfa


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
    check_count("max_chars", max_chars)
    check_count("max_paths", max_paths)
    _same_table(d, v, Dfa)
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


def _check_oracle_args(
    a: Fst, mode: str, v: Vocabulary, max_chars: int, tokenizer: BpeTokenizer | None
) -> None:
    check_count("max_chars", max_chars)
    check_type(a, Fst)
    check_type(v, Vocabulary)
    if mode not in ("agnostic", "maxmatch", "bpe"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "bpe":
        check_type(tokenizer, BpeTokenizer)
        if tokenizer.vocab != v:
            raise ConfigError("the tokenizer is over another vocabulary")


def expected_promotion(
    a: Dfa, v: Vocabulary, mode: str, max_chars: int, tokenizer: BpeTokenizer | None = None
) -> set[tuple[int, ...]]:
    """The reference answer, computed without any transducer machinery."""
    _check_oracle_args(a, mode, v, max_chars, tokenizer)
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
    _check_oracle_args(a, mode, v, max_chars, tokenizer)
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
