"""Token masking and constrained decoding on promoted automata."""

import random
import struct
import sys
from decimal import Decimal
from fractions import Fraction
from hashlib import blake2b
from pathlib import Path

import pytest

import tokfst.fst
import tokfst.guided
from tokfst import (
    END_OF_SEQUENCE,
    BpeTokenizer,
    ConfigError,
    ConstraintViolationError,
    DeadConstraintError,
    Dfa,
    Fst,
    IncompleteGenerationError,
    StubLM,
    Transition,
    Vocabulary,
    accepts,
    allowed_tokens,
    compile_pattern,
    constrained_decode,
    constraint_advance,
    constraint_begin,
    maxmatch_tokenize,
    promote_agnostic,
    promote_maxmatch,
)

from helpers import (
    agnostic_instances,
    bpe_instances,
    decode_outcome,
    merges_over,
    random_pattern_dfa,
    random_vocab,
    reference_decode,
)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # the serve pool below is the benchmark's
    sys.path.insert(0, str(ROOT))

RACE = Vocabulary.from_tokens(["r", "a", "c", "e", "race", "car", "ce"])


def race_dfa(mode):
    a = compile_pattern("racecar", RACE.table)
    promote = promote_maxmatch if mode == "maxmatch" else promote_agnostic
    return promote(a, RACE).dfa


def names(ids):
    return [RACE.table.token(t) for t in ids]


# ---------------------------------------------------------------------------
# mask walking


def test_mask_walk_follows_the_canonical_segmentation():
    state = constraint_begin(race_dfa("maxmatch"))
    assert names(allowed_tokens(state)) == ["race"]
    assert not state.terminable

    state = constraint_advance(state, RACE.table.id("race"))
    assert names(allowed_tokens(state)) == ["car"]
    assert not state.terminable

    state = constraint_advance(state, RACE.table.id("car"))
    assert allowed_tokens(state) == frozenset()
    assert state.terminable


def test_agnostic_mask_offers_more_than_one_opening():
    state = constraint_begin(race_dfa("agnostic"))
    assert set(names(allowed_tokens(state))) == {"r", "race"}


def test_advance_rejects_disallowed_tokens():
    state = constraint_begin(race_dfa("maxmatch"))
    with pytest.raises(ConstraintViolationError, match="^token ce is not allowed here$"):
        constraint_advance(state, RACE.table.id("ce"))
    # a value that names no token is refused the same way, shown by its repr
    for token, shown in ((99999, "99999"), (-1, "-1"), ("a", "'a'"), (2.0, "2.0"),
                         (True, "True"), (None, "None")):
        with pytest.raises(ConstraintViolationError) as info:
            constraint_advance(state, token)
        assert str(info.value) == f"token {shown} is not allowed here"
    with pytest.raises(ConstraintViolationError, match="^token φ is not allowed here$"):
        constraint_advance(state, 1)


def test_advance_matches_ints_only():
    # values equal to the one allowed id, but not ints, step nowhere
    state = constraint_begin(race_dfa("maxmatch"))
    race = RACE.table.id("race")
    for token in (float(race), Fraction(race), Decimal(race), type("Id", (int,), {})(race)):
        assert token == race
        with pytest.raises(ConstraintViolationError, match="is not allowed here$"):
            constraint_advance(state, token)
    assert names(allowed_tokens(constraint_advance(state, race))) == ["car"]


def test_every_allowed_token_keeps_the_constraint_alive():
    rng = random.Random(21)
    for _ in range(25):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        vocab = random_vocab(rng, chars, rng.randint(0, 5))
        a = random_pattern_dfa(rng, vocab.table, max_states=6, max_strings=80, max_chars=8)
        if a is None:
            continue
        d = promote_agnostic(a, vocab).dfa
        if not d.finals:
            continue
        state = constraint_begin(d)
        frontier = [state]
        seen = {state.state}
        while frontier:
            here = frontier.pop()
            for tok in allowed_tokens(here):
                nxt = constraint_advance(here, tok)
                # trimness means some completion always exists
                assert nxt.terminable or allowed_tokens(nxt)
                if nxt.state not in seen:
                    seen.add(nxt.state)
                    frontier.append(nxt)


def test_begin_rejects_unusable_constraints():
    with pytest.raises(DeadConstraintError):
        vocab = Vocabulary.from_tokens(["r", "a", "c", "e"])
        a = compile_pattern("r[^race]", vocab.table)
        constraint_begin(promote_agnostic(a, vocab).dfa)
    # reachable dead weight is a construction bug, not a decoding condition
    bad = Dfa(RACE.table, 2, 0, frozenset({0}),
              (Transition(0, RACE.table.id("r"), RACE.table.id("r"), 1),))
    with pytest.raises(ConfigError):
        constraint_begin(bad)
    # a machine that is not a Dfa could hand out ε or follow one of two arcs
    t = RACE.table
    r, a = t.ids(["r", "a"])
    for m in (Fst(t, 2, 0, {1}, [(0, 0, 0, 1)]),
              Fst(t, 3, 0, {1, 2}, [(0, r, r, 1), (0, r, r, 2), (2, a, a, 2)]),
              Fst(t, 2, 0, {1}, [(0, r, a, 1)])):
        with pytest.raises(ConfigError, match="Dfa.from_fst"):
            constraint_begin(m)
        with pytest.raises(ConfigError, match="Dfa.from_fst"):
            constrained_decode(StubLM(0), m, 3)


def test_promoted_constraints_skip_the_trim_walk(monkeypatch):
    d = race_dfa("agnostic")
    canonical = lambda text: maxmatch_tokenize(text, RACE)
    walks = []
    reach = tokfst.fst._reach

    def counted(roots, edges):
        walks.append(roots)
        return reach(roots, edges)

    monkeypatch.setattr(tokfst.fst, "_reach", counted)
    constraint_begin(d)
    assert names(constrained_decode(StubLM(1), d, retokenize_with=canonical)) == ["race", "car"]
    assert walks == []
    # a machine built outside the library is checked once per object
    built = Dfa(d.table, d.num_states, d.start, d.finals, d.transitions)
    constraint_begin(built)
    once = len(walks)
    constrained_decode(StubLM(1), built, retokenize_with=canonical)
    assert once > 0 and len(walks) == once


# ---------------------------------------------------------------------------
# stub scorer


def test_stub_lm_is_a_pure_function_of_seed_context_candidate():
    lm = StubLM(3)
    ctx = (4, 5)
    assert lm.score(ctx, 6) == StubLM(3).score(ctx, 6)
    assert 0.0 <= lm.score(ctx, 6) < 1.0
    assert 0.0 <= lm.score((), END_OF_SEQUENCE) < 1.0
    assert lm.score(ctx, 6) != StubLM(4).score(ctx, 6)
    assert lm.score(ctx, 6) != lm.score(ctx, 7)


def test_stub_lm_seed_must_be_a_signed_64_bit_int():
    for seed in (2**63, -2**63 - 1, 2**70, 1.5, "x", None, True, False):
        with pytest.raises(ConfigError):
            StubLM(seed)
    for seed in (2**63 - 1, -2**63):
        assert 0.0 <= StubLM(seed).score([1], 2) < 1.0


def _digest_score(seed, context, candidate):
    h = blake2b(digest_size=8)
    for value in (seed, *context):
        h.update(struct.pack(">q", value))
    h.update(b"/")
    h.update(struct.pack(">q", candidate))
    return int.from_bytes(h.digest(), "big") / 2.0**64


def test_stub_lm_scores_match_the_digest_of_the_whole_context():
    # a score depends only on the current seed, context and candidate: a list
    # grown or changed in place, as constrained_decode passes it, and a
    # reassigned seed score by their values at the call
    rng = random.Random(44)
    lm = StubLM(0)
    context: list[int] = []
    for _ in range(2000):
        move = rng.random()
        if move < 0.05:
            lm.seed = rng.randrange(-2**40, 2**40)
        elif move < 0.4:
            context.append(rng.randrange(-1, 10**6))
        elif move < 0.5 and context:
            context[rng.randrange(len(context))] = rng.randrange(10**6)
        elif move < 0.6:
            del context[rng.randrange(len(context) + 1):]
        arg = tuple(context) if rng.random() < 0.3 else context
        candidate = rng.choice([END_OF_SEQUENCE, rng.randrange(10**6)])
        assert lm.score(arg, candidate) == _digest_score(lm.seed, context, candidate)


# ---------------------------------------------------------------------------
# constrained decoding


def test_decode_follows_a_singleton_mask_regardless_of_seed():
    d = race_dfa("maxmatch")
    for seed in range(20):
        assert names(constrained_decode(StubLM(seed), d)) == ["race", "car"]


def test_decode_can_wander_off_the_canonical_segmentation():
    d = race_dfa("agnostic")
    out = constrained_decode(StubLM(1), d)
    assert names(out) == ["r", "a", "c", "e", "c", "a", "r"]
    assert RACE.decode(out) == "racecar"
    assert out != maxmatch_tokenize("racecar", RACE)
    assert accepts(d, out)


def test_decode_outputs_always_satisfy_the_constraint():
    d = race_dfa("agnostic")
    for seed in range(40):
        out = constrained_decode(StubLM(seed), d)
        assert accepts(d, out)
        assert RACE.decode(out) == "racecar"


def test_retokenization_pulls_the_decode_back_on_track():
    d = race_dfa("agnostic")
    canonical = lambda text: maxmatch_tokenize(text, RACE)
    fixed = constrained_decode(StubLM(1), d, retokenize_with=canonical)
    assert names(fixed) == ["race", "car"]


def test_retokenization_changes_nothing_under_exact_masks():
    """A prefix of a canonical BPE or longest-match tokenization is canonical
    for its own text, so under a mask promoted for the same tokenizer,
    retokenizing never rewrites the decode: on the seeded bpe instances and
    the agnostic instances' patterns promoted in maxmatch mode, seeds 0-4."""
    cases = [(result.dfa, tok.tokenize) for _, tok, result in bpe_instances()]
    cases += [(promote_maxmatch(a, v).dfa, lambda text, v=v: maxmatch_tokenize(text, v))
              for a, v, _ in agnostic_instances()]
    multi_token = 0
    for d, tokenize in cases:
        for seed in range(5):
            plain = decode_outcome(StubLM(seed), d, 24)
            assert decode_outcome(StubLM(seed), d, 24, tokenize) == plain
            out, complete = plain
            multi_token += complete and len(out) > 1
    assert multi_token > 250


def test_end_of_sequence_competes_with_the_best_token():
    # after "race" the machine may stop or go on with "car"
    d = promote_maxmatch(compile_pattern("race(car)?", RACE.table), RACE).dfa
    assert names(constrained_decode(StubLM(0), d)) == ["race", "car"]
    assert names(constrained_decode(StubLM(3), d)) == ["race"]
    # a budget that runs out on a terminable state returns the prefix
    assert names(constrained_decode(StubLM(0), d, max_steps=1)) == ["race"]


def test_decode_scores_each_candidate_once_per_step():
    calls = []

    class Counting(StubLM):
        def score(self, context, candidate):
            calls.append((tuple(context), candidate))
            return super().score(context, candidate)

    for pattern in ("racecar", "race(car)?", "(r|a|ce)*"):
        d = promote_agnostic(compile_pattern(pattern, RACE.table), RACE).dfa
        for seed in range(10):
            calls.clear()
            out = constrained_decode(Counting(seed), d)
            assert len(set(calls)) == len(calls)
            state = constraint_begin(d)
            expected = []
            for step in range(len(out) + 1):
                context = tuple(out[:step])
                candidates = sorted(allowed_tokens(state))
                if state.terminable and candidates:
                    candidates.append(END_OF_SEQUENCE)
                expected += [(context, t) for t in candidates]
                if step < len(out):
                    state = constraint_advance(state, out[step])
            assert sorted(calls) == sorted(expected)


def test_decode_breaks_ties_toward_the_lowest_id():
    class Flat:
        def score(self, context, candidate):
            return -1.0 if candidate == END_OF_SEQUENCE else 0.0

    d = race_dfa("agnostic")
    assert names(constrained_decode(Flat(), d)) == ["r", "a", "c", "e", "c", "a", "r"]
    for pattern in ("(r|a|ce)*(race)?", "(ce|car|r)+"):
        d = promote_agnostic(compile_pattern(pattern, RACE.table), RACE).dfa
        assert decode_outcome(Flat(), d, 9) == reference_decode(Flat(), d, 9)


def test_decode_step_budget():
    d = race_dfa("maxmatch")
    with pytest.raises(IncompleteGenerationError) as info:
        constrained_decode(StubLM(0), d, max_steps=1)
    assert names(info.value.prefix) == ["race"]
    # a negative budget is refused before the first step, also where the
    # start is terminable
    terminable = promote_maxmatch(compile_pattern("(race)*", RACE.table), RACE).dfa
    for machine in (d, terminable):
        with pytest.raises(ConfigError):
            constrained_decode(StubLM(0), machine, max_steps=-3)


# ---------------------------------------------------------------------------
# retokenization: the pair check of a bound BpeTokenizer.tokenize


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Texts passed to `BpeTokenizer.tokenize`, patched on the class as a
    tracer does; a bound method of the patched class still gets the pair
    check."""
    calls = []
    original = BpeTokenizer.tokenize

    def counted(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(BpeTokenizer, "tokenize", counted)
    return calls


@pytest.fixture
def begins(monkeypatch):
    """Machines `constrained_decode` began on: one per decode, plus one per
    rewrite it replays. The reference loop imports its own name."""
    started = []
    original = tokfst.guided.constraint_begin
    monkeypatch.setattr(tokfst.guided, "constraint_begin",
                        lambda d: started.append(d) or original(d))
    return started


def _sweep(cases, tokenize_calls, begins):
    """Decode each (scorer, machine, max_steps, retokenizer) case with
    `constrained_decode` and with the reference loop, which calls the
    retokenizer on every step; the outcomes must be equal. Returns the steps,
    `tokenize` calls and rewrites of `constrained_decode`."""
    steps = calls = rewrites = 0
    for lm, d, max_steps, retokenize in cases:
        before, began = len(tokenize_calls), len(begins)
        got = decode_outcome(lm, d, max_steps, retokenize)
        calls += len(tokenize_calls) - before
        rewrites += len(begins) - began - 1
        before = len(tokenize_calls)
        assert got == reference_decode(lm, d, max_steps, retokenize_with=retokenize)
        steps += len(tokenize_calls) - before
    return steps, calls, rewrites


def test_pair_checked_decodes_equal_the_reference_loop(tokenize_calls, begins):
    """Agnostic masks retokenized by a bound `tokenize`: the instances of
    criteria 3-5 whose vocabulary a merge list can build, and the bpe
    instances' patterns promoted in agnostic mode, seeds 0-4 with a 24-step
    budget. `tokenize` runs only on a failed pair check, and each such call
    rewrites the prefix; under the bpe masks themselves it never runs."""
    agnostic = [(r.dfa, merges_over(v)) for _, v, r in agnostic_instances()]
    agnostic = [(d, tok) for d, tok in agnostic if tok is not None]
    agnostic += [(promote_agnostic(a, tok.vocab).dfa, tok) for a, tok, _ in bpe_instances()]
    assert len(agnostic) > 110
    cases = [(StubLM(seed), d, 24, tok.tokenize) for d, tok in agnostic for seed in range(5)]
    steps, calls, rewrites = _sweep(cases, tokenize_calls, begins)
    assert 0 < calls == rewrites < steps

    cases = [(StubLM(seed), r.dfa, 24, tok.tokenize)
             for _, tok, r in bpe_instances() for seed in range(5)]
    steps, calls, rewrites = _sweep(cases, tokenize_calls, begins)
    assert steps > 700 and calls == rewrites == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serve_pool_decodes_equal_the_reference_loop(seed, tokenize_calls, begins):
    """The benchmark's serve patterns and scorer at its tokenizer size:
    agnostic decodes retokenized by a bound `tokenize`, maxmatch decodes
    plain."""
    from perfbench.inputs import train
    from perfbench.workloads import FULL, MAX_STEPS, Scorer, serve_pool

    tok = train(seed, FULL.corpus, FULL.merges)
    cases = []
    for n, pattern in enumerate(serve_pool(seed)):
        a = compile_pattern(pattern.regex, tok.vocab.table)
        agnostic = promote_agnostic(a, tok.vocab).dfa
        maxmatch = promote_maxmatch(a, tok.vocab).dfa
        for j in range(12):
            scorer = Scorer(seed * 1000 + n * 100 + j)
            cases += [(scorer, agnostic, MAX_STEPS, tok.tokenize),
                      (scorer, maxmatch, MAX_STEPS, None)]
    steps, calls, rewrites = _sweep(cases, tokenize_calls, begins)
    assert 0 < calls == rewrites < steps


def _abc_tokenizer():
    vocab = Vocabulary.from_tokens(["a", "b", "c", "ab", "bc", "cc", "abc"])
    return BpeTokenizer.from_token_pairs(vocab, [("a", "b"), ("b", "c"), ("c", "c"), ("ab", "c")])


def test_other_retokenizers_run_on_every_step(tokenize_calls, begins):
    """A function wrapping `tokenize`, a maxmatch retokenizer and a
    subclass's own `tokenize` are called as often as the reference loop
    calls them: once per step."""
    tok = _abc_tokenizer()
    called = []

    class Overriding(BpeTokenizer):
        def tokenize(self, text):
            called.append(text)
            return super().tokenize(text)

    def counting(retokenize):
        return lambda text: called.append(text) or retokenize(text)

    retokenizers = {
        "wrapped": counting(tok.tokenize),
        "maxmatch": counting(lambda text: maxmatch_tokenize(text, tok.vocab)),
        "subclass": Overriding(tok.vocab, tok.merges).tokenize,
    }
    for pattern in ("(a|b|c)*", "(abc|ab|c)+b", "a(b|c)*c"):
        d = promote_agnostic(compile_pattern(pattern, tok.vocab.table), tok.vocab).dfa
        for name, retokenize in retokenizers.items():
            for seed in range(8):
                called.clear()
                got = decode_outcome(StubLM(seed), d, 12, retokenize)
                steps = len(called)
                called.clear()
                assert got == reference_decode(StubLM(seed), d, 12, retokenize_with=retokenize)
                assert len(called) == steps > 0, (name, pattern, seed)
    # a bound `tokenize` under the same masks runs once per rewrite
    for pattern in ("(a|b|c)*", "(abc|ab|c)+b", "a(b|c)*c"):
        d = promote_agnostic(compile_pattern(pattern, tok.vocab.table), tok.vocab).dfa
        for seed in range(8):
            tokenize_calls.clear()
            begins.clear()
            decode_outcome(StubLM(seed), d, 12, tok.tokenize)
            assert len(tokenize_calls) == len(begins) - 1


# ---------------------------------------------------------------------------
# retokenizers that cannot be used


AB = Vocabulary.from_tokens(["a", "b", "ab"])


def _ab_dfa():
    return promote_agnostic(compile_pattern("(a|b)(a|b)(a|b)+", AB.table), AB).dfa


def test_retokenize_with_must_be_callable():
    scored = []

    class Recording(StubLM):
        def score(self, context, candidate):
            scored.append(candidate)
            return super().score(context, candidate)

    for value in (5, "tokenize", [1, 2]):
        with pytest.raises(ConfigError, match="must be callable"):
            constrained_decode(Recording(0), _ab_dfa(), retokenize_with=value)
    assert scored == []


def test_a_rewrite_must_spell_the_prefix():
    d = _ab_dfa()
    t = AB.table
    assert AB.decode(constrained_decode(StubLM(0), d)) == "abb"
    swap = str.maketrans("ab", "ba")
    bad = {
        "swapped": lambda text: tuple(t.id(c) for c in text.translate(swap)),
        "None": lambda text: None,
        "a number": lambda text: 7,
        "strings": lambda text: tuple(text),
        "unknown ids": lambda text: (99,) * len(text),
        "reserved ids": lambda text: (0, 1),
        "bools": lambda text: (True,) * len(text),
        "too short": lambda text: (),
    }
    for retokenize in bad.values():
        with pytest.raises(ConfigError, match="retokenize_with"):
            constrained_decode(StubLM(0), d, retokenize_with=retokenize)
    # any iterable of ids spelling the text is taken, here its characters
    spelled = constrained_decode(StubLM(0), d, retokenize_with=lambda text: iter(map(t.id, text)))
    assert accepts(d, spelled) and all(len(t.token(i)) == 1 for i in spelled)


def test_a_bpe_retokenizer_must_share_the_table():
    tok = _abc_tokenizer()
    d = promote_agnostic(compile_pattern("(a|b|c)*", tok.vocab.table), tok.vocab).dfa
    other = Vocabulary.from_tokens(["b", "a", "c", "ab", "bc", "cc", "abc"])
    stranger = BpeTokenizer.from_token_pairs(other, [("a", "b"), ("b", "c"), ("c", "c"), ("ab", "c")])
    with pytest.raises(ConfigError, match="symbol table"):
        constrained_decode(StubLM(0), d, retokenize_with=stranger.tokenize)
    # an equal table built apart names the same ids
    twin = _abc_tokenizer()
    assert twin.vocab.table is not tok.vocab.table
    for seed in range(5):
        assert (constrained_decode(StubLM(seed), d, retokenize_with=twin.tokenize)
                == constrained_decode(StubLM(seed), d, retokenize_with=tok.tokenize))
