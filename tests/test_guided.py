"""Token masking and constrained decoding on promoted automata."""

import random
import struct
from hashlib import blake2b

import pytest

import tokfst.fst
from tokfst import (
    END_OF_SEQUENCE,
    ConfigError,
    ConstraintViolationError,
    DeadConstraintError,
    Dfa,
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

from helpers import random_pattern_dfa, random_vocab

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
    with pytest.raises(ConstraintViolationError):
        constraint_advance(state, RACE.table.id("ce"))


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
    for seed in (2**63, -2**63 - 1, 2**70, 1.5, "x", None):
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
    # the scorer keeps the last context's hash; a list grown or changed in
    # place, as constrained_decode passes it, or a new seed must not reuse it
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


def test_decode_step_budget():
    d = race_dfa("maxmatch")
    with pytest.raises(IncompleteGenerationError) as info:
        constrained_decode(StubLM(0), d, max_steps=1)
    assert names(info.value.prefix) == ["race"]
