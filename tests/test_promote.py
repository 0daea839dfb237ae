"""Promotion pipelines against the tokenizer oracles.

The worked fixtures here pin down exact languages and per-stage state
counts; the randomized sweeps at acceptance scale live in
test_acceptance.py.
"""

import random
import time

import pytest

import tokfst.fst
import tokfst.promote
from tokfst import (
    AlphabetError,
    BpeTokenizer,
    ConfigError,
    Dfa,
    EnumerationError,
    StubLM,
    SymbolTable,
    Transition,
    Vocabulary,
    accepts,
    canonical_form,
    check_promotion,
    compile_pattern,
    constrained_decode,
    enumerate_language,
    language_by_chars,
    maxmatch_tokenize,
    promote_agnostic,
    promote_bpe,
    promote_bpe_chained,
    promote_maxmatch,
)
from tokfst.promote import expected_promotion

from helpers import random_merge_tokenizer, random_pattern_text

FIG4 = Vocabulary.from_tokens(["a", "b", "c", "ab", "abc", "bc"])
FIG6 = Vocabulary.from_tokens(["a", "b", "aa", "ab"])
SECT52 = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["a", "b", "c", "ab", "bc", "cc", "abc"]),
    [("a", "b"), ("b", "c"), ("c", "c"), ("ab", "c")],
)
FIG7 = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["a", "b", "c", "d", "aa", "ab", "db", "cdb"]),
    [("a", "a"), ("a", "b"), ("d", "b"), ("c", "db")],
)
RACE = Vocabulary.from_tokens(["r", "a", "c", "e", "race", "car", "ce"])


def seqs(vocab, sequences):
    return {tuple(vocab.table.token(i) for i in s) for s in sequences}


# ---------------------------------------------------------------------------
# tokenization-agnostic


def test_agnostic_single_string_accepts_all_segmentations():
    a = compile_pattern("abaabcc", FIG4.table)
    r = promote_agnostic(a, FIG4)
    language = seqs(FIG4, enumerate_language(r.dfa, 7))
    assert len(language) == 8
    assert ("ab", "a", "a", "bc", "c") in language
    assert ("a", "b", "a", "abc", "c") in language
    table = FIG4.table
    assert accepts(r.dfa, table.ids(["ab", "a", "a", "bc", "c"]))
    assert not accepts(r.dfa, table.ids(["ab", "ab", "c", "c"]))  # spells abab..., wrong string
    assert r.mode == "agnostic"
    assert [s.label for s in r.stats] == ["lexicon"]
    assert r.stats[0].deterministic_before_minimize


def test_agnostic_oracle_fig4():
    a = compile_pattern("abaabcc", FIG4.table)
    assert check_promotion(a, FIG4, "agnostic", 10) is None


def test_agnostic_star_pattern():
    a = compile_pattern("(a|b)*", FIG6.table)
    r = promote_agnostic(a, FIG6)
    assert check_promotion(a, FIG6, "agnostic", 10) is None
    # every vocabulary token spelling only a/b characters is usable
    assert accepts(r.dfa, FIG6.table.ids(["aa", "ab", "b"]))
    assert accepts(r.dfa, ())


def test_agnostic_of_empty_string_pattern():
    a = compile_pattern("", FIG4.table)
    r = promote_agnostic(a, FIG4)
    assert enumerate_language(r.dfa, 5) == {()}


def test_agnostic_of_empty_language():
    vocab = Vocabulary.from_tokens(["a", "b"])
    a = compile_pattern("a[^ab]", vocab.table)
    r = promote_agnostic(a, vocab)
    assert enumerate_language(r.dfa, 6) == set()
    assert [s.label for s in r.stats] == ["empty"]


# ---------------------------------------------------------------------------
# longest-match preserving


def test_maxmatch_single_string_is_a_singleton():
    a = compile_pattern("abaabcc", FIG4.table)
    r = promote_maxmatch(a, FIG4)
    assert seqs(FIG4, enumerate_language(r.dfa, 7)) == {("ab", "a", "abc", "c")}
    assert r.mode == "maxmatch"
    assert [s.label for s in r.stats] == ["maxmatch"]


def test_maxmatch_star_pattern_drops_non_canonical_paths():
    a = compile_pattern("(a|b)*", FIG6.table)
    assert check_promotion(a, FIG6, "maxmatch", 10) is None
    greedy = promote_maxmatch(a, FIG6).dfa
    loose = promote_agnostic(a, FIG6).dfa
    table = FIG6.table
    # canonical for "ab" is the single token, so a-then-b must disappear
    assert accepts(loose, table.ids(["a", "b"]))
    assert not accepts(greedy, table.ids(["a", "b"]))
    assert accepts(greedy, table.ids(["ab"]))
    assert enumerate_language(greedy, 6) < enumerate_language(loose, 6)


def test_maxmatch_bananas_fixture():
    vocab = Vocabulary.from_tokens(["a", "b", "n", "s", "ba", "na", "ban", "bana"])
    a = compile_pattern("bananas", vocab.table)
    r = promote_maxmatch(a, vocab)
    assert seqs(vocab, enumerate_language(r.dfa, 7)) == {("bana", "na", "s")}


# ---------------------------------------------------------------------------
# merge-sequence preserving


def test_bpe_sect52_language_and_stage_counts():
    a = compile_pattern("bcababcc", SECT52.vocab.table)
    r = promote_bpe(a, SECT52)
    assert seqs(SECT52.vocab, enumerate_language(r.dfa, 8)) == {("bc", "ab", "ab", "cc")}
    assert [s.label for s in r.stats] == [
        "merge 1 (a+b)", "merge 2 (b+c)", "merge 3 (c+c)", "merge 4 (ab+c)"]
    counts = tuple(s.states for s in r.stats)
    assert counts == (7, 6, 5, 5)
    assert all(x >= y for x, y in zip(counts, counts[1:]))
    # stage |A'| stays within k * |A|^3 for k stages of an |A|-state pattern
    assert all(c <= (k + 1) * a.num_states ** 3 for k, c in enumerate(counts))
    assert all(s.deterministic_before_minimize for s in r.stats)
    assert all(s.seconds >= 0 for s in r.stats)


def test_bpe_fig7_fixture_oracle():
    a = compile_pattern("...?.?.?.?", FIG7.vocab.table)
    assert a.num_states == 7
    assert check_promotion(a, FIG7.vocab, "bpe", 12, FIG7) is None


def test_branching_pattern_can_need_subset_construction():
    """Branches that disagree on whether a held first operand gets flushed
    or merged used to need the subset construction, because a postpone arc
    and the flush both emitted the held operand from one gadget state. The
    gadget now repeats the operand through the flush alone, so these stages
    stay deterministic and remain exact."""
    a = compile_pattern("...?.?.?.?", FIG7.vocab.table)
    r = promote_bpe(a, FIG7)
    assert [s.deterministic_before_minimize for s in r.stats] == [True, True, True, True]
    assert check_promotion(a, FIG7.vocab, "bpe", 12, FIG7) is None

    # minimal shape: after the held `a`, one branch holds another `a` and
    # the other flushes before `c`; both continuations emit `a` through the
    # one flush arc
    vocab = Vocabulary.from_tokens(["a", "b", "c", "x", "ab"])
    tok = BpeTokenizer.from_token_pairs(vocab, [("a", "b")])
    branchy = compile_pattern("a(a|c)x", vocab.table)
    r2 = promote_bpe(branchy, tok)
    assert [s.deterministic_before_minimize for s in r2.stats] == [True]
    assert check_promotion(branchy, vocab, "bpe", 12, tok) is None

    small = Vocabulary.from_tokens(["a", "b", "ab"])
    tok2 = BpeTokenizer.from_token_pairs(small, [("a", "b")])
    nested = compile_pattern("aa?", small.table)
    r3 = promote_bpe(nested, tok2)
    assert [s.deterministic_before_minimize for s in r3.stats] == [True]


def test_single_string_stages_stay_deterministic():
    topology = BpeTokenizer.from_token_pairs(
        Vocabulary.from_tokens(
            ["t", "o", "p", "l", "g", "y", "to", "gy", "lo", "po", "logy"]),
        [("t", "o"), ("g", "y"), ("l", "o"), ("p", "o"), ("lo", "gy")],
    )
    for text, tok in [("bcababcc", SECT52), ("topology", topology)]:
        a = compile_pattern(text, tok.vocab.table)
        r = promote_bpe(a, tok)
        assert all(s.deterministic_before_minimize for s in r.stats)


def test_bpe_without_merges_is_the_character_identity():
    tok = BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(["a", "b"]), [])
    a = compile_pattern("ab|b", tok.vocab.table)
    r = promote_bpe(a, tok)
    assert [s.label for s in r.stats] == ["identity"]
    assert enumerate_language(r.dfa, 4) == enumerate_language(a, 4)


def test_bpe_stage_hook_sees_every_stage():
    a = compile_pattern("bcababcc", SECT52.vocab.table)
    seen = []
    promote_bpe(a, SECT52, stage_hook=lambda label, dfa: seen.append((label, dfa.num_states)))
    assert [label for label, _ in seen] == [
        "merge 1 (a+b)", "merge 2 (b+c)", "merge 3 (c+c)", "merge 4 (ab+c)"]
    assert [n for _, n in seen] == [7, 6, 5, 5]


def test_stage_time_covers_the_build_and_compose(monkeypatch):
    compose, walk = tokfst.promote.compose, tokfst.promote.merge_stage
    calls = []

    def slow(build):
        def run(*operands):
            time.sleep(0.05)
            calls.append(1)
            return build(*operands)
        return run

    stage_composed = []

    def hook(*_):
        stage_composed.append(bool(calls))
        calls.clear()

    monkeypatch.setattr(tokfst.promote, "compose", slow(compose))
    monkeypatch.setattr(tokfst.promote, "merge_stage", slow(walk))
    vocab = SECT52.vocab
    a = compile_pattern("abcc", vocab.table)
    for r in (promote_agnostic(a, vocab), promote_maxmatch(a, vocab)):
        assert r.stats
        assert all(s.seconds >= 0.05 for s in r.stats), r.mode
    r = promote_bpe(a, SECT52, stage_hook=hook)
    # a+b and c+c act on "abcc"; b+c and ab+c then find no pair to merge
    assert stage_composed == [True, False, True, False]
    assert all(s.seconds >= 0.05 for s, c in zip(r.stats, stage_composed) if c)


def test_gadgets_run_over_the_symbols_the_machine_emits(monkeypatch):
    walk = tokfst.promote.merge_stage
    operands = []

    def recording(d, pair):
        after = walk(d, pair)
        table = d.table
        z = table.id(table.token(pair[0]) + table.token(pair[1]))
        operands.append((d.input_alphabet, after.input_alphabet, z))
        return after

    monkeypatch.setattr(tokfst.promote, "merge_stage", recording)
    live = 0
    for pattern, tok in [("bcababcc", SECT52), ("...?.?.?.?", FIG7)]:
        machines = [compile_pattern(pattern, tok.vocab.table)]
        promote_bpe(machines[0], tok, stage_hook=lambda _, d: machines.append(d))
        live += sum(before != after for before, after in zip(machines, machines[1:]))
    assert len(operands) == live > 0
    assert all(after <= before | {z} for before, after, z in operands)


def test_compose_runs_exactly_on_the_stages_that_change_the_machine(monkeypatch):
    walk, compose = tokfst.promote.merge_stage, tokfst.promote.compose
    minimize = tokfst.promote.minimize
    calls, composed, minimized = [], [], []
    monkeypatch.setattr(tokfst.promote, "merge_stage", lambda *ops: calls.append(1) or walk(*ops))
    monkeypatch.setattr(tokfst.promote, "compose", lambda *ops: composed.append(1) or compose(*ops))
    monkeypatch.setattr(tokfst.promote, "minimize", lambda d: minimized.append(1) or minimize(d))
    rng = random.Random(2718)
    cases = [(compile_pattern(p, t.vocab.table), t)
             for p, t in [("bcababcc", SECT52), ("(ab|c)*b?", SECT52),
                          ("...?.?.?.?", FIG7), ("a(a|b)*d", FIG7)]]
    while len(cases) < 40:
        chars = "".join(sorted(rng.sample("abcd", rng.randint(1, 3))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(1, 10))
        a = compile_pattern(random_pattern_text(rng, chars, 3), tok.vocab.table)
        if a.finals:
            cases.append((a, tok))
    skipped = live = most_live = 0
    for a, tok in cases:
        machines, walked = [a], []  # per stage: the hooked machine, merge_stage calls

        def hook(_, d):
            machines.append(d)
            walked.append(len(calls))
            calls.clear()

        calls.clear()
        composed.clear()  # the chained check below composes and minimizes
        minimized.clear()
        r = promote_bpe(a, tok, stage_hook=hook)
        assert not composed
        assert len(minimized) <= 1  # the settle only, however many merges are live
        with monkeypatch.context() as no_walk:  # every stage result is known trim
            no_walk.setattr(tokfst.fst, "_reach", lambda *_: pytest.fail("trim walked"))
            assert all(tokfst.fst.trim(d) is d for d in machines[1:])
        assert len(r.stats) == len(walked) == len(tok.merges)
        for before, after, n, st in zip(machines, machines[1:], walked, r.stats):
            assert n == int(after != before)
            assert (st.states, st.transitions) == (
                after.num_states, sum(map(len, after.arcs.values())))
            assert n or st.deterministic_before_minimize
            live += n
            skipped += 1 - n
        assert r.dfa == canonical_form(promote_bpe_chained(a, tok))
        most_live = max(most_live, sum(walked))
    assert skipped > 20 and live > 20 and most_live > 3


def test_skipped_first_stages_still_settle_a_caller_built_pattern():
    # an unminimized pattern whose first merge cannot act: the stage result
    # is the canonical minimal machine, as a composed stage would give
    table = SECT52.vocab.table
    a_, b_ = table.id("a"), table.id("b")
    redundant = Dfa(table, 4, 0, {2, 3}, [(0, b_, b_, 1), (1, a_, a_, 2), (0, a_, a_, 3)])
    r = promote_bpe(redundant, SECT52)
    assert r.dfa == canonical_form(promote_bpe_chained(redundant, SECT52))
    assert tuple(s.states for s in r.stats) == (3, 3, 3, 3)
    assert r.dfa.num_states == 3


def test_chained_composition_agrees_with_the_staged_schedule():
    for pattern, tok in [("bcababcc", SECT52), ("...?.?.?.?", FIG7)]:
        a = compile_pattern(pattern, tok.vocab.table)
        staged = promote_bpe(a, tok).dfa
        chained = promote_bpe_chained(a, tok)
        assert canonical_form(chained) == canonical_form(staged)


def _fixture_promotions():
    for pattern, tok in [("bcababcc", SECT52), ("(ab|c)*b?", SECT52),
                         ("...?.?.?.?", FIG7), ("a(a|b)*d", FIG7)]:
        a = compile_pattern(pattern, tok.vocab.table)
        yield promote_agnostic(a, tok.vocab)
        yield promote_maxmatch(a, tok.vocab)
        yield promote_bpe(a, tok)
    for pattern, vocab in [("abaabcc", FIG4), ("(ab|c)+", FIG4),
                           ("(a|b)*", FIG6), ("a?b", FIG6), ("a[^ab]", FIG6),
                           ("race(car)?", RACE)]:
        a = compile_pattern(pattern, vocab.table)
        yield promote_agnostic(a, vocab)
        yield promote_maxmatch(a, vocab)


def test_promotions_are_in_canonical_form():
    # every stage ends in a subset construction over sorted labels and a
    # minimization, both numbering states in discovery order
    results = list(_fixture_promotions())
    assert len(results) == 24
    for r in results:
        assert canonical_form(r.dfa) == r.dfa, (r.mode, r.stats[-1].label)


def test_stages_run_one_walk_and_the_chained_schedule_the_operators(monkeypatch):
    calls = []

    def counting(name, op):
        def counted(*args):
            calls.append(name)
            return op(*args)
        return counted

    for name in ("project_output", "epsilon_remove", "determinize"):
        monkeypatch.setattr(tokfst.promote, name, counting(name, getattr(tokfst.promote, name)))
    results = list(_fixture_promotions())
    assert sum(len(r.stats) for r in results) > len(results)
    assert calls == []
    a = compile_pattern("bcababcc", SECT52.vocab.table)
    promote_bpe_chained(a, SECT52)
    assert calls == ["project_output", "epsilon_remove", "determinize"]


def test_operations_build_no_transition_records(monkeypatch):
    # operations read and write per-state arcs; `Transition` records are made
    # only for a caller who reads `transitions`
    built = []
    record = tokfst.fst.Transition
    monkeypatch.setattr(tokfst.fst, "Transition", lambda *row: built.append(row) or record(*row))
    results = list(_fixture_promotions())
    d = promote_agnostic(compile_pattern("racecar", RACE.table), RACE).dfa
    canonical = lambda text: maxmatch_tokenize(text, RACE)
    out = constrained_decode(StubLM(1), d, retokenize_with=canonical)
    assert [RACE.table.token(i) for i in out] == ["race", "car"]
    assert {r.mode for r in results} == {"agnostic", "maxmatch", "bpe"}
    assert built == []
    assert len(d.transitions) == len(built) > 0


# ---------------------------------------------------------------------------
# guards and plumbing


def test_promotion_rejects_a_foreign_table():
    a = compile_pattern("ab", FIG4.table)
    other = Vocabulary.from_tokens(["a", "b"])
    with pytest.raises(AlphabetError):
        promote_agnostic(a, other)


def test_promotion_rejects_token_level_patterns():
    table = FIG4.table
    a = Dfa(table, 2, 0, frozenset({1}),
            (Transition(0, table.id("ab"), table.id("ab"), 1),))
    with pytest.raises(AlphabetError):
        promote_agnostic(a, FIG4)


def test_language_by_chars_budget_and_bound():
    a = compile_pattern("(a|b)*", FIG6.table)
    r = promote_agnostic(a, FIG6)
    ok = language_by_chars(r.dfa, FIG6, 4)
    assert all(sum(len(FIG6.table.token(i)) for i in s) <= 4 for s in ok)
    with pytest.raises(EnumerationError):
        language_by_chars(r.dfa, FIG6, 40, max_paths=50)
    with pytest.raises(ConfigError):
        language_by_chars(r.dfa, FIG6, -1)


def test_check_promotion_modes_validate():
    a = compile_pattern("ab", FIG4.table)
    with pytest.raises(ConfigError):
        check_promotion(a, FIG4, "bpe", 8)  # tokenizer missing
    with pytest.raises(ConfigError):
        check_promotion(a, FIG4, "sideways", 8)
    # checked before any enumeration: at max_chars 0 no string is tokenized
    for max_chars in (4, 0):
        with pytest.raises(ConfigError):
            expected_promotion(a, FIG4, "bpe", max_chars)
        with pytest.raises(ConfigError):
            expected_promotion(a, FIG4, "sideways", max_chars)
