"""Promotion pipelines against the tokenizer oracles.

The worked fixtures here pin down exact languages and per-stage state
counts; the randomized sweeps at acceptance scale live in
test_acceptance.py.
"""

import gc
import hashlib
import random
import string
import time
import weakref

import pytest

import tokfst.fst
import tokfst.lexicon
import tokfst.promote
import tokfst.tokenizers
from tokfst import (
    EPSILON,
    AlphabetError,
    BpeTokenizer,
    ConfigError,
    Dfa,
    EnumerationError,
    Fst,
    StubLM,
    SymbolTable,
    Transition,
    Vocabulary,
    accepts,
    bpe_train,
    canonical_form,
    check_promotion,
    compile_pattern,
    constrained_decode,
    enumerate_language,
    language_by_chars,
    load_automaton,
    maxmatch_tokenize,
    minimize,
    promote_agnostic,
    promote_bpe,
    promote_bpe_chained,
    promote_maxmatch,
    save_automaton,
)
from tokfst.lexicon import build_failure_trie, build_maxmatch_transducer, build_token_trie
from tokfst.promote import expected_promotion

from helpers import (
    draw_until,
    gadget_stages,
    identifiers,
    lexicon_promotion,
    random_merge_tokenizer,
    random_pattern_dfa,
    random_pattern_text,
    random_vocab,
)

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
    assert [s.label for s in r.stats] == ["steps"]
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


def test_agnostic_steps_equal_the_lexicon_composition():
    # the paper's construction, composed with the lexicon transducer and
    # minimized, gives the same machine as the token-step walk
    rng = random.Random(1818)
    for n in range(3000):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(1, 4))))
        vocab = random_vocab(rng, chars, rng.randint(0, 8))
        if n % 2:
            a = compile_pattern(random_pattern_text(rng, chars, 3), vocab.table)
        else:
            a = draw_until(lambda: random_pattern_dfa(rng, vocab.table, max_states=7,
                                                      max_strings=10**6, max_chars=6))
        composed, deterministic = lexicon_promotion(a, vocab)
        r = promote_agnostic(a, vocab)
        assert r.dfa == composed, (n, chars, vocab.table.tokens)
        assert deterministic and r.stats[0].deterministic_before_minimize


def test_agnostic_composes_nothing(monkeypatch):
    cases = [(compile_pattern(p, v.table), v)
             for p, v in [("abaabcc", FIG4), ("(ab|c)+", FIG4), ("(a|b)*", FIG6),
                          ("a[^ab]", FIG6), ("race(car)?", RACE)]]
    before = [promote_agnostic(a, v).dfa for a, v in cases]
    for name in ("build_lexicon_transducer", "compose", "_output_subsets"):
        monkeypatch.setattr(tokfst.promote, name,
                            lambda *_, name=name: pytest.fail(f"agnostic called {name}"))
    fresh = [(a, Vocabulary(v.table)) for a, v in cases]  # no kept machines
    assert [promote_agnostic(a, v).dfa for a, v in fresh] == before
    assert [promote_agnostic(a, v).stats[0].label for a, v in cases] == [
        "steps", "steps", "steps", "empty", "steps"]


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
    # one stage, the minimized bigram product: the single sequence's line
    assert [(s.label, s.states, s.transitions) for s in r.stats] == [("bigram", 5, 4)]
    # |A'| stays within |A|^3 for an |A|-state pattern
    assert r.stats[0].states <= a.num_states ** 3
    assert r.stats[0].deterministic_before_minimize and r.stats[0].seconds >= 0
    assert r.dfa == canonical_form(promote_bpe_chained(a, SECT52))


def test_bpe_fig7_fixture_oracle():
    a = compile_pattern("...?.?.?.?", FIG7.vocab.table)
    assert a.num_states == 7
    assert check_promotion(a, FIG7.vocab, "bpe", 12, FIG7) is None


def test_branching_pattern_can_need_subset_construction():
    """Branches that disagree on whether a held first operand gets flushed
    or merged used to need the subset construction, because a postpone arc
    and the flush both emitted the held operand from one gadget state. The
    gadget now repeats the operand through the flush alone, so its stages
    stay deterministic, and the bigram product agrees with them."""
    a = compile_pattern("...?.?.?.?", FIG7.vocab.table)
    staged, stages = gadget_stages(a, FIG7)
    assert [(changed, det) for _, changed, det in stages] == [(True, True)] * 4
    r = promote_bpe(a, FIG7)
    assert [s.deterministic_before_minimize for s in r.stats] == [True]
    assert r.dfa == staged == canonical_form(promote_bpe_chained(a, FIG7))
    assert check_promotion(a, FIG7.vocab, "bpe", 12, FIG7) is None

    # minimal shape: after the held `a`, one branch holds another `a` and
    # the other flushes before `c`; both continuations emit `a` through the
    # one flush arc
    vocab = Vocabulary.from_tokens(["a", "b", "c", "x", "ab"])
    tok = BpeTokenizer.from_token_pairs(vocab, [("a", "b")])
    small = Vocabulary.from_tokens(["a", "b", "ab"])
    tok2 = BpeTokenizer.from_token_pairs(small, [("a", "b")])
    for pattern, t in [("a(a|c)x", tok), ("aa?", tok2)]:
        branchy = compile_pattern(pattern, t.vocab.table)
        staged, stages = gadget_stages(branchy, t)
        assert [det for _, _, det in stages] == [True]
        assert promote_bpe(branchy, t).dfa == staged
        assert check_promotion(branchy, t.vocab, "bpe", 12, t) is None


def test_single_string_stages_stay_deterministic():
    topology = BpeTokenizer.from_token_pairs(
        Vocabulary.from_tokens(
            ["t", "o", "p", "l", "g", "y", "to", "gy", "lo", "po", "logy"]),
        [("t", "o"), ("g", "y"), ("l", "o"), ("p", "o"), ("lo", "gy")],
    )
    live = 0
    for text, tok in [("bcababcc", SECT52), ("topology", topology)]:
        a = compile_pattern(text, tok.vocab.table)
        staged, stages = gadget_stages(a, tok)
        assert all(det for _, _, det in stages)
        live += sum(changed for _, changed, _ in stages)
        assert promote_bpe(a, tok).dfa == staged
    assert live == 3 + 5


def test_bpe_without_merges_is_the_character_identity():
    tok = BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(["a", "b"]), [])
    a = compile_pattern("ab|b", tok.vocab.table)
    r = promote_bpe(a, tok)
    assert [s.label for s in r.stats] == ["bigram"]
    assert enumerate_language(r.dfa, 4) == enumerate_language(a, 4)
    assert r.dfa == canonical_form(promote_bpe_chained(a, tok)) == canonical_form(minimize(a))


def test_bpe_stage_hook_sees_the_one_stage():
    # one hook call, after the stage's clock stops, with the result itself;
    # "empty" on an empty pattern, "bigram" otherwise, merges acting or not
    seen = []
    for pattern, label in [("bcababcc", "bigram"), ("cba", "bigram"), ("a[^abc]", "empty")]:
        a = compile_pattern(pattern, SECT52.vocab.table)
        seen.clear()
        r = promote_bpe(a, SECT52, stage_hook=lambda *stage: seen.append(stage))
        assert [s.label for s in r.stats] == [label]
        assert len(seen) == 1 and seen[0][0] == label and seen[0][1] is r.dfa
        assert (r.stats[0].states, r.stats[0].transitions) == (
            r.dfa.num_states, sum(map(len, r.dfa.arcs.values())))
        assert r.dfa == canonical_form(promote_bpe_chained(a, SECT52))


def test_stage_time_covers_the_build_and_compose(monkeypatch):
    compose, steps = tokfst.promote.compose, tokfst.promote.token_steps
    checked, minimize_ = tokfst.promote._checked_pattern, tokfst.promote.minimize
    calls = []

    def slow(build):
        def run(*operands):
            time.sleep(0.05)
            calls.append(1)
            return build(*operands)
        return run

    hooked = []
    monkeypatch.setattr(tokfst.promote, "compose", slow(compose))
    monkeypatch.setattr(tokfst.promote, "token_steps", slow(steps))
    monkeypatch.setattr(tokfst.promote, "minimize", slow(minimize_))
    vocab = SECT52.vocab
    a = compile_pattern("abcc", vocab.table)
    for r in (promote_agnostic(a, vocab), promote_maxmatch(a, vocab)):
        assert r.stats
        assert all(s.seconds >= 0.05 for s in r.stats), r.mode
    calls.clear()
    r = promote_bpe(a, SECT52, stage_hook=lambda *_: hooked.append(len(calls)))
    # the trie walk and the minimize both ran inside the one stage's clock
    assert [s.label for s in r.stats] == ["bigram"]
    assert hooked == [2]
    assert r.stats[0].seconds >= 0.1

    # the stages cover every slowed call, the pattern check included
    monkeypatch.setattr(tokfst.promote, "_checked_pattern", slow(checked))
    empty = compile_pattern("a[^abc]", vocab.table)
    for promote in (lambda: promote_agnostic(a, vocab), lambda: promote_maxmatch(a, vocab),
                    lambda: promote_bpe(a, SECT52), lambda: promote_bpe(empty, SECT52)):
        calls.clear()
        r = promote()
        assert calls and sum(s.seconds for s in r.stats) >= 0.05 * len(calls), r.mode
    monkeypatch.undo()
    assert r.dfa == canonical_form(promote_bpe_chained(empty, SECT52))
    assert promote_bpe(a, SECT52).dfa == canonical_form(promote_bpe_chained(a, SECT52))


def test_bpe_is_one_walk_and_one_minimize(monkeypatch):
    compose, minimize_ = tokfst.promote.compose, tokfst.promote.minimize
    composed, minimized = [], []
    monkeypatch.setattr(tokfst.promote, "compose", lambda *ops: composed.append(1) or compose(*ops))
    monkeypatch.setattr(tokfst.promote, "minimize", lambda d: minimized.append(1) or minimize_(d))
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
    changed = 0
    for a, tok in cases:
        hooked = []
        composed.clear()  # the chained check below composes and minimizes
        minimized.clear()
        r = promote_bpe(a, tok, stage_hook=lambda *stage: hooked.append(stage))
        assert not composed
        assert len(minimized) == 1
        assert hooked == [("bigram", r.dfa)]
        with monkeypatch.context() as no_walk:  # minimize's result is known trim
            no_walk.setattr(tokfst.fst, "_reach", lambda *_: pytest.fail("trim walked"))
            assert tokfst.fst.trim(r.dfa) is r.dfa
        (st,) = r.stats
        assert (st.label, st.states, st.transitions) == (
            "bigram", r.dfa.num_states, sum(map(len, r.dfa.arcs.values())))
        assert st.deterministic_before_minimize
        assert r.dfa == canonical_form(promote_bpe_chained(a, tok))
        changed += r.dfa != canonical_form(minimize_(a))  # some merge acts
    assert 20 < changed < len(cases)


def test_bigram_tables_are_built_once_per_tokenizer(monkeypatch):
    built = []
    tables = tokfst.tokenizers._bigram_tables
    monkeypatch.setattr(tokfst.tokenizers, "_bigram_tables",
                        lambda *args: built.append(1) or tables(*args))
    tok = BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(FIG7.vocab.table.tokens),
                                        FIG7.merge_tokens())
    table = tok.vocab.table
    # an empty pattern needs no tables
    assert promote_bpe(compile_pattern("a[^abcd]", table), tok).stats[0].label == "empty"
    assert built == []
    for pattern in ("...?.?.?.?", "a(a|b)*d", "cdb"):
        a = compile_pattern(pattern, table)
        assert promote_bpe(a, tok).dfa == canonical_form(promote_bpe_chained(a, tok))
    assert built == [1]
    assert tok.bigram_tables is tok.bigram_tables
    # the tables belong to the tokenizer object: an equal one builds its own
    again = BpeTokenizer(tok.vocab, tok.merges)
    assert again == tok
    promote_bpe(compile_pattern("ab", table), again)
    assert built == [1, 1]
    assert again.bigram_tables == tok.bigram_tables
    assert again.bigram_tables is not tok.bigram_tables
    # and nothing else keeps them: they go with the tokenizer
    kept = weakref.ref(tok), weakref.ref(tok.bigram_tables.canonical)
    del tok
    gc.collect()
    assert [ref() for ref in kept] == [None, None]


def test_a_promotion_without_acting_merges_still_settles_the_pattern():
    # an unminimized pattern on which no merge acts: the one stage's result
    # is the canonical minimal machine, as a composed stage would give
    table = SECT52.vocab.table
    a_, b_ = table.id("a"), table.id("b")
    redundant = Dfa(table, 4, 0, {2, 3}, [(0, b_, b_, 1), (1, a_, a_, 2), (0, a_, a_, 3)])
    r = promote_bpe(redundant, SECT52)
    assert r.dfa == canonical_form(promote_bpe_chained(redundant, SECT52))
    assert [(s.label, s.states) for s in r.stats] == [("bigram", 3)]
    assert r.dfa.num_states == 3


def test_chained_composition_agrees_with_the_bigram_product():
    for pattern, tok in [("bcababcc", SECT52), ("...?.?.?.?", FIG7)]:
        a = compile_pattern(pattern, tok.vocab.table)
        product = promote_bpe(a, tok).dfa
        chained = promote_bpe_chained(a, tok)
        assert canonical_form(chained) == canonical_form(product)


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
    assert all(len(r.stats) == 1 for r in results)
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
# per-vocabulary transducers


def _counting_builders(monkeypatch):
    # the token trie is built where the vocabulary keeps it, in lexicon;
    # the tracer patches the longest-match builders where promote binds them
    built = []
    for module, name in ((tokfst.lexicon, "build_token_trie"),
                         (tokfst.promote, "build_failure_trie"),
                         (tokfst.promote, "build_maxmatch_transducer")):
        def counted(arg, name=name, build=getattr(module, name)):
            built.append(name)
            return build(arg)
        monkeypatch.setattr(module, name, counted)
    return built


def _fresh(tok):
    return BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(tok.vocab.table.tokens),
                                         tok.merge_tokens())


def _promote_all(a, tok):
    return [promote_agnostic(a, tok.vocab), promote_maxmatch(a, tok.vocab), promote_bpe(a, tok)]


def test_each_vocabulary_builds_its_transducers_once(monkeypatch):
    # agnostic and bpe walk the same token trie, maxmatch composes with the
    # longest-match transducer; the vocabulary keeps both
    built = _counting_builders(monkeypatch)
    tok = _fresh(SECT52)
    # an empty pattern builds nothing
    assert {r.stats[0].label for r in _promote_all(compile_pattern("a[^abc]", tok.vocab.table),
                                                   tok)} == {"empty"}
    assert built == []
    for pattern in ("abaabcc", "(ab|c)+", "a?b", "(a|b|c)*", "c"):
        _promote_all(compile_pattern(pattern, tok.vocab.table), tok)
    assert sorted(built) == ["build_failure_trie", "build_maxmatch_transducer",
                             "build_token_trie"]
    # the machines belong to the vocabulary object: an equal one builds its own
    built.clear()
    again = _fresh(SECT52)
    a = compile_pattern("abc", again.vocab.table)
    for _ in range(3):
        _promote_all(a, again)
    assert len(built) == 3


def test_every_mode_reads_one_token_trie(monkeypatch):
    # the failure links annotate the trie the token steps walk, whichever
    # mode builds it first
    built = _counting_builders(monkeypatch)
    linked = []
    to_transducer = tokfst.promote.build_maxmatch_transducer
    monkeypatch.setattr(tokfst.promote, "build_maxmatch_transducer",
                        lambda links: linked.append(links) or to_transducer(links))
    for modes in ((promote_agnostic, promote_maxmatch), (promote_maxmatch, promote_agnostic)):
        vocab = Vocabulary.from_tokens(["a", "b", "ab", "ba"])
        a = compile_pattern("(a|b)*", vocab.table)
        for _ in range(2):
            for promote in modes:
                promote(a, vocab)
        assert built.count("build_token_trie") == 1
        assert len(linked) == 1 and linked[0].trie is vocab._machines["trie"]
        built.clear()
        linked.clear()


def _trie_snapshot(trie):
    return [(token, dict(children)) for token, children in trie]


def test_promotions_leave_the_cached_transducers_as_built():
    tok = BpeTokenizer.from_token_pairs(
        Vocabulary.from_tokens(["a", "b", "c", "d", "ab", "abc", "bc", "cd", "dd", "bcd"]),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "d"), ("ab", "c"), ("b", "cd")])
    vocab = tok.vocab
    _promote_all(compile_pattern("abcd", vocab.table), tok)
    machines = dict(vocab._machines)
    assert sorted(machines) == ["maxmatch", "trie"]
    m = machines["maxmatch"]
    snapshot = (dict(m.arcs), {q: dict(moves) for q, moves in m._moves.items()},
                _trie_snapshot(machines["trie"]))
    rng = random.Random(1616)
    for _ in range(40):
        pattern = draw_until(lambda: random_pattern_dfa(rng, vocab.table, max_states=6))
        warm = _promote_all(pattern, tok)
        cold = _promote_all(pattern, BpeTokenizer(Vocabulary(vocab.table), tok.merges))
        assert [canonical_form(r.dfa) for r in warm] == [canonical_form(r.dfa) for r in cold]
        assert [r.stats[0][:2] for r in warm] == [r.stats[0][:2] for r in cold]
    assert vocab._machines == machines
    for label, kept in machines.items():
        assert vocab._machines[label] is kept
    assert (dict(m.arcs), {q: dict(moves) for q, moves in m._moves.items()},
            _trie_snapshot(machines["trie"])) == snapshot
    assert machines["trie"] == build_token_trie(vocab)
    assert m == build_maxmatch_transducer(build_failure_trie(vocab))


def test_cached_transducers_do_not_keep_a_vocabulary_alive():
    tok = BpeTokenizer.from_token_pairs(Vocabulary.from_tokens(["x", "y", "xy", "yx"]),
                                        [("x", "y"), ("y", "x")])
    results = _promote_all(compile_pattern("(xy)*", tok.vocab.table), tok)
    vocab = tok.vocab
    assert sorted(vocab._machines) == ["maxmatch", "trie"]
    # the trie is a tuple, which takes no weak reference: the vocabulary
    # going is what frees it
    refs = weakref.ref(vocab), weakref.ref(vocab._machines["maxmatch"])
    del tok, vocab
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert all(r.dfa.finals for r in results)


# ---------------------------------------------------------------------------
# pinned output


def test_promotions_at_scale_are_pinned(tmp_path):
    # the SHA-256 of each mode's saved machine, taken when the subset
    # construction, `minimize` and `trim` still built their arcs through
    # sorted sets: a promotion must not move by one arc or state number
    tok = bpe_train(identifiers(7, 1200) + list(string.ascii_lowercase), 100)
    a = compile_pattern("(get|set)_[a-z]+", tok.vocab.table)
    path = tmp_path / "promoted.json"
    digests = []
    for result in (promote_maxmatch(a, tok.vocab), promote_agnostic(a, tok.vocab),
                   promote_bpe(a, tok)):
        save_automaton(result.dfa, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert load_automaton(path) == result.dfa
    assert digests == [
        "fc3b33fb21e44d9a9f07d48cae423754fd8d623b1a1a8fbf818954ae43310137",
        "8756bfd9cedd76c1cf30a55b6313411476ffdae554791a1c25d820f15fedaff5",
        "dcd2eb1c1638e2456e41056ee9580ff090f869b94a30dcdc9ab16bcf54907ad8",
    ]


# ---------------------------------------------------------------------------
# guards and plumbing


def test_promotion_rejects_a_foreign_table():
    a = compile_pattern("ab", FIG4.table)
    other = Vocabulary.from_tokens(["a", "b"])
    with pytest.raises(AlphabetError):
        promote_agnostic(a, other)


def test_promotion_rejects_patterns_that_are_not_deterministic_acceptors():
    table = SECT52.vocab.table
    a_, b_ = table.id("a"), table.id("b")
    shapes = {
        "transducer": [(0, a_, b_, 1)],
        "nondeterministic": [(0, a_, a_, 1), (0, a_, a_, 0)],
        "epsilon output": [(0, a_, EPSILON, 1)],
        "epsilon arc": [(0, EPSILON, EPSILON, 1)],
    }
    promotions = [lambda a: promote_agnostic(a, SECT52.vocab),
                  lambda a: promote_maxmatch(a, SECT52.vocab),
                  lambda a: promote_bpe(a, SECT52),
                  lambda a: promote_bpe_chained(a, SECT52)]
    for shape, arcs in shapes.items():
        a = Fst(table, 2, 0, frozenset({1}), [Transition(*arc) for arc in arcs])
        for promote in promotions:
            with pytest.raises(ConfigError, match="needs a deterministic acceptor"):
                promote(a)
    # an `Fst` that is a deterministic acceptor is promoted as its `Dfa`
    line = Fst(table, 3, 0, frozenset({2}), [Transition(0, a_, a_, 1), Transition(1, b_, b_, 2)])
    for promote in promotions[:3]:
        assert promote(line).dfa == promote(Dfa.from_fst(line)).dfa


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
    with pytest.raises(ConfigError, match="max_paths must not be negative"):
        language_by_chars(r.dfa, FIG6, 4, max_paths=-1)


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
    # a tokenizer over another vocabulary is refused before any work
    v = Vocabulary.from_tokens(["a", "b", "ab"])
    tok = BpeTokenizer.from_token_pairs(v, [("a", "b")])
    other = Vocabulary.from_tokens(["b", "a", "ba"])
    a = compile_pattern("ab(ab)*", v.table)
    assert check_promotion(a, v, "bpe", 6, tok) is None
    for max_chars in (6, 0):
        with pytest.raises(ConfigError):
            check_promotion(a, other, "bpe", max_chars, tok)
        with pytest.raises(ConfigError):
            expected_promotion(a, other, "bpe", max_chars, tok)
