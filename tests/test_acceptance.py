"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 3-5 share seeded instance sets built once in helpers; criterion 6
composes the paper's lexicon transducer and merge gadgets over the same
instances and compares with the promotions those runs made. Budgets are
asserted with the wall-clock limits the criteria state.
"""

import random
import time

from tokfst import (
    BpeTokenizer,
    Dfa,
    StubLM,
    Vocabulary,
    accepts,
    canonical_form,
    check_promotion,
    compile_pattern,
    constrained_decode,
    load_automaton,
    maxmatch_tokenize,
    promote_agnostic,
    promote_bpe,
    promote_bpe_chained,
    promote_maxmatch,
    save_automaton,
)
from tokfst.cli import main

from helpers import (
    agnostic_instances,
    bpe_instances,
    draw_until,
    gadget_stages,
    lexicon_promotion,
    merge_list_pass,
    random_merge_tokenizer,
    random_pattern_dfa,
    tokenize_incremental,
)

FIG2 = Vocabulary.from_tokens(["a", "b", "n", "s", "ba", "na", "ban", "bana"])
ABA = Vocabulary.from_tokens(["a", "b", "ab", "aba"])
FIG4 = Vocabulary.from_tokens(["a", "b", "c", "ab", "abc", "bc"])
FIG6 = Vocabulary.from_tokens(["a", "b", "aa", "ab"])
TOPOLOGY = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["t", "o", "p", "l", "g", "y", "to", "gy", "lo", "po", "logy"]),
    [("t", "o"), ("g", "y"), ("l", "o"), ("p", "o"), ("lo", "gy")],
)
SECT52 = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["a", "b", "c", "ab", "bc", "cc", "abc"]),
    [("a", "b"), ("b", "c"), ("c", "c"), ("ab", "c")],
)
FIG7 = BpeTokenizer.from_token_pairs(
    Vocabulary.from_tokens(["a", "b", "c", "d", "aa", "ab", "db", "cdb"]),
    [("a", "a"), ("a", "b"), ("d", "b"), ("c", "db")],
)
RACE = Vocabulary.from_tokens(["r", "a", "c", "e", "race", "car", "ce"])


# replayed after the run by the conftest terminal-summary hook, since pytest
# captures stdout for passing tests
VERDICTS: list[str] = []


def verdict(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICTS.append(line)
    print(line)


def test_criterion_01_golden_maxmatch():
    t0 = time.perf_counter()
    bananas = [FIG2.table.token(i) for i in maxmatch_tokenize("bananas", FIG2)]
    abaab = [ABA.table.token(i) for i in maxmatch_tokenize("abaab", ABA)]
    elapsed = time.perf_counter() - t0
    ok = bananas == ["bana", "na", "s"] and abaab == ["aba", "ab"] and elapsed < 1
    verdict(1, ok, f"bananas -> {bananas}, abaab -> {abaab} in {elapsed:.3f}s")
    assert bananas == ["bana", "na", "s"]
    assert abaab == ["aba", "ab"]
    assert elapsed < 1


def test_criterion_02_golden_bpe():
    t0 = time.perf_counter()
    results = {}
    for label, tok, text in [("topology", TOPOLOGY, "topology"),
                             ("bcababcc", SECT52, "bcababcc")]:
        results[label] = tuple([tok.vocab.table.token(i) for i in ids] for ids in (
            tok.tokenize(text), tokenize_incremental(tok, text), merge_list_pass(tok, text)))
    elapsed = time.perf_counter() - t0
    expected = {"topology": ["to", "po", "logy"], "bcababcc": ["bc", "ab", "ab", "cc"]}
    ok = all(results[k] == (expected[k],) * 3 for k in expected) and elapsed < 1
    verdict(2, ok, f"{results['topology'][0]} / {results['bcababcc'][0]} in {elapsed:.3f}s")
    for k in expected:
        assert results[k] == (expected[k],) * 3
    assert elapsed < 1


def test_criterion_03_agnostic_oracle_equality():
    t0 = time.perf_counter()
    instances = agnostic_instances()
    failures = [
        (n, diff)
        for n, (a, v, _) in enumerate(instances)
        if (diff := check_promotion(a, v, "agnostic", 10)) is not None
    ]
    elapsed = time.perf_counter() - t0
    ok = not failures and len(instances) == 100 and elapsed < 60
    verdict(3, ok, f"{len(instances)} instances, {len(failures)} mismatches in {elapsed:.1f}s")
    assert len(instances) == 100
    assert not failures, failures[:3]
    assert elapsed < 60


def test_criterion_04_maxmatch_oracle_equality():
    t0 = time.perf_counter()
    instances = agnostic_instances()
    failures = [
        (n, diff)
        for n, (a, v, _) in enumerate(instances)
        if (diff := check_promotion(a, v, "maxmatch", 12)) is not None
    ]
    fig4 = check_promotion(compile_pattern("abaabcc", FIG4.table), FIG4, "maxmatch", 12)
    fig6 = check_promotion(compile_pattern("(a|b)*", FIG6.table), FIG6, "maxmatch", 12)
    elapsed = time.perf_counter() - t0
    ok = not failures and fig4 is None and fig6 is None and elapsed < 60
    verdict(4, ok, f"{len(instances)} instances + 2 fixtures, "
                   f"{len(failures)} mismatches in {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert fig4 is None and fig6 is None
    assert elapsed < 60


def test_criterion_05_bpe_oracle_equality():
    t0 = time.perf_counter()
    instances = bpe_instances()
    failures = [
        (n, diff)
        for n, (a, tok, _) in enumerate(instances)
        if (diff := check_promotion(a, tok.vocab, "bpe", 12, tok)) is not None
    ]
    sect52 = check_promotion(
        compile_pattern("bcababcc", SECT52.vocab.table), SECT52.vocab, "bpe", 12, SECT52)
    fig7 = check_promotion(
        compile_pattern("...?.?.?.?", FIG7.vocab.table), FIG7.vocab, "bpe", 12, FIG7)
    elapsed = time.perf_counter() - t0
    ok = not failures and sect52 is None and fig7 is None and elapsed < 120
    verdict(5, ok, f"{len(instances)} instances + 2 fixtures, "
                   f"{len(failures)} mismatches in {elapsed:.1f}s")
    assert len(instances) == 100
    assert not failures, failures[:3]
    assert sect52 is None and fig7 is None
    assert elapsed < 120


def test_criterion_06_stage_determinism():
    """Lexicon and merge-gadget stages are deterministic before minimization.

    `promote_agnostic` walks the token steps and composes no lexicon
    transducer, so the lexicon half composes it here: for each agnostic
    instance, the subset construction over the output side of the pattern
    composed with `build_lexicon_transducer` must merge no targets, and its
    minimized result must equal `promote_agnostic`'s. It holds by
    construction: the pattern is deterministic and each token's trie path
    is one path. The gadget half holds because a merge gadget emits its
    held operand through the flush arc alone: a repeated operand is flushed
    and then held again, so when a pattern branches on the symbol after a
    held operand, both continuations emit that operand along one arc.
    `promote_bpe` composes no gadget either, so the gadgets are composed
    here one merge at a time, as the paper's staged construction does, and
    each subset construction must merge no targets; the staged result must
    equal `promote_bpe`'s.
    """
    lexicon_bad, lexicon_mismatched = [], []
    instances = agnostic_instances()
    for n, (a, vocab, res) in enumerate(instances):
        composed, deterministic = lexicon_promotion(a, vocab)
        if not deterministic:
            lexicon_bad.append(n)
        if composed != res.dfa:
            lexicon_mismatched.append(n)
    gadget_bad, mismatched = [], []
    live = composed = 0
    cases = [(f"random[{n}]", a, tok, res) for n, (a, tok, res) in enumerate(bpe_instances())]
    for label, tok, pattern in [("sect52", SECT52, "bcababcc"),
                                ("fig7", FIG7, "...?.?.?.?")]:
        a = compile_pattern(pattern, tok.vocab.table)
        cases.append((label, a, tok, promote_bpe(a, tok)))
    for label, a, tok, res in cases:
        staged, stages = gadget_stages(a, tok)
        if staged != res.dfa:
            mismatched.append(label)
        live += sum(changed for _, changed, _ in stages)
        composed += len(stages)
        gadget_bad += [(label, stage) for stage, _, det in stages if not det]
    ok = (not lexicon_bad and not lexicon_mismatched and not gadget_bad and not mismatched
          and live > 50)
    detail = (f"lexicon violations: {len(lexicon_bad)} in {len(instances)} compositions, "
              f"{len(lexicon_mismatched)} results unlike promote_agnostic's, "
              f"merge-gadget violations: {len(gadget_bad)} in {composed} stages, {live} live, "
              f"{len(mismatched)} results unlike promote_bpe's")
    if gadget_bad:
        detail += f" (e.g. {gadget_bad[:3]})"
    verdict(6, ok, detail)
    assert len(instances) == 100
    assert not lexicon_bad and not lexicon_mismatched, (lexicon_bad[:5], lexicon_mismatched[:5])
    assert live > 50 and not mismatched, mismatched[:5]
    assert not gadget_bad, (
        f"{len(gadget_bad)} merge-gadget intermediates required subset "
        f"construction, first few: {gadget_bad[:5]}. Branching patterns make "
        "the held-operand flush ambiguous before minimization; languages stay "
        "exact (criteria 5 and 8), but determinism-before-minimize does not "
        "hold for merge gadget stages in general.")


def test_criterion_07_bpe_algorithms_agree():
    t0 = time.perf_counter()
    rng = random.Random(707)
    mismatches = 0
    for _ in range(1000):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(0, 12))
        word = "".join(rng.choice(chars) for _ in range(rng.randint(0, 20)))
        if not tok.tokenize(word) == tokenize_incremental(tok, word) == merge_list_pass(tok, word):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10
    verdict(7, ok, f"1000 pairs, {mismatches} mismatches in {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10


def test_criterion_08_polynomial_growth():
    t0 = time.perf_counter()
    rng = random.Random(808)
    chars = "abc"
    over_bound = []
    chain_mismatch = []
    for n_states in (4, 6, 8):
        tokenizers = {k: random_merge_tokenizer(rng, chars, k) for k in (2, 4, 8, 16)}
        base = tokenizers[2].vocab.table
        shape = draw_until(lambda: random_pattern_dfa(
            rng, base, exact_states=n_states, max_strings=100_000, max_chars=6))
        for k, tok in tokenizers.items():
            assert len(tok.merges) == k
            # same pattern, rebuilt against this tokenizer's table
            a = Dfa(tok.vocab.table, shape.num_states, shape.start,
                    shape.finals, shape.transitions)
            result = promote_bpe(a, tok)
            bound = k * n_states ** 3
            for count in (s.states for s in result.stats):
                if count > bound:
                    over_bound.append((n_states, k, count, bound))
            if k <= 4:
                chained = promote_bpe_chained(a, tok)
                if canonical_form(chained) != canonical_form(result.dfa):
                    chain_mismatch.append((n_states, k))
    elapsed = time.perf_counter() - t0
    ok = not over_bound and not chain_mismatch and elapsed < 120
    verdict(8, ok, f"12 pattern/merge-list pairs, {len(over_bound)} bound "
                   f"violations, {len(chain_mismatch)} chain mismatches in {elapsed:.1f}s")
    assert not over_bound, over_bound
    assert not chain_mismatch, chain_mismatch
    assert elapsed < 120


def test_criterion_09_guided_generation():
    t0 = time.perf_counter()
    pattern = compile_pattern("racecar", RACE.table)
    greedy = promote_maxmatch(pattern, RACE).dfa
    loose = promote_agnostic(pattern, RACE).dfa
    canonical = maxmatch_tokenize("racecar", RACE)

    canonical_misses = []
    for seed in range(100):
        out = constrained_decode(StubLM(seed), greedy)
        if out != canonical:
            canonical_misses.append(seed)

    divergent = []
    rejected = []
    for seed in range(100):
        out = constrained_decode(StubLM(seed), loose)
        if not accepts(loose, out) or RACE.decode(out) != "racecar":
            rejected.append(seed)
        if out != canonical:
            divergent.append(seed)
    elapsed = time.perf_counter() - t0
    ok = (not canonical_misses and divergent and not rejected and elapsed < 10)
    verdict(9, ok, f"maxmatch misses: {len(canonical_misses)}, agnostic "
                   f"divergent seeds: {len(divergent)}, rejects: {len(rejected)} "
                   f"in {elapsed:.1f}s")
    assert not canonical_misses
    assert divergent, "no seed produced a non-canonical segmentation"
    assert not rejected
    assert elapsed < 10


def test_criterion_10_serialization_and_cli(tmp_path, capsys):
    t0 = time.perf_counter()

    def cli(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    fig2 = tmp_path / "fig2.txt"
    fig2.write_text("".join(t + "\n" for t in FIG2.table.tokens))
    aba = tmp_path / "aba.txt"
    aba.write_text("".join(t + "\n" for t in ABA.table.tokens))
    topo_v = tmp_path / "topology_vocab.txt"
    topo_v.write_text("".join(t + "\n" for t in TOPOLOGY.vocab.table.tokens))
    topo_m = tmp_path / "topology_merges.txt"
    topo_m.write_text("".join(f"{x} {y}\n" for x, y in TOPOLOGY.merge_tokens()))
    s52_v = tmp_path / "sect52_vocab.txt"
    s52_v.write_text("".join(t + "\n" for t in SECT52.vocab.table.tokens))
    s52_m = tmp_path / "sect52_merges.txt"
    s52_m.write_text("".join(f"{x} {y}\n" for x, y in SECT52.merge_tokens()))

    outputs = [
        cli("tokenize", "--mode", "maxmatch", "--vocab", fig2, "--input", "bananas"),
        cli("tokenize", "--mode", "maxmatch", "--vocab", aba, "--input", "abaab"),
        cli("tokenize", "--mode", "bpe", "--vocab", topo_v, "--merges", topo_m,
            "--input", "topology"),
        cli("tokenize", "--mode", "bpe", "--vocab", s52_v, "--merges", s52_m,
            "--input", "bcababcc"),
    ]
    expected = [
        (0, "bana na s\n"),
        (0, "aba ab\n"),
        (0, "to po logy\n"),
        (0, "bc ab ab cc\n"),
    ]

    round_trip_failures = []
    target = tmp_path / "promoted.json"
    for n, (_, _, res) in enumerate(agnostic_instances()):
        save_automaton(res.dfa, target)
        loaded = load_automaton(target)
        if canonical_form(loaded) != canonical_form(res.dfa):
            round_trip_failures.append(n)
    elapsed = time.perf_counter() - t0
    ok = outputs == expected and not round_trip_failures and elapsed < 30
    verdict(10, ok, f"CLI outputs {'exact' if outputs == expected else 'WRONG'}, "
                    f"{len(round_trip_failures)} round-trip failures in {elapsed:.1f}s")
    assert outputs == expected
    assert not round_trip_failures
    assert elapsed < 30
