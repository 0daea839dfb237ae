"""Transducer builders: the segmentation lexicon, the longest-match machine
with failure arcs, and the merge gadgets."""

import random

import pytest

from tokfst import (
    EPSILON,
    FAILURE,
    ConfigError,
    Dfa,
    SymbolTable,
    Vocabulary,
    apply_merge,
    build_failure_trie,
    build_lexicon_transducer,
    build_maxmatch_transducer,
    build_merge_gadget,
    compose,
    iter_segmentations,
    maxmatch_tokenize,
    minimize,
    trim,
)
from tokfst.fst import _output_subsets
from tokfst.lexicon import merge_stage
from tokfst.symbols import RESERVED

from helpers import random_merge_tokenizer, random_vocab, transduce

FIG4 = Vocabulary.from_tokens(["a", "b", "c", "ab", "abc", "bc"])
BANANAS = Vocabulary.from_tokens(["a", "b", "n", "s", "ba", "na", "ban", "bana"])
RACE = Vocabulary.from_tokens(["r", "a", "c", "e", "race", "car", "ce"])


# ---------------------------------------------------------------------------
# segmentation lexicon


def test_lexicon_transduces_a_pair_both_ways():
    table = FIG4.table
    lex = build_lexicon_transducer(FIG4)
    outs = transduce(lex, table, table.ids("ab"))
    assert outs == {table.ids(["a", "b"]), (table.id("ab"),)}


def test_lexicon_accepts_empty_input():
    lex = build_lexicon_transducer(FIG4)
    assert transduce(lex, FIG4.table, ()) == {()}


def test_lexicon_output_equals_all_segmentations():
    rng = random.Random(61)
    for _ in range(40):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        vocab = random_vocab(rng, chars, rng.randint(0, 5))
        lex = build_lexicon_transducer(vocab)
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 7)))
        got = transduce(lex, vocab.table, vocab.encode_chars(text))
        assert got == set(iter_segmentations(text, vocab))


def test_lexicon_over_bare_characters_is_the_identity():
    vocab = Vocabulary.from_tokens(["a", "b"])
    lex = build_lexicon_transducer(vocab)
    ids = vocab.table.ids("abba")
    assert transduce(lex, vocab.table, ids) == {ids}


# ---------------------------------------------------------------------------
# failure trie


def test_trie_nodes_for_the_race_vocabulary():
    trie = build_failure_trie(RACE)
    table = RACE.table

    def node(prefix):
        n = trie.nodes[prefix]
        return n.final, n.fail, tuple(table.token(i) for i in n.pops)

    assert node("") == (False, None, ())
    assert node("ra") == (False, "a", ("r",))
    assert node("rac") == (False, "c", ("r", "a"))
    assert node("race") == (True, "", ("race",))
    assert node("ce") == (True, "", ("ce",))
    # breadth first with children in sorted order: (length, text) order
    assert trie.order == ("", "a", "c", "e", "r", "ca", "ce", "ra", "car", "rac", "race")


def test_empty_vocabulary_keeps_the_root():
    empty = Vocabulary.from_tokens([])
    assert build_failure_trie(empty).order == ("",)
    lex = build_lexicon_transducer(empty)
    assert (lex.num_states, lex.start, lex.finals, lex.arcs) == (1, 0, {0}, {})


def test_trie_failure_invariant():
    # popping the recorded tokens and landing on the fallback respells the prefix
    rng = random.Random(62)
    for _ in range(30):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
        vocab = random_vocab(rng, chars, rng.randint(0, 8))
        trie = build_failure_trie(vocab)
        table = vocab.table
        for prefix, n in trie.nodes.items():
            if n.fail is None:
                assert prefix == ""
                continue
            spelled = "".join(table.token(i) for i in n.pops) + n.fail
            assert spelled == prefix
            assert n.fail in trie.nodes


def test_trie_finals_are_exactly_the_tokens():
    trie = build_failure_trie(BANANAS)
    finals = {p for p, n in trie.nodes.items() if n.final}
    assert finals == set(BANANAS.table.tokens)


# ---------------------------------------------------------------------------
# longest-match transducer


def test_maxmatch_transducer_is_functional_and_greedy():
    rng = random.Random(63)
    for _ in range(40):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        vocab = random_vocab(rng, chars, rng.randint(0, 6))
        machine = build_maxmatch_transducer(build_failure_trie(vocab))
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 8)))
        got = transduce(machine, vocab.table, vocab.encode_chars(text))
        assert got == {maxmatch_tokenize(text, vocab)}


def test_maxmatch_transducer_bananas_golden():
    machine = build_maxmatch_transducer(build_failure_trie(BANANAS))
    table = BANANAS.table
    outs = transduce(machine, table, table.ids("bananas"))
    assert outs == {table.ids(["bana", "na", "s"])}


def test_maxmatch_transducer_char_arcs_hold_output():
    # consuming a character emits nothing; emission happens on failure arcs
    machine = build_maxmatch_transducer(build_failure_trie(BANANAS))
    for arc in machine.transitions:
        if arc.inp in BANANAS.table.char_ids():
            assert arc.out == EPSILON
        if arc.inp == FAILURE:
            assert arc.out != EPSILON


def test_maxmatch_transducer_over_bare_characters():
    vocab = Vocabulary.from_tokens(["a", "b"])
    machine = build_maxmatch_transducer(build_failure_trie(vocab))
    ids = vocab.table.ids("abab")
    assert transduce(machine, vocab.table, ids) == {ids}


# ---------------------------------------------------------------------------
# merge gadgets


def gadget_for(tok, n):
    table = tok.vocab.table
    alphabet = set(table.char_ids())
    for pair in tok.merges[:n]:
        alphabet.add(table.id(table.token(pair[0]) + table.token(pair[1])))
    return build_merge_gadget(tok.merges[n], frozenset(alphabet), table)


def test_gadget_shape():
    table = RACE.table
    g = build_merge_gadget((table.id("c"), table.id("e")), frozenset(table.char_ids()), table)
    assert g.fst.num_states == 3
    assert g.fst.finals == frozenset({0, 2})
    assert table.token(g.result) == "ce"
    fail_arcs = [t for t in g.fst.transitions if t.inp == FAILURE]
    assert len(fail_arcs) == 1
    assert fail_arcs[0].src == 1 and fail_arcs[0].out == table.id("c")


def test_gadget_rewrites_every_adjacent_pair():
    rng = random.Random(64)
    for _ in range(60):
        chars = "".join(sorted(rng.sample("abc", rng.randint(2, 3))))
        tok = random_merge_tokenizer(rng, chars, rng.randint(1, 5))
        n = rng.randrange(len(tok.merges))
        g = gadget_for(tok, n)
        table = tok.vocab.table
        symbols = sorted(g.fst.input_alphabet - {EPSILON, FAILURE, g.result})
        seq = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 10)))
        got = transduce(g.fst, table, seq)
        assert got == {apply_merge(seq, tok.merges[n], table)}, (
            f"gadget {tok.merge_tokens()[n]} on {[table.token(i) for i in seq]}")


def test_gadget_merges_a_doubled_symbol():
    vocab = Vocabulary.from_tokens(["a", "aa"])
    table = vocab.table
    a, aa = table.id("a"), table.id("aa")
    g = build_merge_gadget((a, a), frozenset({a}), table)
    assert transduce(g.fst, table, (a, a, a)) == {(aa, a)}
    assert transduce(g.fst, table, (a, a, a, a)) == {(aa, aa)}


def test_gadget_with_absent_operand_is_the_identity():
    vocab = Vocabulary.from_tokens(["a", "b", "c", "ab"])
    table = vocab.table
    g = build_merge_gadget((table.id("a"), table.id("b")), frozenset({table.id("c")}), table)
    seq = (table.id("c"),) * 3
    assert transduce(g.fst, table, seq) == {seq}


def test_gadget_rejects_alphabet_ids_that_name_no_token():
    # the gadget is built unvalidated, so its builder checks the alphabet
    table = RACE.table
    c, e = table.id("c"), table.id("e")
    for bad in (EPSILON, FAILURE, RESERVED + len(table)):
        with pytest.raises(ValueError, match=f"id {bad} "):
            build_merge_gadget((c, e), frozenset({bad, c, e}), table)


def test_gadget_requires_the_result_token():
    table = SymbolTable(["a", "b"])
    with pytest.raises(ConfigError):
        build_merge_gadget((table.id("a"), table.id("b")), frozenset(table.token_ids()), table)


def test_merge_stage_is_the_minimized_gadget_composition():
    table = SymbolTable(["a", "b", "c", "aa", "ab", "bc", "ca", "aab", "abc", "bca", "aaab"])
    ids = sorted(table.token_ids())
    pairs = [(x, y) for x in ids for y in ids if table.token(x) + table.token(y) in table]
    rng = random.Random(65)
    cases = self_pairs = z_present = final_flush = open_flush = identified = 0
    while cases < 2000:
        x, y = pair = rng.choice(pairs)
        z = table.id(table.token(x) + table.token(y))
        labels = {x, y, *rng.sample(ids, rng.randint(0, 3))}
        n = rng.randint(1, 6)
        arcs = [(q, c, c, rng.randrange(n)) for q in range(n) for c in sorted(labels)
                if rng.random() < 0.45]
        finals = {q for q in range(n) if rng.random() < 0.4}
        d = trim(Dfa(table, n, 0, finals, arcs))
        if not d.finals:
            continue
        composed, deterministic = _output_subsets(
            compose(d, build_merge_gadget(pair, d.input_alphabet, table).fst))
        assert deterministic
        m = merge_stage(d, pair)
        assert minimize(m) == minimize(composed), (d.arcs, d.finals, pair)
        if z not in d.input_alphabet:  # as in promote_bpe: the walk leaves no dead key
            assert trim(m) is m, (d.arcs, d.finals, pair)
            # and on a minimal machine it is minimal, numbered as minimize numbers
            minimal = minimize(d)
            assert merge_stage(minimal, pair) == minimize(composed), (minimal.arcs, pair)
        cases += 1
        identified += m.num_states < composed.num_states  # a flush target was renamed
        self_pairs += x == y
        z_present += z in d.input_alphabet
        held = {dst for arcs in d.arcs.values() for inp, _, dst in arcs if inp == x}
        final_flush += not held.isdisjoint(d.finals)
        open_flush += any(inp not in (y, z) for r in held - d.finals for inp, _, _ in d.arcs.get(r, ()))
    assert min(self_pairs, z_present, final_flush, open_flush, identified) > 100
