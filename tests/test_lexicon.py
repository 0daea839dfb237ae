"""Transducer builders: the segmentation lexicon, the longest-match machine
with failure arcs and the merge gadgets; and the token trie's walk."""

import random

import pytest

from tokfst import (
    EPSILON,
    FAILURE,
    ConfigError,
    Dfa,
    SymbolTable,
    Vocabulary,
    build_failure_trie,
    build_lexicon_transducer,
    build_maxmatch_transducer,
    build_merge_gadget,
    iter_segmentations,
    maxmatch_tokenize,
)
from tokfst.lexicon import build_token_trie, token_steps
from tokfst.symbols import RESERVED

from helpers import (
    apply_merge,
    greedy_failure_links,
    random_merge_tokenizer,
    random_vocab,
    transduce,
    trie_spellings,
)

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
    spelled = trie_spellings(trie.trie, table)
    ids = {text: node for node, text in enumerate(spelled)}

    def node(prefix):
        n = ids[prefix]
        fail = trie.fail[n]
        return (trie.trie[n][0] is not None, None if fail is None else spelled[fail],
                tuple(table.token(i) for i in trie.pops[n]))

    assert node("") == (False, None, ())
    assert node("ra") == (False, "a", ("r",))
    assert node("rac") == (False, "c", ("r", "a"))
    assert node("race") == (True, "", ("race",))
    assert node("ce") == (True, "", ("ce",))
    # breadth first with children in sorted order: (length, text) order
    assert spelled == ["", "a", "c", "e", "r", "ca", "ce", "ra", "car", "rac", "race"]
    assert trie.trie == build_token_trie(RACE)


def test_empty_vocabulary_keeps_the_root():
    empty = Vocabulary.from_tokens([])
    trie = build_failure_trie(empty)
    assert (trie.trie, trie.fail, trie.pops) == (((None, {}),), (None,), ((),))
    lex = build_lexicon_transducer(empty)
    assert (lex.num_states, lex.start, lex.finals, lex.arcs) == (1, 0, {0}, {})


def test_trie_failure_invariant():
    # popping the recorded tokens and landing on the fallback respells the node
    rng = random.Random(62)
    for _ in range(30):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(2, 4))))
        vocab = random_vocab(rng, chars, rng.randint(0, 8))
        trie = build_failure_trie(vocab)
        table = vocab.table
        spelled = trie_spellings(trie.trie, table)
        for n, (fail, pops) in enumerate(zip(trie.fail, trie.pops)):
            if fail is None:
                assert n == 0
                continue
            assert 0 <= fail < len(trie.trie)
            assert "".join(table.token(i) for i in pops) + spelled[fail] == spelled[n]


def test_trie_finals_are_exactly_the_tokens():
    trie = build_failure_trie(BANANAS)
    spelled = trie_spellings(trie.trie, BANANAS.table)
    finals = {spelled[n]: token for n, (token, _) in enumerate(trie.trie) if token is not None}
    assert set(finals) == set(BANANAS.table.tokens)
    assert all(BANANAS.table.id(text) == token for text, token in finals.items())


def test_failure_links_equal_the_greedy_definition():
    # the breadth-first pass against each node's longest-match tokens
    rng = random.Random(64)
    for _ in range(5000):
        chars = "".join(sorted(rng.sample("abcd", rng.randint(1, 4))))
        vocab = random_vocab(rng, chars, rng.randint(0, 12))
        trie = build_failure_trie(vocab)
        assert list(zip(trie.fail, trie.pops)) == greedy_failure_links(vocab)


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


def test_token_steps_read_each_token_from_every_state():
    rng = random.Random(65)
    found = 0
    for _ in range(200):
        chars = "".join(sorted(rng.sample("abc", rng.randint(1, 3))))
        vocab = random_vocab(rng, chars, rng.randint(0, 6))
        table = vocab.table
        n = rng.randint(1, 5)
        arcs = [(q, c, c, rng.randrange(n)) for q in range(n) for c in sorted(table.char_ids())
                if rng.random() < 0.6]
        d = Dfa(table, n, 0, {n - 1}, arcs)
        delta = {(q, inp): dst for q, q_arcs in d.arcs.items() for inp, _, dst in q_arcs}
        steps = token_steps(build_token_trie(vocab), d)
        assert len(steps) == n
        for q in range(n):
            expected = []
            for t in sorted(table.token_ids()):
                state = q
                for ch in table.token(t):
                    state = delta.get((state, table.id(ch)))
                    if state is None:
                        break
                else:
                    expected.append((t, state))
            assert steps[q] == expected, (table.tokens, d.arcs, q)
            found += len(expected)
    assert found > 1000
