"""Pattern compilation, cross-checked against Python's `re`, which shares
nothing with the Thompson construction."""

import itertools
import random
import re

import pytest

from tokfst import (
    AlphabetError,
    Dfa,
    PatternSyntaxError,
    SymbolTable,
    accepts,
    canonical_form,
    compile_pattern,
    determinize,
    enumerate_language,
    epsilon_remove,
    minimize,
)
from tokfst.pattern import _Compiler

from helpers import random_pattern_text

AB = SymbolTable(["a", "b"])
ABC = SymbolTable(["a", "b", "c"])


def lang(pattern, table, max_len):
    return enumerate_language(compile_pattern(pattern, table), max_len)


def spell(table, ids):
    return "".join(table.token(i) for i in ids)


def test_literal_chain_shape():
    d = compile_pattern("abaabcc", ABC)
    assert d.num_states == 8
    assert len(d.transitions) == 7
    assert enumerate_language(d, 7) == {ABC.ids("abaabcc")}
    assert not accepts(d, ABC.ids("abaab"))


def test_empty_pattern_accepts_empty_string():
    d = compile_pattern("", AB)
    assert enumerate_language(d, 3) == {()}


def test_alternation_and_duplicates_minimize_away():
    assert canonical_form(compile_pattern("a|a", AB)) == canonical_form(compile_pattern("a", AB))
    assert lang("a|b", AB, 2) == {AB.ids("a"), AB.ids("b")}


def test_star_language():
    got = {spell(ABC, s) for s in lang("(ab)*c", ABC, 7)}
    assert got == {"c", "abc", "ababc", "abababc"}


def test_plus_and_question():
    assert {spell(AB, s) for s in lang("a+", AB, 3)} == {"a", "aa", "aaa"}
    assert {spell(AB, s) for s in lang("ab?", AB, 3)} == {"a", "ab"}


def test_char_class_and_dot():
    assert lang("[ab]", ABC, 1) == {ABC.ids("a"), ABC.ids("b")}
    assert lang("[^ab]", ABC, 1) == {ABC.ids("c")}
    assert lang(".", ABC, 1) == {ABC.ids("a"), ABC.ids("b"), ABC.ids("c")}
    assert lang("[a-c]", ABC, 1) == lang(".", ABC, 1)


def test_negated_class_can_be_empty():
    # legal pattern with an empty language once the alphabet is applied
    d = compile_pattern("[^ab]", AB)
    assert enumerate_language(d, 4) == set()


def test_escapes():
    table = SymbolTable(["a", "*"])
    assert lang(r"a\*", table, 2) == {(table.id("a"), table.id("*"))}


def test_unknown_character_is_an_alphabet_error():
    with pytest.raises(AlphabetError):
        compile_pattern("z", AB)


def test_syntax_errors_outrank_unknown_characters():
    # the first unknown character in text order is named; in a class, the smallest
    with pytest.raises(PatternSyntaxError) as info:
        compile_pattern("z(", AB)
    assert info.value.offset == 2
    with pytest.raises(AlphabetError, match="'z'"):
        compile_pattern("zy", AB)
    with pytest.raises(AlphabetError, match="'y'"):
        compile_pattern("[zy]", AB)


@pytest.mark.parametrize("text,offset", [
    ("(((", 3),
    ("(a", 2),
    ("a)", 1),
    ("*a", 0),
    ("a|*b", 2),
    ("[z-a]", 4),
    ("[", 1),
    ("a\\", 2),
    ("[]", 1),
    ("[a\\", 3),
    ("a\\d", 2),
    ("[\\d]", 2),
    ("a\\b", 2),
    ("(" * 101 + "a" + ")" * 101, 100),
    ("a|" + "(" * 500 + "a" + ")" * 500, 102),
])
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(PatternSyntaxError) as info:
        compile_pattern(text, AB)
    assert info.value.offset == offset
    assert f"offset {offset}" in str(info.value)


def test_stacked_quantifiers_fold():
    star = canonical_form(compile_pattern("a*", AB))
    for text in ("a*+?", "a?+", "a+*", "a" + "*" * 3000):
        assert canonical_form(compile_pattern(text, AB)) == star
    assert canonical_form(compile_pattern("a??", AB)) == canonical_form(
        compile_pattern("a?", AB))


def test_compiled_output_is_minimal_and_deterministic():
    rng = random.Random(11)
    for _ in range(50):
        pattern = random_pattern_text(rng, "ab", rng.randint(1, 3))
        d = compile_pattern(pattern, AB)
        assert Dfa.from_fst(d) == d
        assert minimize(d).num_states == d.num_states


def test_matches_reference_matcher_on_random_patterns():
    rng = random.Random(1234)
    chars = "ab"
    strings = [
        "".join(w)
        for n in range(0, 9)
        for w in itertools.product(chars, repeat=n)
    ]
    checked = 0
    for _ in range(120):
        pattern = random_pattern_text(rng, chars, rng.randint(1, 4))
        reference = re.compile(pattern)
        d = compile_pattern(pattern, AB)
        for text in strings:
            assert accepts(d, AB.ids(text)) == bool(reference.fullmatch(text)), (
                f"pattern {pattern!r} disagrees on {text!r}")
        checked += 1
    assert checked == 120


def test_one_subset_walk_matches_the_operator_chain():
    """`compile_pattern` determinizes the Thompson machine, ε arcs and all,
    in one subset construction: the same DFA, state for state and arc for
    arc, as removing the ε arcs first, on 3,000 seeded random patterns and
    a few with many ε arcs or a large subset construction."""
    rng = random.Random(2424)
    texts = [random_pattern_text(rng, "abc", rng.randint(1, 4)) for _ in range(3000)]
    texts += ["(a|b)*a" + "(a|b)" * 6, "a" * 50, "(a|b|)*(ab)?"]
    for text in texts:
        nfa = _Compiler(text, ABC).compile()
        assert compile_pattern(text, ABC) == minimize(determinize(epsilon_remove(nfa))), text
