import pytest

from tokfst import EPSILON, FAILURE, AlphabetError, SymbolTable


def test_reserved_ids_are_fixed():
    assert EPSILON == 0
    assert FAILURE == 1
    table = SymbolTable(["a", "b", "ab"])
    assert table.id("a") == 2
    assert table.id("b") == 3
    assert table.id("ab") == 4


def test_round_trip_and_display():
    table = SymbolTable(["a", "b", "ab"])
    for tok in table:
        assert table.token(table.id(tok)) == tok
    assert table.display(EPSILON) == "ε"
    assert table.display(FAILURE) == "φ"
    assert table.display(4) == "ab"


def test_char_and_token_id_partitions():
    table = SymbolTable(["a", "b", "ab", "abc"])
    assert table.char_ids() == frozenset({2, 3})
    assert table.token_ids() == frozenset({2, 3, 4, 5})
    assert "ab" in table
    assert "ba" not in table
    assert len(table) == 4


def test_bad_lookups():
    table = SymbolTable(["a"])
    with pytest.raises(AlphabetError):
        table.id("z")
    with pytest.raises(AlphabetError):
        table.token(EPSILON)
    with pytest.raises(AlphabetError):
        table.token(99)


def test_bad_construction():
    with pytest.raises(AlphabetError):
        SymbolTable(["a", "a"])
    with pytest.raises(AlphabetError):
        SymbolTable([""])


def test_tokens_must_be_encodable_as_utf8():
    with pytest.raises(AlphabetError, match=r"token '\\ud800' cannot be encoded as UTF-8"):
        SymbolTable(["a", "\ud800"])
    # the halves of a surrogate pair are lone surrogates each, even side by side
    with pytest.raises(AlphabetError, match="ud83d"):
        SymbolTable(["\ud83d", "\ude00"])
    assert SymbolTable(["😀", "é"]).id("😀") == 2


def test_equality_is_by_token_sequence():
    assert SymbolTable(["a", "b"]) == SymbolTable(["a", "b"])
    assert SymbolTable(["a", "b"]) != SymbolTable(["b", "a"])
    assert hash(SymbolTable(["a", "b"])) == hash(SymbolTable(["a", "b"]))


def test_values_that_are_not_ids_or_tokens_are_alphabet_errors():
    # floats and bools equal to an id, strings, unhashable and non-iterable values
    table = SymbolTable(("a", "b"))
    for value in (2.0, True, "2", None, [2]):
        for lookup in (table.token, table.display):
            with pytest.raises(AlphabetError, match=r"^id .* does not name a token$"):
                lookup(value)
    with pytest.raises(AlphabetError, match=r"token \['a'\] is not in the symbol table"):
        table.id(["a"])
    for tokens in (5, [["a"]]):
        with pytest.raises(AlphabetError):
            table.ids(tokens)
    assert ["a"] not in table
    with pytest.raises(AlphabetError, match="tokens 5 are not a collection of strings"):
        SymbolTable(5)
