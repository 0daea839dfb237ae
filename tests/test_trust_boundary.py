"""Property tests of the trust boundary: whatever a caller or a file hands the
library ends in a typed error, never in an unrelated exception or a
traceback; the command line turns every input into an exit code."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tokfst import (
    AlphabetError,
    BpeTokenizer,
    ConfigError,
    Dfa,
    EnumerationError,
    Fst,
    IncompleteGenerationError,
    StubLM,
    SymbolTable,
    TokfstError,
    Transition,
    ValidationError,
    Vocabulary,
    check_promotion,
    compile_pattern,
    constrained_decode,
    enumerate_language,
    export_dot,
    iter_segmentations,
    language_by_chars,
    load_automaton,
    load_merges,
    load_vocab,
    maxmatch_tokenize,
    minimize,
    promote_agnostic,
    promote_bpe,
    promote_bpe_chained,
    promote_maxmatch,
    trim,
)
from tokfst.cli import main
from tokfst.promote import expected_promotion

from helpers import random_merge_tokenizer, tokenize_incremental

TABLE = SymbolTable(["a", "b"])
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

small = st.integers(-2, 6)  # around every id and state bound of a 2-token table
near = st.integers(0, 3)  # ids and states that are mostly valid for 4 states
acceptor_row = st.tuples(near, st.integers(2, 3), near).map(lambda r: (r[0], r[1], r[1], r[2]))
# small ints, and floats and bools that compare like them but are not ints
loose = small | st.booleans() | st.floats(-2, 6)
# rows of 3 or 5 fields, and rows that are not tuples at all
malformed_row = st.tuples(near, near, near) | st.tuples(near, near, near, near, near) | loose
# (table, num_states, start, finals, rows): any small numbers, mostly valid
# ones, or a table, finals or rows of the wrong shape
machines = st.tuples(
    st.just(TABLE), loose, loose, st.lists(loose, max_size=3),
    st.lists(st.tuples(loose, loose, loose, loose), max_size=8),
) | st.tuples(
    st.just(TABLE),
    st.just(4),
    near,
    st.lists(near, max_size=3),
    st.lists(st.tuples(near, near, near, near), max_size=8) | st.lists(acceptor_row, max_size=6)
    # integer rows, which pass the type test, around every state or id bound
    | st.lists(acceptor_row | st.tuples(small, near, near, small) | st.tuples(near, small, small, near),
               max_size=6),
) | st.tuples(
    st.just(TABLE) | st.sampled_from(["ab", None, ("a", "b")]),
    st.just(4),
    near,
    st.lists(near, max_size=3) | loose,
    st.lists(acceptor_row | malformed_row, max_size=6) | loose,
)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=11), inner, max_size=3),
    max_leaves=8,
)
# no text, though some iterate like text: each text argument refuses them
words = st.lists(st.text(alphabet="ab", max_size=2), max_size=3)
not_text = (st.none() | st.booleans() | st.integers() | st.floats() | st.binary(max_size=3)
            | words | words.map(tuple))
# documents with the interchange fields, so values reach the deeper checks
documents = st.fixed_dictionaries({
    "symbols": st.lists(st.text(max_size=2), max_size=3) | scalars,
    "num_states": small | scalars,
    "start": small | scalars,
    "finals": st.lists(small, max_size=3) | scalars,
    "transitions": st.lists(st.lists(small, min_size=3, max_size=5), max_size=4) | scalars,
})


@FUZZ
@given(st.one_of(json_values, documents).map(json.dumps).map(str.encode) | st.binary(max_size=80))
def test_load_automaton_raises_only_typed_errors(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    try:
        d = load_automaton(path)
    except TokfstError:
        return
    assert isinstance(d, Dfa)


SYMBOLS = SymbolTable(["a", "b", "ab"])


@FUZZ
@given(st.sampled_from(["token", "display", "id", "ids", "table"]),
       st.integers(-1, 5) | st.text(alphabet="ab", max_size=3) | json_values
       | st.lists(st.text(alphabet="ab", max_size=2) | scalars, max_size=3).map(tuple))
def test_symbol_lookups_raise_only_alphabet_errors(lookup, value):
    try:
        if lookup == "table":
            result = SymbolTable(value)
        else:
            result = getattr(SYMBOLS, lookup)(value)
    except AlphabetError:
        return
    if lookup == "token":
        assert type(value) is int and SYMBOLS.id(result) == value
    elif lookup == "display":
        assert type(value) is int and 0 <= value < 5 and isinstance(result, str)
    elif lookup == "id":
        assert SYMBOLS.token(result) == value
    elif lookup == "ids":
        assert tuple(map(SYMBOLS.token, result)) == tuple(value)
    else:
        assert result.tokens == tuple(value)


@FUZZ
@given(st.sampled_from([Fst, Dfa]), machines)
def test_constructors_raise_only_value_errors(cls, machine):
    table, num_states, start, finals, arcs = machine
    try:
        m = cls(table, num_states, start, finals, arcs)
    except ValidationError:
        return
    assert table is TABLE
    assert all(type(row) is tuple and len(row) == 4 for row in arcs)
    assert all(type(x) is int for x in (num_states, start, *finals, *(x for row in arcs for x in row)))
    assert m.transitions == tuple(sorted(Transition(*row) for row in arcs))
    assert cls(TABLE, num_states, start, frozenset(finals), arcs[::-1]) == m
    trim(m)
    enumerate_language(m, 3)
    export_dot(m)
    if cls is Dfa:
        minimize(m)


@FUZZ
@given(st.text(alphabet="abc()[]|*+?.^-\\", max_size=16) | not_text)
def test_compile_pattern_raises_only_typed_errors(text):
    try:
        compile_pattern(text, TABLE)
    except TokfstError as err:  # a ConfigError for exactly the values that are no str
        assert isinstance(err, ConfigError) != isinstance(text, str)
    else:
        assert isinstance(text, str)


# text files of short lines over a few characters, or raw bytes
lines = st.text(alphabet="ab #\n", max_size=12).map(str.encode) | st.binary(max_size=24)
VOCAB = Vocabulary.from_tokens(["a", "b", "ab"])


@FUZZ
@given(lines)
def test_load_vocab_raises_only_typed_errors(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_bytes(content)
    try:
        v = load_vocab(path)
    except TokfstError:
        return
    assert isinstance(v, Vocabulary)


@FUZZ
@given(lines)
def test_load_merges_raises_only_typed_errors(tmp_path, content):
    path = tmp_path / "merges.txt"
    path.write_bytes(content)
    try:
        load_merges(path, VOCAB)
    except TokfstError:
        pass


# merge lists, as id pairs or as token pairs: pairs around the vocabulary's
# entries, entries of another length or type, or no sequence at all
merge_entries = st.tuples(small, small) | st.lists(small, max_size=3) | st.lists(scalars, max_size=3)


@FUZZ
@given(st.lists(merge_entries | scalars, max_size=4) | scalars,
       st.lists(st.lists(st.text(alphabet="ab", max_size=2) | st.lists(st.just("a"), max_size=1),
                         max_size=3) | scalars, max_size=3) | scalars)
def test_merge_lists_raise_only_typed_errors(merges, pairs):
    for build in (lambda: BpeTokenizer(VOCAB, merges),
                  lambda: BpeTokenizer.from_token_pairs(VOCAB, pairs)):
        try:
            tok = build()
        except TokfstError:
            continue
        assert tok.merges == ((2, 3),)  # the one merge that makes "ab"


def test_malformed_merges_are_config_errors():
    for merges in (((2, 3, 4),), ((2,),), (("a", "b"),), ((2.0, 3),), ((True, 3),), (5,), 7):
        with pytest.raises(ConfigError):
            BpeTokenizer(VOCAB, merges)
    for pairs in ([("a",)], [("a", "b", "ab")], [("a", ["b"])], [5], 5):
        with pytest.raises(ConfigError):
            BpeTokenizer.from_token_pairs(VOCAB, pairs)


# random merge lists over one to three characters; text made of their tokens,
# sometimes with one character from outside the alphabet
@FUZZ
@given(st.integers(0, 2**32), st.sampled_from(["a", "ab", "abc"]), st.integers(0, 40),
       st.lists(st.integers(0, 2**16), max_size=16),
       st.none() | st.tuples(st.integers(0, 80), st.sampled_from("zé")))
def test_bpe_tokenize_raises_only_alphabet_errors(seed, chars, k, pieces, foreign):
    tok = random_merge_tokenizer(random.Random(seed), chars, k)
    tokens = tok.vocab.table.tokens
    text = "".join(tokens[p % len(tokens)] for p in pieces)
    if foreign is not None:
        at, ch = foreign
        text = text[:at] + ch + text[at:]
    try:
        ids = tok.tokenize(text)
    except AlphabetError:
        assert foreign is not None
        return
    assert tok.vocab.decode(ids) == text
    assert ids == tokenize_incremental(tok, text)


@FUZZ
@given(st.sampled_from(["bpe", "maxmatch", "segmentations"]), not_text)
def test_tokenizers_take_only_str_text(reader, value):
    tok = random_merge_tokenizer(random.Random(0), "ab", 3)
    read = {"bpe": tok.tokenize, "maxmatch": lambda t: maxmatch_tokenize(t, tok.vocab),
            "segmentations": lambda t: next(iter_segmentations(t, tok.vocab))}[reader]
    with pytest.raises(ConfigError, match="text must be a str, got "):
        read(value)


files = st.sampled_from(["vocab.txt", "merges.txt", "m.json", "missing.txt", "."])
outputs = st.just("out.json") | st.sampled_from(["missing/out.json", "subdir"])
values = {  # mostly the file an option expects, sometimes another
    "--pattern": st.text(alphabet="abz()[]|*+?.^-\\", max_size=8),
    "--vocab": st.just("vocab.txt") | files,
    "--merges": st.just("merges.txt") | files,
    # the last two name no mode
    "--mode": st.sampled_from(["agnostic", "maxmatch", "bpe", "bpe-iterative", "x"]),
    "--out": outputs,
    "--dot": outputs,
    "--input": st.text(alphabet="abz ", max_size=6),
    "--automaton": st.just("m.json") | files,
    "--max-len": st.sampled_from(["-1", "0", "1", "3", "x"]),
    "--prefix": st.text(alphabet="ab z", max_size=5),
}
options = {
    "promote": ["--pattern", "--vocab", "--merges", "--mode", "--out", "--dot", "--stats"],
    "tokenize": ["--mode", "--vocab", "--merges", "--input"],
    "enumerate": ["--automaton", "--max-len"],
    "check": ["--pattern", "--vocab", "--merges", "--mode", "--max-len"],
    "mask": ["--automaton", "--prefix"],
    "dot": ["--automaton", "--out"],
    "help": ["--help"],
}
# each command with all but at most one of its options, each with a value when it takes one
commands = st.sampled_from(sorted(options)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.sets(st.sampled_from(options[command]), max_size=1).flatmap(lambda dropped: st.tuples(*(
        st.tuples(st.just(f), values.get(f, st.none()))
        for f in options[command] if f not in dropped))),
))
machine = st.just({"symbols": ["a", "b", "ab"], "num_states": 2, "start": 0, "finals": [1],
                   "transitions": [[0, 2, 2, 1], [0, 4, 4, 1], [1, 3, 3, 1]]})


@FUZZ
@given(commands,
       st.just(b"a\nb\nab\n") | lines,
       st.just(b"a b\n") | lines,
       (machine | documents).map(json.dumps).map(str.encode) | st.binary(max_size=24))
def test_cli_returns_an_exit_code(tmp_path, command, vocab, merges, automaton):
    (tmp_path / "vocab.txt").write_bytes(vocab)
    (tmp_path / "merges.txt").write_bytes(merges)
    (tmp_path / "m.json").write_bytes(automaton)
    (tmp_path / "subdir").mkdir(exist_ok=True)
    name, flags = command
    argv = [] if name == "help" else [name]
    for flag, value in flags:
        argv.append(flag)
        if flag in ("--vocab", "--merges", "--automaton", "--out", "--dot"):
            argv.append(str(tmp_path / value))
        elif value is not None:
            argv.append(value)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


# the agnostic (a|b)* machine over [a, b, ab]: its language has no end, so a
# bound that is not an int must be refused before any enumeration starts
AB = Vocabulary.from_tokens(["a", "b", "ab"])
STAR_PATTERN = compile_pattern("(a|b)*", AB.table)
STAR = promote_agnostic(STAR_PATTERN, AB).dfa
BOUNDED = {
    "max_len": lambda n: enumerate_language(STAR, n),
    "max_paths": lambda n: enumerate_language(STAR, 2, max_paths=n),
    "max_chars": lambda n: language_by_chars(STAR, AB, n),
    "check_promotion": lambda n: check_promotion(STAR_PATTERN, AB, "agnostic", n),
    "expected_promotion": lambda n: expected_promotion(STAR_PATTERN, AB, "agnostic", n),
    "max_steps": lambda n: constrained_decode(StubLM(0), STAR, n),
}


@FUZZ
@given(st.sampled_from(sorted(BOUNDED)),
       st.integers(-3, 4) | st.booleans() | st.floats() | st.none() | st.text(max_size=2))
def test_bounds_must_be_non_negative_ints(name, bound):
    if type(bound) is int and bound >= 0:
        # a valid bound may still run out of paths or of decoding steps
        with suppress(EnumerationError, IncompleteGenerationError):
            BOUNDED[name](bound)
    else:
        with pytest.raises(ConfigError, match="must (be an int|not be negative)"):
            BOUNDED[name](bound)


def test_swapped_arguments_are_config_errors():
    # each call is refused before any work, with the type it expected named
    tok = random_merge_tokenizer(random.Random(0), "ab", 3)
    v = tok.vocab
    a = compile_pattern("(a|b)*", v.table)
    d = promote_agnostic(a, v).dfa
    calls = [
        (lambda: promote_agnostic(a, tok), "expected a Vocabulary, got BpeTokenizer"),
        (lambda: promote_maxmatch(a, "x"), "expected a Vocabulary, got str"),
        (lambda: promote_bpe(a, v), "expected a BpeTokenizer, got Vocabulary"),
        (lambda: promote_bpe_chained(a, v), "expected a BpeTokenizer, got Vocabulary"),
        (lambda: check_promotion(a, v, "bpe", 4, v), "expected a BpeTokenizer, got Vocabulary"),
        (lambda: expected_promotion(a, tok, "agnostic", 4), "expected a Vocabulary, got BpeTokenizer"),
        (lambda: promote_bpe(a, tok, stage_hook=5), "stage_hook must be callable, got int"),
        (lambda: constrained_decode(5, d), "must be a TokenScorer with a score method, got int"),
        # a pattern string where its automaton belongs, a vocabulary for its table
        (lambda: promote_agnostic("(a|b)*", v), "expected a Fst, got str"),
        (lambda: promote_bpe_chained("ab", tok), "expected a Fst, got str"),
        (lambda: check_promotion("ab", v, "agnostic", 3), "expected a Fst, got str"),
        (lambda: expected_promotion("ab", v, "agnostic", 3), "expected a Fst, got str"),
        (lambda: language_by_chars("ab", v, 3), "expected a Dfa, got str"),
        (lambda: compile_pattern("a", v), "table must be a SymbolTable, got Vocabulary"),
        # the tokenizers' own inputs: a table, a vocabulary
        (lambda: Vocabulary(["a"]), "expected a SymbolTable, got list"),
        (lambda: Vocabulary("ab"), "expected a SymbolTable, got str"),
        (lambda: Vocabulary(v), "expected a SymbolTable, got Vocabulary"),
        (lambda: BpeTokenizer("x", ()), "expected a Vocabulary, got str"),
        (lambda: BpeTokenizer(v.table, tok.merges), "expected a Vocabulary, got SymbolTable"),
        (lambda: maxmatch_tokenize("ab", "v"), "expected a Vocabulary, got str"),
        (lambda: maxmatch_tokenize("ab", tok), "expected a Vocabulary, got BpeTokenizer"),
        (lambda: next(iter_segmentations("ab", v.table)), "expected a Vocabulary, got SymbolTable"),
    ]
    for call, message in calls:
        with pytest.raises(ConfigError, match=message):
            call()
    assert "bigram_tables" not in vars(tok)  # no promotion ran
    # another vocabulary's automaton is refused, not read in its ids
    ab = Vocabulary.from_tokens(["a", "b", "ab"])
    promoted = promote_agnostic(compile_pattern("ab", ab.table), ab).dfa
    assert language_by_chars(promoted, ab, 1) == set()
    with pytest.raises(AlphabetError, match="different symbol tables"):
        language_by_chars(promoted, Vocabulary.from_tokens(["a", "b", "c", "abc"]), 1)
