"""Property tests of the trust boundary: whatever a caller or a file hands the
library ends in a typed error (or, from the machine constructors, a
ValueError), never in an unrelated exception or a traceback; the command
line turns every input into an exit code."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tokfst import (
    Dfa,
    Fst,
    SymbolTable,
    TokfstError,
    Transition,
    Vocabulary,
    compile_pattern,
    enumerate_language,
    load_automaton,
    load_merges,
    load_vocab,
    trim,
)
from tokfst.cli import main

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
# (num_states, start, finals, rows): any small ints, or mostly valid ones
machines = st.tuples(
    small, small, st.lists(small, max_size=3), st.lists(st.tuples(small, small, small, small), max_size=8)
) | st.tuples(
    st.just(4),
    near,
    st.lists(near, max_size=3),
    st.lists(st.tuples(near, near, near, near), max_size=8) | st.lists(acceptor_row, max_size=6),
)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=11), inner, max_size=3),
    max_leaves=8,
)
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


@FUZZ
@given(st.sampled_from([Fst, Dfa]), machines)
def test_constructors_raise_only_value_errors(cls, machine):
    num_states, start, finals, arcs = machine
    try:
        m = cls(TABLE, num_states, start, frozenset(finals), arcs)
    except ValueError:
        return
    assert m.transitions == tuple(sorted(Transition(*row) for row in arcs))
    assert cls(TABLE, num_states, start, frozenset(finals), arcs[::-1]) == m
    trim(m)
    enumerate_language(m, 3)


@FUZZ
@given(st.text(alphabet="abc()[]|*+?.^-\\", max_size=16))
def test_compile_pattern_raises_only_typed_errors(text):
    try:
        compile_pattern(text, TABLE)
    except TokfstError:
        pass


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


files = st.sampled_from(["vocab.txt", "merges.txt", "m.json", "missing.txt", "."])
outputs = st.just("out.json") | st.sampled_from(["missing/out.json", "subdir"])
values = {  # mostly the file an option expects, sometimes another
    "--pattern": st.text(alphabet="abz()[]|*+?.^-\\", max_size=8),
    "--vocab": st.just("vocab.txt") | files,
    "--merges": st.just("merges.txt") | files,
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
