"""Property tests of the trust boundary: whatever a caller or a file hands the
library ends in a typed error (or, from the machine constructors, a
ValueError), never in an unrelated exception or a traceback."""

import json

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
    compile_pattern,
    enumerate_language,
    load_automaton,
    trim,
)

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
