"""Core machine operations, checked against brute-force path enumeration."""

import random

import pytest

from tokfst import (
    EPSILON,
    FAILURE,
    Dfa,
    EnumerationError,
    Fst,
    SymbolTable,
    Transition,
    accepts,
    canonical_form,
    compose,
    determinize,
    enumerate_language,
    epsilon_remove,
    minimize,
    project_output,
    trim,
)
from tokfst.errors import ConfigError
from tokfst.fst import _output_subsets

from helpers import enumerate_pairs, line_dfa, random_pattern_dfa, random_transducer

AB = SymbolTable(["a", "b"])
A, B = AB.ids(["a", "b"])


# ---------------------------------------------------------------------------
# validation


def test_rejects_out_of_range_states():
    with pytest.raises(ValueError):
        Fst(AB, 1, 0, frozenset(), (Transition(0, A, A, 5),))
    with pytest.raises(ValueError):
        Fst(AB, 1, 3, frozenset(), ())
    with pytest.raises(ValueError):
        Fst(AB, 1, 0, frozenset({7}), ())


def test_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        Fst(AB, 1, 0, frozenset(), (Transition(0, 99, A, 0),))


def test_failure_symbol_restrictions():
    # never on the output side
    with pytest.raises(ValueError):
        Fst(AB, 2, 0, frozenset(), (Transition(0, A, FAILURE, 1),))
    # at most one failure arc per state
    with pytest.raises(ValueError):
        Fst(AB, 3, 0, frozenset(), (
            Transition(0, FAILURE, EPSILON, 1),
            Transition(0, FAILURE, EPSILON, 2),
        ))


def test_dfa_rejects_non_dfa_shapes():
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset(), (Transition(0, EPSILON, EPSILON, 1),))
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset(), (Transition(0, FAILURE, EPSILON, 1),))
    with pytest.raises(ValueError):
        Dfa(AB, 2, 0, frozenset(), (Transition(0, A, B, 1),))
    with pytest.raises(ValueError):
        Dfa(AB, 3, 0, frozenset(), (Transition(0, A, A, 1), Transition(0, A, A, 2)))


def test_arcs_are_stored_per_state_and_sorted():
    rows = [(1, B, B, 0), (0, B, B, 1), (0, A, A, 1), (0, EPSILON, EPSILON, 1)]
    m = Fst(AB, 2, 0, frozenset({1}), rows)
    assert m.arcs == {0: ((EPSILON, EPSILON, 1), (A, A, 1), (B, B, 1)), 1: ((B, B, 0),)}
    assert m.transitions == tuple(Transition(*row) for row in sorted(rows))
    # arc order is not part of a machine; everything else is
    same = Fst(AB, 2, 0, frozenset({1}), reversed(rows))
    assert same == m and hash(same) == hash(m) and {m: 1}[same] == 1
    assert Fst(AB, 2, 0, frozenset({0}), rows) != m
    assert Fst(AB, 2, 0, frozenset({1}), rows[1:]) != m
    assert Dfa(AB, 2, 0, frozenset({1}), rows[1:3]) != Fst(AB, 2, 0, frozenset({1}), rows[1:3])
    d = minimize(determinize(epsilon_remove(m)))
    assert hash(d) == hash(Dfa.from_fst(d)) and Dfa.from_fst(d) == d
    for field in ("arcs", "transitions"):
        with pytest.raises(AttributeError):
            setattr(d, field, {})


def test_dfa_from_fst():
    plain = Fst(AB, 2, 0, frozenset({1}), (Transition(0, A, A, 1),))
    d = Dfa.from_fst(plain)
    assert isinstance(d, Dfa)
    assert d.transitions == plain.transitions
    nondet = Fst(AB, 3, 0, frozenset({1}), (Transition(0, A, A, 1), Transition(0, A, A, 2)))
    with pytest.raises(ValueError):
        Dfa.from_fst(nondet)


def test_operations_trust_valid_operands(monkeypatch):
    # only construction from caller-given arcs validates; derived machines skip it
    left = Fst(AB, 3, 0, frozenset({2}), (
        Transition(0, A, EPSILON, 1),
        Transition(1, B, A, 2),
        Transition(1, B, B, 2),
    ))
    right = Fst(AB, 2, 0, frozenset({0, 1}), (
        Transition(0, A, A, 1),
        Transition(1, EPSILON, EPSILON, 0),
    ))
    calls = []
    validate = Fst.__post_init__

    def counted(self):
        calls.append(type(self))
        validate(self)

    monkeypatch.setattr(Fst, "__post_init__", counted)
    out = canonical_form(minimize(determinize(epsilon_remove(project_output(
        compose(left, right))))))
    assert enumerate_language(out, 2) == {(A,)}
    assert calls == []
    nondet = Fst(AB, 3, 0, frozenset({1}), (Transition(0, A, A, 1), Transition(0, A, A, 2)))
    with pytest.raises(ValueError):
        Dfa.from_fst(nondet)
    assert calls == [Fst, Dfa]


# ---------------------------------------------------------------------------
# acceptance with failure arcs


def _phi_machine():
    # 0 --a--> 1 --b--> 3, plus a failure arc 0 --phi--> 2
    return Fst(AB, 4, 0, frozenset({2, 3}), (
        Transition(0, A, A, 1),
        Transition(0, FAILURE, EPSILON, 2),
        Transition(1, B, B, 3),
    ))


def test_failure_arc_reaches_finality_at_end_of_input():
    m = _phi_machine()
    assert accepts(m, ())
    assert accepts(m, (A, B))
    assert not accepts(m, (A,))
    assert not accepts(m, (B,))
    assert enumerate_language(m, 4) == {(), (A, B)}


def test_failure_arc_blocked_by_matching_sibling():
    m = Fst(AB, 5, 0, frozenset({4}), (
        Transition(0, A, A, 1),
        Transition(0, FAILURE, EPSILON, 2),
        Transition(2, A, A, 4),
    ))
    # the direct arc on `a` wins even though the failure path would accept
    assert not accepts(m, (A,))
    assert not accepts(m, (B,))
    assert enumerate_language(m, 4) == set()


# ---------------------------------------------------------------------------
# epsilon removal, determinization, minimization


def test_epsilon_removal_preserves_language():
    chain = Fst(AB, 4, 0, frozenset({3}), (
        Transition(0, A, A, 1),
        Transition(1, EPSILON, EPSILON, 2),
        Transition(2, B, B, 3),
    ))
    out = epsilon_remove(chain)
    assert all(t.inp != EPSILON for t in out.transitions)
    assert enumerate_language(out, 4) == {(A, B)}


def test_epsilon_cycle_terminates():
    loop = Fst(AB, 2, 0, frozenset({1}), (
        Transition(0, EPSILON, EPSILON, 1),
        Transition(1, EPSILON, EPSILON, 0),
        Transition(1, A, A, 1),
    ))
    out = epsilon_remove(loop)
    assert enumerate_language(out, 3) == {(), (A,), (A, A), (A, A, A)}


def test_pipeline_preserves_language_randomized():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 5)
        arcs = []
        for _ in range(rng.randint(0, 8)):
            inp = rng.choice([EPSILON, A, B])
            arcs.append(Transition(rng.randrange(n), inp, inp, rng.randrange(n)))
        m = Fst(AB, n, 0, frozenset({rng.randrange(n)}), tuple(arcs))
        reference = enumerate_language(m, 6)
        cleaned = epsilon_remove(m)
        assert enumerate_language(cleaned, 6) == reference
        det = determinize(cleaned)
        assert Dfa.from_fst(det) == det
        assert enumerate_language(det, 6) == reference
        small = minimize(det)
        assert enumerate_language(small, 6) == reference
        assert small.num_states <= det.num_states


def test_minimize_is_idempotent_and_canonical():
    rng = random.Random(7)
    for _ in range(25):
        m = random_pattern_dfa(rng, AB, max_states=6, max_strings=500, max_chars=8)
        if m is None:
            continue
        small = minimize(m)
        assert minimize(small) is small


def test_discovery_numbering_is_canonical():
    # determinize numbers subsets breadth first over sorted labels, the same
    # rule canonical_form applies, so its result is already canonical
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 6)
        arcs = tuple(
            Transition(rng.randrange(n), sym, sym, rng.randrange(n))
            for sym in rng.choices([A, B], k=rng.randint(0, 3 * n))
        )
        finals = frozenset(q for q in range(n) if rng.random() < 0.4)
        d = determinize(Fst(AB, n, 0, finals, arcs))
        assert canonical_form(d) == d
        m = canonical_form(minimize(d))
        assert canonical_form(m) == m
    # any other machine is converted first: one that is no DFA is refused
    table = SymbolTable(["a", "b", "ab"])
    a, ab = table.ids(["a", "ab"])
    assert canonical_form(Fst(table, 2, 0, {1}, [(0, a, a, 1)])) == Dfa(
        table, 2, 0, {1}, [(0, a, a, 1)])
    for rows in ([(0, a, ab, 1)], [(0, EPSILON, EPSILON, 1)], [(0, FAILURE, a, 1)],
                 [(0, a, a, 1), (0, a, a, 0)]):
        with pytest.raises(ValueError):
            canonical_form(Fst(table, 2, 0, {1}, rows))


def _old_is_deterministic(a: Fst) -> bool:
    # the check promotion stages ran on the epsilon-removed output side
    seen = set()
    for t in a.transitions:
        if t.inp in (EPSILON, FAILURE) or t.out == EPSILON or (t.src, t.inp) in seen:
            return False
        seen.add((t.src, t.inp))
    return True


def test_output_subsets_match_the_operator_chain():
    """One subset construction over the output side, closed over silent
    arcs, against projection, epsilon removal and determinization run one
    after another on 3,000 seeded composition results."""
    table = SymbolTable(["a", "b", "c"])
    rng = random.Random(606)
    flags = set()
    for _ in range(3000):
        m = compose(random_transducer(rng, table, max_states=4),
                    random_transducer(rng, table, max_states=4))
        walked, deterministic = _output_subsets(m)
        acceptor = epsilon_remove(project_output(m))
        chained = minimize(determinize(acceptor))
        assert canonical_form(walked) == walked
        small = minimize(walked)
        assert small == canonical_form(small) == canonical_form(chained)
        assert deterministic == _old_is_deterministic(acceptor)
        flags.add(deterministic)
    assert flags == {True, False}


def test_minimize_merges_equivalent_states():
    # two distinct accepting sinks for the same residual language
    m = Dfa(AB, 3, 0, frozenset({1, 2}), (
        Transition(0, A, A, 1),
        Transition(0, B, B, 2),
    ))
    assert minimize(m).num_states == 2


def test_trim_drops_dead_states():
    m = Fst(AB, 4, 0, frozenset({1}), (
        Transition(0, A, A, 1),
        Transition(0, B, B, 2),   # 2 cannot reach a final state
        Transition(3, A, A, 1),   # 3 is unreachable
    ))
    t = trim(m)
    assert t.num_states == 2
    assert enumerate_language(t, 3) == {(A,)}


def test_trim_empty_language_collapses_to_one_state():
    m = Fst(AB, 3, 0, frozenset(), (Transition(0, A, A, 1),))
    t = trim(m)
    assert t.num_states == 1
    assert not t.finals
    assert enumerate_language(t, 5) == set()


def test_trim_returns_trim_machines_unchanged():
    built = Dfa(AB, 2, 0, frozenset({1}), (Transition(0, A, A, 1),))
    assert trim(built) is built
    dead = Dfa(AB, 4, 0, frozenset({1}), (
        Transition(0, A, A, 1),
        Transition(0, B, B, 2),
        Transition(3, A, A, 1),
    ))
    empty = Dfa(AB, 3, 0, frozenset(), (Transition(0, A, A, 1),))
    for m in (dead, empty):
        t = trim(m)
        assert t is not m
        assert trim(t) is t
    twins = Dfa(AB, 3, 0, frozenset({1, 2}), (Transition(0, A, A, 1), Transition(0, B, B, 2)))
    for m in (built, dead, empty, twins):
        small = minimize(m)
        assert trim(small) is small


# ---------------------------------------------------------------------------
# composition


def test_compose_against_pair_enumeration():
    """Randomized relational check.

    Right operands here never consume epsilon, so along any composed path
    |input| >= |intermediate| >= |output| and bounded enumeration of both
    sides is exhaustive rather than approximate.
    """
    table = SymbolTable(["a", "b", "c"])
    rng = random.Random(2024)
    for _ in range(60):
        left = random_transducer(rng, table, max_states=4, eps_out=True)
        right = random_transducer(rng, table, max_states=4, eps_out=True)
        joined = {
            (x, z)
            for x, y1 in enumerate_pairs(left, 5)
            for y2, z in enumerate_pairs(right, 5)
            if y1 == y2
        }
        composed = compose(left, right)
        assert enumerate_pairs(composed, 5) == joined
        assert len(set(composed.transitions)) == len(composed.transitions)


def test_compose_expands_right_epsilon_input():
    table = SymbolTable(["x", "y", "m", "z"])
    x, y, m, z = table.ids(["x", "y", "m", "z"])
    left = Fst(table, 2, 0, frozenset({1}), (Transition(0, x, y, 1),))
    right = Fst(table, 3, 0, frozenset({2}), (
        Transition(0, EPSILON, m, 1),
        Transition(1, y, z, 2),
    ))
    assert enumerate_pairs(compose(left, right), 4) == {((x,), (m, z))}


def test_compose_rejects_failure_arcs_on_the_left():
    m = _phi_machine()
    other = Fst(AB, 1, 0, frozenset({0}), (Transition(0, A, A, 0), Transition(0, B, B, 0)))
    with pytest.raises(ConfigError):
        compose(m, other)


def test_project_output_keeps_output_side():
    table = SymbolTable(["a", "b"])
    a, b = table.ids(["a", "b"])
    m = Fst(table, 2, 0, frozenset({1}), (Transition(0, a, b, 1),))
    p = project_output(m)
    assert enumerate_language(epsilon_remove(p), 2) == {(b,)}


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_budget():
    star = Dfa(AB, 1, 0, frozenset({0}), (Transition(0, A, A, 0),))
    with pytest.raises(EnumerationError) as info:
        enumerate_language(star, 10, max_paths=3)
    assert info.value.partial_count == 3
    for machine in (star, line_dfa(AB, (A, B))):
        with pytest.raises(ConfigError):
            enumerate_language(machine, -1)


def test_determinize_requires_clean_acceptor():
    with_eps = Fst(AB, 2, 0, frozenset({1}), (Transition(0, EPSILON, EPSILON, 1),))
    with pytest.raises(ConfigError):
        determinize(with_eps)
