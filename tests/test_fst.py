"""Core machine operations, checked against brute-force path enumeration."""

import random
import time
from collections import Counter

import pytest

from tokfst import (
    EPSILON,
    FAILURE,
    Dfa,
    EnumerationError,
    Fst,
    SymbolTable,
    Transition,
    Vocabulary,
    accepts,
    bpe_train,
    canonical_form,
    compile_pattern,
    compose,
    determinize,
    enumerate_language,
    epsilon_remove,
    minimize,
    project_output,
    promote_agnostic,
    promote_maxmatch,
    trim,
)
from tokfst.errors import ConfigError, TokfstError, ValidationError
from tokfst.fst import _output_subsets
from tokfst.lexicon import (
    build_failure_trie,
    build_maxmatch_transducer,
    build_merge_gadget,
    vocab_machine,
)
from tokfst.pattern import _Compiler

from helpers import (
    checked_arcs,
    enumerate_pairs,
    identifiers,
    largest_silent_component,
    line_dfa,
    minimal_state_count,
    random_cyclic_machine,
    random_partial_dfa,
    random_pattern_dfa,
    random_silent_machine,
    random_transducer,
    reference_accepts,
    reference_compose,
    reference_enumerate,
    reference_epsilon_remove,
    reference_output_subsets,
)

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


def test_rejects_ids_that_are_not_ints():
    # floats and bools compare like ids, but operations index and format with them
    arc = [(0, A, A, 1)]
    for num_states, start, finals, arcs in [(2.5, 0, {1}, arc), (2, 0, {1}, [(0, 2.0, 2.0, 1)]),
                                            (2, 0, {1.0}, [(0, A, A, 1.0)]), (True, 0, {0}, []),
                                            (2, False, {1}, arc), (2, 0, {True}, [])]:
        for cls in (Fst, Dfa):
            with pytest.raises(ValueError):
                cls(AB, num_states, start, finals, arcs)


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


def random_rows(rng: random.Random, table: SymbolTable, n: int, deterministic: bool):
    """Up to 6 rows, mostly valid for an `n`-state machine of the given kind,
    some with one or two faults: a bool, float or str field, a state out of
    range, an unknown id, ε or φ on input, an input that differs from the
    output, φ on output, a second arc on a state's input (φ included), 3 or
    5 fields, or no row at all. One draw in 50 is not a collection of rows."""
    if rng.random() < 0.02:
        return rng.choice([None, 5, 2.5])
    syms = sorted(table.token_ids())
    end = syms[-1] + 1
    rows = []
    for _ in range(rng.randint(0, 6)):
        src, dst = rng.randrange(n), rng.randrange(n)
        if deterministic:
            inp = out = rng.choice(syms)
        else:
            inp, out = rng.choice([EPSILON, FAILURE, *syms]), rng.choice([EPSILON, *syms])
        row = [src, inp, out, dst]
        for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
            at = rng.randrange(4)
            fault = rng.randrange(9)
            if fault == 0:
                row[at] = rng.choice([True, False, float(row[at]), str(row[at])])
            elif fault == 1:
                row[rng.choice((0, 3))] = rng.choice([-1, n, n + 1])
            elif fault == 2:
                row[rng.choice((1, 2))] = rng.choice([-1, end, end + 1])
            elif fault == 3:
                row[1] = rng.choice([EPSILON, FAILURE])
            elif fault == 4:
                row[2] = rng.choice(syms)
            elif fault == 5:
                row[2] = FAILURE
            elif fault == 6 and rows and type(rows[-1]) is tuple:  # a second arc on its input
                row[0], row[1], row[2] = rows[-1][:3]
            elif fault == 7:  # φ on input, twice
                row[1] = FAILURE
                rows.append(tuple(row))
            elif fault == 8:
                row = rng.choice([row[:3], row + [0], None, 7])
                break
        rows.append(tuple(row) if isinstance(row, list) else row)
    return rows


def test_validation_matches_the_ordered_checks():
    # 3,000 seeded row lists per kind: the constructor's one test per row
    # gives the arcs or the message of `checked_arcs`, which walks every check
    messages = {
        "are not a collection of rows", "is not a (src, inp, out, dst) row",
        "has a field that is not an integer", "references a missing state",
        "has an unknown input symbol", "has an invalid output symbol",
        "is not allowed in a deterministic acceptor", "is not an acceptor arc",
        "has two arcs on symbol", "has more than one failure arc",
    }
    rng = random.Random(2525)
    for cls in (Fst, Dfa):
        deterministic = cls is Dfa
        seen = set()
        for _ in range(3000):
            table = SymbolTable(["a", "b", "ab"][:rng.randint(1, 3)])
            n = rng.randint(1, 4)
            rows = random_rows(rng, table, n, deterministic)
            try:
                expected = checked_arcs(deterministic, table, n, rows)
            except ValueError as exc:
                expected = str(exc)
                seen.update(m for m in messages if m in expected)
            try:
                got = cls(table, n, 0, frozenset(), rows).arcs
            except ValueError as exc:
                assert type(exc) is ValidationError
                got = str(exc)
            assert got == expected, (cls.__name__, rows)
        unreachable = ({"has more than one failure arc"} if deterministic else
                       {"is not allowed in a deterministic acceptor", "is not an acceptor arc",
                        "has two arcs on symbol"})
        assert seen == messages - unreachable, (cls.__name__, messages - unreachable - seen)


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


def test_bad_machines_raise_a_tokfst_error():
    """Each way to hand over a bad machine raises a `ValidationError`:
    `except TokfstError` catches it, and it is still a `ValueError`."""
    nondet = Fst(AB, 3, 0, frozenset({1}), (Transition(0, A, A, 1), Transition(0, A, A, 2)))
    table = SymbolTable(["a", "b", "ab"])
    calls = [
        lambda: Fst(AB, 1, 0, {5}, []),
        lambda: Dfa(AB, 1, 0, {5}, []),
        lambda: Dfa(AB, 1, 0, set(), [(0, EPSILON, EPSILON, 0)]),
        lambda: Dfa.from_fst(nondet),
        lambda: minimize(nondet),
        lambda: canonical_form(nondet),
        lambda: build_merge_gadget(table.ids(["a", "b"]), frozenset({99}), table),
    ]
    for call in calls:
        with pytest.raises(TokfstError) as info:
            call()
        assert type(info.value) is ValidationError and isinstance(info.value, ValueError)


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


def test_accepts_takes_only_int_ids():
    v = Vocabulary.from_tokens(["a", "b", "ab"])
    d = promote_agnostic(compile_pattern("(a|b)*", v.table), v).dfa
    assert accepts(d, v.table.ids(["ab", "a"])) and accepts(d, [])
    assert accepts(d, iter(v.table.ids(["b", "ab"])))
    # floats and bools equal to an id, text, None items and no sequence at all
    for seq in [(2.0,), (True,), "ab", [None], None, 5]:
        with pytest.raises(ConfigError, match="symbols must be a sequence of int ids"):
            accepts(d, seq)
    m = _phi_machine()
    assert accepts(m, [A, B]) and not accepts(m, [A])
    with pytest.raises(ConfigError, match="symbols must be a sequence of int ids"):
        accepts(m, (float(A),))


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
        assert determinize(m) == det
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


def test_minimize_matches_table_filling():
    """`minimize` against pairwise distinguishability on 2,000 seeded partial
    DFAs with unreachable and dead states: as many states as the oracle's
    classes and the same language. Minimizing keeps the order of the states
    it keeps, so a machine in canonical form stays in it."""
    table = SymbolTable(["a", "b", "c"])
    rng = random.Random(2202)
    merged = 0
    for _ in range(2000):
        d = random_partial_dfa(rng, table, max_states=7)
        small = minimize(d)
        assert small.num_states == minimal_state_count(d)
        assert enumerate_language(small, 5) == enumerate_language(d, 5)
        ordered = minimize(canonical_form(d))
        assert canonical_form(ordered) == ordered == canonical_form(small)
        merged += small.num_states < trim(d).num_states
    assert merged > 200


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


def test_minimize_takes_a_deterministic_fst():
    rng = random.Random(445)
    for _ in range(30):
        d = random_partial_dfa(rng, AB, 6)
        m = Fst(AB, d.num_states, d.start, d.finals, d.transitions)
        assert type(m) is Fst
        assert minimize(m) == minimize(Dfa.from_fst(m))
    nondet = Fst(AB, 3, 0, frozenset({1}), (Transition(0, A, A, 1), Transition(0, A, A, 2)))
    with pytest.raises(ValueError):
        minimize(nondet)


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


def test_compose_reads_one_index_of_its_right_operand():
    # a right operand keeps the index compose builds of it; a maxmatch
    # transducer has failure arcs, which compose expands through that index
    vocab = Vocabulary.from_tokens(["b", "a", "n", "s", "ba", "na", "ban", "bana"])
    right = build_maxmatch_transducer(build_failure_trie(vocab))
    arcs = dict(right.arcs)
    left = compile_pattern("(ba|na)*s?", vocab.table)
    first = compose(left, right)
    index = right._moves
    second = compose(left, right)
    assert right._moves is index
    assert second == first
    assert right.arcs == arcs
    fresh = build_maxmatch_transducer(build_failure_trie(vocab))
    assert compose(left, fresh) == first
    assert index == fresh._moves
    assert any(FAILURE in moves for moves in index.values())


def test_compose_rejects_failure_arcs_on_the_left():
    m = _phi_machine()
    other = Fst(AB, 1, 0, frozenset({0}), (Transition(0, A, A, 0), Transition(0, B, B, 0)))
    with pytest.raises(ConfigError):
        compose(m, other)


def test_compose_rejects_operands_over_different_tables():
    left = line_dfa(AB, (A,))
    right = line_dfa(SymbolTable(["a", "b", "c"]), (A,))
    with pytest.raises(ConfigError, match="different symbol tables"):
        compose(left, right)


def test_compose_through_a_failure_cycle_terminates():
    # right: 0 matches x, 1 matches z, and their failure arcs point at each
    # other; a chain walking the cycle blocks x and z, so it cannot read y
    table = SymbolTable(["x", "y", "z"])
    x, y, z = table.ids(["x", "y", "z"])
    left = Fst(table, 2, 0, frozenset({1}), tuple(Transition(0, s, s, 1) for s in (x, y, z)))
    right = Fst(table, 3, 0, frozenset({2}), (
        Transition(0, x, x, 2),
        Transition(0, FAILURE, EPSILON, 1),
        Transition(1, z, z, 2),
        Transition(1, FAILURE, EPSILON, 0),
    ))
    assert enumerate_pairs(compose(left, right), 3) == {((x,), (x,)), ((z,), (z,))}
    assert enumerate_language(right, 3) == {(x,), (z,)}


def test_compose_equals_the_tagged_key_walk():
    """Keys by value discover the states that tagged keys did, in the same
    order: seeded pairs with ε on either side and φ on the right."""
    table = SymbolTable(["a", "b", "c"])
    rng = random.Random(5)
    pairs = failing = 0
    for _ in range(4000):
        left, right = random_silent_machine(rng, table), random_silent_machine(rng, table)
        if any(t.inp == FAILURE for t in left.transitions):
            continue
        assert compose(left, right) == reference_compose(left, right), (left, right)
        pairs += 1
        failing += any(t.inp == FAILURE for t in right.transitions)
    assert pairs > 2000 and failing > 500


def test_maxmatch_compose_equals_the_tagged_key_walk():
    """The benchmark's serve patterns against the kept longest-match
    transducer of its tokenizer."""
    from perfbench.inputs import train
    from perfbench.workloads import FULL, serve_pool

    v = train(1, FULL.corpus, FULL.merges).vocab
    kept = vocab_machine(v, "maxmatch", lambda: build_maxmatch_transducer(build_failure_trie(v)))
    for pattern in serve_pool(1):
        a = compile_pattern(pattern.regex, v.table)
        assert compose(a, kept) == reference_compose(a, kept), pattern.regex


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
        with pytest.raises(ConfigError, match="max_paths must not be negative"):
            enumerate_language(machine, 4, max_paths=-1)


def _enumerated(enumerate_, m, max_len, max_paths):
    try:
        return enumerate_(m, max_len, max_paths=max_paths)
    except EnumerationError as e:
        return "overrun", e.partial_count


def test_closure_operations_match_the_stepped_closure_walk():
    """`accepts`, `enumerate_language`, `epsilon_remove` and `determinize`
    against closed sets of states stepped one symbol at a time, on 3,000
    seeded acceptors and transducers with ε on either side and φ arcs."""
    table = SymbolTable(["a", "b", "c"])
    syms = sorted(table.token_ids())
    rng = random.Random(7)
    overruns = acceptors = 0
    for _ in range(3000):
        m = random_silent_machine(rng, table)
        max_paths = rng.choice([2, 8, 40, 1_000_000])
        got = _enumerated(enumerate_language, m, 4, max_paths)
        assert got == _enumerated(reference_enumerate, m, 4, max_paths), m
        overruns += isinstance(got, tuple)
        language = reference_enumerate(m, 4)
        seqs = [tuple(rng.choices(syms, k=rng.randint(0, 4))) for _ in range(4)]
        for seq in [*seqs, *language]:
            assert accepts(m, seq) == reference_accepts(m, seq), (m, seq)
        if not all(t.inp == t.out != FAILURE for t in m.transitions):
            for op in (epsilon_remove, determinize):
                with pytest.raises(ConfigError):
                    op(m)
            continue
        acceptors += 1
        removed = epsilon_remove(m)
        assert removed.num_states == m.num_states
        assert all(t.inp != EPSILON for t in removed.transitions)
        assert reference_enumerate(removed, 4) == language
        assert reference_enumerate(determinize(m), 4) == language
    assert overruns > 500 and acceptors > 1000


class _CountedArcs(dict):
    """An arc store that counts the passes made over all of it."""

    passes = 0

    def _pass(name):
        def counted(self, *args):
            self.passes += 1
            return getattr(dict, name)(self, *args)
        return counted

    items, values, keys, __iter__ = map(_pass, ("items", "values", "keys", "__iter__"))
    del _pass


def test_dfa_walks_read_only_the_states_they_reach():
    """`accepts` and `enumerate_language` on a 1,000-state DFA read the arcs
    of the states they reach and make no pass over the whole store."""
    n = 1000
    rows = [(q, A, A, (q + 1) % n) for q in range(n)] + [(q, B, B, (2 * q) % n) for q in range(n)]
    d = Dfa(AB, n, 0, {3, n - 1}, rows)
    seqs = [[A] * (n - 1), [A, B, B], [A, B, A], [B, B, A, A, A]]
    expected = [reference_accepts(d, seq) for seq in seqs], reference_enumerate(d, 12)
    arcs = d.__dict__["arcs"] = _CountedArcs(d.arcs)
    got = [accepts(d, seq) for seq in seqs], enumerate_language(d, 12)
    assert got == expected and expected[0] == [True, False, True, True]
    assert enumerate_language(d, 3) == {(A, A, A), (A, B, A)}
    assert arcs.passes == 0
    assert len(d.transitions) == 2 * n and arcs.passes > 0


def test_determinize_requires_clean_acceptor():
    with_eps = Fst(AB, 3, 0, frozenset({2}), (
        Transition(0, EPSILON, EPSILON, 1),
        Transition(1, A, A, 2),
    ))
    assert determinize(with_eps) == determinize(epsilon_remove(with_eps))
    assert enumerate_language(determinize(with_eps), 2) == {(A,)}
    with_phi = Fst(AB, 2, 0, frozenset({1}), (Transition(0, FAILURE, EPSILON, 1),))
    with pytest.raises(ConfigError, match="failure-free"):
        determinize(with_phi)
    transducer = Fst(AB, 2, 0, frozenset({1}), (Transition(0, A, B, 1),))
    with pytest.raises(ConfigError, match="expects an acceptor"):
        determinize(transducer)


# ---------------------------------------------------------------------------
# closures kept per state


def test_closure_walks_on_cyclic_silent_graphs():
    """Every walk over silent arcs against the per-key reference walk and the
    stepped closure walks, on 600 seeded machines of up to 30 states with
    planted ε-cycles, nested cycles and long ε-chains: `determinize`,
    `epsilon_remove`, `_output_subsets` and `compose` with the machine on
    the left state for state, `accepts` and `enumerate_language` by their
    answers, and the output side by the operator chain's language."""
    table = SymbolTable(["a", "b", "c"])
    syms = sorted(table.token_ids())
    rng = random.Random(34)
    acceptors = wide = 0
    for _ in range(600):
        m = random_cyclic_machine(rng, table)
        wide += max(largest_silent_component(m, 0), largest_silent_component(m, 1)) >= 3
        max_paths = rng.choice([8, 40, 1_000_000])
        got = _enumerated(enumerate_language, m, 4, max_paths)
        assert got == _enumerated(reference_enumerate, m, 4, max_paths), m
        language = reference_enumerate(m, 4)
        seqs = [tuple(rng.choices(syms, k=rng.randint(0, 4))) for _ in range(4)]
        seqs += rng.sample(sorted(language), min(4, len(language)))
        for seq in seqs:
            assert accepts(m, seq) == reference_accepts(m, seq), (m, seq)
        walked = _output_subsets(m)
        assert walked == reference_output_subsets(m), m
        right = random_silent_machine(rng, table)  # φ arcs read through m's silent outputs
        assert compose(m, right) == reference_compose(m, right), (m, right)
        chained = minimize(determinize(epsilon_remove(project_output(m))))
        assert canonical_form(minimize(walked[0])) == canonical_form(chained)
        if all(t.inp == t.out for t in m.transitions):
            acceptors += 1
            assert determinize(m) == reference_output_subsets(m)[0]
            removed = epsilon_remove(m)
            assert removed == reference_epsilon_remove(m), m
            assert reference_enumerate(removed, 4) == language
    assert acceptors > 250 and wide > 550


@pytest.fixture(scope="module")
def heavy_compositions():
    """The pattern DFAs `(get|set)_[L]+` and `(user|item|node)_[L]+`, L the
    letters of a 400-merge tokenizer, each composed with its longest-match
    transducer: the shape of the heavy maxmatch promotions."""
    v = bpe_train(identifiers(1, 2000), 400).vocab
    letters = "".join(t for t in v.table.tokens if len(t) == 1 and t.isalpha())
    maxmatch = vocab_machine(v, "maxmatch", lambda: build_maxmatch_transducer(build_failure_trie(v)))
    out = []
    for words in ("get|set", "user|item|node"):
        d = compile_pattern(f"({words})_[{letters}]+", v.table)
        out.append((d, v, maxmatch, compose(d, maxmatch)))
    return out


def test_heavy_maxmatch_promotions_match_the_operator_chain(heavy_compositions):
    """On the heavy shape, where keys share most of their closures, the
    promotion equals the operator chain, and its one subset walk equals the
    per-key walk state for state."""
    assert [c.num_states for _, _, _, c in heavy_compositions] == [249, 300]
    for d, v, maxmatch, c in heavy_compositions:
        walked = _output_subsets(c)
        assert walked == reference_output_subsets(c)
        chained = determinize(epsilon_remove(project_output(compose(d, maxmatch))))
        assert promote_maxmatch(d, v).dfa == canonical_form(minimize(chained))


class _CountedGets(dict):
    """An arc store that counts the `get` calls made for each state."""

    def __init__(self, arcs):
        super().__init__(arcs)
        self.reads = Counter()

    def get(self, q, default=None):
        self.reads[q] += 1
        return dict.get(self, q, default)


def test_one_walk_reads_each_state_once(heavy_compositions):
    """One `_output_subsets` of a heavy composition, and one `determinize`
    of a Thompson machine, read each state's stored arcs at most once."""
    table = SymbolTable(["a", "b", "c"])
    thompson = [_Compiler(text, table).compile()
                for text in ("(a|b)*a(a|b)(a|b)(a|b)", "((a|b|)*(|ab)*)*", "(ab|a)*(b|c)+(a|)*")]
    for m, walk in ([(c, _output_subsets) for *_, c in heavy_compositions]
                    + [(nfa, determinize) for nfa in thompson]):
        store = _CountedGets(m.arcs)
        counted = Fst._trusted(m.table, m.num_states, m.start, m.finals, store)
        assert walk(counted) == walk(m)
        assert max(store.reads.values()) == 1, walk.__name__


def test_deep_silent_chain_and_cycle():
    """A 10,000-state ε-chain and a 10,000-state ε-cycle, each with one
    labelled arc: every walk over them is iterative and finishes in well
    under two seconds."""
    n = 10_000
    chain = [(q, EPSILON, EPSILON, q + 1) for q in range(n - 1)] + [(n - 1, A, A, 0)]
    cycle = [(q, EPSILON, EPSILON, (q + 1) % n) for q in range(n)] + [(0, A, A, n // 2)]
    for rows in (chain, cycle):
        m = Fst(AB, n, 0, {n - 1}, rows)
        removed = Fst(AB, n, 0, range(n), [(q, A, A, rows[-1][3]) for q in range(n)])
        for op, check in (
            (determinize, lambda d: minimize(d) == Dfa(AB, 1, 0, {0}, [(0, A, A, 0)])),
            (epsilon_remove, lambda r: r == removed),
            (lambda m: accepts(m, [A] * 5), lambda accepted: accepted),
            (lambda m: enumerate_language(m, 2), lambda seqs: seqs == {(), (A,), (A, A)}),
        ):
            started = time.perf_counter()
            result = op(m)
            assert time.perf_counter() - started < 2
            assert check(result)
