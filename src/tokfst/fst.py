"""Finite-state transducers and the operations the promotion pipelines need.

Machines are immutable. A transducer is a set of integer states with arcs
carrying an (input, output) pair of symbol ids; an acceptor is the special
case where input == output on every arc. Every machine keeps its arcs per
state in `Fst.arcs`, the one form operations read and build; `Transition`
records exist only in the view for callers. Two reserved ids appear on arcs:

* EPSILON consumes/emits nothing.
* FAILURE (input side only) consumes nothing and may be traversed only when
  the current input symbol matches no other arc of the state, or when the
  input is exhausted. At most one failure arc per state.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import ConfigError, EnumerationError
from .symbols import EPSILON, FAILURE, RESERVED, SymbolTable


class Transition(NamedTuple):
    src: int
    inp: int
    out: int
    dst: int


@dataclass(frozen=True, init=False)
class Fst:
    """A finite-state transducer over one shared symbol table. The rows given
    as `transitions`, in any order, are stored in `arcs`, never mutated: each
    state that has arcs maps to the sorted tuple of its (inp, out, dst) arcs."""

    table: SymbolTable
    num_states: int
    start: int
    finals: frozenset[int]
    arcs: dict[int, tuple[tuple[int, int, int], ...]] = field(hash=False)

    def __init__(self, table, num_states, start, finals, transitions):
        self.__dict__.update(
            table=table, num_states=num_states, start=start,
            finals=finals, arcs=transitions,
        )
        self.__post_init__()

    def __post_init__(self):
        """Check a machine given by a caller and store its arcs; operations
        use `_trusted` instead, because valid operands yield valid results."""
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.num_states < 1:
            raise ValueError("a machine needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start} out of range")
        for q in self.finals:
            if not 0 <= q < self.num_states:
                raise ValueError(f"final state {q} out of range")
        end = RESERVED + len(self.table)
        deterministic = isinstance(self, Dfa)
        by_src: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for row in self.arcs:
            src, inp, out, dst = row
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                problem = "references a missing state"
            elif inp != EPSILON and inp != FAILURE and not RESERVED <= inp < end:
                problem = "has an unknown input symbol"
            elif out == FAILURE or (out != EPSILON and not RESERVED <= out < end):
                problem = "has an invalid output symbol"
            elif deterministic and inp in (EPSILON, FAILURE):
                problem = "is not allowed in a deterministic acceptor"
            elif deterministic and inp != out:
                problem = "is not an acceptor arc"
            else:
                by_src[src].append((inp, out, dst))
                continue
            raise ValueError(f"transition {Transition(*row)} {problem}")
        arcs = {q: tuple(sorted(q_arcs)) for q, q_arcs in by_src.items()}
        for q, q_arcs in arcs.items():  # equal inputs are adjacent once sorted
            for (inp, _, _), (nxt, _, _) in zip(q_arcs, q_arcs[1:]):
                if inp == nxt == FAILURE:
                    raise ValueError(f"state {q} has more than one failure arc")
                if inp == nxt and deterministic:
                    raise ValueError(f"state {q} has two arcs on symbol {inp}")
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def _trusted(cls, table, num_states, start, finals, arcs, *, trim=False):
        """Store the fields unchecked: for results derived from valid machines,
        with `finals` a frozenset and `arcs` already in the stored form.
        `trim=True` records a machine built trim, so `_live` needs no walk."""
        m = object.__new__(cls)
        m.__dict__.update(
            table=table, num_states=num_states, start=start,
            finals=finals, arcs=arcs,
        )
        if trim:
            m.__dict__["_live"] = range(num_states) if finals else frozenset()
        return m

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """Every arc as a `Transition`, sorted by (src, inp, out, dst)."""
        return tuple(Transition(q, *arc) for q in sorted(self.arcs) for arc in self.arcs[q])

    @cached_property
    def _eps_next(self) -> dict[int, list[int]]:
        """Targets of each state's epsilon-input arcs."""
        return _eps_targets(self, 0)

    @cached_property
    def _live(self) -> Collection[int]:
        """States reachable from the start that can also reach a final state."""
        bwd: dict[int, list[int]] = defaultdict(list)
        for q, arcs in self.arcs.items():
            for _, _, dst in arcs:
                bwd[dst].append(q)
        fwd = {q: [dst for _, _, dst in arcs] for q, arcs in self.arcs.items()}
        return _reach([self.start], fwd) & _reach(self.finals, bwd)

    @cached_property
    def input_alphabet(self) -> frozenset[int]:
        inputs = frozenset(inp for arcs in self.arcs.values() for inp, _, _ in arcs)
        return inputs - {EPSILON, FAILURE}


@dataclass(frozen=True, init=False)
class Dfa(Fst):
    """An acceptor with no epsilon/failure arcs and at most one arc per symbol."""

    @classmethod
    def from_fst(cls, a: Fst) -> "Dfa":
        rows = ((q, *arc) for q, arcs in a.arcs.items() for arc in arcs)
        return cls(a.table, a.num_states, a.start, a.finals, rows)


def _reach(roots: Iterable[int], edges: Mapping[int, Iterable[int]]) -> set[int]:
    """The roots and every state reachable from them along `edges`."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _eps_targets(t: Fst, side: int) -> dict[int, list[int]]:
    """Targets of each state's arcs with EPSILON on input (side 0) or output (1)."""
    return {q: [arc[2] for arc in arcs if arc[side] == EPSILON] for q, arcs in t.arcs.items()}


# ---------------------------------------------------------------------------
# state numbering


def _discover(cls: type[Fst], table: SymbolTable, start, expand) -> Fst:
    """Build the machine reachable from the state key `start`.

    Keys are numbered breadth first in the order they are discovered, `start`
    as 0. `expand(key)` returns the key's finality and its moves as
    (input, output, destination key) triples; it is called once per key.
    """
    ids = {start: 0}
    order = [start]
    arcs: dict[int, tuple[tuple[int, int, int], ...]] = {}
    finals: set[int] = set()
    for src, key in enumerate(order):  # `order` grows as the walk goes: a queue
        final, moves = expand(key)
        if final:
            finals.add(src)
        numbered = []
        for inp, out, dst_key in moves:
            dst = ids.get(dst_key)
            if dst is None:
                dst = ids[dst_key] = len(order)
                order.append(dst_key)
            numbered.append((inp, out, dst))
        if numbered:
            arcs[src] = tuple(sorted(numbered))
    return cls._trusted(table, len(order), 0, frozenset(finals), arcs)


def _renumber(a: Fst, renum: Mapping[int, int], num_states: int) -> Fst:
    """Rename each state q of `a` to renum[q], dropping the states `renum`
    omits and the arcs that touch them; arcs that merge are kept once. The
    callers keep only live states, so the result is marked trim."""
    arcs: dict[int, set[tuple[int, int, int]]] = defaultdict(set)
    for q, new in renum.items():
        for inp, out, dst in a.arcs.get(q, ()):
            if dst in renum:
                arcs[new].add((inp, out, renum[dst]))
    finals = frozenset(renum[q] for q in a.finals if q in renum)
    stored = {q: tuple(sorted(q_arcs)) for q, q_arcs in arcs.items()}
    return type(a)._trusted(a.table, num_states, renum[a.start], finals, stored, trim=True)


# ---------------------------------------------------------------------------
# composition


def compose(left: Fst, right: Fst) -> Fst:
    """Compose two transducers: accepts (x, z) iff some y exists with
    (x, y) in L(left) and (y, z) in L(right).

    Arcs are matched on left output vs. right input; an epsilon output on the
    left lets the left machine move alone, an epsilon input on the right lets
    the right machine move alone. Coupled epsilon moves may duplicate paths,
    which is harmless for the acceptors this library derives from the result.
    Repeated arcs are not: two left arcs with different outputs can meet
    right arcs with one output and one target, giving the same move twice,
    so each state keeps the first of equal moves.

    Failure arcs in `right` are expanded here, because their guard ("the
    current symbol matches no sibling arc, or the input ended") refers to the
    symbol stream the left machine produces. A failure arc spawns a chain
    state that remembers the labels matched by the right states walked so far;
    those are exactly the symbols that would have preempted the walk, so the
    chain may consume any other label the left machine can still emit, and is
    final whenever both sides are. Chains that can never consume or accept
    are not emitted at all, so no dead failure siblings appear in the result.
    The result machine is failure-free.
    """
    if left.table != right.table:
        raise ConfigError("cannot compose machines over different symbol tables")
    if any(inp == FAILURE for arcs in left.arcs.values() for inp, _, _ in arcs):
        raise ConfigError("failure arcs in the left operand are not supported")

    # the right machine's (output, target) moves by state and input
    r_moves: dict[int, dict[int, list[tuple]]] = defaultdict(lambda: defaultdict(list))
    for q, arcs in right.arcs.items():
        for inp, out, dst in arcs:
            r_moves[q][inp].append((out, dst))

    # left moves that emit nothing; a failure chain looks through them
    silent_next = _eps_targets(left, 1)

    def chain_viable(l: int, r: int, blocked: frozenset[int]) -> bool:
        # Can a failure chain at right-state r ever consume a label the left
        # machine still emits, or land on finality for both sides?
        silent = _reach([l], silent_next)
        can_emit = {out for q in silent for _, out, _ in left.arcs.get(q, ())} - {EPSILON}
        can_end = not left.finals.isdisjoint(silent)
        seen = set()
        while r not in seen:
            seen.add(r)
            symbols = r_moves.get(r, {}).keys() - {EPSILON, FAILURE}
            if can_emit & (symbols - blocked):
                return True
            if can_end and r in right.finals:
                return True
            if FAILURE not in r_moves.get(r, {}):
                return False
            blocked = blocked | symbols
            r = r_moves[r][FAILURE][0][1]
        return False

    # state keys: ("s", l, r) plain pairs; ("f", l, r, blocked) partway down
    # a failure chain, where blocked holds the labels of the walked states.
    def expand(key: tuple) -> tuple[bool, Iterable[tuple[int, int, tuple]]]:
        moves = []
        here = r_moves.get(key[2], {})
        if key[0] == "s":
            _, l, r = key
            blocked: frozenset[int] = frozenset()
            for out, dst in here.get(EPSILON, ()):
                moves.append((EPSILON, out, ("s", l, dst)))
        else:
            _, l, r, blocked = key
        for inp, mid, l_dst in left.arcs.get(l, ()):
            if mid == EPSILON:
                moves.append((inp, EPSILON, (*key[:1], l_dst, *key[2:])))
            elif mid in here and mid not in blocked:
                for out, r_dst in here[mid]:
                    moves.append((inp, out, ("s", l_dst, r_dst)))
        for out, r_dst in here.get(FAILURE, ()):
            walked = frozenset(blocked | (here.keys() - {EPSILON, FAILURE}))
            if chain_viable(l, r_dst, walked):
                moves.append((EPSILON, out, ("f", l, r_dst, walked)))
        return l in left.finals and r in right.finals, dict.fromkeys(moves)

    return _discover(Fst, left.table, ("s", left.start, right.start), expand)


# ---------------------------------------------------------------------------
# unary constructions


def project_output(t: Fst) -> Fst:
    """Keep only the output side: every arc (q, i, o, p) becomes (q, o, o, p)."""
    arcs = {q: tuple(sorted((out, out, dst) for _, out, dst in q_arcs))
            for q, q_arcs in t.arcs.items()}
    return Fst._trusted(t.table, t.num_states, t.start, t.finals, arcs)


def epsilon_remove(a: Fst) -> Fst:
    """Remove epsilon arcs from an acceptor via per-state transitive closure.

    Cycles of epsilon arcs are fine. The result keeps the same state set and
    may be nondeterministic.
    """
    _require_acceptor(a, "epsilon_remove")
    arcs: dict[int, tuple[tuple[int, int, int], ...]] = {}
    finals = set(a.finals)
    for q in a.arcs:
        reach = _reach([q], a._eps_next)
        if not a.finals.isdisjoint(reach):
            finals.add(q)
        q_arcs = {arc for r in reach for arc in a.arcs.get(r, ()) if arc[0] != EPSILON}
        if q_arcs:
            arcs[q] = tuple(sorted(q_arcs))
    return Fst._trusted(a.table, a.num_states, a.start, frozenset(finals), arcs)


def determinize(a: Fst) -> Dfa:
    """Subset construction over an epsilon-free acceptor."""
    _require_acceptor(a, "determinize")
    if any(a._eps_next.values()):
        raise ConfigError("determinize expects an epsilon-free acceptor")
    return _output_subsets(a)[0]


def _output_subsets(t: Fst) -> tuple[Dfa, bool]:
    """Projection, epsilon removal and determinization in one walk: a subset
    construction over the output side of a failure-free machine. A key is
    the set of raw targets one label leads to, expanded through its closure
    under arcs that emit nothing. The flag is True iff no label of any key
    led to two targets."""
    silent = _eps_targets(t, 1)
    deterministic = True

    def expand(key: frozenset[int]) -> tuple[bool, list[tuple[int, int, frozenset]]]:
        nonlocal deterministic
        closure = _reach(key, silent)
        targets: dict[int, set[int]] = defaultdict(set)
        for q in closure:
            for _, out, dst in t.arcs.get(q, ()):
                if out != EPSILON:
                    targets[out].add(dst)
        deterministic = deterministic and all(len(d) == 1 for d in targets.values())
        moves = [(sym, sym, frozenset(targets[sym])) for sym in sorted(targets)]
        return not t.finals.isdisjoint(closure), moves

    return _discover(Dfa, t.table, frozenset([t.start]), expand), deterministic


def trim(a: Fst) -> Fst:
    """Drop states that are unreachable from the start or cannot reach a final.

    A machine whose language is empty collapses to a single non-final start
    state with no arcs. A machine that is already trim, the collapsed one
    included, is returned as it is.
    """
    live = a._live
    if len(live) == a.num_states:
        return a
    if a.start not in live:
        if a.num_states == 1 and not a.arcs:
            return a
        return type(a)._trusted(a.table, 1, 0, frozenset(), {}, trim=True)
    return _renumber(a, {q: i for i, q in enumerate(sorted(live))}, len(live))


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal form of a deterministic acceptor.

    Trims first, so dead states never influence the partition; the transition
    function may be partial (a missing arc is simply a reject). The result is
    trim; when no two states merge, it is the trim machine itself.
    """
    if not isinstance(d, Dfa):
        d = Dfa.from_fst(d)
    t = trim(d)
    if not t.finals:
        return t

    # each state's arcs are sorted by input symbol, one arc per symbol, so a
    # signature lists them in symbol order without sorting
    block = [0 if q in t.finals else 1 for q in range(t.num_states)]
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * t.num_states
        for q in range(t.num_states):
            sig = (block[q], tuple((inp, block[dst]) for inp, _, dst in t.arcs.get(q, ())))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        # blocks are numbered in the order of their first state, so a block
        # id is already the state's new number: the identity once every
        # state has a block of its own, a partition no round can refine
        if len(signatures) == t.num_states:
            return t
        if new_block == block:
            break
        block = new_block
    return _renumber(t, dict(enumerate(block)), len(signatures))


def canonical_form(d: Dfa) -> Dfa:
    """Renumber states in breadth-first discovery order over sorted labels.

    Minimal deterministic acceptors are isomorphic iff their canonical forms
    are equal. Any other `Fst` is converted first: ValueError if no DFA.
    """
    if not isinstance(d, Dfa):
        d = Dfa.from_fst(d)

    def expand(q: int) -> tuple[bool, tuple[tuple[int, int, int], ...]]:
        return q in d.finals, d.arcs.get(q, ())

    return _discover(Dfa, d.table, d.start, expand)


# ---------------------------------------------------------------------------
# acceptance and enumeration

# Acceptance runs on the input side, with epsilon arcs free. Failure arcs are
# resolved by `compose` alone: a machine that has them is first composed under
# the identity over its input alphabet, whose result is failure-free.


def _failure_free(a: Fst) -> Fst:
    if all(inp != FAILURE for arcs in a.arcs.values() for inp, _, _ in arcs):
        return a
    loop = tuple((s, s, 0) for s in sorted(a.input_alphabet))
    return compose(Fst._trusted(a.table, 1, 0, frozenset([0]), {0: loop} if loop else {}), a)


def _step(a: Fst, states: frozenset[int], sym: int) -> frozenset[int]:
    targets = (dst for q in states for inp, _, dst in a.arcs.get(q, ()) if inp == sym)
    return frozenset(_reach(targets, a._eps_next))


def accepts(a: Fst, seq: Iterable[int]) -> bool:
    """Does the acceptor accept this symbol-id sequence?"""
    a = _failure_free(a)
    states = frozenset(_reach([a.start], a._eps_next))
    for sym in seq:
        states = _step(a, states, sym)
        if not states:
            return False
    return not a.finals.isdisjoint(states)


def enumerate_language(
    a: Fst, max_len: int, *, max_paths: int = 1_000_000
) -> set[tuple[int, ...]]:
    """All accepted sequences of at most `max_len` symbols.

    Exploration is capped at `max_paths` expansions; going over raises
    EnumerationError rather than silently truncating the answer.
    """
    if max_len < 0:
        raise ConfigError(f"max_len must not be negative, got {max_len}")
    a = _failure_free(a)
    results: set[tuple[int, ...]] = set()
    start = frozenset(_reach([a.start], a._eps_next))
    queue: deque[tuple[tuple[int, ...], frozenset[int]]] = deque([((), start)])
    explored = 0
    while queue:
        seq, states = queue.popleft()
        explored += 1
        if explored > max_paths:
            raise EnumerationError(
                f"enumeration exceeded {max_paths} paths "
                f"({len(results)} sequences found so far)",
                len(results),
            )
        if not a.finals.isdisjoint(states):
            results.add(seq)
        if len(seq) == max_len:
            continue
        candidates = {inp for q in states for inp, _, _ in a.arcs.get(q, ()) if inp != EPSILON}
        for sym in sorted(candidates):
            nxt = _step(a, states, sym)
            if nxt:
                queue.append((seq + (sym,), nxt))
    return results


def _require_acceptor(a: Fst, op: str) -> None:
    for q, arcs in a.arcs.items():
        for inp, out, _ in arcs:
            if inp == FAILURE:
                raise ConfigError(f"{op} expects a failure-free acceptor")
            if inp != out:
                raise ConfigError(f"{op} expects an acceptor; state {q} has arc {inp}:{out}")
