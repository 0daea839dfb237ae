"""Finite-state transducers and the operations the promotion pipelines need.

Machines are immutable. A transducer is a set of integer states with arcs
carrying an (input, output) pair of symbol ids; an acceptor is the special
case where input == output on every arc. Two reserved ids appear on arcs:

* EPSILON consumes/emits nothing.
* FAILURE (input side only) consumes nothing and may be traversed only when
  the current input symbol matches no other arc of the state, or when the
  input is exhausted. At most one failure arc per state.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import ConfigError, EnumerationError
from .symbols import EPSILON, FAILURE, RESERVED, SymbolTable


class Transition(NamedTuple):
    src: int
    inp: int
    out: int
    dst: int


@dataclass(frozen=True)
class Fst:
    """A finite-state transducer over one shared symbol table."""

    table: SymbolTable
    num_states: int
    start: int
    finals: frozenset[int]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        """Check a machine given by a caller; operations build theirs through
        `_trusted` instead, because valid operands yield valid results."""
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(
            self, "transitions", tuple(Transition(*t) for t in self.transitions)
        )
        if self.num_states < 1:
            raise ValueError("a machine needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start} out of range")
        for q in self.finals:
            if not 0 <= q < self.num_states:
                raise ValueError(f"final state {q} out of range")
        end = RESERVED + len(self.table)
        deterministic = isinstance(self, Dfa)
        seen_failure = set()
        seen_label: set[tuple[int, int]] = set()
        for t in self.transitions:
            if not (0 <= t.src < self.num_states and 0 <= t.dst < self.num_states):
                raise ValueError(f"transition {t} references a missing state")
            if t.inp != EPSILON and t.inp != FAILURE and not RESERVED <= t.inp < end:
                raise ValueError(f"transition {t} has an unknown input symbol")
            if t.out == FAILURE or (t.out != EPSILON and not RESERVED <= t.out < end):
                raise ValueError(f"transition {t} has an invalid output symbol")
            if t.inp == FAILURE:
                if t.src in seen_failure:
                    raise ValueError(f"state {t.src} has more than one failure arc")
                seen_failure.add(t.src)
            if not deterministic:
                continue
            if t.inp in (EPSILON, FAILURE):
                raise ValueError(f"transition {t} is not allowed in a deterministic acceptor")
            if t.inp != t.out:
                raise ValueError(f"transition {t} is not an acceptor arc")
            if (t.src, t.inp) in seen_label:
                raise ValueError(f"state {t.src} has two arcs on symbol {t.inp}")
            seen_label.add((t.src, t.inp))

    @classmethod
    def _trusted(cls, table, num_states, start, finals, transitions, *, trim=False):
        """Store the fields unchecked: for results derived from valid machines,
        with `finals` a frozenset and `transitions` a tuple of Transitions.
        `trim=True` records a machine built trim, so `_live` needs no walk."""
        m = object.__new__(cls)
        m.__dict__.update(
            table=table, num_states=num_states, start=start,
            finals=finals, transitions=transitions,
        )
        if trim:
            m.__dict__["_live"] = range(num_states) if finals else frozenset()
        return m

    @cached_property
    def _by_src(self) -> dict[int, tuple[Transition, ...]]:
        buckets: dict[int, list[Transition]] = defaultdict(list)
        for t in self.transitions:
            buckets[t.src].append(t)
        return {q: tuple(ts) for q, ts in buckets.items()}

    def arcs_from(self, state: int) -> tuple[Transition, ...]:
        return self._by_src.get(state, ())

    @cached_property
    def _eps_next(self) -> dict[int, list[int]]:
        """Targets of each state's epsilon-input arcs."""
        nxt: dict[int, list[int]] = defaultdict(list)
        for t in self.transitions:
            if t.inp == EPSILON:
                nxt[t.src].append(t.dst)
        return dict(nxt)

    @cached_property
    def _live(self) -> Collection[int]:
        """States reachable from the start that can also reach a final state."""
        fwd: dict[int, list[int]] = defaultdict(list)
        bwd: dict[int, list[int]] = defaultdict(list)
        for t in self.transitions:
            fwd[t.src].append(t.dst)
            bwd[t.dst].append(t.src)
        return _reach([self.start], fwd) & _reach(self.finals, bwd)

    @cached_property
    def input_alphabet(self) -> frozenset[int]:
        return frozenset(
            t.inp for t in self.transitions if t.inp not in (EPSILON, FAILURE)
        )


@dataclass(frozen=True)
class Dfa(Fst):
    """An acceptor with no epsilon/failure arcs and at most one arc per symbol."""

    @classmethod
    def from_fst(cls, a: Fst) -> "Dfa":
        return cls(a.table, a.num_states, a.start, a.finals, a.transitions)


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
    arcs: list[Transition] = []
    finals: set[int] = set()
    for src, key in enumerate(order):  # `order` grows as the walk goes: a queue
        final, moves = expand(key)
        if final:
            finals.add(src)
        for inp, out, dst_key in moves:
            dst = ids.get(dst_key)
            if dst is None:
                dst = ids[dst_key] = len(order)
                order.append(dst_key)
            arcs.append(Transition(src, inp, out, dst))
    return cls._trusted(table, len(order), 0, frozenset(finals), tuple(sorted(arcs)))


def _renumber(a: Fst, renum: Mapping[int, int], num_states: int) -> Fst:
    """Rename each state q of `a` to renum[q], dropping the states `renum`
    omits and the arcs that touch them; arcs that merge are kept once. The
    callers keep only live states, so the result is marked trim."""
    arcs = {
        Transition(renum[t.src], t.inp, t.out, renum[t.dst])
        for t in a.transitions
        if t.src in renum and t.dst in renum
    }
    finals = frozenset(renum[q] for q in a.finals if q in renum)
    return type(a)._trusted(
        a.table, num_states, renum[a.start], finals, tuple(sorted(arcs)), trim=True
    )


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
    if any(t.inp == FAILURE for t in left.transitions):
        raise ConfigError("failure arcs in the left operand are not supported")

    r_eps: dict[int, list[Transition]] = defaultdict(list)
    r_sym: dict[int, dict[int, list[Transition]]] = defaultdict(lambda: defaultdict(list))
    r_fail: dict[int, Transition] = {}
    for t in right.transitions:
        if t.inp == EPSILON:
            r_eps[t.src].append(t)
        elif t.inp == FAILURE:
            r_fail[t.src] = t
        else:
            r_sym[t.src][t.inp].append(t)

    # left moves that emit nothing; a failure chain looks through them
    silent_next: dict[int, list[int]] = defaultdict(list)
    for t in left.transitions:
        if t.out == EPSILON:
            silent_next[t.src].append(t.dst)

    def chain_viable(l: int, r: int, blocked: frozenset[int]) -> bool:
        # Can a failure chain at right-state r ever consume a label the left
        # machine still emits, or land on finality for both sides?
        silent = _reach([l], silent_next)
        can_emit = {t.out for q in silent for t in left.arcs_from(q) if t.out != EPSILON}
        can_end = not left.finals.isdisjoint(silent)
        seen = set()
        while r not in seen:
            seen.add(r)
            labels = r_sym.get(r, {}).keys()
            if can_emit & (labels - blocked):
                return True
            if can_end and r in right.finals:
                return True
            arc = r_fail.get(r)
            if arc is None:
                return False
            blocked = blocked | labels
            r = arc.dst
        return False

    # state keys: ("s", l, r) plain pairs; ("f", l, r, blocked) partway down
    # a failure chain, where blocked holds the labels of the walked states.
    def expand(key: tuple) -> tuple[bool, Iterable[tuple[int, int, tuple]]]:
        moves = []
        if key[0] == "s":
            _, l, r = key
            blocked: frozenset[int] = frozenset()
            for t in r_eps.get(r, ()):
                moves.append((EPSILON, t.out, ("s", l, t.dst)))
        else:
            _, l, r, blocked = key
        here = r_sym.get(r, {})
        for lt in left.arcs_from(l):
            if lt.out == EPSILON:
                moves.append((lt.inp, EPSILON, (*key[:1], lt.dst, *key[2:])))
            elif lt.out in here and lt.out not in blocked:
                for rt in here[lt.out]:
                    moves.append((lt.inp, rt.out, ("s", lt.dst, rt.dst)))
        fail = r_fail.get(r)
        if fail is not None:
            walked = frozenset(blocked | here.keys())
            if chain_viable(l, fail.dst, walked):
                moves.append((EPSILON, fail.out, ("f", l, fail.dst, walked)))
        return l in left.finals and r in right.finals, dict.fromkeys(moves)

    return _discover(Fst, left.table, ("s", left.start, right.start), expand)


# ---------------------------------------------------------------------------
# unary constructions


def project_output(t: Fst) -> Fst:
    """Keep only the output side: every arc (q, i, o, p) becomes (q, o, o, p)."""
    arcs = tuple(Transition(a.src, a.out, a.out, a.dst) for a in t.transitions)
    return Fst._trusted(t.table, t.num_states, t.start, t.finals, arcs)


def epsilon_remove(a: Fst) -> Fst:
    """Remove epsilon arcs from an acceptor via per-state transitive closure.

    Cycles of epsilon arcs are fine. The result keeps the same state set and
    may be nondeterministic.
    """
    _require_acceptor(a, "epsilon_remove")
    arcs: set[Transition] = set()
    finals: set[int] = set()
    for q in range(a.num_states):
        reach = _reach([q], a._eps_next)
        if reach & a.finals:
            finals.add(q)
        for r in reach:
            for t in a.arcs_from(r):
                if t.inp != EPSILON:
                    arcs.add(Transition(q, t.inp, t.out, t.dst))
    return Fst._trusted(a.table, a.num_states, a.start, frozenset(finals), tuple(sorted(arcs)))


def determinize(a: Fst) -> Dfa:
    """Subset construction over an epsilon-free acceptor."""
    _require_acceptor(a, "determinize")
    if any(t.inp == EPSILON for t in a.transitions):
        raise ConfigError("determinize expects an epsilon-free acceptor")
    return _output_subsets(a)[0]


def _output_subsets(t: Fst) -> tuple[Dfa, bool]:
    """Projection, epsilon removal and determinization in one walk: a subset
    construction over the output side of a failure-free machine. A key is
    the set of raw targets one label leads to, expanded through its closure
    under arcs that emit nothing. The flag is True iff no label of any key
    led to two targets."""
    silent: dict[int, list[int]] = defaultdict(list)
    for a in t.transitions:
        if a.out == EPSILON:
            silent[a.src].append(a.dst)
    deterministic = True

    def expand(key: frozenset[int]) -> tuple[bool, list[tuple[int, int, frozenset]]]:
        nonlocal deterministic
        closure = _reach(key, silent)
        targets: dict[int, set[int]] = defaultdict(set)
        for q in closure:
            for a in t.arcs_from(q):
                if a.out != EPSILON:
                    targets[a.out].add(a.dst)
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
        if a.num_states == 1 and not a.transitions:
            return a
        return type(a)._trusted(a.table, 1, 0, frozenset(), (), trim=True)
    return _renumber(a, {q: i for i, q in enumerate(sorted(live))}, len(live))


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal form of a deterministic acceptor.

    Trims first, so dead states never influence the partition; the transition
    function may be partial (a missing arc is simply a reject). The result is
    trim.
    """
    if not isinstance(d, Dfa):
        d = Dfa.from_fst(d)
    t = trim(d)
    if not t.finals:
        return t

    block = [0 if q in t.finals else 1 for q in range(t.num_states)]
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * t.num_states
        for q in range(t.num_states):
            sig = (
                block[q],
                tuple(sorted((a.inp, block[a.dst]) for a in t.arcs_from(q))),
            )
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if new_block == block:
            break
        block = new_block
    # blocks are numbered in the order of their first state, so a block id
    # is already the state's new number
    return _renumber(t, dict(enumerate(block)), len(signatures))


def kleene_star_closure(t: Fst) -> Fst:
    """Close a machine under concatenation: every final state gets an
    epsilon arc back to the start, and the start state is made final so the
    empty pair is accepted."""
    arcs = list(t.transitions)
    for q in sorted(t.finals):
        arcs.append(Transition(q, EPSILON, EPSILON, t.start))
    return Fst._trusted(t.table, t.num_states, t.start, t.finals | {t.start}, tuple(arcs))


def canonical_form(d: Dfa) -> Dfa:
    """Renumber states in breadth-first discovery order over sorted labels.

    Minimal deterministic acceptors are isomorphic iff their canonical forms
    are equal.
    """
    def expand(q: int) -> tuple[bool, list[tuple[int, int, int]]]:
        return q in d.finals, [(a.inp, a.out, a.dst) for a in sorted(d.arcs_from(q))]

    return _discover(Dfa, d.table, d.start, expand)


# ---------------------------------------------------------------------------
# acceptance and enumeration

# Acceptance runs on the input side, with epsilon arcs free. Failure arcs are
# resolved by `compose` alone: a machine that has them is first composed under
# the identity over its input alphabet, whose result is failure-free.


def _failure_free(a: Fst) -> Fst:
    if all(t.inp != FAILURE for t in a.transitions):
        return a
    arcs = tuple(Transition(0, s, s, 0) for s in sorted(a.input_alphabet))
    return compose(Fst._trusted(a.table, 1, 0, frozenset([0]), arcs), a)


def _eps_closure(a: Fst, states: Iterable[int]) -> frozenset[int]:
    return frozenset(_reach(states, a._eps_next))


def _step(a: Fst, states: frozenset[int], sym: int) -> frozenset[int]:
    return _eps_closure(a, (t.dst for q in states for t in a.arcs_from(q) if t.inp == sym))


def accepts(a: Fst, seq: Iterable[int]) -> bool:
    """Does the acceptor accept this symbol-id sequence?"""
    a = _failure_free(a)
    states = _eps_closure(a, frozenset([a.start]))
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
    start = _eps_closure(a, frozenset([a.start]))
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
        candidates = {t.inp for q in states for t in a.arcs_from(q) if t.inp != EPSILON}
        for sym in sorted(candidates):
            nxt = _step(a, states, sym)
            if nxt:
                queue.append((seq + (sym,), nxt))
    return results


def _require_acceptor(a: Fst, op: str) -> None:
    for t in a.transitions:
        if t.inp == FAILURE:
            raise ConfigError(f"{op} expects a failure-free acceptor")
        if t.inp != t.out:
            raise ConfigError(f"{op} expects an acceptor, got transducer arc {t}")
