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
from typing import Iterable, NamedTuple

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
    def _trusted(cls, table, num_states, start, finals, transitions):
        """Store the fields unchecked: for results derived from valid machines,
        with `finals` a frozenset and `transitions` a tuple of Transitions."""
        m = object.__new__(cls)
        m.__dict__.update(
            table=table, num_states=num_states, start=start,
            finals=finals, transitions=transitions,
        )
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


def is_deterministic(a: Fst) -> bool:
    """True iff `a` has no epsilon/failure arcs and one arc per state and symbol."""
    seen: set[tuple[int, int]] = set()
    for t in a.transitions:
        if t.inp in (EPSILON, FAILURE) or t.out == EPSILON:
            return False
        if (t.src, t.inp) in seen:
            return False
        seen.add((t.src, t.inp))
    return True


# ---------------------------------------------------------------------------
# composition


def compose(left: Fst, right: Fst) -> Fst:
    """Compose two transducers: accepts (x, z) iff some y exists with
    (x, y) in L(left) and (y, z) in L(right).

    Arcs are matched on left output vs. right input; an epsilon output on the
    left lets the left machine move alone, an epsilon input on the right lets
    the right machine move alone. Coupled epsilon moves may duplicate paths,
    which is harmless for the acceptors this library derives from the result.

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

    # silent-closure of a left state: everything reachable emitting nothing
    silent_cache: dict[int, frozenset[int]] = {}

    def silent(l: int) -> frozenset[int]:
        if l not in silent_cache:
            seen = {l}
            stack = [l]
            while stack:
                for t in left.arcs_from(stack.pop()):
                    if t.out == EPSILON and t.dst not in seen:
                        seen.add(t.dst)
                        stack.append(t.dst)
            silent_cache[l] = frozenset(seen)
        return silent_cache[l]

    def emittable(l: int) -> frozenset[int]:
        return frozenset(
            t.out for q in silent(l) for t in left.arcs_from(q) if t.out != EPSILON
        )

    def endable(l: int) -> bool:
        return any(q in left.finals for q in silent(l))

    def chain_viable(l: int, r: int, blocked: frozenset[int]) -> bool:
        # Can a failure chain at right-state r ever consume a label the left
        # machine still emits, or land on finality for both sides?
        can_emit = emittable(l)
        can_end = endable(l)
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
    ids: dict[tuple, int] = {}
    order: list[tuple] = []

    def state_id(key: tuple) -> int:
        if key not in ids:
            ids[key] = len(order)
            order.append(key)
            queue.append(key)
        return ids[key]

    queue: deque[tuple] = deque()
    arcs: set[Transition] = set()
    finals: set[int] = set()
    state_id(("s", left.start, right.start))

    while queue:
        key = queue.popleft()
        src = ids[key]
        if key[0] == "s":
            _, l, r = key
            blocked: frozenset[int] = frozenset()
            for t in r_eps.get(r, ()):
                arcs.add(Transition(src, EPSILON, t.out, state_id(("s", l, t.dst))))
        else:
            _, l, r, blocked = key
        if l in left.finals and r in right.finals:
            finals.add(src)
        here = r_sym.get(r, {})
        for lt in left.arcs_from(l):
            if lt.out == EPSILON:
                dst = state_id((*key[:1], lt.dst, *key[2:]))
                arcs.add(Transition(src, lt.inp, EPSILON, dst))
            elif lt.out in here and lt.out not in blocked:
                for rt in here[lt.out]:
                    arcs.add(
                        Transition(src, lt.inp, rt.out, state_id(("s", lt.dst, rt.dst)))
                    )
        fail = r_fail.get(r)
        if fail is not None:
            walked = frozenset(blocked | here.keys())
            if chain_viable(l, fail.dst, walked):
                dst = state_id(("f", l, fail.dst, walked))
                arcs.add(Transition(src, EPSILON, fail.out, dst))

    return Fst._trusted(left.table, len(order), 0, frozenset(finals), tuple(sorted(arcs)))


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
    eps_next: dict[int, set[int]] = defaultdict(set)
    for t in a.transitions:
        if t.inp == EPSILON:
            eps_next[t.src].add(t.dst)

    closures: dict[int, frozenset[int]] = {}

    def closure(q: int) -> frozenset[int]:
        if q not in closures:
            seen = {q}
            stack = [q]
            while stack:
                for nxt in eps_next.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closures[q] = frozenset(seen)
        return closures[q]

    arcs: set[Transition] = set()
    finals: set[int] = set()
    for q in range(a.num_states):
        reach = closure(q)
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

    subset_ids: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []

    def subset_id(states: tuple[int, ...]) -> int:
        if states not in subset_ids:
            subset_ids[states] = len(order)
            order.append(states)
            queue.append(states)
        return subset_ids[states]

    queue: deque[tuple[int, ...]] = deque()
    arcs: list[Transition] = []
    finals: set[int] = set()
    subset_id((a.start,))
    while queue:
        states = queue.popleft()
        src = subset_ids[states]
        if any(q in a.finals for q in states):
            finals.add(src)
        targets: dict[int, set[int]] = defaultdict(set)
        for q in states:
            for t in a.arcs_from(q):
                targets[t.inp].add(t.dst)
        for sym in sorted(targets):
            dst = subset_id(tuple(sorted(targets[sym])))
            arcs.append(Transition(src, sym, sym, dst))
    return Dfa._trusted(a.table, len(order), 0, frozenset(finals), tuple(sorted(arcs)))


def trim(a: Fst) -> Fst:
    """Drop states that are unreachable from the start or cannot reach a final.

    A machine whose language is empty collapses to a single non-final start
    state with no arcs.
    """
    fwd: dict[int, set[int]] = defaultdict(set)
    bwd: dict[int, set[int]] = defaultdict(set)
    for t in a.transitions:
        fwd[t.src].add(t.dst)
        bwd[t.dst].add(t.src)

    def reach(roots: Iterable[int], edges: dict[int, set[int]]) -> set[int]:
        seen = set(roots)
        stack = list(seen)
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    live = reach([a.start], fwd) & reach(a.finals, bwd)
    if a.start not in live:
        return type(a)._trusted(a.table, 1, 0, frozenset(), ())
    renum = {q: i for i, q in enumerate(sorted(live))}
    arcs = tuple(
        Transition(renum[t.src], t.inp, t.out, renum[t.dst])
        for t in a.transitions
        if t.src in live and t.dst in live
    )
    finals = frozenset(renum[q] for q in a.finals if q in live)
    return type(a)._trusted(a.table, len(live), renum[a.start], finals, tuple(sorted(arcs)))


def minimize(d: Dfa) -> Dfa:
    """Canonical minimal form of a deterministic acceptor.

    Trims first, so dead states never influence the partition; the transition
    function may be partial (a missing arc is simply a reject).
    """
    if not isinstance(d, Dfa):
        d = Dfa.from_fst(d)
    t = trim(d)
    if not t.finals:
        return Dfa._trusted(t.table, 1, 0, frozenset(), ())

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

    reps: dict[int, int] = {}
    for q in range(t.num_states):
        reps.setdefault(block[q], q)
    renum = {b: i for i, b in enumerate(sorted(reps))}
    arcs = {
        Transition(renum[block[a.src]], a.inp, a.out, renum[block[a.dst]])
        for a in t.transitions
    }
    finals = frozenset(renum[block[q]] for q in t.finals)
    return Dfa._trusted(t.table, len(renum), renum[block[t.start]], finals, tuple(sorted(arcs)))


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
    renum = {d.start: 0}
    queue = deque([d.start])
    while queue:
        q = queue.popleft()
        for a in sorted(d.arcs_from(q), key=lambda a: (a.inp, a.out)):
            if a.dst not in renum:
                renum[a.dst] = len(renum)
                queue.append(a.dst)
    arcs = tuple(
        sorted(
            Transition(renum[a.src], a.inp, a.out, renum[a.dst])
            for a in d.transitions
            if a.src in renum and a.dst in renum
        )
    )
    finals = frozenset(renum[q] for q in d.finals if q in renum)
    return Dfa._trusted(d.table, len(renum), 0, finals, arcs)


# ---------------------------------------------------------------------------
# acceptance and enumeration

# Acceptance runs on the input side. Epsilon arcs are free; a failure arc is
# taken only per its guard, which the stepper enforces by consulting the
# failure chain exactly when the current symbol has no direct arc.


def _eps_closure(a: Fst, states: frozenset[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(states)
    while stack:
        for t in a.arcs_from(stack.pop()):
            if t.inp == EPSILON and t.dst not in seen:
                seen.add(t.dst)
                stack.append(t.dst)
    return frozenset(seen)


def _fail_arc(a: Fst, q: int) -> Transition | None:
    for t in a.arcs_from(q):
        if t.inp == FAILURE:
            return t
    return None


def _step(a: Fst, states: frozenset[int], sym: int) -> frozenset[int]:
    out: set[int] = set()
    for q in states:
        seen = set()
        cur = q
        while cur not in seen:
            seen.add(cur)
            hits = [t.dst for t in a.arcs_from(cur) if t.inp == sym]
            if hits:
                out.update(hits)
                break
            arc = _fail_arc(a, cur)
            if arc is None:
                break
            cur = arc.dst
    return _eps_closure(a, frozenset(out))


def _accepting(a: Fst, states: frozenset[int]) -> bool:
    for q in states:
        seen = set()
        cur = q
        while cur not in seen:
            seen.add(cur)
            if cur in a.finals:
                return True
            arc = _fail_arc(a, cur)
            if arc is None:
                break
            cur = arc.dst
    return False


def accepts(a: Fst, seq: Iterable[int]) -> bool:
    """Does the acceptor accept this symbol-id sequence?"""
    states = _eps_closure(a, frozenset([a.start]))
    for sym in seq:
        states = _step(a, states, sym)
        if not states:
            return False
    return _accepting(a, states)


def enumerate_language(
    a: Fst, max_len: int, *, max_paths: int = 1_000_000
) -> set[tuple[int, ...]]:
    """All accepted sequences of at most `max_len` symbols.

    Exploration is capped at `max_paths` expansions; going over raises
    EnumerationError rather than silently truncating the answer.
    """
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
        if _accepting(a, states):
            results.add(seq)
        if len(seq) == max_len:
            continue
        candidates: set[int] = set()
        for q in states:
            seen = set()
            cur = q
            while cur not in seen:
                seen.add(cur)
                candidates.update(
                    t.inp for t in a.arcs_from(cur) if t.inp not in (EPSILON, FAILURE)
                )
                arc = _fail_arc(a, cur)
                if arc is None:
                    break
                cur = arc.dst
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
