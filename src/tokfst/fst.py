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
from itertools import groupby
from operator import itemgetter
from typing import Collection, Iterable, Mapping, NamedTuple

from .errors import ConfigError, EnumerationError, ValidationError, check_count
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
        if not isinstance(self.table, SymbolTable):
            raise ValidationError(f"table must be a SymbolTable, not {type(self.table).__name__}")
        try:
            object.__setattr__(self, "finals", frozenset(self.finals))
        except TypeError:
            raise ValidationError(f"finals {self.finals!r} are not a collection of states") from None
        # `type(...) is int` also rejects bools, as `load_automaton` does
        if type(self.num_states) is not int or type(self.start) is not int:
            raise ValidationError("num_states and start must be integers")
        if self.num_states < 1:
            raise ValidationError("a machine needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise ValidationError(f"start state {self.start} out of range")
        for q in self.finals:
            if type(q) is not int:
                raise ValidationError(f"final state {q!r} is not an integer")
            if not 0 <= q < self.num_states:
                raise ValidationError(f"final state {q} out of range")
        n = self.num_states
        end = RESERVED + len(self.table)
        deterministic = isinstance(self, Dfa)
        by_src: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        try:
            rows = iter(self.arcs)
        except TypeError:
            raise ValidationError(f"transitions {self.arcs!r} are not a collection of rows") from None
        for row in rows:
            try:
                src, inp, out, dst = row
            except (TypeError, ValueError):
                raise ValidationError(f"transition {row!r} is not a (src, inp, out, dst) row") from None
            # A valid row passes this one test. An `Fst` input is ε, φ or a
            # token, the ids below `end` (EPSILON and FAILURE are 0 and 1); an
            # output is ε or a token. A `Dfa` arc is a token on both sides.
            if (type(src) is int and type(inp) is int and type(out) is int and type(dst) is int
                    and 0 <= src < n and 0 <= dst < n
                    and (RESERVED <= inp < end and inp == out if deterministic
                         else EPSILON <= inp < end and (RESERVED <= out < end or out == EPSILON))):
                by_src[src].append((inp, out, dst))
                continue
            # a row that fails it is named by the first of these checks
            if not type(src) is type(inp) is type(out) is type(dst) is int:
                problem = "has a field that is not an integer"
            elif not (0 <= src < n and 0 <= dst < n):
                problem = "references a missing state"
            elif inp != EPSILON and inp != FAILURE and not RESERVED <= inp < end:
                problem = "has an unknown input symbol"
            elif out == FAILURE or (out != EPSILON and not RESERVED <= out < end):
                problem = "has an invalid output symbol"
            elif deterministic and inp in (EPSILON, FAILURE):
                problem = "is not allowed in a deterministic acceptor"
            else:  # deterministic and inp != out, as the test failed
                problem = "is not an acceptor arc"
            raise ValidationError(f"transition {Transition(src, inp, out, dst)} {problem}")
        arcs = {q: tuple(sorted(q_arcs)) for q, q_arcs in by_src.items()}
        for q, q_arcs in arcs.items():
            inputs = tuple(map(itemgetter(0), q_arcs))
            # a `Dfa` has distinct inputs, none of them φ; any other machine
            # at most one φ. Equal inputs are adjacent once sorted.
            if deterministic:
                if len(set(inputs)) < len(inputs):
                    sym = next(a for a, b in zip(inputs, inputs[1:]) if a == b)
                    raise ValidationError(f"state {q} has two arcs on symbol {sym}")
            elif inputs.count(FAILURE) > 1:
                raise ValidationError(f"state {q} has more than one failure arc")
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
    def _moves(self) -> dict[int, dict[int, tuple[tuple[int, int], ...]]]:
        """Each state's (output, target) moves by input label, in arc order:
        the index `compose` reads of its right operand. Sorted arcs keep
        equal labels adjacent."""
        return {
            q: {inp: tuple((out, dst) for _, out, dst in group)
                for inp, group in groupby(arcs, itemgetter(0))}
            for q, arcs in self.arcs.items()
        }

    @cached_property
    def _live(self) -> Collection[int]:
        """States reachable from the start that can also reach a final state.
        Both walks follow each state's distinct targets, not its arcs."""
        fwd = {q: {dst for _, _, dst in arcs} for q, arcs in self.arcs.items()}
        bwd: dict[int, list[int]] = defaultdict(list)
        for q, dsts in fwd.items():
            for dst in dsts:
                bwd[dst].append(q)
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


def _expansion(t: Fst, side: int, merged: list | None = None):
    """The one walk over silent arcs. `expand(key)` closes a key of states
    under the arcs whose label on `side` (0 input, 1 output) is EPSILON,
    reading the stored arcs of the states it reaches and no others, and
    returns whether the closure holds a final state and its moves as (label,
    label, frozenset of the raw targets) triples sorted by label. Each key
    in which a label led to two targets is appended to `merged`, if given."""
    arcs_of, finals = t.arcs.get, t.finals
    # a label that reaches one target leads to that target's one shared
    # key, whose hash `_discover` computes once
    singles: dict[int, frozenset[int]] = {}
    single_of = singles.get

    def expand(key: Iterable[int]) -> tuple[bool, list[tuple[int, int, frozenset[int]]]]:
        seen = set(key)
        stack = list(seen)
        first: dict[int, int] = {}  # label: the first target it reached
        more: dict[int, set[int]] = {}  # label: every target, once it reached two
        while stack:
            for arc in arcs_of(stack.pop(), ()):
                label, dst = arc[side], arc[2]
                if label == EPSILON:
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
                elif first.setdefault(label, dst) != dst:
                    more.setdefault(label, {first[label]}).add(dst)
        if more and merged is not None:
            merged.append(key)
        moves = []
        for label in sorted(first):
            dsts = more.get(label)
            if dsts is None:
                dst = first[label]
                target = single_of(dst)
                if target is None:
                    target = singles[dst] = frozenset((dst,))
            else:
                target = frozenset(dsts)
            moves.append((label, label, target))
        return not finals.isdisjoint(seen), moves

    return expand


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

    r_moves = right._moves  # the right machine's (output, target) moves by state and input

    # a failure chain looks through the left moves that emit nothing: per
    # left state, the labels it can still emit and whether it can end
    emitting = _expansion(left, 1)
    ahead: dict[int, tuple[set[int], bool]] = {}

    def chain_viable(l: int, r: int, blocked: frozenset[int]) -> bool:
        # Can a failure chain at right-state r ever consume a label the left
        # machine still emits, or land on finality for both sides?
        if l not in ahead:
            can_end, moves = emitting((l,))
            ahead[l] = {label for label, _, _ in moves}, can_end
        can_emit, can_end = ahead[l]
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

    # state keys (l, r, blocked): blocked is None for a plain pair, and
    # partway down a failure chain the labels of the walked states
    def expand(key: tuple) -> tuple[bool, Iterable[tuple[int, int, tuple]]]:
        l, r, blocked = key
        moves = []
        here = r_moves.get(r, {})
        if blocked is None:
            for out, dst in here.get(EPSILON, ()):
                moves.append((EPSILON, out, (l, dst, None)))
        banned = blocked or frozenset()
        for inp, mid, l_dst in left.arcs.get(l, ()):
            if mid == EPSILON:
                moves.append((inp, EPSILON, (l_dst, r, blocked)))
            elif mid in here and mid not in banned:
                for out, r_dst in here[mid]:
                    moves.append((inp, out, (l_dst, r_dst, None)))
        for out, r_dst in here.get(FAILURE, ()):
            walked = banned | (here.keys() - {EPSILON, FAILURE})
            if chain_viable(l, r_dst, walked):
                moves.append((EPSILON, out, (l, r_dst, walked)))
        return l in left.finals and r in right.finals, dict.fromkeys(moves)

    return _discover(Fst, left.table, (left.start, right.start, None), expand)


# ---------------------------------------------------------------------------
# unary constructions


def project_output(t: Fst) -> Fst:
    """Keep only the output side: every arc (q, i, o, p) becomes (q, o, o, p)."""
    arcs = {q: tuple(sorted((out, out, dst) for _, out, dst in q_arcs))
            for q, q_arcs in t.arcs.items()}
    return Fst._trusted(t.table, t.num_states, t.start, t.finals, arcs)


def epsilon_remove(a: Fst) -> Fst:
    """Remove epsilon arcs from an acceptor: each state with arcs takes the
    finality and the labelled arcs of the states its epsilon arcs reach.

    Cycles of epsilon arcs are fine. The result keeps the same state set and
    may be nondeterministic.
    """
    _require_acceptor(a, "epsilon_remove")
    expand = _expansion(a, 0)
    arcs: dict[int, tuple[tuple[int, int, int], ...]] = {}
    finals = set(a.finals)
    for q in a.arcs:
        final, moves = expand((q,))
        if final:
            finals.add(q)
        q_arcs = tuple((label, label, dst) for label, _, dsts in moves for dst in sorted(dsts))
        if q_arcs:
            arcs[q] = q_arcs
    return Fst._trusted(a.table, a.num_states, a.start, frozenset(finals), arcs)


def determinize(a: Fst) -> Dfa:
    """Subset construction over a failure-free acceptor that follows its
    epsilon arcs. States are numbered breadth first over sorted labels, so
    the result is in canonical form."""
    _require_acceptor(a, "determinize")
    return _output_subsets(a)[0]


def _output_subsets(t: Fst) -> tuple[Dfa, bool]:
    """Projection, epsilon removal and determinization in one walk: a subset
    construction over the output side of a failure-free machine. The flag
    is True iff no label of any key led to two targets."""
    merged: list = []
    return _discover(Dfa, t.table, frozenset([t.start]), _expansion(t, 1, merged)), not merged


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
    # the renumbering keeps the order of the states it keeps and merges
    # none, so each state's arcs stay sorted and distinct
    order = sorted(live)
    renum = {q: i for i, q in enumerate(order)}
    arcs = {}
    for new, q in enumerate(order):
        kept = tuple((inp, out, renum[dst]) for inp, out, dst in a.arcs.get(q, ()) if dst in renum)
        if kept:
            arcs[new] = kept
    finals = frozenset(renum[q] for q in a.finals if q in renum)
    return type(a)._trusted(a.table, len(order), renum[a.start], finals, arcs, trim=True)


def minimize(d: Dfa) -> Dfa:
    """Minimal form of a deterministic acceptor.

    Trims first, so dead states never influence the partition; the transition
    function may be partial (a missing arc is simply a reject). The result is
    trim; when no two states merge, it is the trim machine itself. It keeps
    its input's state order, so it is in canonical form when the input is,
    as every machine the library builds is.
    """
    if not isinstance(d, Dfa):
        d = Dfa.from_fst(d)
    t = trim(d)
    if not t.finals:
        return t

    # each state's arcs are sorted by input symbol, one arc per symbol, so a
    # signature lists its inputs and their targets' blocks in symbol order
    n = t.num_states
    inputs: list[tuple[int, ...]] = [()] * n
    dsts: list[tuple[int, ...]] = [()] * n
    for q, arcs in t.arcs.items():
        inputs[q] = tuple(map(itemgetter(0), arcs))
        dsts[q] = tuple(map(itemgetter(2), arcs))
    block = [0 if q in t.finals else 1 for q in range(n)]
    while True:
        signatures: dict[tuple, int] = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q], inputs[q], tuple(map(block.__getitem__, dsts[q])))
            new_block[q] = signatures.setdefault(sig, len(signatures))
        # blocks are numbered in the order of their first state, so a block
        # id is already the state's new number: the identity once every
        # state has a block of its own, a partition no round can refine
        if len(signatures) == n:
            return t
        if new_block == block:
            break
        block = new_block
    # the partition is stable, so every state of a block has the same
    # signature: the block's first state gives its arcs, already sorted
    arcs = {}
    upcoming = 0  # the lowest block whose first state is still to come
    for q in range(n):
        if block[q] == upcoming:
            if inputs[q]:
                arcs[upcoming] = tuple(zip(inputs[q], inputs[q], map(block.__getitem__, dsts[q])))
            upcoming += 1
    finals = frozenset(block[q] for q in t.finals)
    return Dfa._trusted(t.table, len(signatures), block[t.start], finals, arcs, trim=True)


def canonical_form(d: Dfa) -> Dfa:
    """Renumber states in breadth-first discovery order over sorted labels.

    Minimal deterministic acceptors are isomorphic iff their canonical forms
    are equal. Any other `Fst` is converted first: ValidationError if no DFA.
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
    if isinstance(a, Dfa) or all(inp != FAILURE for arcs in a.arcs.values() for inp, _, _ in arcs):
        return a
    loop = tuple((s, s, 0) for s in sorted(a.input_alphabet))
    return compose(Fst._trusted(a.table, 1, 0, frozenset([0]), {0: loop} if loop else {}), a)


def accepts(a: Fst, seq: Iterable[int]) -> bool:
    """Does the machine accept this sequence of `int` ids on its input side?"""
    try:
        syms = tuple(seq)
    except TypeError:
        syms = None
    if syms is None or any(type(sym) is not int for sym in syms):
        raise ConfigError(f"symbols must be a sequence of int ids, got {seq!r}")
    a = _failure_free(a)
    expand = _expansion(a, 0)
    key: Iterable[int] = (a.start,)
    for sym in syms:
        key = next((dsts for label, _, dsts in expand(key)[1] if label == sym), None)
        if key is None:
            return False
    return expand(key)[0]


def enumerate_language(
    a: Fst, max_len: int, *, max_paths: int = 1_000_000
) -> set[tuple[int, ...]]:
    """All sequences of at most `max_len` symbols accepted on the input side.

    Exploration is capped at `max_paths` expansions; going over raises
    EnumerationError rather than silently truncating the answer.
    """
    check_count("max_len", max_len)
    check_count("max_paths", max_paths)
    a = _failure_free(a)
    expand = _expansion(a, 0)
    expanded: dict[frozenset[int], tuple[bool, list]] = {}
    results: set[tuple[int, ...]] = set()
    queue: deque[tuple[tuple[int, ...], frozenset[int]]] = deque([((), frozenset([a.start]))])
    explored = 0
    while queue:
        seq, key = queue.popleft()
        explored += 1
        if explored > max_paths:
            raise EnumerationError(
                f"enumeration exceeded {max_paths} paths "
                f"({len(results)} sequences found so far)",
                len(results),
            )
        final, moves = expanded.get(key) or expanded.setdefault(key, expand(key))
        if final:
            results.add(seq)
        if len(seq) < max_len:
            queue.extend((seq + (label,), dsts) for label, _, dsts in moves)
    return results


def _require_acceptor(a: Fst, op: str) -> None:
    for q, arcs in a.arcs.items():
        for inp, out, _ in arcs:
            if inp == FAILURE:
                raise ConfigError(f"{op} expects a failure-free acceptor")
            if inp != out:
                raise ConfigError(f"{op} expects an acceptor; state {q} has arc {inp}:{out}")
