"""Builders for the three character-to-subword machines.

* the tokenization-agnostic lexicon transducer (a starred trie that maps any
  token's character sequence to that token),
* the greedy longest-match transducer (a trie with failure arcs that pop
  pending tokens, so every string maps to exactly its longest-match
  segmentation),
* merge gadgets (3-state transducers applying one byte-pair merge), and the
  merge stage, which applies one merge to a DFA without building its gadget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConfigError
from .fst import EPSILON, FAILURE, Dfa, Fst, _discover
from .symbols import RESERVED, SymbolTable
from .tokenizers import Vocabulary


def _trie_prefixes(tokens: tuple[str, ...]) -> dict[str, dict[str, str]]:
    """Children map for every prefix of every token, keyed by prefix."""
    children: dict[str, dict[str, str]] = {"": {}}
    for token in tokens:
        for n, ch in enumerate(token):
            prefix = token[:n]
            longer = token[: n + 1]
            children.setdefault(longer, {})
            children[prefix][ch] = longer
    return children


def _bfs_order(children: dict[str, dict[str, str]]) -> list[str]:
    order = [""]
    queue = deque([""])
    while queue:
        node = queue.popleft()
        for ch in sorted(children[node]):
            order.append(children[node][ch])
            queue.append(children[node][ch])
    return order


def build_lexicon_transducer(v: Vocabulary) -> Fst:
    """The agnostic character-to-subword transducer.

    Trie paths consume one character per arc emitting nothing; each token's
    node carries one consuming-nothing arc that emits the token and returns
    to the root. The root is the start and the only final state, so the
    machine relates every string to every segmentation of it.
    """
    table = v.table
    children = _trie_prefixes(table.tokens)
    order = _bfs_order(children)
    ids = {prefix: n for n, prefix in enumerate(order)}

    arcs: list[tuple[int, int, int, int]] = []
    for prefix in order:
        for ch, child in children[prefix].items():
            arcs.append((ids[prefix], table.id(ch), EPSILON, ids[child]))
    for token in table.tokens:
        arcs.append((ids[token], EPSILON, table.id(token), 0))

    return Fst(table, len(order), 0, frozenset([0]), arcs)


@dataclass(frozen=True)
class TrieNode:
    prefix: str
    children: dict[str, str]  # char -> child prefix
    final: bool
    fail: str | None  # failure target prefix; None only at the root
    pops: tuple[int, ...]  # token ids emitted when failing out of this node


@dataclass(frozen=True)
class FailureTrie:
    """Token trie annotated with greedy-restart failure links.

    For every non-root node, popping the pops tokens and then reading the
    fail node's prefix re-spells the node's own prefix; the pops are found by
    repeatedly stripping the longest token prefix until what remains is a
    trie prefix again.
    """

    table: SymbolTable
    order: tuple[str, ...]  # breadth-first node prefixes, root first
    nodes: dict[str, TrieNode]


def build_failure_trie(v: Vocabulary) -> FailureTrie:
    table = v.table
    children = _trie_prefixes(table.tokens)
    order = _bfs_order(children)

    def strip_tokens(prefix: str) -> tuple[tuple[int, ...], str]:
        pops: list[int] = []
        rest = prefix
        while True:
            for length in range(min(v.max_token_len, len(rest)), 0, -1):
                if rest[:length] in table:
                    pops.append(table.id(rest[:length]))
                    rest = rest[length:]
                    break
            else:
                raise AssertionError(f"no token prefixes {rest!r}")  # open vocabulary
            if rest in children:
                return tuple(pops), rest

    nodes: dict[str, TrieNode] = {}
    for prefix in order:
        if prefix == "":
            nodes[""] = TrieNode("", children[""], False, None, ())
            continue
        pops, rest = strip_tokens(prefix)
        nodes[prefix] = TrieNode(prefix, children[prefix], prefix in table, rest, pops)
    return FailureTrie(table, tuple(order), nodes)


def build_maxmatch_transducer(trie: FailureTrie) -> Fst:
    """Greedy longest-match as a transducer.

    Characters descend the trie emitting nothing. When no child matches (or
    the input ends), a failure chain emits the node's pops one token per arc
    and lands on the failure target; the root is the start and only final
    state, so a complete run flushes everything it held.
    """
    table = trie.table
    ids = {prefix: n for n, prefix in enumerate(trie.order)}
    count = len(trie.order)
    arcs: list[tuple[int, int, int, int]] = []

    for prefix in trie.order:
        node = trie.nodes[prefix]
        for ch, child in node.children.items():
            arcs.append((ids[prefix], table.id(ch), EPSILON, ids[child]))
        if node.fail is None:
            continue
        src = ids[prefix]
        for pop in node.pops[:-1]:
            arcs.append((src, FAILURE, pop, count))
            src = count
            count += 1
        arcs.append((src, FAILURE, node.pops[-1], ids[node.fail]))

    return Fst(table, count, 0, frozenset([0]), arcs)


@dataclass(frozen=True)
class MergeGadget:
    """One byte-pair merge as a transducer over the current token alphabet.

    State 0 copies symbols until it sees the left operand, which it holds
    back (emitting nothing) while moving to state 1. State 1 resolves the
    pair if the right operand follows, and otherwise fails over to state 2,
    flushing the held token. State 2 copies the next symbol back to state 0,
    or holds it again if it is another left operand. Finality of states 0
    and 2 lets the failure arc flush at end of input. State 1 emits the held
    token through the flush alone, so merge stages stay deterministic.

    `promote_bpe_chained` composes these gadgets; `promote_bpe` applies each
    merge through `merge_stage`, which builds the minimized result directly.
    """

    fst: Fst
    pair: tuple[int, int]
    result: int


def _merge_result(pair: tuple[int, int], table: SymbolTable) -> int:
    """The id of the token the merge `pair` makes."""
    combined = table.token(pair[0]) + table.token(pair[1])
    if combined not in table:
        raise ConfigError(f"merge result {combined!r} is not in the vocabulary")
    return table.id(combined)


def build_merge_gadget(
    pair: tuple[int, int], alphabet: frozenset[int], table: SymbolTable
) -> MergeGadget:
    """Build the gadget for one merge over the tokens visible at its stage.

    Arcs whose input symbol is outside `alphabet` are dropped; a gadget whose
    left operand cannot occur degenerates to the identity. The machine is
    built unchecked, so an `alphabet` id that names no token raises ValueError.
    """
    a, b = pair
    ab = _merge_result(pair, table)
    for c in alphabet:
        if not RESERVED <= c < RESERVED + len(table):
            raise ValueError(f"merge gadget alphabet: id {c} does not name a token")

    copying = [(c, c, 0) for c in alphabet - {a, ab}]
    if a in alphabet:
        copying.append((a, EPSILON, 1))
    holding = [(FAILURE, a, 2)]  # flush the held token
    if b in alphabet:
        holding.append((b, ab, 0))  # resolve; doubles as a=b case
    flushed = [(c, c, 0) for c in alphabet - {a, b, ab}]
    if a != b and a in alphabet:
        flushed.append((a, EPSILON, 1))  # hold the next left operand

    arcs = {q: tuple(sorted(s)) for q, s in enumerate((copying, holding, flushed)) if s}
    fst = Fst._trusted(table, 3, 0, frozenset([0, 2]), arcs)
    return MergeGadget(fst, (a, b), ab)


def merge_stage(d: Dfa, pair: tuple[int, int]) -> Dfa:
    """The output side of composing `d` with the gadget for `pair` over its
    input alphabet, built as one walk over (state, phase) keys: no gadget,
    no product machine and no subset construction.

    Phase 0 is the gadget's state 0 and phase 2 its state 2, just after a
    flush. The holding state 1 is resolved on the arc that enters it: the
    left operand x on an arc into r becomes the result z if r has an arc on
    the right operand y, and a flush of x into (r, 2) if r is final or has an
    arc on a label other than y and z, which is when the composition keeps
    the failure chain. Phase 0 copies every label but x and z; phase 2 every
    label but x, y and z, and holds x again when x != y. `d` is
    deterministic, so each key has one move per label and the result is a
    DFA; a key is final iff its state is.

    (r, 2) therefore moves as a phase-0 key of a state with r's finality and
    r's arcs minus its arc on y would. The walk names each flush target by
    that: (q, 0) if `d` has such a state q, and otherwise the first flush
    target made with the same finality and arcs minus y. The index of `d`'s
    states by (finality, arcs) is built at the first flush.

    When `d` is trim and has no arc on z, as in every stage of `promote_bpe`,
    the result is trim: every key reaches a final one along a path of `d`
    to a final state, any path for (q, 0) and, for (r, 2), one not starting
    with y, which exists whenever the walk makes (r, 2). The path's first
    label is not z. A label other than x is copied into (next, 0). An x,
    held again in phase 2 since x != y there, moves on z into (next, 0)
    when y follows on the path, and otherwise flushes into (r, 2), with the
    rest of the path not starting with y. Each move consumes path, which
    ends at a final key; the walk reaches every key. With arcs on z in `d`
    the walk drops them, and dead keys can remain.

    When `d` is also minimal, so is the result. Let M be the merge's
    rewrite of a sequence; without z in `d` it is injective, as replacing
    each z by x y undoes it. (q, 0) accepts M(L_q), L_q being q's language
    in `d`, and (r, 2) accepts M of the sequences of L_r that do not start
    with y. So two keys are equivalent iff these languages of `d` are equal.
    In a minimal trim `d`, equal languages belong to one state and no arc
    leads to an empty one. So (r, 2) is equivalent to (q, 0) iff q has r's
    finality and r's arcs minus y, and two flush targets are equivalent iff
    they agree in finality and arcs minus y: exactly the identifications
    the walk makes. No two of its keys are equivalent, and it numbers them
    breadth first in label order, as `minimize` numbers the composition's
    blocks: by their first state in that order.
    """
    x, y = pair
    z = _merge_result(pair, d.table)
    finals = d.finals
    names: dict[tuple, tuple[int, int]] = {}  # (final, arcs) -> key, d's states first
    flushes: dict[int, tuple[int, int]] = {}  # r -> the key made for (r, 2)

    def flush_key(r: int) -> tuple[int, int]:
        key = flushes.get(r)
        if key is None:
            if not names:  # the first flush: index d's states
                for q in range(d.num_states):
                    names.setdefault((q in finals, d.arcs.get(q, ())), (q, 0))
            arcs = tuple(arc for arc in d.arcs.get(r, ()) if arc[0] != y)
            key = flushes[r] = names.setdefault((r in finals, arcs), (r, 2))
        return key

    def expand(key: tuple[int, int]) -> tuple[bool, list[tuple[int, int, tuple[int, int]]]]:
        q, phase = key
        moves = []
        for inp, _, dst in d.arcs.get(q, ()):
            if inp == x and (phase == 0 or x != y):
                r_arcs = d.arcs.get(dst, ())
                moves.extend((z, z, (s, 0)) for inp2, _, s in r_arcs if inp2 == y)
                if dst in finals or any(inp2 != y and inp2 != z for inp2, _, _ in r_arcs):
                    moves.append((x, x, flush_key(dst)))
            elif inp != z and (phase == 0 or inp != y):
                moves.append((inp, inp, (dst, 0)))
        moves.sort()  # labels are distinct: number the targets in label order
        return q in finals, moves

    return _discover(Dfa, d.table, (d.start, 0), expand)
