"""Builders for the character-to-subword machines.

* the token trie by ids, which each vocabulary keeps once built, and its
  walk against a DFA from every state: the token steps that agnostic
  promotion keeps and BPE promotion filters,
* the tokenization-agnostic lexicon transducer (a starred trie that maps any
  token's character sequence to that token): the paper's agnostic
  construction; promotion walks the token steps, which give the same machine,
* the greedy longest-match transducer (a trie with failure arcs that pop
  pending tokens, so every string maps to exactly its longest-match
  segmentation): the failure links and pops annotate the token trie's node
  ids, filled in one breadth-first pass as in LinMaxMatch,
* merge gadgets (3-state transducers applying one byte-pair merge), which
  the paper's construction, `promote_bpe_chained`, composes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, ValidationError
from .fst import EPSILON, FAILURE, Dfa, Fst
from .symbols import RESERVED, SymbolTable
from .tokenizers import Vocabulary


# per node: the token it spells (None for a prefix of tokens only) and its
# children by character id
TokenTrie = tuple[tuple[int | None, dict[int, int]], ...]


def build_token_trie(v: Vocabulary) -> TokenTrie:
    """The token trie by ids, its nodes numbered breadth first with children
    in sorted order, the root 0 kept even without tokens. That order lists
    the prefixes by (length, text), so a sort gives it; each other prefix p
    is child p[-1] of p[:-1], which comes before it."""
    table = v.table
    prefixes = {""} | {t[:n] for t in table.tokens for n in range(1, len(t) + 1)}
    order = sorted(prefixes, key=lambda p: (len(p), p))
    ids = {prefix: n for n, prefix in enumerate(order)}
    trie = tuple((table.id(prefix) if prefix in table else None, {}) for prefix in order)
    for n, prefix in enumerate(order[1:], 1):
        trie[ids[prefix[:-1]]][1][table.id(prefix[-1])] = n
    return trie


def vocab_machine(v: Vocabulary, label: str, build: Callable[[], object]):
    """The vocabulary's machine `label`: built by `build()` the first time
    a promotion needs it, then kept by the vocabulary, as it depends only
    on the table."""
    machine = v._machines.get(label)
    if machine is None:
        machine = v._machines[label] = build()
    return machine


def token_trie(v: Vocabulary) -> TokenTrie:
    """The vocabulary's one token trie, which token steps and failure links
    both read: built on first use, then kept."""
    return vocab_machine(v, "trie", lambda: build_token_trie(v))


def token_steps(trie: TokenTrie, d: Dfa) -> list[list[tuple[int, int]]]:
    """Per state q of `d`, each token t that `d` reads from q whole, with
    the state it reads t into, sorted by t: the trie walked against `d`
    from every state. `d` is deterministic, so each t has one target."""
    delta = [{} for _ in range(d.num_states)]
    for q, arcs in d.arcs.items():
        delta[q] = {inp: dst for inp, _, dst in arcs}
    steps = []
    for q in range(d.num_states):
        found = []
        stack = [(0, q)]
        while stack:
            node, state = stack.pop()
            moves = delta[state]
            for ch, child in trie[node][1].items():
                dst = moves.get(ch)
                if dst is not None:
                    token = trie[child][0]
                    if token is not None:
                        found.append((token, dst))
                    stack.append((child, dst))
        found.sort()
        steps.append(found)
    return steps


def build_lexicon_transducer(v: Vocabulary) -> Fst:
    """The agnostic character-to-subword transducer.

    Trie paths consume one character per arc emitting nothing; each token's
    node carries one consuming-nothing arc that emits the token and returns
    to the root. The root is the start and the only final state, so the
    machine relates every string to every segmentation of it.
    """
    trie = build_token_trie(v)
    arcs = [(node, ch, EPSILON, child)
            for node, (_, children) in enumerate(trie) for ch, child in children.items()]
    arcs += [(node, EPSILON, token, 0) for node, (token, _) in enumerate(trie) if token is not None]
    return Fst(v.table, len(trie), 0, frozenset([0]), arcs)


@dataclass(frozen=True)
class FailureTrie:
    """The token trie with greedy-restart failure links, by node id. Every
    node but the root re-spells its text as its pops, then its fail node's
    text; the pops are the text's longest-match tokens, up to the first one
    that leaves a trie prefix. The root fails nowhere and pops nothing."""

    table: SymbolTable
    trie: TokenTrie
    fail: tuple[int | None, ...]  # failure target by node
    pops: tuple[tuple[int, ...], ...]  # token ids emitted when failing out of a node


def build_failure_trie(v: Vocabulary) -> FailureTrie:
    """The links in one breadth-first pass, as in LinMaxMatch (Song et al.,
    "Fast WordPiece Tokenization", 2021). A node that spells a token pops it
    and fails to the root. Any other child u of v on character c takes v's
    pops, then follows v's failure chain, adding each node's pops, to the
    first node with a child on c, where u fails. Every character is a token,
    so the root ends the chain. The chain spells shorter texts than u, so
    the pass has set their links already. The links annotate the trie the
    vocabulary keeps."""
    trie = token_trie(v)
    fail: list[int | None] = [None] * len(trie)
    pops: list[tuple[int, ...]] = [()] * len(trie)
    for node, (_, children) in enumerate(trie):
        for ch, child in children.items():
            token = trie[child][0]
            if token is not None:
                fail[child], pops[child] = 0, (token,)
                continue
            held, target = pops[node], fail[node]
            while ch not in trie[target][1]:
                held += pops[target]
                target = fail[target]
            fail[child], pops[child] = trie[target][1][ch], held
    return FailureTrie(v.table, trie, tuple(fail), tuple(pops))


def build_maxmatch_transducer(trie: FailureTrie) -> Fst:
    """Greedy longest-match as a transducer.

    Characters descend the trie emitting nothing. When no child matches (or
    the input ends), a failure chain emits the node's pops one token per arc
    and lands on the failure target; the root is the start and only final
    state, so a complete run flushes everything it held. The trie's nodes
    keep their ids; each chain's inner states are numbered after them.
    """
    count = len(trie.trie)
    arcs: list[tuple[int, int, int, int]] = []
    for node, (_, children) in enumerate(trie.trie):
        arcs += [(node, ch, EPSILON, child) for ch, child in children.items()]
        if trie.fail[node] is None:
            continue
        src, pops = node, trie.pops[node]
        for pop in pops[:-1]:
            arcs.append((src, FAILURE, pop, count))
            src = count
            count += 1
        arcs.append((src, FAILURE, pops[-1], trie.fail[node]))
    return Fst(trie.table, count, 0, frozenset([0]), arcs)


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

    `promote_bpe_chained` composes these gadgets; `promote_bpe` uses none.
    """

    fst: Fst
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
    built unchecked, so an `alphabet` id that names no token raises ValidationError.
    """
    a, b = pair
    ab = _merge_result(pair, table)
    for c in alphabet:
        if not RESERVED <= c < RESERVED + len(table):
            raise ValidationError(f"merge gadget alphabet: id {c} does not name a token")

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
    return MergeGadget(fst, ab)
