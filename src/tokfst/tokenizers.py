"""Subword tokenizers over an open vocabulary.

A vocabulary is a set of string tokens in which every character of every
token is itself a token, so any text can be segmented. Two tokenizer families
are provided: greedy longest-match and byte-pair merge application. Both are
deterministic functions from text to one canonical token sequence out of the
(generally many) segmentations the vocabulary admits.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator

from .errors import AlphabetError, ConfigError, check_text
from .symbols import SymbolTable


@dataclass(frozen=True)
class Vocabulary:
    """A symbol table validated for open-vocabulary use."""

    table: SymbolTable
    # what promotion builds from the table alone, by name: the token trie
    # that agnostic and bpe promotion walk and the failure links annotate
    # ("trie") and the longest-match transducer maxmatch composes with
    # ("maxmatch"), each built the first time a promotion needs it
    _machines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        chars = {self.table.token(i) for i in self.table.char_ids()}
        for token in self.table.tokens:
            missing = sorted(set(token) - chars)
            if missing:
                raise ConfigError(
                    f"token {token!r} uses character {missing[0]!r} "
                    "which is not itself a token"
                )

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        return cls(SymbolTable(tokens))

    @cached_property
    def max_token_len(self) -> int:
        return max((len(t) for t in self.table.tokens), default=0)

    def encode_chars(self, text: str) -> tuple[int, ...]:
        """Map text, a `str`, to its character-by-character id sequence,
        naming the first character outside the vocabulary."""
        check_text("text", text)
        try:
            return self.table.ids(text)
        except AlphabetError:
            bad = next(ch for ch in text if ch not in self.table)
            raise AlphabetError(f"character {bad!r} is not in the vocabulary") from None

    def decode(self, ids: Iterable[int]) -> str:
        return "".join(self.table.token(i) for i in ids)


def maxmatch_tokenize(text: str, vocab: Vocabulary) -> tuple[int, ...]:
    """Greedy longest-prefix segmentation.

    At each position the longest vocabulary token that prefixes the rest of
    the text is taken. `encode_chars` checks the text first, so some
    one-character token always matches.
    """
    vocab.encode_chars(text)
    table, width = vocab.table, vocab.max_token_len
    out: list[int] = []
    i, n = 0, len(text)
    while i < n:
        k = next(k for k in range(min(width, n - i), 0, -1) if text[i : i + k] in table)
        out.append(table.id(text[i : i + k]))
        i += k
    return tuple(out)


def _merge_pass(seq: tuple[int, ...], x: int, y: int, merged: int) -> tuple[int, ...]:
    """Replace every adjacent pair (x, y) with `merged` in one left-to-right
    pass. After a replacement scanning resumes after the new token, so
    `(a, a)` applied to `a a a` gives `aa a`."""
    out: list[int] = []
    i = 0
    last = len(seq) - 1
    while i < last:
        if seq[i] == x and seq[i + 1] == y:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    out.extend(seq[i:])
    return tuple(out)


def _bigram_tables(ranked: dict[tuple[int, int], tuple[int, int]],
                   table: SymbolTable) -> dict[int, frozenset[int]]:
    """Each canonical token (one that is its own tokenization) to the tokens
    that may not follow it; equal sets are one object. A sequence is the
    tokenization of its text iff each token is a key and none is in the set
    of the one before it (Vieira et al., "Language Models over Canonical
    Byte-Pair Encodings", 2025).

    The sets come from the spine rule. While a text x+y is tokenized, the
    two sides evolve as x and y alone until a merge crosses the boundary.
    At merge rank r the left side ends in the node of x's right spine (x,
    its right operand, that token's right operand, ... down to a character)
    that lives at r: born at the rank of the merge that made it (-1 for a
    character), dead at the rank of the merge that made its parent on the
    spine (len(merges) for x itself). The right side starts with the node
    of y's left spine living at r. Merge (a, b) crosses iff a lives on x's
    spine with birth < r < death, as at r = death the pass pairs a inside x
    first, and b on y's with birth < r <= death, as the pass meets the
    crossing pair before the pair that kills b. So (x, y) is forbidden iff
    such a merge exists, and x + y made at rank r is canonical iff x and y
    are and the first merge crossing them is r itself.

    `ranked` is a tokenizer's merge pair -> (rank, result id), in rank order.
    """
    end = len(ranked)
    by_left: dict[int, list[tuple[int, int]]] = defaultdict(list)  # a -> (rank, b), by rank
    for (a, b), (r, _) in ranked.items():
        by_left[a].append((r, b))
    # (node, birth, death) from the top; only canonical tokens have spines
    right = {c: ((c, -1, end),) for c in table.char_ids()}
    left = dict(right)
    crossings: dict[int, dict[int, int]] = {}  # x -> b -> the first rank crossing into b

    def crossing(x: int) -> dict[int, int]:
        first = crossings.get(x)
        if first is None:
            first = crossings[x] = {}
            for a, born, died in right[x]:
                for r, b in by_left.get(a, ()):
                    if born < r < min(died, first.get(b, end)):
                        first[b] = r
        return first

    for (a, b), (r, z) in ranked.items():
        first = crossing(a) if a in right and b in left else None
        if first is None or any(first.get(n, end) < r and first[n] <= died
                                for n, _, died in left[b]):
            continue
        right[z] = ((z, r, end),) + tuple((n, born, r if died == end else died)
                                          for n, born, died in right[b])
        left[z] = ((z, r, end),) + tuple((n, born, r if died == end else died)
                                         for n, born, died in left[a])

    followers: dict[int, list[tuple[int, int]]] = defaultdict(list)  # b -> (death, y)
    for y in sorted(left):
        for n, _, died in left[y]:
            followers[n].append((died, y))
    interned: dict[frozenset[int], frozenset[int]] = {}
    after: dict[int, frozenset[int]] = {}
    for x in sorted(right):
        banned = frozenset(y for b, r in crossing(x).items()
                           for died, y in followers.get(b, ()) if r <= died)
        after[x] = interned.setdefault(banned, banned)
    return after


@dataclass(frozen=True)
class BpeTokenizer:
    """A byte-pair tokenizer: an ordered merge list over a vocabulary.

    Each merge is a pair of token ids whose concatenation must also be a
    token. Merges must be usable in the order given: an operand is either a
    single character or the result of an earlier merge.
    """

    vocab: Vocabulary
    merges: tuple[tuple[int, int], ...]
    # merge pair -> (rank, result id), the lookup `tokenize` makes per pair
    _ranked: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "merges", tuple(tuple(m) for m in self.merges))
        except TypeError:
            raise ConfigError("merges must be a sequence of token id pairs") from None
        table = self.vocab.table
        available = set(table.char_ids())
        ranked: dict[tuple[int, int], tuple[int, int]] = {}
        for n, merge in enumerate(self.merges):
            if len(merge) != 2 or any(type(i) is not int for i in merge):
                raise ConfigError(f"merge {n} is not a pair of token ids: {merge!r}")
            x, y = merge
            for operand in (x, y):
                token = table.token(operand)  # raises on unknown ids
                if operand not in available:
                    raise ConfigError(
                        f"merge {n} uses {token!r} before any merge produces it"
                    )
            combined = table.token(x) + table.token(y)
            if combined not in table:
                raise ConfigError(
                    f"merge {n} would produce {combined!r}, which is not a token"
                )
            result = table.id(combined)
            if result in available:  # a result is no character, so made before
                raise ConfigError(f"two merges produce the same token {combined!r}")
            available.add(result)
            ranked[merge] = (n, result)
        uncovered = table.token_ids() - available
        if uncovered:
            token = table.token(min(uncovered))
            raise ConfigError(f"token {token!r} is not produced by any merge")
        object.__setattr__(self, "_ranked", ranked)

    @classmethod
    def from_token_pairs(
        cls, vocab: Vocabulary, pairs: Iterable[tuple[str, str]]
    ) -> "BpeTokenizer":
        table = vocab.table
        try:
            pairs = tuple(map(tuple, pairs))
            hash(pairs)  # a token that is a list, say, is no token pair either
        except TypeError:
            raise ConfigError("merges must be a sequence of token pairs") from None
        return cls(vocab, tuple(map(table.ids, pairs)))

    @cached_property
    def bigram_tables(self) -> dict[int, frozenset[int]]:
        """Each canonical token to the tokens that may not follow it."""
        return _bigram_tables(self._ranked, self.vocab.table)

    def merge_tokens(self) -> tuple[tuple[str, str], ...]:
        table = self.vocab.table
        return tuple((table.token(x), table.token(y)) for x, y in self.merges)

    def tokenize(self, text: str) -> tuple[int, ...]:
        """Apply the merges by rank: each round looks up every adjacent pair,
        takes the one of lowest rank and merges all its occurrences in one
        left-to-right pass, until no adjacent pair is a merge.

        This equals applying the whole list in order, one pass per merge
        (Berglund and van der Merwe, "Formalizing BPE Tokenization", 2023).
        A round's pass leaves no pair of its rank r behind, and the pairs it
        creates hold its result, whose merges all rank above r, since a merge
        uses only tokens made before it. So the ranks of the rounds rise as
        the list does, each round is the list's pass for its merge, and every
        merge ranked between two rounds finds no pair to act on.
        """
        seq = self.vocab.encode_chars(text)
        lookup = self._ranked.get
        absent = (len(self.merges), -1)  # for a pair that is no merge
        while len(seq) > 1:
            rank, merged = min(map(lookup, zip(seq, seq[1:]), repeat(absent)))
            if merged < 0:
                break
            x, y = self.merges[rank]
            seq = _merge_pass(seq, x, y, merged)
        return seq


def bpe_train(corpus: Iterable[str], steps: int) -> BpeTokenizer:
    """Learn a merge list of at most `steps` merges from example strings.

    Words stay tuples of token strings, weighted by count. Each round merges
    the most frequent adjacent pair in every word with `tokenize`'s pass;
    ties go to the pair seen first in corpus order. Stops early with a
    warning when no pair is left. One vocabulary is built at the end.

    No pair is skipped for joining to an earlier token, as none does. A pair
    counted in round r is adjacent in some word's tokenization by the first
    r merges, so by bigram locality (Berglund and van der Merwe, 2023;
    Vieira et al., 2025) its text tokenizes to exactly that pair. Each
    earlier token was made from such a pair and is its own tokenization, so
    none is that text. The guard is `BpeTokenizer`'s "two merges produce the
    same token" check, which a repeat reaches as the table keeps one copy.
    """
    if type(steps) is not int or steps < 0:
        raise ConfigError(f"steps must be a non-negative int, got {steps!r}")
    if isinstance(corpus, str) or not isinstance(corpus, Iterable):
        raise ConfigError(f"corpus must be an iterable of strings, got {corpus!r}")
    words: Counter[str] = Counter()  # insertion order is first-seen order
    for w in corpus:
        if not isinstance(w, str):
            raise ConfigError(f"corpus items must be strings, got {w!r}")
        words[w] += 1
    chars = sorted({ch for w in words for ch in w})
    if not chars:
        raise ConfigError("cannot train on an empty corpus")
    seqs = [(tuple(w), n) for w, n in words.items()]
    merges: list[tuple[str, str]] = []
    for _ in range(steps):
        # filled in corpus order, so `max` meets tied pairs in first-seen order
        counts: Counter[tuple[str, str]] = Counter()
        for s, n in seqs:
            for pair in zip(s, s[1:]):
                counts[pair] += n
        if not counts:
            warnings.warn(
                f"stopping after {len(merges)} merges: no pair left to merge",
                stacklevel=2,
            )
            break
        x, y = max(counts, key=counts.__getitem__)
        merges.append((x, y))
        seqs = [(_merge_pass(s, x, y, x + y) if x in s else s, n) for s, n in seqs]
    vocab = Vocabulary.from_tokens(dict.fromkeys(chars + [x + y for x, y in merges]))
    return BpeTokenizer.from_token_pairs(vocab, merges)


def iter_segmentations(text: str, vocab: Vocabulary) -> Iterator[tuple[int, ...]]:
    """Yield every token-id sequence that concatenates to `text`, depth
    first, shorter first tokens first. The walk keeps its own stack, so long
    texts do not hit the recursion limit."""
    check_text("text", text)
    table = vocab.table
    n = len(text)
    acc: list[int] = []
    stack = [(0, 0, 0)]  # (tokens of acc kept, start, end of the next piece)
    while stack:
        depth, i, j = stack.pop()
        del acc[depth:]
        if i < j:
            acc.append(table.id(text[i:j]))
        if j == n:
            yield tuple(acc)
            continue
        ends = range(min(j + vocab.max_token_len, n), j, -1)  # shortest on top
        stack.extend((len(acc), j, k) for k in ends if text[j:k] in table)
