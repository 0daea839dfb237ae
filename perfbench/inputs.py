"""Seeded benchmark inputs: the identifier corpus, merge-list prefixes and the
pattern templates, with a string expander that serves as the pattern oracle.

Nothing here is read from disk. The word list has fixed Zipf ranks, so every
seed samples the same population of snake_case identifiers; the seed decides
which identifiers are drawn, and so the tail of the merge list and the words
that fill the serving templates.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from tokfst import BpeTokenizer, Vocabulary, bpe_train

# Zipf rank order. Together the words cover a-z; digits come from suffixes.
WORDS = tuple(
    """
    self cls get set name value data user file path list item key index count
    size text line node type config error result query json page table field
    model view load save read write open close start stop init update delete
    create parse format check test run time date zip max min buffer object
    request response handler event token cache width
    """.split()
)
LOWER = "abcdefghijklmnopqrstuvwxyz"
DIGITS = "0123456789"


def identifier_corpus(seed: int, size: int) -> list[str]:
    """`size` identifiers of one to three Zipf-drawn words, some with a
    numeric suffix, then every word and digit once so the alphabet is full."""
    rng = random.Random(seed)
    weights = [1.0 / rank for rank in range(1, len(WORDS) + 1)]
    out = []
    for _ in range(size):
        ident = "_".join(rng.choices(WORDS, weights, k=rng.choice((1, 2, 2, 2, 3))))
        roll = rng.random()
        if roll < 0.125:
            ident += f"_{rng.randrange(100)}"
        elif roll < 0.25:
            ident += str(rng.randrange(10))
        out.append(ident)
    out.extend(WORDS)
    out.extend(f"v{d}" for d in DIGITS)
    return out


def train(seed: int, corpus_size: int, merges: int) -> BpeTokenizer:
    return bpe_train(identifier_corpus(seed, corpus_size), merges)


def merge_prefix(tok: BpeTokenizer, k: int) -> BpeTokenizer:
    """The tokenizer made of the first k merges, over its own vocabulary."""
    chars = [t for t in tok.vocab.table.tokens if len(t) == 1]
    pairs = tok.merge_tokens()[:k]
    vocab = Vocabulary.from_tokens(chars + [x + y for x, y in pairs])
    return BpeTokenizer.from_token_pairs(vocab, pairs)


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class Piece:
    """`options` repeated between `low` and `high` times (None: unbounded).
    A character class is a piece whose options are single characters."""

    options: tuple[str, ...]
    low: int = 1
    high: int | None = 1
    cls: str = ""  # regex text of a character class, empty for word options

    def regex(self) -> str:
        if self.cls:
            atom = self.cls
        elif len(self.options) == 1:
            atom = self.options[0]
        else:
            atom = "(" + "|".join(self.options) + ")"
        if self.high is None:
            return atom * (self.low - 1) + atom + "+" if self.low else atom + "*"
        assert self.low == self.high
        return atom * self.low

    def lengths(self, budget: int) -> dict[int, int]:
        """Number of strings of each length up to budget, without listing them."""
        option_lengths: dict[int, int] = {}
        for o in self.options:
            option_lengths[len(o)] = option_lengths.get(len(o), 0) + 1
        out: dict[int, int] = {}
        layer = {0: 1}
        n = 0
        while layer and (self.high is None or n <= self.high):
            if n >= self.low:
                for length, count in layer.items():
                    out[length] = out.get(length, 0) + count
            layer = _convolve(layer, option_lengths, budget)
            n += 1
        return out

    def strings(self, budget: int) -> list[str]:
        out: list[str] = []
        layer = [""]
        n = 0
        while layer and (self.high is None or n <= self.high):
            if n >= self.low:
                out.extend(layer)
            layer = [s + o for s in layer for o in self.options if len(s) + len(o) <= budget]
            n += 1
        return out


def _convolve(a: dict[int, int], b: dict[int, int], budget: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for x, m in a.items():
        for y, n in b.items():
            if x + y <= budget:
                out[x + y] = out.get(x + y, 0) + m * n
    return out


def words(*ws: str) -> Piece:
    return Piece(tuple(ws))


def lower(low: int = 1, high: int | None = None) -> Piece:
    return Piece(tuple(LOWER), low, high, "[a-z]")


def digits(low: int = 1, high: int | None = None) -> Piece:
    return Piece(tuple(DIGITS), low, high, "[0-9]")


@dataclass(frozen=True)
class Pattern:
    pieces: tuple[Piece, ...]

    @property
    def regex(self) -> str:
        return "".join(p.regex() for p in self.pieces)

    def lengths(self, max_chars: int) -> dict[int, int]:
        """Number of matching strings of each length up to max_chars."""
        counts = {0: 1}
        for p in self.pieces:
            counts = _convolve(counts, p.lengths(max_chars), max_chars)
        return counts

    @property
    def min_length(self) -> int:
        return sum(p.low * min(len(o) for o in p.options) for p in self.pieces)

    def strings(self, max_chars: int) -> list[str]:
        """Every matching string of at most max_chars characters, each
        confirmed with `re.fullmatch` so expander and regex cannot drift."""
        out = [""]
        for p in self.pieces:
            out = [s + t for s in out for t in p.strings(max_chars - len(s))]
        rx = re.compile(self.regex)
        bad = [s for s in out if not rx.fullmatch(s)]
        if bad:
            raise AssertionError(f"expander produced {bad[0]!r}, which {self.regex} rejects")
        return out

    def check_bound(self, limit: int, all_segmentations: bool = False) -> int:
        """Largest character bound whose oracle stays under `limit` items:
        strings, or for all segmentations the 2**(n-1) upper bound per string."""
        bound = best = self.min_length
        while bound <= 24:
            cost = sum(
                n * (2 ** max(length - 1, 0) if all_segmentations else 1)
                for length, n in self.lengths(bound).items()
            )
            if cost > limit:
                break
            best = bound
            bound += 1
        return best
