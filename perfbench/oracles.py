"""Output checks that share no code with the transducer pipeline.

Expected languages come from the pattern expander in `inputs` (each string
confirmed with `re.fullmatch`) and the reference tokenizers: the BPE merge
loop, greedy longest match and the segmentation enumerator. Promoted
machines are read as raw arcs, from the object or from the JSON file, and
walked here rather than through `tokfst.fst`.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

from tokfst.tokenizers import iter_segmentations


class Mismatch(Exception):
    """An output disagrees with its oracle."""


class Machine:
    """A deterministic acceptor as plain data: arcs keyed by token string."""

    def __init__(self, start, finals, rows, symbols):
        self.start = start
        self.finals = frozenset(finals)
        self.arcs: dict[int, dict[str, int]] = defaultdict(dict)
        for src, inp, out, dst in rows:
            if inp != out:
                raise Mismatch(f"arc {src}->{dst} is not an acceptor arc")
            token = symbols[inp - 2]
            if token in self.arcs[src]:
                raise Mismatch(f"state {src} has two arcs on {token!r}")
            self.arcs[src][token] = dst

    @classmethod
    def of(cls, dfa) -> "Machine":
        return cls(dfa.start, dfa.finals, dfa.transitions, dfa.table.tokens)

    @classmethod
    def load(cls, path) -> "Machine":
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        return cls(doc["start"], doc["finals"], doc["transitions"], doc["symbols"])

    def language(self, max_chars: int) -> set[tuple[str, ...]]:
        """Accepted token sequences spelling at most max_chars characters."""
        out = set()
        stack = [(self.start, 0, ())]
        while stack:
            state, used, seq = stack.pop()
            if state in self.finals:
                out.add(seq)
            for token, dst in self.arcs.get(state, {}).items():
                if used + len(token) <= max_chars:
                    stack.append((dst, used + len(token), seq + (token,)))
        return out

    def mask(self, prefix) -> list[str]:
        state = self.start
        for token in prefix:
            state = self.arcs[state][token]
        return sorted(self.arcs.get(state, {}))


def shape(dfa) -> tuple:
    """Everything that identifies a machine, for comparing repeat runs."""
    return dfa.num_states, dfa.start, dfa.finals, dfa.transitions


def tokens(ids, vocab) -> tuple[str, ...]:
    return tuple(vocab.table.token(i) for i in ids)


def canonical_language(pattern, bound: int, tokenize, vocab) -> set[tuple[str, ...]]:
    """One canonical tokenization per matching string."""
    return {tokens(tokenize(s), vocab) for s in pattern.strings(bound)}


def all_segmentations(pattern, bound: int, vocab) -> set[tuple[str, ...]]:
    return {
        tokens(seq, vocab) for s in pattern.strings(bound) for seq in iter_segmentations(s, vocab)
    }


def check_language(machine: Machine, bound: int, expected: set, what: str) -> None:
    actual = machine.language(bound)
    if actual != expected:
        missing = sorted(expected - actual)[:1]
        extra = sorted(actual - expected)[:1]
        raise Mismatch(
            f"{what}: {len(expected - actual)} sequences missing {missing}, "
            f"{len(actual - expected)} unexpected {extra}, up to {bound} characters"
        )


def check_decode(pattern, out, vocab, canonical, what: str) -> str:
    """A decoded sequence must spell a match and be its canonical tokenization."""
    text = "".join(tokens(out, vocab))
    if not re.fullmatch(pattern.regex, text):
        raise Mismatch(f"{what}: decoded {text!r}, which {pattern.regex} rejects")
    if tuple(canonical(text)) != tuple(out):
        raise Mismatch(f"{what}: decoded {tokens(out, vocab)}, not the canonical "
                       f"{tokens(canonical(text), vocab)} of {text!r}")
    return text


def dot_edges(doc) -> set[str]:
    """The arc lines the DOT export must contain, from the JSON document."""
    symbols = doc["symbols"]
    return {
        f'{src} -> {dst} [label="{symbols[inp - 2]}:{symbols[out - 2]}"];'
        for src, inp, out, dst in doc["transitions"]
    }


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)
