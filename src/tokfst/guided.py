"""Token-mask stepping over a promoted automaton, plus a deterministic stub
scorer standing in for a language model.

The mask API is three functions: begin at the start state, ask which token
ids may come next, advance by one. Because the automaton is trim, every
allowed token leads somewhere a final state is still reachable, so a decoder
that only ever picks allowed tokens cannot paint itself into a corner.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Sequence

from .errors import (
    ConfigError,
    ConstraintViolationError,
    DeadConstraintError,
    IncompleteGenerationError,
    check_count,
)
from .fst import Dfa, trim
from .symbols import RESERVED

END_OF_SEQUENCE = -1  # score-only sentinel, never a real symbol id


@dataclass(frozen=True)
class ConstraintState:
    dfa: Dfa
    state: int

    @property
    def terminable(self) -> bool:
        return self.state in self.dfa.finals


def constraint_begin(d: Dfa) -> ConstraintState:
    if not isinstance(d, Dfa):
        raise ConfigError("the constraint automaton must be a Dfa; convert it with Dfa.from_fst")
    if not d.finals:
        raise DeadConstraintError("the constraint automaton accepts nothing")
    if trim(d).num_states != d.num_states:
        raise ConfigError("the constraint automaton must be trim")
    return ConstraintState(d, d.start)


def allowed_tokens(s: ConstraintState) -> frozenset[int]:
    """Token ids that keep the sequence completable."""
    return frozenset(inp for inp, _, _ in s.dfa.arcs.get(s.state, ()))


def constraint_advance(s: ConstraintState, token: int) -> ConstraintState:
    """Step by `token`, an `int` in the mask; 6.0 or True never match."""
    if type(token) is int:
        for inp, _, dst in s.dfa.arcs.get(s.state, ()):
            if inp == token:
                return ConstraintState(s.dfa, dst)
    table = s.dfa.table
    named = type(token) is int and 0 <= token < RESERVED + len(table)  # display renders it
    raise ConstraintViolationError(
        f"token {table.display(token) if named else repr(token)} is not allowed here"
    )


class StubLM:
    """Deterministic stand-in scorer: a keyed hash of (seed, context,
    candidate) mapped to [0, 1). Not a language model, just a reproducible
    source of preferences for exercising the mask API. The hash of the last
    context scored is kept, so scoring every candidate after one context
    hashes the context once; a score still depends only on (seed, context,
    candidate)."""

    def __init__(self, seed: int = 0):
        if type(seed) is not int or not -2**63 <= seed < 2**63:
            raise ConfigError(f"seed must be an int in signed 64-bit range, got {seed!r}")
        self.seed = seed
        self._key: tuple | None = None  # (seed, context) last hashed; a copy of the context
        self._prefix = None  # its hash, up to the candidate

    def score(self, context: Sequence[int], candidate: int) -> float:
        key = (self.seed, tuple(context))
        if key != self._key:
            h = blake2b(digest_size=8)
            h.update(struct.pack(f">{1 + len(key[1])}q", self.seed, *key[1]))
            h.update(b"/")
            self._key, self._prefix = key, h
        h = self._prefix.copy()
        h.update(struct.pack(">q", candidate))
        return int.from_bytes(h.digest(), "big") / 2.0**64


def constrained_decode(
    lm: StubLM,
    d: Dfa,
    max_steps: int = 64,
    *,
    retokenize_with: Callable[[str], Sequence[int]] | None = None,
) -> tuple[int, ...]:
    """Greedy decoding under the mask.

    At every step the scorer ranks the allowed tokens; at terminable states
    an end-of-sequence score competes with them and stops decoding when it
    wins (or when nothing may follow). Hitting max_steps anywhere else is an
    error carrying the prefix generated so far; a max_steps that is not a
    non-negative int is a ConfigError.

    retokenize_with enables the stop-detokenize-retokenize mitigation: after
    every step the prefix is replaced by its canonical tokenization, replayed
    through the automaton. Under a mask promoted in bpe or maxmatch mode for
    the same tokenizer it changes nothing, since a prefix of a canonical
    tokenization is canonical for its own text; it pays under agnostic masks.
    """
    check_count("max_steps", max_steps)
    state = constraint_begin(d)
    out: list[int] = []
    for _ in range(max_steps):
        allowed = sorted(allowed_tokens(state))
        if state.terminable and not allowed:
            return tuple(out)
        scores = [lm.score(out, t) for t in allowed]
        top = max(scores)
        if state.terminable and lm.score(out, END_OF_SEQUENCE) > top:
            return tuple(out)
        best = allowed[scores.index(top)]  # the first of equal maxima
        out.append(best)
        state = constraint_advance(state, best)
        if retokenize_with is not None:
            canonical = tuple(retokenize_with(_concat(d, out)))
            if canonical != tuple(out):
                state = _replay(d, canonical)
                out = list(canonical)
    if state.terminable:
        return tuple(out)
    raise IncompleteGenerationError(
        f"no final state within {max_steps} steps", tuple(out)
    )


def _concat(d: Dfa, tokens: Sequence[int]) -> str:
    return "".join(d.table.token(t) for t in tokens)


def _replay(d: Dfa, tokens: Sequence[int]) -> ConstraintState:
    state = constraint_begin(d)
    for token in tokens:
        state = constraint_advance(state, token)
    return state
