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
from typing import Callable, Protocol, Sequence

from .errors import (
    AlphabetError,
    ConfigError,
    ConstraintViolationError,
    DeadConstraintError,
    IncompleteGenerationError,
    check_count,
)
from .fst import Dfa, trim
from .symbols import RESERVED
from .tokenizers import BpeTokenizer

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
    source of preferences for exercising the mask API; `seed` is its only
    state."""

    def __init__(self, seed: int = 0):
        if type(seed) is not int or not -2**63 <= seed < 2**63:
            raise ConfigError(f"seed must be an int in signed 64-bit range, got {seed!r}")
        self.seed = seed

    def score(self, context: Sequence[int], candidate: int) -> float:
        data = struct.pack(f">{1 + len(context)}q", self.seed, *context)
        h = blake2b(data + b"/" + struct.pack(">q", candidate), digest_size=8)
        return int.from_bytes(h.digest(), "big") / 2.0**64


class TokenScorer(Protocol):
    """What decoding asks of a language model: a score for `candidate` (a
    token id or END_OF_SEQUENCE) after the token ids of `context`."""

    def score(self, context: Sequence[int], candidate: int) -> float: ...


def constrained_decode(
    lm: TokenScorer,
    d: Dfa,
    max_steps: int = 64,
    *,
    retokenize_with: Callable[[str], Sequence[int]] | None = None,
) -> tuple[int, ...]:
    """Greedy decoding under the mask.

    `lm` is any object with `score(context, candidate)`, such as `StubLM`.
    At every step it ranks the allowed tokens, the inputs of the state's
    arcs; ties go to the lowest id. At terminable states an end-of-sequence
    score competes with them and stops decoding when it wins (or when
    nothing may follow). Hitting max_steps anywhere else is an error
    carrying the prefix generated so far; a max_steps that is not a
    non-negative int is a ConfigError.

    retokenize_with enables the stop-detokenize-retokenize mitigation: after
    every step the prefix is replaced by its canonical tokenization, replayed
    through the automaton. Under a mask promoted in bpe or maxmatch mode for
    the same tokenizer it changes nothing, since a prefix of a canonical
    tokenization is canonical for its own text; it pays under agnostic masks.
    A retokenizer that is not callable, or whose rewrite does not spell the
    prefix's text in the automaton's token ids, is a ConfigError.

    A bound `BpeTokenizer.tokenize` is not called on every step. Its prefix
    is kept canonical, and a sequence is canonical iff each token is and each
    adjacent pair is allowed (`BpeTokenizer.bigram_tables`). So when the new
    token is canonical and may follow the one before it, the prefix is its
    own tokenization and retokenizing would change nothing; `tokenize` runs
    only when that check fails. The output is the same as calling it on
    every step. Any other callable, a subclass's `tokenize` included, is
    called on every step. The tokenizer must be over the automaton's table.
    """
    check_count("max_steps", max_steps)
    if not callable(getattr(lm, "score", None)):
        raise ConfigError(f"lm must be a TokenScorer with a score method, got {type(lm).__name__}")
    if retokenize_with is not None and not callable(retokenize_with):
        raise ConfigError(f"retokenize_with must be callable, got {retokenize_with!r}")
    q = constraint_begin(d).state
    after = _pair_check(d, retokenize_with)
    arcs, finals, score = d.arcs, d.finals, lm.score
    out: list[int] = []
    for _ in range(max_steps):
        moves = arcs.get(q, ())  # sorted by distinct input: the mask, ascending
        if not moves and q in finals:
            return tuple(out)
        scores = [score(out, arc[0]) for arc in moves]
        top = max(scores)
        if q in finals and score(out, END_OF_SEQUENCE) > top:
            return tuple(out)
        token, _, q = moves[scores.index(top)]  # the first of equal maxima
        out.append(token)
        if retokenize_with is None:
            continue
        if after is not None and token in after and (len(out) == 1 or token not in after[out[-2]]):
            continue
        text = _concat(d, out)
        rewritten = retokenize_with(text)
        try:
            rewritten = tuple(rewritten)
        except TypeError:
            raise ConfigError(f"retokenize_with({text!r}) did not return token ids") from None
        if rewritten != tuple(out):
            _check_spelling(d, rewritten, text)
            q = _replay(d, rewritten).state
            out = list(rewritten)
    if q in finals:
        return tuple(out)
    raise IncompleteGenerationError(
        f"no final state within {max_steps} steps", tuple(out)
    )


def _pair_check(d: Dfa, retokenize_with) -> dict[int, frozenset[int]] | None:
    """The bigram tables of a bound `BpeTokenizer.tokenize`, looked up on the
    class when called, so a patched class method still qualifies and a
    subclass override does not; None for any other retokenizer."""
    tok = getattr(retokenize_with, "__self__", None)
    func = getattr(retokenize_with, "__func__", None)
    if not isinstance(tok, BpeTokenizer) or func is not BpeTokenizer.tokenize:
        return None
    if tok.vocab.table != d.table:
        raise ConfigError("the retokenizer's vocabulary is not over the automaton's symbol table")
    return tok.bigram_tables


def _concat(d: Dfa, tokens: Sequence[int]) -> str:
    return "".join(map(d.table.token, tokens))


def _check_spelling(d: Dfa, tokens: tuple, text: str) -> None:
    try:
        spelled = _concat(d, tokens)
    except AlphabetError:  # an id outside the table, or no int at all
        spelled = None
    if spelled != text:
        raise ConfigError(
            f"retokenize_with({text!r}) returned {tokens!r}, not token ids spelling that text"
        )


def _replay(d: Dfa, tokens: Sequence[int]) -> ConstraintState:
    state = constraint_begin(d)
    for token in tokens:
        state = constraint_advance(state, token)
    return state
