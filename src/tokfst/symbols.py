"""Shared symbol table mapping token strings to dense integer ids.

All machines in a pipeline reference one table, so character symbols and
multi-character token symbols live in a single id space. Ids 0 and 1 are
reserved for the empty symbol and the failure symbol and never map to a
token string; real tokens start at id 2.
"""

from __future__ import annotations

from .errors import AlphabetError

EPSILON = 0  # consumes/emits nothing
FAILURE = 1  # input-only; traversable when no sibling arc matches, and at end of input

RESERVED = 2  # first real token id

_DISPLAY = {EPSILON: "ε", FAILURE: "φ"}


class SymbolTable:
    """Immutable bijection between token strings and ids >= 2. Tokens are
    non-empty, distinct and encodable as UTF-8."""

    def __init__(self, tokens=()):
        try:
            self._tokens: tuple[str, ...] = tuple(tokens)
        except TypeError:
            raise AlphabetError(f"tokens {tokens!r} are not a collection of strings") from None
        self._ids: dict[str, int] = {}
        for i, tok in enumerate(self._tokens):
            if not isinstance(tok, str) or not tok:
                raise AlphabetError(f"token {tok!r} is not a non-empty string")
            if tok in self._ids:
                raise AlphabetError(f"duplicate token {tok!r}")
            self._ids[tok] = i + RESERVED
        try:  # one pass over all the text; a lone surrogate has no UTF-8 form
            "".join(self._tokens).encode("utf-8")
        except UnicodeEncodeError:
            bad = next(t for t in self._tokens if any("\ud800" <= c <= "\udfff" for c in t))
            raise AlphabetError(f"token {bad!r} cannot be encoded as UTF-8") from None
        self._char_ids = frozenset(i for t, i in self._ids.items() if len(t) == 1)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def id(self, token: str) -> int:
        try:
            return self._ids[token]
        except (KeyError, TypeError):  # TypeError: a value that cannot be hashed
            raise AlphabetError(f"token {token!r} is not in the symbol table") from None

    def token(self, sym: int) -> str:
        # `type(...) is int` also refuses bools and floats that equal an id
        if type(sym) is not int or not RESERVED <= sym < RESERVED + len(self._tokens):
            raise AlphabetError(f"id {sym!r} does not name a token")
        return self._tokens[sym - RESERVED]

    def display(self, sym: int) -> str:
        """Printable form of any symbol id, rendering the reserved ids literally."""
        if type(sym) is int and sym in _DISPLAY:
            return _DISPLAY[sym]
        return self.token(sym)

    def ids(self, tokens) -> tuple[int, ...]:
        try:
            tokens = iter(tokens)
        except TypeError:
            raise AlphabetError(f"tokens {tokens!r} are not a sequence of tokens") from None
        return tuple(map(self.id, tokens))

    def char_ids(self) -> frozenset[int]:
        """Ids of the single-character tokens (the character alphabet)."""
        return self._char_ids

    def token_ids(self) -> frozenset[int]:
        return frozenset(range(RESERVED, RESERVED + len(self._tokens)))

    def __contains__(self, token: str) -> bool:
        try:
            return token in self._ids
        except TypeError:  # a value that cannot be hashed is no token
            return False

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self):
        return iter(self._tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __repr__(self) -> str:
        return f"SymbolTable({list(self._tokens)!r})"
