r"""Character-level regular expressions compiled to minimal deterministic acceptors.

Supported syntax: literals, `.` (any single character in the alphabet),
character classes `[abc]` / `[a-z]` / negated `[^...]`, grouping `(...)`
nested at most MAX_GROUP_DEPTH deep, alternation `|`, and the postfix
quantifiers `*`, `+`, `?`. A backslash makes the next character literal, as
in `a\*` or `[a\-]`, unless that character is an ASCII letter or digit:
`re` reads `\d` as a class and `\b` as a word boundary, so such an escape
is a syntax error rather than a pattern with another language.

A pattern is compiled in one pass, as Thompson's construction was: each
grammar rule emits its automaton fragment while it reads, so no syntax tree
is built. The fragments form an epsilon NFA; one subset construction, which
follows the epsilon arcs as it walks, makes it deterministic, and `minimize`
makes it minimal.
"""

from __future__ import annotations

from .errors import AlphabetError, ConfigError, PatternSyntaxError, check_text
# epsilon_remove: bound for perfbench/tracing.py to patch
from .fst import Dfa, Fst, determinize, epsilon_remove, minimize
from .symbols import EPSILON, SymbolTable

_QUANTIFIERS = ("*", "+", "?")
MAX_GROUP_DEPTH = 100  # deeper nesting is a syntax error, not a RecursionError


class _Compiler:
    """Recursive descent over the grammar alt -> concat ('|' concat)*. Each
    rule returns the (start, final) pair of its Thompson fragment, and all
    fragments share one growing arc list.

    A syntax error anywhere outranks an unknown character, so the first
    unknown character in text order is only noted while reading, and raised
    once the whole text has parsed."""

    def __init__(self, text: str, table: SymbolTable):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.table = table
        self.known = frozenset(table.token(i) for i in table.char_ids())
        self.unknown: str | None = None
        self.arcs: list[tuple[int, int, int, int]] = []
        self.count = 0

    def error(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.pos)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def eps(self, src: int, dst: int) -> None:
        self.arcs.append((src, EPSILON, EPSILON, dst))

    def compile(self) -> Fst:
        start, end = self.alternation()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        if self.unknown is not None:
            raise AlphabetError(
                f"pattern character {self.unknown!r} is not covered by the vocabulary"
            )
        return Fst(self.table, self.count, start, frozenset([end]), self.arcs)

    def alternation(self) -> tuple[int, int]:
        options = [self.concat()]
        while self.peek() == "|":
            self.take()
            options.append(self.concat())
        if len(options) == 1:
            return options[0]
        start, end = self.state(), self.state()
        for s, e in options:
            self.eps(start, s)
            self.eps(e, end)
        return start, end

    def concat(self) -> tuple[int, int]:
        parts = []
        while self.peek() is not None and self.peek() not in "|)":
            parts.append(self.repeat())
        if not parts:
            q = self.state()  # the empty concatenation accepts the empty string
            return q, q
        for (_, e1), (s2, _) in zip(parts, parts[1:]):
            self.eps(e1, s2)
        return parts[0][0], parts[-1][1]

    def repeat(self) -> tuple[int, int]:
        """An atom and its quantifiers. Stacked quantifiers fold into one
        repetition (minimum counts multiply, unboundedness ors), so a*+? is
        a* and the fragment stays small."""
        s, e = self.atom()
        if self.peek() not in _QUANTIFIERS:
            return s, e
        min_count, unbounded = 1, False
        while self.peek() in _QUANTIFIERS:
            op = self.take()
            min_count *= 1 if op == "+" else 0
            unbounded = unbounded or op != "?"
        start, end = self.state(), self.state()
        self.eps(start, s)
        self.eps(e, end)
        if min_count == 0:
            self.eps(start, end)
        if unbounded:
            self.eps(e, s)
        return start, end

    def atom(self) -> tuple[int, int]:
        """Reached through `concat` only, so a character other than `|` and
        `)` is always left."""
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise self.error(f"groups nested deeper than {MAX_GROUP_DEPTH}")
            self.take()
            self.depth += 1
            fragment = self.alternation()
            if self.peek() != ")":
                raise self.error("unclosed group")
            self.take()
            self.depth -= 1
            return fragment
        if ch == "[":
            return self.char_class()
        if ch == ".":
            self.take()
            return self.one_of(self.known)
        if ch in _QUANTIFIERS:
            raise self.error(f"quantifier {ch!r} has nothing to repeat")
        return self.one_of({self.escaped() if ch == "\\" else self.take()})

    def char_class(self) -> tuple[int, int]:
        self.take()  # [
        negated = self.peek() == "^"
        if negated:
            self.take()
        chars: set[str] = set()
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unclosed character class")
            if ch == "]":
                if not chars:
                    raise self.error("empty character class")
                self.take()
                return self.one_of(self.known - chars if negated else chars)
            if ch == "\\":
                chars.add(self.escaped())
                continue
            lo = self.take()
            if self.peek() == "-" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] != "]":
                self.take()
                hi = self.take()
                if ord(hi) < ord(lo):
                    raise self.error(f"reversed range {lo}-{hi}")
                chars.update(chr(c) for c in range(ord(lo), ord(hi) + 1))
            else:
                chars.add(lo)

    def escaped(self) -> str:
        """The character after a backslash, taken literally. An ASCII letter
        or digit is refused, as `re` would read a class or an assertion."""
        self.take()  # \
        ch = self.peek()
        if ch is None:
            raise self.error("dangling escape")
        if ch.isascii() and ch.isalnum():
            raise self.error(f"unsupported escape \\{ch}")
        return self.take()

    def one_of(self, chars: set[str] | frozenset[str]) -> tuple[int, int]:
        """A fragment with one arc per character in `chars`. The smallest of
        them that is not in the alphabet is noted, if none was before."""
        unknown = chars - self.known
        if unknown and self.unknown is None:
            self.unknown = min(unknown)
        start, end = self.state(), self.state()
        for ch in chars & self.known:
            sym = self.table.id(ch)
            self.arcs.append((start, sym, sym, end))
        return start, end


def compile_pattern(text: str, table: SymbolTable) -> Dfa:
    """Compile a pattern into a minimal character-level deterministic acceptor.

    Every arc symbol is a single-character token id from `table`.
    """
    check_text("pattern", text)
    if not isinstance(table, SymbolTable):
        raise ConfigError(f"table must be a SymbolTable, got {type(table).__name__}")
    nfa = _Compiler(text, table).compile()
    return minimize(determinize(nfa))
