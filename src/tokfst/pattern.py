"""Character-level regular expressions compiled to minimal deterministic acceptors.

Supported syntax: literals, `.` (any single character in the alphabet),
character classes `[abc]` / `[a-z]` / negated `[^...]`, grouping `(...)`
nested at most MAX_GROUP_DEPTH deep, alternation `|`, and the postfix
quantifiers `*`, `+`, `?`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetError, PatternSyntaxError
from .fst import Dfa, Fst, Transition, determinize, epsilon_remove, minimize
from .symbols import EPSILON, SymbolTable

_QUANTIFIERS = ("*", "+", "?")
MAX_GROUP_DEPTH = 100  # deeper nesting is a syntax error, not a RecursionError


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    char: str


@dataclass(frozen=True)
class CharClass:
    chars: frozenset[str]
    negated: bool = False


@dataclass(frozen=True)
class AnyChar:
    pass


@dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclass(frozen=True)
class Alternation:
    options: tuple


@dataclass(frozen=True)
class Repeat:
    inner: object
    min_count: int  # 0 or 1
    unbounded: bool


class _Parser:
    """Recursive descent over the grammar alt -> concat ('|' concat)*."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> PatternSyntaxError:
        return PatternSyntaxError(message, self.pos)

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def alternation(self):
        options = [self.concat()]
        while self.peek() == "|":
            self.take()
            options.append(self.concat())
        return options[0] if len(options) == 1 else Alternation(tuple(options))

    def concat(self):
        parts = []
        while self.peek() is not None and self.peek() not in "|)":
            parts.append(self.repeat())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def repeat(self):
        """An atom and its quantifiers. Stacked quantifiers fold into one
        Repeat (minimum counts multiply, unboundedness ors), so a*+? is a*
        and the tree stays shallow."""
        node = self.atom()
        if self.peek() not in _QUANTIFIERS:
            return node
        min_count, unbounded = 1, False
        while self.peek() in _QUANTIFIERS:
            op = self.take()
            min_count *= 1 if op == "+" else 0
            unbounded = unbounded or op != "?"
        return Repeat(node, min_count, unbounded)

    def atom(self):
        ch = self.peek()
        if ch is None:
            raise self.error("pattern ended where an atom was expected")
        if ch == "(":
            if self.depth == MAX_GROUP_DEPTH:
                raise self.error(f"groups nested deeper than {MAX_GROUP_DEPTH}")
            self.take()
            self.depth += 1
            node = self.alternation()
            if self.peek() != ")":
                raise self.error("unclosed group")
            self.take()
            self.depth -= 1
            return node
        if ch == "[":
            return self.char_class()
        if ch == ".":
            self.take()
            return AnyChar()
        if ch in _QUANTIFIERS:
            raise self.error(f"quantifier {ch!r} has nothing to repeat")
        if ch in ")":
            raise self.error("unmatched ')'")
        if ch == "\\":
            self.take()
            if self.peek() is None:
                raise self.error("dangling escape")
            return Literal(self.take())
        return Literal(self.take())

    def char_class(self):
        self.take()  # [
        negated = False
        if self.peek() == "^":
            negated = True
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
                return CharClass(frozenset(chars), negated)
            if ch == "\\":
                self.take()
                if self.peek() is None:
                    raise self.error("dangling escape")
                chars.add(self.take())
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


def parse_pattern(text: str):
    """Parse to an AST without resolving characters against any alphabet."""
    return _Parser(text).parse()


# -- compilation -------------------------------------------------------------


class _Builder:
    """Thompson construction; each fragment is a (start, final) pair and all
    fragments share one growing arc list."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.chars = sorted(
            self.table.token(i) for i in self.table.char_ids()
        )
        self.arcs: list[Transition] = []
        self.count = 0

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def arc(self, src: int, sym: int, dst: int) -> None:
        self.arcs.append(Transition(src, sym, sym, dst))

    def eps(self, src: int, dst: int) -> None:
        self.arcs.append(Transition(src, EPSILON, EPSILON, dst))

    def chars_for(self, node) -> list[str]:
        if isinstance(node, Literal):
            if node.char not in self.chars:
                raise AlphabetError(
                    f"pattern character {node.char!r} is not covered by the vocabulary"
                )
            return [node.char]
        if isinstance(node, AnyChar):
            return self.chars
        if isinstance(node, CharClass):
            if node.negated:
                picked = [c for c in self.chars if c not in node.chars]
            else:
                unknown = sorted(c for c in node.chars if c not in self.chars)
                if unknown:
                    raise AlphabetError(
                        f"pattern character {unknown[0]!r} is not covered by the vocabulary"
                    )
                picked = sorted(node.chars)
            return picked
        raise TypeError(f"not a character node: {node!r}")

    def build(self, node) -> tuple[int, int]:
        if isinstance(node, (Literal, AnyChar, CharClass)):
            start, end = self.state(), self.state()
            for ch in self.chars_for(node):
                self.arc(start, self.table.id(ch), end)
            return start, end
        if isinstance(node, Concat):
            if not node.parts:
                q = self.state()  # empty concat accepts the empty string
                return q, q
            frags = [self.build(part) for part in node.parts]
            for (_, e1), (s2, _) in zip(frags, frags[1:]):
                self.eps(e1, s2)
            return frags[0][0], frags[-1][1]
        if isinstance(node, Alternation):
            start, end = self.state(), self.state()
            for option in node.options:
                s, e = self.build(option)
                self.eps(start, s)
                self.eps(e, end)
            return start, end
        if isinstance(node, Repeat):
            start, end = self.state(), self.state()
            s, e = self.build(node.inner)
            self.eps(start, s)
            self.eps(e, end)
            if node.min_count == 0:
                self.eps(start, end)
            if node.unbounded:
                self.eps(e, s)
            return start, end
        raise TypeError(f"unknown pattern node: {node!r}")


def compile_pattern(text: str, table: SymbolTable) -> Dfa:
    """Compile a pattern into a minimal character-level deterministic acceptor.

    Every arc symbol is a single-character token id from `table`.
    """
    ast = parse_pattern(text)
    builder = _Builder(table)
    start, end = builder.build(ast)
    nfa = Fst(
        table,
        builder.count,
        start,
        frozenset([end]),
        tuple(builder.arcs),
    )
    return minimize(determinize(epsilon_remove(nfa)))
