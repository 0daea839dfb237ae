"""File formats: vocab and merges loaders, the automaton interchange format,
and DOT export.

The interchange format is a JSON document with five fields. `symbols` lists
token strings in id order (index = id - 2; ids 0 and 1 are reserved for the
empty and failure symbols), `finals` is sorted, and `transitions` is a
lexicographically sorted list of [src, input, output, dst] records, so equal
machines serialize to byte-equal files. The layout is exactly that of
`json.dumps(doc, ensure_ascii=False, indent=1)` plus a newline, but
`save_automaton` renders it with `%` templates and `json`'s C string encoder,
not the pure-Python encoder an indent selects. Symbols must be encodable as
UTF-8: `SymbolTable` refuses a lone surrogate, so no table reaches a file it
cannot be written to.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import suppress
from json.encoder import encode_basestring
from pathlib import Path

from .errors import AlphabetError, ValidationError
from .fst import Dfa, Fst
from .symbols import SymbolTable
from .tokenizers import BpeTokenizer, Vocabulary

_FIELDS = ("symbols", "num_states", "start", "finals", "transitions")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_lines(path: str | Path) -> list[str]:
    """The file's lines, without their ends. Reading translates CR LF and a
    lone CR to LF, and only LF ends a line: unlike `str.splitlines`, no
    other line break (U+001C, U+0085, U+2028, ...) splits a token."""
    lines = _read_text(path).split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    return lines


def load_vocab(path: str | Path) -> Vocabulary:
    """One token per line, in id order."""
    tokens: list[str] = []
    seen: set[str] = set()
    lines = _read_lines(path)
    for n, line in enumerate(lines, 1):
        if line == "":
            if n == len(lines):
                break
            raise ValidationError(f"{path}:{n}: empty line")
        if " " in line:
            raise ValidationError(f"{path}:{n}: token contains a space")
        if line in seen:
            raise ValidationError(f"{path}:{n}: duplicate token {line!r}")
        seen.add(line)
        tokens.append(line)
    return Vocabulary.from_tokens(tokens)


def load_merges(path: str | Path, v: Vocabulary) -> BpeTokenizer:
    """One merge per line as two space-separated tokens; `#` lines ignored."""
    pairs: list[tuple[str, str]] = []
    for n, line in enumerate(_read_lines(path), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not all(parts):
            raise ValidationError(f"{path}:{n}: expected two space-separated tokens")
        pairs.append((parts[0], parts[1]))
    return BpeTokenizer.from_token_pairs(v, pairs)


def _atomic_write(path: str | Path, text: str) -> None:
    """Write a new file beside `path`, then rename it over `path`. As with
    `open(path, "w")`, a symlink is written through, and the file gets the
    mode of the one it replaces, or 0o666 less the umask, not a temp file's
    0o600."""
    path = Path(os.path.realpath(path))
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        with suppress(FileNotFoundError):  # nothing to replace
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_ROW = "[\n   %d,\n   %d,\n   %d,\n   %d\n  ]"
_DOC = ('{\n "symbols": %s,\n "num_states": %d,\n "start": %d,\n'
        ' "finals": %s,\n "transitions": %s\n}\n')


def _block(items: list[str]) -> str:
    """A list of rendered items as `json.dumps(..., indent=1)` lays it out
    one level deep."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"


def save_automaton(m: Fst, path: str | Path) -> None:
    """Write `m` in the interchange format, in the layout of `json.dumps(doc,
    ensure_ascii=False, indent=1)` plus a newline (see the module docstring)."""
    flat: list[int] = []
    for q in sorted(m.arcs):
        for arc in m.arcs[q]:
            flat.append(q)
            flat += arc
    text = _DOC % (
        _block(list(map(encode_basestring, m.table.tokens))),
        m.num_states,
        m.start,
        _block(["%d" % q for q in sorted(m.finals)]),
        _block([_ROW] * (len(flat) // 4)) % tuple(flat),
    )
    _atomic_write(path, text)


def load_automaton(path: str | Path) -> Dfa:
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, deep nesting
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    for field in _FIELDS:
        if field not in doc:
            raise ValidationError(f"{path}: missing field {field!r}")
    for field in doc:
        if field not in _FIELDS:
            raise ValidationError(f"{path}: unknown field {field!r}")

    symbols = doc["symbols"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ValidationError(f"{path}: symbols: expected a list of strings")
    if type(doc["num_states"]) is not int or type(doc["start"]) is not int:
        raise ValidationError(f"{path}: num_states/start: expected integers")
    if not isinstance(doc["finals"], list) or not all(
        type(q) is int for q in doc["finals"]
    ):
        raise ValidationError(f"{path}: finals: expected a list of integers")
    transitions = doc["transitions"]
    if not isinstance(transitions, list):
        raise ValidationError(f"{path}: transitions: expected a list")

    try:
        table = SymbolTable(tuple(symbols))
        return Dfa(
            table,
            doc["num_states"],
            doc["start"],
            frozenset(doc["finals"]),
            transitions,
        )
    except (AlphabetError, ValidationError) as exc:
        # A JSON row that is not a list of 4 fails `Dfa` too: a string or an
        # object unpacks to strings, anything else not at all. So only a file
        # that fails looks for such a row, and that row's error comes first.
        for n, row in enumerate(transitions):
            if not (type(row) is list and len(row) == 4):
                raise ValidationError(f"{path}: transitions[{n}]: expected 4 integers") from None
        where = "symbols: " if isinstance(exc, AlphabetError) else ""
        raise ValidationError(f"{path}: {where}{exc}") from exc


def export_dot(m: Fst, path: str | Path | None = None) -> str:
    """Graphviz rendering; final states are double circles, arc labels are
    input:output with the reserved symbols shown as their glyphs, and with
    backslashes and double quotes escaped. The states listed are the start,
    the finals and those an arc touches, so the output grows with the arcs
    and not with the declared state count."""
    table = m.table
    lines = [
        "digraph fst {",
        "  rankdir=LR;",
        '  hidden [shape=point, style=invis];',
    ]
    shown = {m.start, *m.finals, *m.arcs}
    shown.update(dst for arcs in m.arcs.values() for _, _, dst in arcs)
    for q in sorted(shown):
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {m.start};")
    labels = {}  # one escaped label per distinct (input, output) pair
    for arcs in m.arcs.values():
        for inp, out, _ in arcs:
            if (inp, out) not in labels:
                label = f"{table.display(inp)}:{table.display(out)}"
                labels[inp, out] = label.replace("\\", "\\\\").replace('"', '\\"')
    for q in sorted(m.arcs):
        for inp, out, dst in m.arcs[q]:
            lines.append(f'  {q} -> {dst} [label="{labels[inp, out]}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        _atomic_write(path, text)
    return text
