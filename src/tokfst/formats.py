"""File formats: vocab and merges loaders, the automaton interchange format,
and DOT export.

The interchange format is a JSON document with five fields. `symbols` lists
token strings in id order (index = id - 2; ids 0 and 1 are reserved for the
empty and failure symbols), `finals` is sorted, and `transitions` is a
lexicographically sorted list of [src, input, output, dst] records, so equal
machines serialize to byte-equal files.
"""

from __future__ import annotations

import json
import os
import tempfile
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


def load_vocab(path: str | Path) -> Vocabulary:
    """One token per line, in id order."""
    tokens: list[str] = []
    seen: set[str] = set()
    lines = _read_text(path).splitlines()
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
    for n, line in enumerate(_read_text(path).splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not all(parts):
            raise ValidationError(f"{path}:{n}: expected two space-separated tokens")
        pairs.append((parts[0], parts[1]))
    return BpeTokenizer.from_token_pairs(v, pairs)


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_automaton(m: Fst, path: str | Path) -> None:
    doc = {
        "symbols": list(m.table.tokens),
        "num_states": m.num_states,
        "start": m.start,
        "finals": sorted(m.finals),
        "transitions": [list(t) for t in m.transitions],
    }
    _atomic_write(path, json.dumps(doc, ensure_ascii=False, indent=1) + "\n")


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
    for n, row in enumerate(transitions):
        if not (isinstance(row, list) and len(row) == 4 and all(type(x) is int for x in row)):
            raise ValidationError(f"{path}: transitions[{n}]: expected 4 integers")

    try:
        table = SymbolTable(tuple(symbols))
    except AlphabetError as exc:
        raise ValidationError(f"{path}: symbols: {exc}") from exc
    try:
        return Dfa(
            table,
            doc["num_states"],
            doc["start"],
            frozenset(doc["finals"]),
            transitions,
        )
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


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
    for t in m.transitions:
        label = f"{table.display(t.inp)}:{table.display(t.out)}"
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {t.src} -> {t.dst} [label="{label}"];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        _atomic_write(path, text)
    return text
