"""File formats and the command line, driven in-process."""

import json
import re

import pytest

from tokfst import (
    AlphabetError,
    ConfigError,
    SymbolTable,
    ValidationError,
    Vocabulary,
    canonical_form,
    compile_pattern,
    export_dot,
    load_automaton,
    load_merges,
    load_vocab,
    promote_agnostic,
    promote_maxmatch,
    save_automaton,
)
from tokfst.cli import main
from tokfst.fst import Fst, Transition
from tokfst.lexicon import build_merge_gadget

FIG2 = ["a", "b", "n", "s", "ba", "na", "ban", "bana"]
FIG3_VOCAB = ["t", "o", "p", "l", "g", "y", "to", "gy", "lo", "po", "logy"]
FIG3_MERGES = ["t o", "g y", "l o", "p o", "lo gy"]
RACE = ["r", "a", "c", "e", "race", "car", "ce"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig2.txt").write_text("\n".join(FIG2) + "\n")
    (tmp_path / "fig3v.txt").write_text("\n".join(FIG3_VOCAB) + "\n")
    (tmp_path / "fig3m.txt").write_text("\n".join(FIG3_MERGES) + "\n")
    (tmp_path / "race.txt").write_text("\n".join(RACE) + "\n")
    return tmp_path


# ---------------------------------------------------------------------------
# vocab and merge files


def test_load_vocab(workdir):
    vocab = load_vocab(workdir / "fig2.txt")
    assert list(vocab.table.tokens) == FIG2
    assert len(vocab.table.char_ids()) == 4


def test_load_vocab_errors(tmp_path):
    cases = [
        ("a\n\nb\n", "2: empty line"),
        ("a b\n", "1: token contains a space"),
        ("a\na\n", "duplicate token"),
    ]
    for content, fragment in cases:
        path = tmp_path / "v.txt"
        path.write_text(content)
        with pytest.raises(ValidationError, match=fragment):
            load_vocab(path)
    (tmp_path / "v.txt").write_text("ab\n")
    with pytest.raises(ConfigError):
        load_vocab(tmp_path / "v.txt")  # single characters missing


def test_load_merges(workdir):
    vocab = load_vocab(workdir / "fig3v.txt")
    tok = load_merges(workdir / "fig3m.txt", vocab)
    assert tok.merge_tokens() == (
        ("t", "o"), ("g", "y"), ("l", "o"), ("p", "o"), ("lo", "gy"))


def test_load_merges_comments_and_errors(tmp_path):
    vocab = Vocabulary.from_tokens(["a", "b", "ab"])
    path = tmp_path / "m.txt"
    path.write_text("# ordered pairs\na b\n")
    assert load_merges(path, vocab).merge_tokens() == (("a", "b"),)

    path.write_text("a\n")
    with pytest.raises(ValidationError, match="two space-separated tokens"):
        load_merges(path, vocab)
    path.write_text("b a\n")
    with pytest.raises(ConfigError):
        load_merges(path, vocab)  # ba is not a token
    path.write_text("a z\n")
    with pytest.raises(AlphabetError):
        load_merges(path, vocab)


def test_empty_merge_file_needs_a_character_vocab(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("")
    chars = Vocabulary.from_tokens(["a", "b"])
    assert load_merges(path, chars).merges == ()


# ---------------------------------------------------------------------------
# automaton serialization


def test_round_trip_is_canonical(tmp_path):
    vocab = Vocabulary.from_tokens(["a", "b", "c", "ab", "abc", "bc"])
    promoted = promote_agnostic(compile_pattern("abaabcc", vocab.table), vocab).dfa
    path = tmp_path / "m.json"
    save_automaton(promoted, path)
    again = load_automaton(path)
    assert canonical_form(again) == canonical_form(promoted)
    assert again.table == promoted.table


def test_saved_form_is_stable_and_readable(tmp_path):
    vocab = Vocabulary.from_tokens(["a", "b"])
    d = compile_pattern("ab|b", vocab.table)
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    save_automaton(d, one)
    save_automaton(d, two)
    assert one.read_text() == two.read_text()
    assert one.read_text().endswith("\n")
    doc = json.loads(one.read_text())
    assert set(doc) == {"symbols", "num_states", "start", "finals", "transitions"}
    assert doc["finals"] == sorted(doc["finals"])
    assert doc["transitions"] == sorted(doc["transitions"])


@pytest.mark.parametrize("doc,fragment", [
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0]}',
     "missing field 'transitions'"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [], "extra": 1}', "unknown field 'extra'"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 2]]}', r"transitions\[0\]: expected 4 integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [9],'
     ' "transitions": []}', "final state 9 out of range"),
    ('{"symbols": ["a"], "num_states": 1, "start": "x", "finals": [0],'
     ' "transitions": []}', "expected integers"),
    ('not json', "not valid JSON"),
    ('{"symbols": ["a", "a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": []}', "symbols: duplicate token 'a'"),
    ('{"symbols": ["a"], "num_states": 2, "start": 0, "finals": [1],'
     ' "transitions": [[0, 3, 3, 1]]}', "unknown input symbol"),
])
def test_load_automaton_rejects_corruption(tmp_path, doc, fragment):
    path = tmp_path / "m.json"
    path.write_text(doc)
    with pytest.raises(ValidationError, match=fragment):
        load_automaton(path)


def test_load_automaton_requires_a_clean_acceptor(tmp_path):
    # epsilon arcs are fine in memory but not in the interchange format
    doc = {"symbols": ["a"], "num_states": 2, "start": 0, "finals": [1],
           "transitions": [[0, 0, 0, 1]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_automaton(path)


def test_empty_automaton_round_trips(tmp_path):
    vocab = Vocabulary.from_tokens(["a"])
    d = promote_agnostic(compile_pattern("a[^a]", vocab.table), vocab).dfa
    path = tmp_path / "empty.json"
    save_automaton(d, path)
    assert load_automaton(path).finals == frozenset()


# ---------------------------------------------------------------------------
# DOT export


def test_dot_single_state():
    vocab = Vocabulary.from_tokens(["a"])
    d = compile_pattern("", vocab.table)
    dot = export_dot(d)
    assert dot.count("shape=doublecircle") == 1
    assert "rankdir=LR" in dot


def test_dot_renders_failure_labels():
    table = SymbolTable(["a", "b", "ab"])
    g = build_merge_gadget((table.id("a"), table.id("b")),
                           frozenset({table.id("a"), table.id("b")}), table)
    dot = export_dot(g.fst)
    assert '"φ:a"' in dot
    assert dot.count("shape=doublecircle") == 2


def test_dot_writes_to_a_file(tmp_path):
    vocab = Vocabulary.from_tokens(["a", "b"])
    d = compile_pattern("ab", vocab.table)
    path = tmp_path / "m.dot"
    text = export_dot(d, path)
    assert path.read_text() == text
    assert '"a:a"' in text


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_tokenize_goldens(workdir, capsys):
    code, out, _ = run_cli(capsys, "tokenize", "--mode", "maxmatch",
                           "--vocab", workdir / "fig2.txt", "--input", "bananas")
    assert (code, out) == (0, "bana na s\n")
    for mode in ("bpe", "bpe-iterative"):
        code, out, _ = run_cli(capsys, "tokenize", "--mode", mode,
                               "--vocab", workdir / "fig3v.txt",
                               "--merges", workdir / "fig3m.txt", "--input", "topology")
        assert (code, out) == (0, "to po logy\n")


def test_cli_promote_enumerate_mask(workdir, capsys):
    out_path = workdir / "race.json"
    code, out, _ = run_cli(capsys, "promote", "--pattern", "racecar",
                           "--vocab", workdir / "race.txt", "--mode", "maxmatch",
                           "--out", out_path, "--stats")
    assert code == 0
    assert re.fullmatch(
        r"maxmatch: 3 states, 2 transitions, deterministic, \d+\.\d{4}s\n", out)

    code, out, _ = run_cli(capsys, "enumerate", "--automaton", out_path, "--max-len", "4")
    assert (code, out) == (0, "race car\n")

    code, out, _ = run_cli(capsys, "mask", "--automaton", out_path)
    assert (code, out) == (0, "race\n")
    code, out, _ = run_cli(capsys, "mask", "--automaton", out_path, "--prefix", "race")
    assert (code, out) == (0, "car\n")


def test_cli_enumerate_prints_epsilon_for_the_empty_sequence(workdir, capsys):
    out_path = workdir / "star.json"
    run_cli(capsys, "promote", "--pattern", "(ra)*", "--vocab", workdir / "race.txt",
            "--mode", "agnostic", "--out", out_path)
    code, out, _ = run_cli(capsys, "enumerate", "--automaton", out_path, "--max-len", "2")
    assert code == 0
    assert out == "ε\nr a\n"


def test_cli_check_ok(workdir, capsys):
    code, out, _ = run_cli(capsys, "check", "--pattern", "racecar",
                           "--vocab", workdir / "race.txt", "--mode", "maxmatch",
                           "--max-len", "8")
    assert (code, out) == (0, "ok\n")


def test_cli_dot_output(workdir, capsys):
    out_path = workdir / "race.json"
    run_cli(capsys, "promote", "--pattern", "racecar", "--vocab", workdir / "race.txt",
            "--mode", "maxmatch", "--out", out_path)
    code, out, _ = run_cli(capsys, "dot", "--automaton", out_path)
    assert code == 0
    assert out.startswith("digraph fst {")
    assert '"race:race"' in out


def test_cli_error_exits(workdir, capsys):
    # validation problems: exit 1 with a message on stderr
    code, _, err = run_cli(capsys, "tokenize", "--mode", "maxmatch",
                           "--vocab", workdir / "fig2.txt", "--input", "zzz")
    assert code == 1
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "enumerate", "--automaton",
                           workdir / "missing.json", "--max-len", "3")
    assert code == 1
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "promote", "--pattern", "(((",
                           "--vocab", workdir / "race.txt", "--mode", "agnostic",
                           "--out", workdir / "x.json")
    assert code == 1
    assert "offset 3" in err


def test_cli_usage_exits(workdir, capsys):
    # bad flags and inconsistent modes: exit 2, argparse conventions
    assert run_cli(capsys, "tokenize", "--mode", "sideways",
                   "--vocab", workdir / "fig2.txt", "--input", "x")[0] == 2
    assert run_cli(capsys, "tokenize", "--mode", "bpe",
                   "--vocab", workdir / "fig3v.txt", "--input", "x")[0] == 2
    assert run_cli(capsys)[0] == 2
    # a negative length bound is a usage error, not a long or wrong run
    code, _, err = run_cli(capsys, "enumerate", "--automaton",
                           workdir / "missing.json", "--max-len", "-1")
    assert code == 2
    assert "--max-len" in err
    code, out, _ = run_cli(capsys, "check", "--pattern", "a", "--vocab",
                           workdir / "race.txt", "--mode", "agnostic", "--max-len", "-1")
    assert (code, out) == (2, "")
