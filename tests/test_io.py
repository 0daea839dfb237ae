"""File formats and the command line, driven in-process."""

import json
import re
import time

import pytest

import tokfst.promote
from tokfst import (
    AlphabetError,
    ConfigError,
    PromotionResult,
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
from tokfst.fst import Dfa, Fst, Transition
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
    ('["a"]', "expected a JSON object"),
    ('{"symbols": [1], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": []}', "symbols: expected a list of strings"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": ["0"],'
     ' "transitions": []}', "finals: expected a list of integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": {}}', "transitions: expected a list"),
    # JSON booleans are not integers, although Python's bool is an int
    ('{"symbols": ["a"], "num_states": true, "start": 0, "finals": [0],'
     ' "transitions": []}', "num_states/start: expected integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": false, "finals": [0],'
     ' "transitions": []}', "num_states/start: expected integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [false],'
     ' "transitions": []}', "finals: expected a list of integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[false, 2, 2, 0]]}', r"transitions\[0\]: expected 4 integers"),
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


def test_loaders_reject_text_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\xff\xfe a")
    vocab = Vocabulary.from_tokens(["a"])
    for load in (load_vocab, lambda p: load_merges(p, vocab), load_automaton):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "):
            load(path)
    code, out, err = run_cli(capsys, "tokenize", "--mode", "maxmatch",
                             "--vocab", path, "--input", "a")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "long"])
def test_load_automaton_rejects_json_the_parser_gives_up_on(tmp_path, capsys, text):
    # nesting past the recursion limit, and an integer past the digit limit
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON"):
        load_automaton(path)
    code, out, err = run_cli(capsys, "mask", "--automaton", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


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


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    (tmp_path / "vocab.txt").write_text('"\n\\\n')
    table = load_vocab(tmp_path / "vocab.txt").table
    q, b = table.ids(['"', "\\"])
    d = Dfa(table, 3, 0, frozenset({2}), (Transition(0, q, q, 1), Transition(1, b, b, 2)))
    text = export_dot(d)
    assert '[label="\\":\\""]' in text
    assert '[label="\\\\:\\\\"]' in text
    save_automaton(d, tmp_path / "m.json")
    assert run_cli(capsys, "dot", "--automaton", tmp_path / "m.json") == (0, text, "")


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


def test_cli_check_reports_counterexamples(workdir, capsys, monkeypatch):
    # a wrong promotion exits 1 and names the first sequence it gets wrong
    empty = lambda a, v: PromotionResult(Dfa(v.table, 1, 0, frozenset(), ()), "maxmatch", ())
    argv = ("check", "--pattern", "racecar", "--vocab", workdir / "race.txt",
            "--mode", "maxmatch", "--max-len", "8")
    for fake, verdict in ((tokfst.promote.promote_agnostic, "unexpected: r a ce car\n"),
                          (empty, "missing: race car\n")):
        monkeypatch.setattr(tokfst.promote, "promote_maxmatch", fake)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (1, verdict)


def test_cli_dot_output(workdir, capsys):
    out_path = workdir / "race.json"
    run_cli(capsys, "promote", "--pattern", "racecar", "--vocab", workdir / "race.txt",
            "--mode", "maxmatch", "--out", out_path)
    code, out, _ = run_cli(capsys, "dot", "--automaton", out_path)
    assert code == 0
    assert out.startswith("digraph fst {")
    assert '"race:race"' in out


def test_cli_mask_rejects_an_untrimmed_automaton(workdir, capsys):
    # a loaded machine is checked once, where it enters the library
    doc = {"symbols": ["r"], "num_states": 2, "start": 0, "finals": [0],
           "transitions": [[0, 2, 2, 1]]}
    path = workdir / "dead.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "mask", "--automaton", path)
    assert (code, out) == (1, "")
    assert "must be trim" in err


def test_cli_machines_grow_with_their_arcs_not_their_state_count(workdir, capsys):
    # states without arcs take no room, so a huge declared count costs nothing
    doc = {"symbols": ["r"], "num_states": 10**12, "start": 0, "finals": [0],
           "transitions": [[0, 2, 2, 0]]}
    path = workdir / "huge.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "mask", "--automaton", path)
    assert (code, out) == (1, "")
    assert "must be trim" in err
    code, out, _ = run_cli(capsys, "enumerate", "--automaton", path, "--max-len", "2")
    assert (code, out.splitlines()) == (0, ["ε", "r", "r r"])
    # DOT lists only the start, the finals and the states an arc touches
    code, out, _ = run_cli(capsys, "dot", "--automaton", path)
    assert code == 0
    assert re.findall(r"^  \d+ \[shape=\w+\];$", out, re.M) == ["  0 [shape=doublecircle];"]
    assert '  0 -> 0 [label="r:r"];' in out
    assert time.perf_counter() - started < 2


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
