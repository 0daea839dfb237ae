"""File formats and the command line, driven in-process."""

import json
import os
import random
import re
import stat
import time

import pytest

import tokfst.promote
from tokfst import (
    EPSILON,
    FAILURE,
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
    promote_bpe,
    promote_maxmatch,
    save_automaton,
)
from tokfst.cli import main
from tokfst.fst import Dfa, Fst, Transition
from tokfst.lexicon import build_merge_gadget

from helpers import dot_text, random_file_machine, saved_text

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


def test_only_line_feeds_end_vocab_lines(tmp_path):
    # U+001C, U+0085 and U+2028 are line breaks to `str.splitlines`; here
    # they are characters of the tokens
    path = tmp_path / "v.txt"
    for sep in ("\x1c", "\x85", "\u2028"):
        tokens = ["x", sep, "y", f"x{sep}y", f"{sep}{sep}"]
        path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        assert load_vocab(path).table.tokens == tuple(tokens)
        # a token with a break that is not itself a token is refused, not split
        path.write_text(f"a\nx\ny\nx{sep}y\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="which is not itself a token"):
            load_vocab(path)
        # line numbers count line feeds only
        path.write_text(f"{sep}\nx{sep}\n\nb\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":3: empty line"):
            load_vocab(path)
    # CR LF ends one line, as LF does
    path.write_bytes(b"a\r\nb\r\nab\r\n")
    assert load_vocab(path).table.tokens == ("a", "b", "ab")


def test_only_line_feeds_end_merge_lines(tmp_path):
    vocab = Vocabulary.from_tokens(["a", "\x85", "\u2028", "\x1c", "a\x85", "\u2028\x1c"])
    path = tmp_path / "m.txt"
    path.write_text("a \x85\n# c\u2028d\n\u2028 \x1c\n", encoding="utf-8")
    assert load_merges(path, vocab).merge_tokens() == (("a", "\x85"), ("\u2028", "\x1c"))
    path.write_text("a \x85\r\n\x1c\u2028\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2: expected two space-separated tokens"):
        load_merges(path, vocab)


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
     ' "transitions": [[false, 2, 2, 0]]}', r"transition .*src=False.* is not an integer"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2.0, 2, 0]]}', r"transition .*inp=2\.0.* is not an integer"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 2, 0, 0]]}', r"transitions\[0\]: expected 4 integers"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 2, 1]]}', r"transition .*dst=1.* references a missing state"),
    ('{"symbols": ["a", "b"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 3, 0]]}', r"transition .* is not an acceptor arc"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 0, 0, 0]]}', "is not allowed in a deterministic acceptor"),
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 2, 0], [0, 2, 2, 0]]}', "state 0 has two arcs on symbol 2"),
    # a row that is not four fields is named first, whatever else is wrong
    ('{"symbols": ["a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [[0, 2, 2, 9], [0, 2]]}', r"transitions\[1\]: expected 4 integers"),
    ('{"symbols": ["a", "a"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": [{"a": 1}]}', r"transitions\[0\]: expected 4 integers"),
    # valid JSON, but a lone surrogate has no UTF-8 form to write back
    ('{"symbols": ["a", "\\ud800"], "num_states": 1, "start": 0, "finals": [0],'
     ' "transitions": []}', r"symbols: token '\\ud800' cannot be encoded as UTF-8"),
])
def test_load_automaton_rejects_corruption(tmp_path, doc, fragment):
    path = tmp_path / "m.json"
    path.write_text(doc)
    with pytest.raises(ValidationError, match=fragment):
        load_automaton(path)


def test_writers_match_their_oracles(tmp_path):
    # 3,000 seeded machines: the saved bytes are `json.dumps(..., indent=1)`'s
    # and the DOT text is the per-arc renderer's
    rng = random.Random(2323)
    path = tmp_path / "m.json"
    seen = set()
    for _ in range(3000):
        m = random_file_machine(rng)
        save_automaton(m, path)
        assert path.read_bytes() == saved_text(m).encode("utf-8")
        assert export_dot(m) == dot_text(m)
        text = "".join(m.table.tokens)
        inputs = {inp for arcs in m.arcs.values() for inp, _, _ in arcs}
        seen.update(name for name, hit in (
            ("empty table", not m.table), ("no finals", not m.finals),
            ("no arcs", not m.arcs), ("epsilon", EPSILON in inputs),
            ("failure", FAILURE in inputs), ("quote", '"' in text),
            ("backslash", "\\" in text), ("control", any(c < " " for c in text)),
            ("non-ASCII", not text.isascii()),
        ) if hit)
    assert len(seen) == 9, seen


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


def test_cli_reports_a_token_it_could_not_write(tmp_path, capsys):
    # the file is valid JSON, so only the symbol table can turn it away
    path = tmp_path / "surrogate.json"
    path.write_text('{"symbols": ["a", "\\ud800"], "num_states": 2, "start": 0,'
                    ' "finals": [1], "transitions": [[0, 3, 3, 1]]}')
    for command in ("mask", "dot"):
        code, out, err = run_cli(capsys, command, "--automaton", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: symbols: ")
        assert "Traceback" not in err


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


def test_written_files_get_the_mode_open_gives(tmp_path):
    # a new file is 0o666 less the umask, not the 0o600 of a private temp file
    d = compile_pattern("ab", Vocabulary.from_tokens(["a", "b"]).table)
    old = os.umask(0o022)
    try:
        save_automaton(d, tmp_path / "m.json")
        export_dot(d, tmp_path / "m.dot")
        os.umask(0o077)
        save_automaton(d, tmp_path / "private.json")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"m.json": 0o644, "m.dot": 0o644, "private.json": 0o600}


def test_a_replaced_file_keeps_its_mode(tmp_path):
    # as open(path, "w") would: a file made private stays private
    d = compile_pattern("ab", Vocabulary.from_tokens(["a", "b"]).table)
    old = os.umask(0o022)
    try:
        save_automaton(d, tmp_path / "m.json")
        (tmp_path / "m.json").chmod(0o600)
        save_automaton(d, tmp_path / "m.json")
        export_dot(d, tmp_path / "m.dot")
        (tmp_path / "m.dot").chmod(0o640)
        export_dot(d, tmp_path / "m.dot")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"m.json": 0o600, "m.dot": 0o640}


def test_a_write_through_a_symlink_replaces_its_target(tmp_path):
    d = compile_pattern("ab", Vocabulary.from_tokens(["a", "b"]).table)
    e = compile_pattern("a*", d.table)
    save_automaton(d, tmp_path / "m.json")
    (tmp_path / "link.json").symlink_to("m.json")
    save_automaton(e, tmp_path / "link.json")
    assert (tmp_path / "link.json").is_symlink()
    assert load_automaton(tmp_path / "m.json") == e
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "m.json"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    d = compile_pattern("ab", Vocabulary.from_tokens(["a", "b"]).table)
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        save_automaton(d, tmp_path / "taken")
    with pytest.raises(OSError):
        export_dot(d, tmp_path / "missing" / "m.dot")
    (tmp_path / "loop").symlink_to("loop")  # a loop fails like any other write
    with pytest.raises(OSError):
        save_automaton(d, tmp_path / "loop")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loop", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


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


def test_saved_and_dot_arcs_follow_the_transitions_view(tmp_path):
    vocab = Vocabulary.from_tokens(FIG3_VOCAB)
    (tmp_path / "merges.txt").write_text("\n".join(FIG3_MERGES) + "\n")
    tok = load_merges(tmp_path / "merges.txt", vocab)
    table = vocab.table
    promoted = promote_bpe(compile_pattern("(t|o|p|l|g|y)*", table), tok).dfa
    view = promoted.transitions
    assert len(view) > 10
    save_automaton(promoted, tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["transitions"] == [list(t) for t in view]
    edges = [line for line in export_dot(promoted).splitlines() if " -> " in line][1:]
    assert edges == [f'  {t.src} -> {t.dst} [label="{table.display(t.inp)}:{table.display(t.out)}"];'
                     for t in view]


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
    code, out, _ = run_cli(capsys, "tokenize", "--mode", "bpe",
                           "--vocab", workdir / "fig3v.txt",
                           "--merges", workdir / "fig3m.txt", "--input", "topology")
    assert (code, out) == (0, "to po logy\n")
    # one BPE implementation behind the command line; the other is a usage error
    code, out, err = run_cli(capsys, "tokenize", "--mode", "bpe-iterative",
                             "--vocab", workdir / "fig3v.txt",
                             "--merges", workdir / "fig3m.txt", "--input", "topology")
    assert (code, out) == (2, "")
    assert "invalid choice" in err and "bpe-iterative" in err


def test_cli_tokenize_names_a_bad_character_alike_in_both_modes(tmp_path, capsys):
    (tmp_path / "vocab.txt").write_text("a\nb\nab\n")
    (tmp_path / "merges.txt").write_text("a b\n")
    errors = []
    for mode in ("bpe", "maxmatch"):
        code, out, err = run_cli(capsys, "tokenize", "--mode", mode, "--vocab", tmp_path / "vocab.txt",
                                 "--merges", tmp_path / "merges.txt", "--input", "abc")
        assert (code, out) == (1, "")
        errors.append(err)
    assert errors == ["error: character 'c' is not in the vocabulary\n"] * 2


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
