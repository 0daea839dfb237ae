"""The four workloads. Each is one client in a closed loop, single-threaded:
it sends its next operation only after the previous one returned.

* bpe_broad  -- `promote_bpe` on `(self|cls)_[a-z]+` over a ladder of merge
  prefixes. Nearly every merge is live and most stages run subset
  construction: loads compose, determinize and minimize.
* bpe_narrow -- `promote_bpe` at 200 merges on patterns made of digits and
  a few keywords. Few merges touch the machine, so each stage's
  fixed cost (gadget over the whole alphabet, re-validation) dominates.
* serve      -- a Zipf-weighted stream of agnostic and maxmatch requests,
  compile -> promote -> first mask -> constrained decode. Patterns repeat,
  so a compiled-constraint cache would pay off here and nowhere else.
* cli        -- a fixed script through `tokfst.cli.main`, in process, over
  files written at set-up: the only workload reaching `formats` and `cli`.

One pass is one run of the workload's fixed operation list. Pass n draws its
decode preferences from the seed and n, so the first traced pass repeats the
first untraced one and its counts repeat exactly between runs.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import tokfst.cli
import tokfst.guided
import tokfst.pattern
import tokfst.promote
from tokfst.guided import END_OF_SEQUENCE
from tokfst.tokenizers import maxmatch_tokenize

from . import oracles
from .inputs import WORDS, Pattern, Piece, digits, lower, merge_prefix, train, words
from .oracles import Machine, check

MAX_STEPS = 64
REFERENCE_SAMPLES = 3
DECODES = 8  # greedy decodes per bpe request, each with its own scorer
UNDERSCORE = words("_")


@dataclass(frozen=True)
class Size:
    corpus: int = 2000
    merges: int = 400  # serve and cli
    narrow_merges: int = 200
    ladder: tuple[int, ...] = (20, 35, 50)  # bpe_broad merge-list prefixes
    small_merges: int = 40  # the cli's small bpe case
    quotas: tuple[int, ...] = (4, 2, 2, 1, 1, 1, 1, 1)  # serve requests per pattern and mode
    strings_limit: int = 2000  # oracle size caps, see Pattern.check_bound
    segmentations_limit: int = 20000


FULL = Size()
TINY = Size(corpus=300, merges=60, narrow_merges=40, ladder=(4, 8, 12), small_merges=10,
            quotas=(2, 1, 1, 1, 1, 1, 1, 1), strings_limit=300, segmentations_limit=2000)


@dataclass
class Op:
    """One timed operation. Optional fields hold the parts other metrics use:
    step and retok_step are decode seconds without and with retokenization,
    over `tokens` emitted tokens."""

    key: str
    seconds: float
    promote: float | None = None
    first_mask: float | None = None
    step: float | None = None
    retok_step: float | None = None
    tokens: int = 1
    reference: tuple[float, ...] = ()  # reference samples taken during the operation


class Scorer:
    """O(1) stand-in for a language model: a fixed preference per (token,
    position), and an end-of-sequence score that wins from the fourth token
    on. Decodes stop at the first final state they reach with four tokens or
    more, so every decode over these patterns ends, after a similar number of
    tokens."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.table = [rng.random() for _ in range(1009)]

    def score(self, context, candidate: int) -> float:
        if candidate == END_OF_SEQUENCE:
            return 2.0 if len(context) >= 4 else -1.0
        return self.table[(candidate * 7919 + len(context)) % 1009]


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python loop that does not touch tokfst:
    tuples, dicts, frozensets and a sort, the kind of work the library does.
    Timed between operations, it tracks how fast the machine runs just then."""
    started = time.perf_counter()
    arcs = [(i % 97, (i * 31) % 53, (i * 17) % 89) for i in range(3000)]
    by_src: dict[int, list] = {}
    for arc in arcs:
        by_src.setdefault(arc[0], []).append(arc)
    groups = {frozenset(a[1] for a in v) for v in by_src.values()}
    arcs.sort(key=lambda a: (a[1], a[2]))
    if len(groups) > len(arcs):
        raise AssertionError("unreachable; keeps the result alive")
    return time.perf_counter() - started


class StageSampler:
    """A `promote_bpe` stage hook that times the reference loop every `every`
    stages. A promotion can take seconds, long enough for the machine's speed
    to change; these samples show the speed while it ran. `spent` is their
    own time, which the caller takes out of the promotion's."""

    def __init__(self, every: int):
        self.every = every
        self.stages = 0
        self.samples: list[float] = []
        self.spent = 0.0

    def __call__(self, label: str, dfa) -> None:
        self.stages += 1
        if self.stages % self.every == 0:
            started = time.perf_counter()
            self.samples.append(reference_seconds())
            self.spent += time.perf_counter() - started


class Run:
    """Operations, failures, reference-loop samples and the tracer of one
    benchmark run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.marks: list[tuple[int, list[float]]] = []  # (len(ops) then, reference samples)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def mark(self, samples: int = REFERENCE_SAMPLES) -> None:
        self.marks.append((len(self.ops), [reference_seconds() for _ in range(samples)]))

    def attempt(self, what: str, fn, *args):
        """Run one operation with its checks; a raise or a mismatch fails it.
        Reference samples are taken before each operation."""
        self.mark()
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    @contextmanager
    def untraced(self):
        active = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = active


def now() -> float:
    return time.perf_counter()


class Workload:
    """Set-up trains the tokenizer; a pass runs the fixed operation list."""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.verified: dict[str, object] = {}  # per input: machine shape checked by an oracle

    def setup(self) -> float:
        """Builds every input; returns the seconds spent in bpe_train."""
        started = now()
        self.tok = train(self.seed, self.size.corpus, self.merge_count())
        trained = now() - started
        self.prepare()
        return trained

    def merge_count(self) -> int:
        return self.size.merges

    def prepare(self) -> None:
        pass

    def merge_ladder(self) -> dict[str, int]:
        """Merge count per bpe input, for the growth-exponent fit."""
        return {}

    def verify(self, key: str, dfa, expected) -> None:
        """Check a promoted machine against its oracle the first time the
        input is seen; later promotions of it must give the identical machine."""
        shape = oracles.shape(dfa)
        if key in self.verified:
            check(self.verified[key] == shape, f"{key}: promotion differs from the verified one")
            return
        bound, language = expected()
        oracles.check_language(Machine.of(dfa), bound, language, key)
        self.verified[key] = shape


class BpeWorkload(Workload):
    """Requests in bpe mode: compile, promote, first mask, then the same
    greedy decode twice, plainly and with retokenization after every step.
    On an exact BPE machine retokenization must rewrite nothing."""

    def inputs(self) -> list[tuple[str, Pattern, object]]:
        raise NotImplementedError

    def prepare(self) -> None:
        self.items = self.inputs()

    def merge_ladder(self) -> dict[str, int]:
        return {key: len(tok.merges) for key, _, tok in self.items}

    def run_pass(self, run: Run, number: int) -> None:
        for n, (key, pattern, tok) in enumerate(self.items):
            run.tracer.request = n
            scorers = [Scorer(self.seed * 100_000 + number * 100 + j) for j in range(DECODES)]
            run.attempt(key, self.request, run, key, pattern, tok, scorers)

    def request(self, run: Run, key: str, pattern: Pattern, tok, scorers: list[Scorer]) -> None:
        """Promote once, then decode once per scorer, with and without
        retokenization."""
        G = tokfst.guided
        sampler = StageSampler(max(5, len(tok.merges) // 16))
        t0 = now()
        a = tokfst.pattern.compile_pattern(pattern.regex, tok.vocab.table)
        t1 = now()
        result = tokfst.promote.promote_bpe(a, tok, stage_hook=sampler)
        t2 = now() - sampler.spent
        G.allowed_tokens(G.constraint_begin(result.dfa))
        t3 = now() - sampler.spent
        plain = [G.constrained_decode(s, result.dfa, MAX_STEPS) for s in scorers]
        t4 = now() - sampler.spent
        retok = [G.constrained_decode(s, result.dfa, MAX_STEPS, retokenize_with=tok.tokenize)
                 for s in scorers]
        t5 = now() - sampler.spent
        run.ops.append(Op(key, t5 - t0, promote=t2 - t1, first_mask=t3 - t0, step=t4 - t3,
                          retok_step=t5 - t4, tokens=sum(map(len, plain)),
                          reference=tuple(sampler.samples)))
        with run.untraced():
            bound = pattern.check_bound(self.size.strings_limit)
            self.verify(key, result.dfa, lambda: (
                bound, oracles.canonical_language(pattern, bound, tok.tokenize, tok.vocab)))
            for out in plain:
                oracles.check_decode(pattern, out, tok.vocab, tok.tokenize, key)
            check(retok == plain, f"{key}: retokenized decodes {retok} differ from {plain}")


class BpeBroad(BpeWorkload):
    def merge_count(self) -> int:
        return max(self.size.ladder)

    def inputs(self):
        pattern = Pattern((words("self", "cls"), UNDERSCORE, lower()))
        return [(f"{pattern.regex}@{k}", pattern, merge_prefix(self.tok, k)) for k in self.size.ladder]


class BpeNarrow(BpeWorkload):
    def merge_count(self) -> int:
        return self.size.narrow_merges

    def inputs(self):
        keywords = words("def", "class", "return")
        patterns = (
            Pattern((digits(2, 2), UNDERSCORE, keywords)),
            Pattern((keywords, UNDERSCORE, digits(1, 1))),
            Pattern((words("yes", "no"), UNDERSCORE, digits(1, 1))),
        )
        return [(f"{p.regex}@{len(self.tok.merges)}", p, self.tok) for p in patterns]


def serve_pool(seed: int) -> list[Pattern]:
    """Eight templates in fixed Zipf-rank order. The seed picks their words
    among the 30 most frequent words of a fixed length, so every seed gets
    patterns of the same shape whose words the merges cover alike. Every
    template ends in a part whose states are all final, so the scorer's
    end-of-sequence score ends each decode."""
    rng = random.Random(seed)

    def pick(*lengths: int) -> Piece:
        chosen: list[str] = []
        for n in sorted(set(lengths)):
            chosen += rng.sample([w for w in WORDS[:30] if len(w) == n], lengths.count(n))
        return words(*sorted(chosen))

    return [
        Pattern((pick(3, 3), UNDERSCORE, lower())),
        Pattern((pick(4, 4), UNDERSCORE, digits())),
        Pattern((pick(4, 4, 4), UNDERSCORE, pick(4, 4))),
        Pattern((pick(5, 5, 5), UNDERSCORE, lower())),
        Pattern((pick(4, 4), UNDERSCORE, digits(2, 2))),
        Pattern((pick(3, 3), UNDERSCORE, pick(5, 5), UNDERSCORE, digits())),
        Pattern((pick(4, 5, 6, 4),)),
        Pattern((pick(4, 4), UNDERSCORE, digits(1, 1))),
    ]


class Serve(Workload):
    """A block holds each pool pattern `quota` times in each mode. Each pass
    sends one block, in an order and with decode preferences drawn from the
    seed and the pass number."""

    def prepare(self) -> None:
        self.pool = serve_pool(self.seed)
        self.block = [
            (pattern, mode)
            for pattern, quota in zip(self.pool, self.size.quotas)
            for mode in ("agnostic", "maxmatch")
            for _ in range(quota)
        ]

    def run_pass(self, run: Run, number: int) -> None:
        rng = random.Random(self.seed * 1000 + number)
        order = list(range(len(self.block)))
        rng.shuffle(order)
        for n, i in enumerate(order):
            pattern, mode = self.block[i]
            scorer = Scorer(rng.randrange(2**32))
            run.tracer.request = n
            key = f"{mode} {pattern.regex}"
            run.attempt(key, self.request, run, key, pattern, mode, scorer)

    def request(self, run: Run, key: str, pattern: Pattern, mode: str, scorer: Scorer) -> None:
        G = tokfst.guided
        tok, vocab = self.tok, self.tok.vocab
        agnostic = mode == "agnostic"
        t0 = now()
        a = tokfst.pattern.compile_pattern(pattern.regex, vocab.table)
        t1 = now()
        promote = tokfst.promote.promote_agnostic if agnostic else tokfst.promote.promote_maxmatch
        result = promote(a, vocab)
        t2 = now()
        G.allowed_tokens(G.constraint_begin(result.dfa))
        t3 = now()
        out = G.constrained_decode(scorer, result.dfa, MAX_STEPS,
                                   retokenize_with=tok.tokenize if agnostic else None)
        t4 = now()
        run.ops.append(Op(key, t4 - t0, promote=t2 - t1, first_mask=t3 - t0,
                          step=None if agnostic else t4 - t3,
                          retok_step=t4 - t3 if agnostic else None, tokens=len(out)))
        with run.untraced():
            if agnostic:
                bound = pattern.check_bound(self.size.segmentations_limit, all_segmentations=True)
                expected = lambda: (bound, oracles.all_segmentations(pattern, bound, vocab))
                canonical = tok.tokenize
            else:
                bound = pattern.check_bound(self.size.strings_limit)
                canonical = lambda s: maxmatch_tokenize(s, vocab)
                expected = lambda: (bound, oracles.canonical_language(pattern, bound, canonical, vocab))
            self.verify(key, result.dfa, expected)
            oracles.check_decode(pattern, out, vocab, canonical, key)


class Cli(Workload):
    """What a shell user does: promote two machines, step a decode one
    `mask` call per token, repeat it with `tokenize` before each mask (the
    retokenizing variant), then enumerate, render, check and tokenize."""

    BIG = Pattern((words("self", "cls"), UNDERSCORE, lower()))
    STEPS = 5
    SMALL = Pattern((words("get", "set"), UNDERSCORE, digits(1, 1)))

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.small_tok = merge_prefix(self.tok, self.size.small_merges)
        self.files = {}
        for name, tok in (("vocab", self.tok), ("small", self.small_tok)):
            self.files[name] = self._write(f"{name}.vocab", "".join(t + "\n" for t in tok.vocab.table.tokens))
            self.files[name + "_merges"] = self._write(
                f"{name}.merges", "".join(f"{x} {y}\n" for x, y in tok.merge_tokens()))
        self.files["big"] = self.workdir / "big.json"
        self.files["small_out"] = self.workdir / "small.json"
        self.files["dot"] = self.workdir / "big.dot"
        vocab = self.tok.vocab
        # the first STEPS + 1 tokens of a greedy tokenization of a match are
        # a prefix the machine must accept, and greedy on their text again
        text = "self_" + "".join(rng.sample(WORDS[2:], 6))
        self.path = oracles.tokens(maxmatch_tokenize(text, vocab), vocab)[:self.STEPS + 1]
        self.identifier = "_".join(rng.sample(WORDS, 3))

    def _write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def command(self, run: Run, argv: list[str]) -> tuple[str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = now()
        with redirect_stdout(out), redirect_stderr(err):
            code = run.tracer.call(f"cli.{argv[0]}", tokfst.cli.main, ([str(a) for a in argv],), {})
        seconds = now() - t0
        check(code == 0, f"tokfst {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue(), seconds

    def run_pass(self, run: Run, number: int) -> None:
        steps = [
            ("promote maxmatch", self.promote_big, ()),
            ("promote bpe", self.promote_small, ()),
            *[(f"mask {i}", self.mask, (i,)) for i in range(len(self.path))],
            *[(f"retokenize {i}", self.retokenize, (i,)) for i in range(1, len(self.path))],
            ("enumerate", self.enumerate, ()),
            ("dot", self.dot, ()),
            ("check", self.check_command, ()),
            ("tokenize", self.tokenize, ()),
        ]
        for n, (key, fn, args) in enumerate(steps):
            run.tracer.request = n
            run.attempt(key, fn, run, key, *args)

    def promote_big(self, run: Run, key: str) -> None:
        f = self.files
        out, seconds = self.command(run, [
            "promote", "--pattern", self.BIG.regex, "--vocab", f["vocab"],
            "--mode", "maxmatch", "--out", f["big"], "--stats"])
        run.ops.append(Op(key, seconds, promote=seconds))
        with run.untraced():
            written = f["big"].read_text(encoding="utf-8")
            stats = out.split()
            if key in self.verified:
                check(self.verified[key] == (stats[:5], written),
                      f"{key}: output differs from the first pass")
                return
            doc = json.loads(written)
            check(stats[0] == "maxmatch:" and int(stats[1]) == doc["num_states"]
                  and int(stats[3]) == len(doc["transitions"]),
                  f"--stats line {out.strip()!r} does not describe the written machine")
            vocab = self.tok.vocab
            bound = self.BIG.check_bound(self.size.strings_limit)
            expected = oracles.canonical_language(
                self.BIG, bound, lambda s: maxmatch_tokenize(s, vocab), vocab)
            self.big = Machine(doc["start"], doc["finals"], doc["transitions"], doc["symbols"])
            oracles.check_language(self.big, bound, expected, key)
            self.big_dot = (oracles.dot_edges(doc), doc["num_states"])
            self.verified[key] = (stats[:5], written)

    def promote_small(self, run: Run, key: str) -> None:
        f = self.files
        out, seconds = self.command(run, [
            "promote", "--pattern", self.SMALL.regex, "--vocab", f["small"],
            "--merges", f["small_merges"], "--mode", "bpe", "--out", f["small_out"]])
        run.ops.append(Op(key, seconds, promote=seconds))
        with run.untraced():
            oracles.check_language(Machine.load(f["small_out"]), 64, self.small_language(), key)

    def small_language(self) -> set[tuple[str, ...]]:
        tok = self.small_tok
        return oracles.canonical_language(self.SMALL, 64, tok.tokenize, tok.vocab)

    def mask(self, run: Run, key: str, i: int) -> None:
        out, seconds = self.command(run, [
            "mask", "--automaton", self.files["big"], "--prefix", " ".join(self.path[:i])])
        run.ops.append(Op(key, seconds, first_mask=seconds if i == 0 else None,
                          step=seconds if i else None))
        with run.untraced():
            self.check_mask(key, out, self.path[:i])

    def check_mask(self, key: str, out: str, prefix) -> None:
        expected = self.big.mask(prefix)
        check(out.split() == expected, f"{key}: mask {out.split()[:5]}... is not {expected[:5]}...")
        check(bool(expected), f"{key}: empty mask inside a decode path")

    def retokenize(self, run: Run, key: str, i: int) -> None:
        text = "".join(self.path[:i])
        tokenized, t_seconds = self.command(run, [
            "tokenize", "--mode", "maxmatch", "--vocab", self.files["vocab"], "--input", text])
        run.ops.append(Op(key + " tokenize", t_seconds))
        prefix = tokenized.split()
        out, m_seconds = self.command(run, [
            "mask", "--automaton", self.files["big"], "--prefix", " ".join(prefix)])
        run.ops.append(Op(key + " mask", m_seconds, retok_step=t_seconds + m_seconds))
        with run.untraced():
            check(tuple(prefix) == self.path[:i],
                  f"{key}: greedy tokens of {text!r} are {prefix}, not {list(self.path[:i])}")
            self.check_mask(key, out, prefix)

    def enumerate(self, run: Run, key: str) -> None:
        out, seconds = self.command(run, [
            "enumerate", "--automaton", self.files["small_out"], "--max-len", "8"])
        run.ops.append(Op(key, seconds))
        with run.untraced():
            expected = {" ".join(seq) for seq in self.small_language()}
            check(set(out.splitlines()) == expected, f"{key}: listed {out.splitlines()[:3]}...")

    def dot(self, run: Run, key: str) -> None:
        f = self.files
        _, seconds = self.command(run, ["dot", "--automaton", f["big"], "--out", f["dot"]])
        run.ops.append(Op(key, seconds))
        with run.untraced():
            lines = [line.strip() for line in f["dot"].read_text(encoding="utf-8").splitlines()]
            edges = {line for line in lines if " -> " in line and not line.startswith("hidden")}
            nodes = [line for line in lines if line[:1].isdigit() and "[shape=" in line]
            check((edges, len(nodes)) == self.big_dot,
                  f"{key}: {len(edges)} arcs and {len(nodes)} states, not {len(self.big_dot[0])} "
                  f"and {self.big_dot[1]}")

    def check_command(self, run: Run, key: str) -> None:
        f = self.files
        out, seconds = self.command(run, [
            "check", "--pattern", self.SMALL.regex, "--vocab", f["small"],
            "--merges", f["small_merges"], "--mode", "bpe", "--max-len", "8"])
        run.ops.append(Op(key, seconds))
        check(out == "ok\n", f"{key}: printed {out!r}")

    def tokenize(self, run: Run, key: str) -> None:
        f = self.files
        out, seconds = self.command(run, [
            "tokenize", "--mode", "bpe", "--vocab", f["vocab"], "--merges", f["vocab_merges"],
            "--input", self.identifier])
        run.ops.append(Op(key, seconds))
        with run.untraced():
            expected = " ".join(oracles.tokens(self.tok.tokenize(self.identifier), self.tok.vocab))
            check(out.strip() == expected, f"{key}: {out.strip()!r} is not {expected!r}")


WORKLOADS = {"bpe_broad": BpeBroad, "bpe_narrow": BpeNarrow, "serve": Serve, "cli": Cli}
