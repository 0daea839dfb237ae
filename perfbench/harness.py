"""Runs one workload: set-up several times, passes until the time budget is
spent, then the metrics.

The machine this runs on may change speed by half for tens of seconds at a
time, so end-to-end times are normalized: every pass (and every set-up)
times a fixed reference loop between its operations, and its times are
scaled by NOMINAL_REFERENCE_S over the median reference time. The figures
read as seconds on a machine where that loop takes NOMINAL_REFERENCE_S.

End-to-end metrics come from passes with no tracer installed. With tracing
on, the first half of the budget runs untraced passes and the second half
traced ones; the difference between the two is the tracing overhead. Counts
come from the first traced pass, which repeats the first untraced one, so
they repeat exactly; times are medians over passes.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
from pathlib import Path

from .tracing import Tracer
from .workloads import FULL, WORKLOADS, Op, Run, Size, now, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
NOMINAL_REFERENCE_S = 0.0025
SETUP_REFERENCE_SAMPLES = 8  # taken before and after each set-up

# name, unit, better; the same table is in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("promote_s", "s", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
    ("first_mask_p50_ms", "ms", "lower"),
    ("token_step_p50_us", "us", "lower"),
    ("retok_step_p50_us", "us", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# per-layer metric -> self time of a span name, or a counter of the first traced pass
SELF_TIMES = {
    "fst.compose_s": "fst.compose",
    "fst.determinize_s": "fst.determinize",
    "fst.minimize_s": "fst.minimize",
    "fst.epsilon_remove_s": "fst.epsilon_remove",
    "fst.project_s": "fst.project",
    "fst.trim_s": "fst.trim",
    "fst.validate_s": "fst.validate",
    "pattern.compile_s": "pattern.compile",
    "lexicon.gadget_s": "lexicon.gadget",
    "lexicon.lexicon_build_s": "lexicon.lexicon_build",
    "lexicon.maxmatch_build_s": "lexicon.maxmatch_build",
    "guided.begin_s": "guided.begin",
    "guided.allowed_s": "guided.allowed",
    "guided.advance_s": "guided.advance",
    "guided.decode_s": "guided.decode",
    "tokenizers.tokenize_s": "tokenizers.tokenize",
    "formats.save_s": "formats.save",
    "formats.load_s": "formats.load",
    "formats.dot_s": "formats.dot",
}
CLI_COMMANDS = ("promote", "mask", "enumerate", "dot", "check", "tokenize")
COUNTS = (
    "fst.determinize_states_out",
    "fst.minimize_states_in",
    "fst.machines_built",
    "fst.arcs_validated",
    "symbols.token_ids_calls",
    "lexicon.gadget_calls",
    "lexicon.gadget_arcs",
    "promote.stages",
    "promote.live_stages",
    "promote.stages_determinized",
    "guided.begin_calls",
    "guided.allowed_calls",
    "guided.advance_calls",
    "tokenizers.tokenize_calls",
    "formats.bytes_written",
)
PROMOTE_SPANS = ("promote.agnostic", "promote.maxmatch", "promote.bpe")


def per_layer_table() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    rows = [(name, "s", "lower") for name in SELF_TIMES]
    rows += [(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS]
    rows += [(name, "bytes" if name.endswith("bytes_written") else "count", "lower") for name in COUNTS]
    rows += [
        ("guided.retok_rewrites", "count", "lower"),
        ("guided.mask_size_mean", "tokens", "lower"),
        ("promote.stage_timer_coverage", "ratio", "higher"),
        ("promote.growth_exponent", "exponent", "lower"),
        ("tokenizers.bpe_train_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return rows


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def speed_factor(samples: list[float]) -> float:
    return NOMINAL_REFERENCE_S / statistics.median(samples)


def reference_samples() -> list[float]:
    return [reference_seconds() for _ in range(SETUP_REFERENCE_SAMPLES)]


def run_passes(workload, run: Run, budget: float, traced: bool = False) -> list[Pass]:
    """Whole passes until the next one would overrun the budget; at least one.
    Pass n does the same work in the untraced and the traced phase."""
    started = now()
    passes: list[Pass] = []
    while True:
        gc.collect()  # start every pass with the same collector state
        began, first_mark = now(), len(run.marks)
        run.tracer.pass_index = len(passes)
        run.tracer.active = traced
        try:
            workload.run_pass(run, len(passes))
        finally:
            run.tracer.active = False
        run.mark()
        passes.append(Pass(run, run.marks[first_mark:]))
        if now() - started + (now() - began) > budget:
            return passes


class Pass:
    """The operations of one pass, each scaled to nominal speed by the
    reference samples taken just before, during and just after it."""

    def __init__(self, run: Run, marks: list[tuple[int, list[float]]]):
        self.ops: list[Op] = []
        factors = []
        for (start, before), (end, after) in zip(marks, marks[1:]):
            inside = [s for op in run.ops[start:end] for s in op.reference]
            factor = speed_factor(before + inside + after)
            factors.append(factor)
            for op in run.ops[start:end]:
                self.ops.append(Op(op.key, *(
                    None if v is None else v * factor
                    for v in (op.seconds, op.promote, op.first_mask, op.step, op.retok_step)),
                    tokens=op.tokens))
        self.factor = statistics.median(factors) if factors else 1.0
        self.seconds = sum(op.seconds for op in self.ops)

    def per_token(self, field: str) -> float:
        """Decode seconds per emitted token over the pass's decodes of one kind."""
        timed = [op for op in self.ops if getattr(op, field) is not None]
        tokens = sum(op.tokens for op in timed)
        return sum(getattr(op, field) for op in timed) / tokens if tokens else 0.0


def key_medians(ops: list[Op], field: str) -> dict[str, float]:
    """Median of `field` over the repetitions of each input in the run."""
    by_key: dict[str, list[float]] = {}
    for op in ops:
        if getattr(op, field) is not None:
            by_key.setdefault(op.key, []).append(getattr(op, field))
    return {key: statistics.median(values) for key, values in by_key.items()}


def typical(ops: list[Op], field: str) -> list[float]:
    """Each operation's `field`, replaced by its input's median. Percentiles
    over this list describe the request mix rather than the machine's noise."""
    medians = key_medians(ops, field)
    return [medians[op.key] for op in ops if getattr(op, field) is not None]


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict[str, float]:
    ops = [op for p in passes for op in p.ops]
    requests_ms = [t * 1e3 for t in typical(ops, "seconds")]
    return {
        "setup_s": median(setup_times),
        "promote_s": sum(key_medians(ops, "promote").values()),
        "request_p50_ms": percentile(requests_ms, 50),
        "request_p90_ms": percentile(requests_ms, 90),
        "first_mask_p50_ms": median(t * 1e3 for t in typical(ops, "first_mask")),
        "token_step_p50_us": median(p.per_token("step") * 1e6 for p in passes),
        "retok_step_p50_us": median(p.per_token("retok_step") * 1e6 for p in passes),
        "pass_s": median(p.seconds for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def growth_exponent(ladder: dict[str, int], passes: list[Pass]) -> float:
    """Least-squares slope of log promote time over log merge count."""
    times: dict[int, list[float]] = {}
    for op in (op for p in passes for op in p.ops):
        if op.key in ladder and op.promote is not None:
            times.setdefault(ladder[op.key], []).append(op.promote)
    if len(times) < 2:
        return 0.0
    xs = [math.log(k) for k in times]
    ys = [math.log(median(v)) for v in times.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass],
              train_times: list[float], ladder: dict[str, int]) -> dict[str, float]:
    """Span times are raw seconds; the overhead compares normalized passes."""
    timed: list[dict[str, float]] = []
    for index, p in enumerate(traced):
        self_time, total = tracer.times(index)
        counts = tracer.counts[index]
        hook = total["bench.stage_hook"]  # tracing cost; the caller's hook is the benchmark's own
        promote_wall = sum(total[name] for name in PROMOTE_SPANS) - hook - total["bench.caller_hook"]
        row = {metric: self_time[span] for metric, span in SELF_TIMES.items()}
        row.update({f"cli.{c}_s": total[f"cli.{c}"] for c in CLI_COMMANDS})
        row["promote.stage_timer_coverage"] = (
            counts["promote.stage_seconds"] / promote_wall if promote_wall > 0 else 0.0)
        row["traced_pass_s"] = p.seconds - hook * p.factor
        timed.append(row)
    metrics = {name: median(row[name] for row in timed) for name in timed[0]}
    first = tracer.counts[0]
    metrics.update({name: int(first[name]) for name in COUNTS})
    metrics["guided.retok_rewrites"] = int(first["guided.decode_begins"] - first["guided.decodes"])
    metrics["guided.mask_size_mean"] = (
        first["guided.mask_size_total"] / first["guided.allowed_calls"]
        if first["guided.allowed_calls"] else 0.0)
    metrics["promote.growth_exponent"] = growth_exponent(ladder, untraced)
    metrics["tokenizers.bpe_train_s"] = median(train_times)
    untraced_pass = median(p.seconds for p in untraced)
    traced_pass = metrics.pop("traced_pass_s")
    metrics["trace.overhead_s"] = traced_pass - untraced_pass
    metrics["trace.overhead_ratio"] = traced_pass / untraced_pass - 1 if untraced_pass > 0 else 0.0
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL,
                  log=None) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    tracer = Tracer()
    try:
        run = Run(tracer)
        setup_times, train_times = [], []
        for _ in range(SETUP_REPS):
            workload = WORKLOADS[name](seed, size, workdir)
            before = reference_samples()
            began = now()
            train_times.append(workload.setup())
            took = now() - began
            setup_times.append(took * speed_factor(before + reference_samples()))
        measure_started = now()
        untraced = run_passes(workload, run, seconds / 2 if trace else seconds)
        traced: list[Pass] = []
        if trace:
            tracer.install()
            try:
                traced = run_passes(workload, run, seconds - (now() - measure_started), traced=True)
            finally:
                tracer.uninstall()
            values = per_layer(tracer, traced, untraced, train_times, workload.merge_ladder())
            table = per_layer_table()
        else:
            values = end_to_end(untraced, setup_times)
            table = END_TO_END
        if log is not None:
            factors = [p.factor for p in untraced + traced]
            print(f"{name} seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
                  f"{run.attempted} operations, {run.failed} failed; speed factor "
                  f"{min(factors):.3f}..{max(factors):.3f}", file=log)
            for error in run.errors[:10]:
                print(f"  {error}", file=log)
        return {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": values[n], "unit": unit} for n, unit, _ in table},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
