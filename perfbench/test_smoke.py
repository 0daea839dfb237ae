"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, untraced and traced: no failed operation, every metric named
in BENCHMARK.json present, end-to-end metrics non-zero. Two traced runs with
the same seed, in processes with different string hashing, must report
identical counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import END_TO_END, per_layer_table, run_benchmark  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == per_layer_table()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_clean(workload, trace):
    result = run_benchmark(workload, seed=3, seconds=0.2, trace=trace, size=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = per_layer_table() if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


REPEAT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.harness import run_benchmark
from perfbench.workloads import TINY
print(json.dumps(run_benchmark({workload!r}, 7, 0.2, True, TINY)))
"""


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    script = REPEAT.format(src=str(ROOT / "src"), root=str(ROOT), workload=workload)
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1])["metrics"])
    counted = [name for name, unit, _ in per_layer_table() if unit in ("count", "bytes")]
    first, second = ({name: run[name]["value"] for name in counted} for run in runs)
    assert first == second
    assert first["fst.machines_built"] > 0
