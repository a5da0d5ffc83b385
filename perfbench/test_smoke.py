"""Schema-only smoke check of the benchmark on a tiny grid.

    python3 -m pytest perfbench

Each workload runs in a tiny variant (a few parties, 32-bit moduli) for a
fraction of a second. The checks cover the result's shape, the metric
names and units from BENCHMARK.json, the correctness gate, and exact
repetition of the traced counts. They set no timing bounds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "xia-honest-wide": run.Workload(run._xia_honest(6, 32), trace_prefix=2,
                                    skips=run.XIA_SKIPS),
    "harn-attack-wide": run.Workload(run._harn_attack(8, 4, 32),
                                     trace_prefix=2, skips=run.HARN_SKIPS),
    "demo-sweep-256": run.Workload(run._demo_sweep(32), trace_prefix=8),
}
SPEC = run.load_spec()


def check_schema(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in metrics}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_tiny_grid_covers_every_workload():
    assert set(TINY) == set(run.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_result_schema(workload):
    result = run.run_benchmark(workload, 1, 0.2, 0, workloads=TINY)
    check_schema(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_result_schema_and_exact_counts(workload):
    first = run.run_benchmark(workload, 1, 0.2, 1, workloads=TINY)
    second = run.run_benchmark(workload, 1, 0.2, 1, workloads=TINY)
    check_schema(first, SPEC["per_layer"])
    check_schema(second, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} \
        == {n: second["metrics"][n]["value"] for n in counts}


def test_zero_on_a_layer_the_workload_runs_fails():
    # tiny xia without its skips: the adversary and harn2013 layers read 0
    unskipped = {"xia-honest-wide": run.Workload(run._xia_honest(6, 32),
                                                 trace_prefix=2)}
    result = run.run_benchmark("xia-honest-wide", 1, 0.2, 1,
                               workloads=unskipped)
    assert result["correct"] is False and result["failed"] > 0


def test_tracer_refuses_a_name_no_wrapper_records():
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    with pytest.raises(KeyError):
        tracer.layer_metrics(["algebra.no_such_layer.count"], 1)


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo-sweep-256",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    check_schema(json.loads(proc.stdout.splitlines()[-1]),
                 SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xia-honest-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
