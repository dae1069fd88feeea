"""Self-tests of the benchmark at smoke size.

    python3 -m pytest perfbench -q

Smoke sizes: one 20-iteration rac23 restart and one cglmp3 restart, 100
Monte Carlo samples, and two CLI rounds.  The small LP oracle (rac:2,3 with
3 messages) runs inside every CLI round.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source_tree()
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# One reference per workload moved far from the true value.
WRONG_REFS = {
    "search": {"rac23_min_value": 0.99},
    "exp-mc": {"primary": (0.5, 2e-3)},
    "cli-readme": {"a3_quantum": (0.5, 1e-12)},
}


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_workload_is_implemented():
    from workloads import WORKLOADS as implemented

    assert sorted(WORKLOADS) == sorted(implemented)
    assert sorted(WRONG_REFS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    report, result = run.run_benchmark(workload, 1, 0, trace=False, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= (2 if workload == "cli-readme" else 1)
    assert _emitted(result) == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    prov = report["provenance"]
    assert prov["seed"] == 1 and prov["runs"] == result["attempted"]
    assert set(prov["thread_env"]) == set(run.THREAD_ENV)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_counts_repeat(workload):
    report, result = run.run_benchmark(workload, 1, 0, trace=True, smoke=True)
    assert result["correct"], report["failures"]
    assert _emitted(result) == _units("per_layer")
    assert report["absent"] == [] and report["note_errors"] == []
    assert report["determinism"]["mismatches"] == []
    assert result["metrics"]["trace.count_mismatches"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_the_operation(workload):
    report, result = run.run_benchmark(
        workload, 1, 0, trace=False, smoke=True, refs=WRONG_REFS[workload]
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["failures"]


def test_refuses_to_run_without_the_source_tree():
    bare = run.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0"]
    try:
        proc = subprocess.run(
            argv + ["--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_at_reference_speed_cancel_the_host_speed():
    import speed

    # The same operations, once on a steady host at reference speed and once
    # on a host running at half speed for the first half of the run; five
    # samples per operation, so a window holds four operations.
    def run_at(speeds):
        sampler = speed.Sampler()
        records, t = [], 0.0
        for v in speeds:
            wall = 0.01 / v
            records.append({"t0": t, "t1": t + wall, "s": wall})
            sampler.samples += [(t + k * wall / 5, v) for k in range(5)]
            t += wall
        return speed.windows(records, sampler)

    steady = run_at([1.0] * 40)
    drifting = run_at([0.5] * 20 + [1.0] * 20)
    assert len(steady) == len(drifting) == 10
    assert all(abs(v - 0.01) < 1e-12 for v in steady + drifting)
