"""The analysis scripts, run as a user runs them.

``scripts/regenerate_mapping.py`` writes into ``data/`` and is not run here.
"""

import importlib.util
import json
import os
import subprocess
import sys

from conftest import REPO_ROOT


def _exp_refs() -> dict:
    """The benchmark's reference values for the bundled-data pipeline."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXP_REFS


def _run_script(name, *args):
    """Run ``scripts/<name>`` with the source tree importable."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )


def test_reproduce_experiment():
    proc = _run_script("reproduce_experiment.py", "--samples", "100", "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert "fitted mapping matches pinned: True" in proc.stdout.splitlines()
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    refs = _exp_refs()
    for key, ref in (("a3_primary", "primary"), ("s", "s"), ("a3_secondary", "secondary")):
        target, tol = refs[ref]
        assert abs(report[key] - target) < tol, (key, report[key])
    assert report["mc_samples"] == 100 and report["seed"] == 0


def test_rac_seesaw_scan():
    proc = _run_script(
        "rac_seesaw_scan.py", "--dims", "3", "4", "--restarts", "1", "--iters", "30", "--seed", "0"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [row["dim"] for row in rows] == [3, 4]
    for row in rows:
        assert 1 <= row["iterations_used"] <= 30
        assert row["stop_reason"] in ("settled", "window", "max_iters")
        assert row["residual"] < 1e-8
    assert rows[1]["violation"] > 0
