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


def test_reproduce_experiment():
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = REPO_ROOT / "scripts" / "reproduce_experiment.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "100", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fitted mapping matches pinned: True" in proc.stdout.splitlines()
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    refs = _exp_refs()
    for key, ref in (("a3_primary", "primary"), ("s", "s"), ("a3_secondary", "secondary")):
        target, tol = refs[ref]
        assert abs(report[key] - target) < tol, (key, report[key])
    assert report["mc_samples"] == 100 and report["seed"] == 0
