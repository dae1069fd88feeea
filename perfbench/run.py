"""Benchmark of the oblivious-games toolkit: one workload per process.

    python3 perfbench/run.py --workload search --seed 0 --seconds 10 --trace 0

Workloads are ``search``, ``exp-mc`` and ``cli-readme`` (see
``perfbench/README.md``).  The run imports the package from ``src/`` of the
checkout this file sits in, so nothing needs installing.

With ``--trace 0`` the run repeats the workload's operation in a closed loop
until ``--seconds`` have passed (and at least the workload's minimum number
of operations ran), checks every result against its reference, and reports
the end-to-end metrics.  Times are reported at reference host speed (see
``perfbench/speed.py``); the raw wall times are in the report line.  With ``--trace 1`` it runs operations untraced for
half the time, then the same operations with every layer wrapped, then the
first operation once more to check that its counts repeat, and reports the
per-layer metrics.

Standard output ends with two JSON lines: a report (provenance, named
metrics, failures), then ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 10
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("op_s", "s"),
    ("value", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _no_span(name):
    return contextlib.nullcontext()


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workload(name, seed, smoke=False, refs=None):
    from workloads import WORKLOADS

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](ROOT, seed, WORK_DIR, smoke=smoke, refs=refs)


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Per probe: (wall seconds from spawning a fresh interpreter to its workload
    being ready, net of speed sampling; host speed sampled meanwhile)."""
    samples = []
    for _ in range(probes):
        t0 = _monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
            + ["--setup-probe"],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        lines = dict(ln.split(" ", 1) for ln in proc.stdout.splitlines() if " " in ln)
        if proc.returncode != 0 or "READY" not in lines or "SPEED" not in lines:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append((float(lines["READY"]) - t0, float(lines["SPEED"])))
    return samples


def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``measure_setup``: makes the workload while sampling host speed.

    The sampler starts once numpy is imported, which the kernel needs; its
    handler time is taken off the ready time.  A set-up too short for one
    sample reads at reference speed.
    """
    import speed

    sampler = speed.Sampler(speed.SETUP_PERIOD_S)
    with sampler:
        wl = make_workload(workload, seed)
        ready = _monotonic() - sampler.spent
    wl.close()
    speeds = [v for _, v in sampler.samples] or [1.0]
    print(f"READY {ready!r}", flush=True)
    print(f"SPEED {statistics.fmean(speeds)!r}", flush=True)
    return 0


def run_one(wl, i, span, tracer=None, inputs_of=None, sampler=None) -> dict:
    """Operation ``i``: inputs are made before the clock starts, checks after it stops.

    ``s`` is the wall time net of any time the speed sampler spent inside it.
    """
    inputs = wl.inputs(i if inputs_of is None else inputs_of)
    if tracer is not None:
        tracer.op = i
    out, error = None, None
    spent0 = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        with span("op"):
            out = wl.run(inputs, span)
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    elapsed = t1 - t0 - ((sampler.spent - spent0) if sampler else 0.0)
    if error is None:
        try:
            failures = wl.check(out)
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    return {"i": i, "s": elapsed, "t0": t0, "t1": t1, "out": out, "failures": failures}


def closed_loop(wl, seconds: float, min_ops: int, sampler=None) -> list:
    records = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        records.append(run_one(wl, len(records), _no_span, sampler=sampler))
    return records


def provenance(seed: int, runs: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "seed": seed,
        "runs": runs,
    }


def _failures(records) -> list:
    return [f"op {r['i']}: {'; '.join(r['failures'])}" for r in records if r["failures"]][:20]


def untraced(wl_name: str, seed: int, seconds: float, smoke: bool, refs) -> tuple:
    import speed

    # Set-up is probed before and after the loop, so that the median spans
    # the run rather than one moment of a machine whose speed drifts.
    setup_samples = measure_setup(wl_name, seed, SETUP_PROBES // 2)
    wl = make_workload(wl_name, seed, smoke, refs)
    sampler = speed.Sampler()
    try:
        with sampler:
            records = closed_loop(wl, seconds, wl.min_ops, sampler)
    finally:
        wl.close()
    setup_samples += measure_setup(wl_name, seed, SETUP_PROBES - len(setup_samples))
    good = [r["out"] for r in records if not r["failures"]]
    op_windows = speed.windows(records, sampler)
    metrics = {
        "op_s": statistics.median(op_windows),
        "value": statistics.median(wl.value(o) for o in good) if good else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s * v for s, v in setup_samples),
    }
    named = {k: {"value": v, "unit": u} for k, (v, u) in wl.named(good).items()} if good else {}
    speeds = [v for _, v in sampler.samples]
    report = {
        "ops": len(records),
        "wall_op_s": statistics.median(r["s"] for r in records),
        "wall_op_s_samples": [r["s"] for r in records][:50],
        "op_s_windows": op_windows[:50],
        "speed": {
            "samples": len(speeds),
            "mean": statistics.fmean(speeds) if speeds else None,
            "min": min(speeds, default=None),
            "max": max(speeds, default=None),
            "handler_s": sampler.spent,
        },
        "named": named,
        "wall_setup_s": statistics.median(s for s, _ in setup_samples),
        "setup_samples": [{"wall_s": s, "speed": v} for s, v in setup_samples],
        "failures": _failures(records),
    }
    units = dict(END_TO_END)
    return records, {k: (v, units[k]) for k, v in metrics.items()}, report


def traced(wl_name: str, seed: int, seconds: float, smoke: bool, refs) -> tuple:
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)  # set-up calls (e.g. building the box) are recorded as op -1
    wl = make_workload(wl_name, seed, smoke, refs)
    tracer.unwrap_all()
    try:
        plain = closed_loop(wl, seconds / 2, 1)
        layers.install(tracer)
        n = len(plain)
        spans = [run_one(wl, i, tracer.span, tracer) for i in range(n)]
        repeat = run_one(wl, n, tracer.span, tracer, inputs_of=0)
        tracer.unwrap_all()
        curve = wl.curve(layers.CURVE_CAPS) if hasattr(wl, "curve") else []
    finally:
        tracer.unwrap_all()
        wl.close()
    det = layers.determinism(tracer, 0, n)
    records = plain + spans + [repeat]
    metrics = layers.per_layer(
        tracer,
        range(n),
        [r["s"] for r in plain],
        [r["s"] for r in spans],
        curve,
        getattr(wl, "samples", 0),
        len(det["mismatches"]),
    )
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = WORK_DIR / f"spans-{wl_name}-{seed}.json"
    tracer.write(spans_path)
    report = {
        "ops": len(records),
        "traced_ops": n,
        "curve": curve,
        "determinism": det,
        "nondeterministic": bool(det["mismatches"]),
        "absent": sorted(set(tracer.absent)),
        "note_errors": sorted(
            {n["note_error"] for n in tracer.notes.values() if "note_error" in n}
        ),
        "spans": {"count": len(tracer.names), "file": str(spans_path.relative_to(ROOT))},
        "failures": _failures(records),
    }
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return records, {k: (v, units[k]) for k, v in metrics.items()}, report


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke=False, refs=None):
    """Run one workload; returns (report, result) as printed on the last two lines."""
    use_source_tree()
    measure = traced if trace else untraced
    records, metrics, report = measure(workload, seed, seconds, smoke, refs)
    failed = sum(1 for r in records if r["failures"])
    report = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(seed, len(records)),
        **report,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "oblivious_games" / "__init__.py").is_file():
        print(f"error: no oblivious_games package under {SRC}", file=sys.stderr)
        return 2
    use_source_tree()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
