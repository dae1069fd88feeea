"""Per-layer metrics: which library calls the traced run wraps, and how spans become numbers.

Layers are the package modules.  Each metric is listed in ``PER_LAYER`` with
its unit and direction, in the same order as in ``BENCHMARK.json``.  Every
traced run reports every metric: a layer that a workload never calls reports
0 calls and 0 time, and a wrapped function that no longer exists is listed as
absent in the report line.

Per-call durations are medians over every recorded call, set-up included.
Counts are those of the first measured operation, and shares are summed
over the measured operations.
"""

from __future__ import annotations

import statistics
from math import comb

from oblivious_games import bellmap, bounds, cglmp, cli, expdata, games, lp, optimizer, qmath
from workloads import CLI_LINES, nearest_rank

PHASES = ("rac23", "cglmp3")
CURVE_CAPS = (25, 50, 100, 200, 500)


def _restart_note(args, result):
    cfg = args[1]
    return {"iterations": result.iterations_used, "at_cap": result.iterations_used >= cfg.max_iters}


def _oracle_note(args, result):
    game, messages = args[0], args[1]
    return {"decoders": comb(game.n_outcomes**game.n_bob + messages - 1, messages)}


# (owner, attribute, span name, note).  Functions that a module imported by
# name are wrapped in that module too, under the same span name.
TARGETS = [
    (optimizer, "search", "optimizer.search", None),
    (optimizer, "_run_restart", "optimizer.restart", _restart_note),
    (getattr(optimizer, "_Projector", None), "feasible", "optimizer.feasible", None),
    (getattr(optimizer, "_Projector", None), "psd", "optimizer.psd", None),
    (optimizer, "_jrf_update", "optimizer.jrf", None),
    (optimizer, "performance", "games.performance", None),
    (optimizer, "behavior_from_quantum", "games.behavior_from_quantum", None),
    (optimizer, "obliviousness_residual_quantum", "games.residual_quantum", None),
    (games, "performance", "games.performance", None),
    (games, "behavior_from_quantum", "games.behavior_from_quantum", None),
    (games, "obliviousness_residual_quantum", "games.residual_quantum", None),
    (games, "obliviousness_residual_behavior", "games.residual_behavior", None),
    (qmath.DensityMatrix, "__post_init__", "qmath.DensityMatrix", None),
    (qmath.Povm, "__post_init__", "qmath.Povm", None),
    (lp, "solve", "lp.solve", None),
    (lp, "_pivot", "lp.pivot", None),
    (bounds, "pnc_bound_lp_oracle", "bounds.oracle", _oracle_note),
    (bounds, "local_bound", "bounds.local_bound", None),
    (expdata, "load_primary", "expdata.load_primary", None),
    (expdata, "fit_label_mapping", "expdata.fit_label_mapping", None),
    (expdata, "secondary_data", "expdata.secondary_data", None),
    (expdata, "mc_uncertainty", "expdata.mc_uncertainty", None),
    (bellmap, "load_box", "bellmap.load_box", None),
    (bellmap, "strategy_from_box", "bellmap.strategy_from_box", None),
    (bellmap, "game_from_bell", "bellmap.game_from_bell", None),
    (bellmap, "bell_value", "bellmap.bell_value", None),
    (cglmp, "a3_quantum", "cglmp.a3_quantum", None),
    (cglmp, "game_strategy", "cglmp.game_strategy", None),
    (cglmp, "optimal_box", "cglmp.optimal_box", None),
    (cli, "run", "cli.run", None),
]

# Counts that must repeat exactly when an operation is run twice on one input.
DETERMINISTIC = (
    "optimizer.restart",
    "optimizer.feasible",
    "optimizer.psd",
    "optimizer.jrf",
    "lp.solve",
    "lp.pivot",
    "bounds.oracle",
)


def install(tracer) -> None:
    for owner, attr, name, note in TARGETS:
        if owner is None:
            tracer.absent.append(f"optimizer._Projector.{attr}")
        else:
            tracer.wrap(owner, attr, name, note)


def _optimizer_specs():
    specs = []
    for p in PHASES:
        specs += [
            (f"optimizer.restart_s.{p}", "s", "lower"),
            (f"optimizer.iterations_per_restart.{p}", "count", "lower"),
            (f"optimizer.max_iters_ratio.{p}", "ratio", "lower"),
            (f"optimizer.feasible_calls.{p}", "count", "lower"),
            (f"optimizer.feasible_ms.{p}", "ms", "lower"),
            (f"optimizer.sweeps_per_feasible.{p}", "count", "lower"),
            (f"optimizer.jrf_calls.{p}", "count", "lower"),
            (f"optimizer.jrf_ms.{p}", "ms", "lower"),
            (f"optimizer.projection_share.{p}", "ratio", "lower"),
            (f"optimizer.jrf_share.{p}", "ratio", "lower"),
        ]
    for cap in CURVE_CAPS:
        specs += [
            (f"optimizer.curve_s.cap{cap}", "s", "lower"),
            (f"optimizer.curve_value.cap{cap}", "1", "higher"),
        ]
    return specs


PER_LAYER = _optimizer_specs() + [
    ("lp.solve_calls", "count", "lower"),
    ("lp.solve_ms", "ms", "lower"),
    ("lp.solve_ms_p95", "ms", "lower"),
    ("lp.pivots_per_solve", "count", "lower"),
    ("lp.share", "ratio", "lower"),
    ("bounds.decoders", "count", "lower"),
    ("bounds.lp_calls", "count", "lower"),
    ("bounds.pruned_ratio", "ratio", "higher"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.local_bound_ms", "ms", "lower"),
    ("expdata.load_ms", "ms", "lower"),
    ("expdata.fit_ms", "ms", "lower"),
    ("expdata.secondary_ms", "ms", "lower"),
    ("expdata.mc_s", "s", "lower"),
    ("expdata.mc_sample_ms", "ms", "lower"),
    ("expdata.mc_lp_share", "ratio", "lower"),
    ("games.performance_us", "us", "lower"),
    ("games.behavior_from_quantum_us", "us", "lower"),
    ("games.residual_quantum_us", "us", "lower"),
    ("games.calls", "count", "lower"),
    ("qmath.density_matrix_us", "us", "lower"),
    ("qmath.povm_us", "us", "lower"),
    ("qmath.constructor_calls", "count", "lower"),
    ("bellmap.load_box_us", "us", "lower"),
    ("bellmap.strategy_from_box_us", "us", "lower"),
    ("bellmap.game_from_bell_us", "us", "lower"),
    ("bellmap.bell_value_us", "us", "lower"),
    ("cglmp.a3_quantum_us", "us", "lower"),
    ("cglmp.game_strategy_us", "us", "lower"),
    ("cglmp.optimal_box_us", "us", "lower"),
    *[(f"cli.{key}_ms", "ms", "lower") for key in CLI_LINES],
    ("cli.overhead_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.count_mismatches", "count", "lower"),
]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def determinism(tracer, op: int, repeat: int) -> dict:
    """Counts of ``op`` and of its repeat on the same input, and the keys that differ."""

    def counts(o):
        c = {k: v for k, v in tracer.counts(o).items() if k in DETERMINISTIC}
        notes = [v for i, v in tracer.notes.items() if tracer.ops[i] == o]
        c["optimizer.iterations"] = sum(n.get("iterations", 0) for n in notes)
        c["bounds.decoders"] = sum(n.get("decoders", 0) for n in notes)
        return c

    first, second = counts(op), counts(repeat)
    keys = sorted(set(first) | set(second))
    return {
        "counts": first,
        "mismatches": [k for k in keys if first.get(k) != second.get(k)],
    }


def per_layer(tracer, ops, untraced_s, traced_s, curve, samples, mismatches) -> dict:
    """Every ``PER_LAYER`` metric from the spans of operations ``ops``.

    Counts come from the first operation alone, so two traced runs of one
    seed report the same counts however many operations each fitted in.
    """
    ops = set(ops)
    n_ops = max(len(ops), 1)
    first = {min(ops)} if ops else set()
    dur = tracer.durations()
    self_t = tracer.self_times()

    def sel(name, under=None):
        return tracer.select(name, ops, under)

    def total(name, under=None):
        return sum(dur[i] for i in sel(name, under))

    def count(name, under=None):
        return len(tracer.select(name, first, under))

    def med(name, scale, under=None):
        return _median([dur[i] * scale for i in tracer.select(name, None, under)])

    out = {}
    for p in PHASES:
        ph = "phase." + p
        restarts = sel("optimizer.restart", ph)
        notes = [tracer.notes.get(i, {}) for i in tracer.select("optimizer.restart", first, ph)]
        feasible = count("optimizer.feasible", ph)
        phase_s = total(ph)
        out[f"optimizer.restart_s.{p}"] = _median([dur[i] for i in restarts])
        out[f"optimizer.iterations_per_restart.{p}"] = _ratio(
            sum(n.get("iterations", 0) for n in notes), len(notes)
        )
        out[f"optimizer.max_iters_ratio.{p}"] = _ratio(
            sum(n.get("at_cap", 0) for n in notes), len(notes)
        )
        out[f"optimizer.feasible_calls.{p}"] = feasible
        out[f"optimizer.feasible_ms.{p}"] = med("optimizer.feasible", 1e3, ph)
        out[f"optimizer.sweeps_per_feasible.{p}"] = _ratio(count("optimizer.psd", ph), feasible)
        out[f"optimizer.jrf_calls.{p}"] = count("optimizer.jrf", ph)
        out[f"optimizer.jrf_ms.{p}"] = med("optimizer.jrf", 1e3, ph)
        out[f"optimizer.projection_share.{p}"] = _ratio(total("optimizer.feasible", ph), phase_s)
        out[f"optimizer.jrf_share.{p}"] = _ratio(total("optimizer.jrf", ph), phase_s)
    points = {pt["cap"]: pt for pt in curve}
    for cap in CURVE_CAPS:
        out[f"optimizer.curve_s.cap{cap}"] = points[cap]["s"] if cap in points else 0.0
        out[f"optimizer.curve_value.cap{cap}"] = points[cap]["value"] if cap in points else 0.0

    op_s = total("op")
    solves = sel("lp.solve")
    out["lp.solve_calls"] = count("lp.solve")
    out["lp.solve_ms"] = _median([dur[i] * 1e3 for i in solves])
    out["lp.solve_ms_p95"] = nearest_rank([dur[i] * 1e3 for i in solves], 95)
    out["lp.pivots_per_solve"] = _ratio(count("lp.pivot"), count("lp.solve"))
    out["lp.share"] = _ratio(sum(dur[i] for i in solves), op_s)

    oracles = tracer.select("bounds.oracle", first)
    decoders = sum(tracer.notes.get(i, {}).get("decoders", 0) for i in oracles)
    oracle_lps = count("lp.solve", "bounds.oracle")
    out["bounds.decoders"] = decoders
    out["bounds.lp_calls"] = oracle_lps
    out["bounds.pruned_ratio"] = _ratio(decoders - oracle_lps, decoders)
    out["bounds.self_s"] = (total("bounds.oracle") - total("lp.solve", "bounds.oracle")) / n_ops
    out["bounds.local_bound_ms"] = med("bounds.local_bound", 1e3)

    mc_s = med("expdata.mc_uncertainty", 1.0)
    out["expdata.load_ms"] = med("expdata.load_primary", 1e3)
    out["expdata.fit_ms"] = med("expdata.fit_label_mapping", 1e3)
    out["expdata.secondary_ms"] = med("expdata.secondary_data", 1e3)
    out["expdata.mc_s"] = mc_s
    out["expdata.mc_sample_ms"] = _ratio(mc_s * 1e3, samples)
    out["expdata.mc_lp_share"] = _ratio(
        total("lp.solve", "expdata.mc_uncertainty"), total("expdata.mc_uncertainty")
    )

    game_fns = ("performance", "behavior_from_quantum", "residual_quantum", "residual_behavior")
    out["games.performance_us"] = med("games.performance", 1e6)
    out["games.behavior_from_quantum_us"] = med("games.behavior_from_quantum", 1e6)
    out["games.residual_quantum_us"] = med("games.residual_quantum", 1e6)
    out["games.calls"] = sum(count("games." + f) for f in game_fns)

    out["qmath.density_matrix_us"] = med("qmath.DensityMatrix", 1e6)
    out["qmath.povm_us"] = med("qmath.Povm", 1e6)
    out["qmath.constructor_calls"] = count("qmath.DensityMatrix") + count("qmath.Povm")

    for fn in ("load_box", "strategy_from_box", "game_from_bell", "bell_value"):
        out[f"bellmap.{fn}_us"] = med("bellmap." + fn, 1e6)
    for fn in ("a3_quantum", "game_strategy", "optimal_box"):
        out[f"cglmp.{fn}_us"] = med("cglmp." + fn, 1e6)

    for key in CLI_LINES:
        out[f"cli.{key}_ms"] = med("cli.run", 1e3, "line." + key)
    overhead = {}
    for i in sel("cli.run"):
        overhead[tracer.ops[i]] = overhead.get(tracer.ops[i], 0.0) + self_t[i]
    out["cli.overhead_ms"] = _median([v * 1e3 for v in overhead.values()])

    base = _median(untraced_s)
    out["trace.overhead_s"] = _median(traced_s) - base
    out["trace.overhead_share"] = _ratio(out["trace.overhead_s"], base)
    out["trace.count_mismatches"] = float(mismatches)
    assert list(out) == [name for name, _, _ in PER_LAYER]
    return out
