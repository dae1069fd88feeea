"""Acceptance suite: every criterion as one test, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are fixed here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from oblivious_games import bellmap, bounds, cglmp, expdata, games, lp
from oblivious_games.optimizer import SearchConfig, search
from slack_form import with_upper_bounds

A3 = (3 + np.sqrt(33)) / 12


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_quantum_value():
    with Timer() as t:
        closed = cglmp.a3_quantum()
        game = games.make_cglmp3_game()
        behavior = games.behavior_from_quantum(cglmp.game_strategy())
        pipeline = games.performance(game, behavior)
    ok = (
        abs(closed - A3) < 1e-12
        and abs(pipeline - A3) < 1e-10
        and t.elapsed < 1.0
    )
    _report(
        "criterion 1 (quantum value)",
        ok,
        f"closed form {closed:.15f}, matrix pipeline {pipeline:.15f}, "
        f"target {A3:.15f}, {t.elapsed:.2f}s",
    )


def test_criterion_2_obliviousness_by_construction():
    with Timer() as t:
        residual = games.obliviousness_residual_quantum(
            games.make_cglmp3_game(), cglmp.game_strategy()
        )
    ok = residual < 1e-12 and t.elapsed < 1.0
    _report(
        "criterion 2 (obliviousness by construction)",
        ok,
        f"operator residual {residual:.2e}, {t.elapsed:.2f}s",
    )


def test_criterion_3_classical_bounds():
    with Timer() as t:
        local = bounds.local_bound(bellmap.cglmp3()).value
        formulas = (
            bounds.rac_pnc_bound(2, 2),
            bounds.rac_pnc_bound(2, 3),
            bounds.rac_pnc_bound(3, 3),
        )
        oracle22 = bounds.pnc_bound_lp_oracle(games.make_rac_game(2, 2), 2).value
        oracle23 = bounds.pnc_bound_lp_oracle(games.make_rac_game(2, 3), 3).value
    ok = (
        local == 0.5
        and formulas == (3 / 4, 2 / 3, 5 / 9)
        and abs(oracle22 - 3 / 4) < 1e-9
        and abs(oracle23 - 2 / 3) < 1e-9
        and t.elapsed < 60.0
    )
    _report(
        "criterion 3 (classical bounds)",
        ok,
        f"local {local}, formulas {formulas}, oracle (2,2)={oracle22:.10f}, "
        f"(2,3)={oracle23:.10f}, {t.elapsed:.1f}s",
    )


def test_criterion_4_bell_game_identity():
    with Timer() as t:
        bell = bellmap.cglmp3()
        quantum = cglmp.optimal_box()
        rng = np.random.default_rng(424242)

        def identity_gap(box):
            p_g, behavior = bellmap.strategy_from_box(box)
            game = bellmap.game_from_bell(bell, p_g)
            return abs(games.performance(game, behavior) - bellmap.bell_value(bell, box))

        gaps = [identity_gap(quantum)]
        det_tables = []
        for f in product(range(3), repeat=2):
            for g in product(range(3), repeat=2):
                table = np.zeros((2, 2, 3, 3))
                for X in range(2):
                    for Y in range(2):
                        table[X, Y, f[X], g[Y]] = 1.0
                det_tables.append(table)
        for _ in range(20):
            idx = rng.choice(len(det_tables), size=4, replace=False)
            weights = rng.dirichlet(np.ones(5))
            table = weights[0] * quantum.table
            for w, i in zip(weights[1:], idx):
                table = table + w * det_tables[i]
            gaps.append(identity_gap(bellmap.NoSignalingBox(table)))
    worst = max(gaps)
    ok = worst < 1e-12 and t.elapsed < 5.0
    _report(
        "criterion 4 (game value reproduces Bell value)",
        ok,
        f"worst |I_g - I_b| = {worst:.2e} over {len(gaps)} boxes, {t.elapsed:.1f}s",
    )


def test_criterion_5_experimental_reproduction(data_dir):
    with Timer() as t:
        data = expdata.load_primary(data_dir / "table2.csv")
        mapping = expdata.pinned_mapping()
        primary = expdata.a3_primary(data, mapping)
        sec = expdata.secondary_data(data, mapping)
        secondary = expdata.a3_secondary(sec, mapping)
        residual = sec.constraint_residual()
    ok = (
        abs(primary - 0.7172) < 2e-3
        and abs(sec.s - 0.9938) < 1e-3
        and abs(secondary - 0.7118) < 1e-3
        and residual < 1e-8
        and t.elapsed < 10.0
    )
    _report(
        "criterion 5 (experimental reproduction)",
        ok,
        f"primary {primary:.4f} (ref 0.7172), S {sec.s:.4f} (ref 0.9938), "
        f"secondary {secondary:.4f} (ref 0.7118), residual {residual:.1e}, "
        f"{t.elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_6_optimizer_certification():
    with Timer() as t:
        cfg = SearchConfig(dim=4, restarts=64, max_iters=500, seed=0, tolerance=1e-8)
        result = search(games.make_rac_game(2, 3), cfg)
    gate = result.value >= 0.677 and result.feasibility_residual < 1e-8
    goal = abs(result.value - 0.6875) < 1e-2
    ok = gate and t.elapsed < 600.0
    _report(
        "criterion 6 (optimizer certification)",
        ok,
        f"best value {result.value:.6f} (gate 0.677, goal 0.6875 "
        f"{'met' if goal else 'missed'}), residual "
        f"{result.feasibility_residual:.1e}, restart {result.restart_index}, "
        f"{t.elapsed:.0f}s",
    )


def test_criterion_7_property_suites():
    from oblivious_games.qmath import DensityMatrix, Povm

    with Timer() as t:
        rng = np.random.default_rng(7)
        # 1000 random valid instances must construct
        valid = 0
        for _ in range(500):
            dim = int(rng.integers(2, 6))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            DensityMatrix(m / np.trace(m).real)
            valid += 1
            n_out = int(rng.integers(2, 5))
            e = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
            effects = np.einsum("bij,bkj->bik", e, np.conj(e))
            total = effects.sum(axis=0)
            w, v = np.linalg.eigh(total)
            inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
            effects = np.einsum("ij,bjk,kl->bil", inv_sqrt, effects, inv_sqrt)
            Povm(tuple((x + x.conj().T) / 2 for x in effects))
            valid += 1

        # 100 crafted invalid instances must be rejected
        rejected = 0
        for i in range(100):
            dim = int(rng.integers(2, 5))
            kind = i % 5
            try:
                if kind == 0:  # wrong trace
                    DensityMatrix(2.0 * np.eye(dim) / dim)
                elif kind == 1:  # not Hermitian
                    m = np.eye(dim, dtype=complex) / dim
                    m[0, -1] += 0.3
                    DensityMatrix(m)
                elif kind == 2:  # negative eigenvalue
                    w = np.zeros(dim)
                    w[0] = 1.2
                    w[1] = -0.2
                    DensityMatrix(np.diag(w))
                elif kind == 3:  # incomplete measurement
                    Povm(tuple(np.eye(dim) / (dim + 1) for _ in range(dim)))
                else:  # non-positive effect
                    Povm((np.diag([1.5] + [1.0] * (dim - 1)), np.diag([-0.5] + [0.0] * (dim - 1))))
            except ValueError:
                rejected += 1

        # solver determinism and feasibility invariants
        rng2 = np.random.default_rng(8)
        a = rng2.normal(size=(4, 10))
        b = a @ (rng2.random(10) + 0.1)
        c = rng2.normal(size=10)
        prog = with_upper_bounds(c, a, b, np.full(10, 8.0))
        s1, s2 = lp.solve(prog), lp.solve(prog)
        lp_ok = (
            s1.status == "optimal"
            and s1.objective_value == s2.objective_value
            and np.max(np.abs(a @ s1.values[:10] - b)) < 1e-8
        )

        # performance linearity
        game = games.make_cglmp3_game()
        t1 = rng.random((6, 2, 3))
        t2 = rng.random((6, 2, 3))
        p = games.Behavior(t1 / t1.sum(axis=2, keepdims=True))
        q = games.Behavior(t2 / t2.sum(axis=2, keepdims=True))
        lam = 0.3173
        mix = games.Behavior(lam * p.table + (1 - lam) * q.table)
        lin_gap = abs(
            games.performance(game, mix)
            - lam * games.performance(game, p)
            - (1 - lam) * games.performance(game, q)
        )

        # closed form vs matrix oracle over all 36 cells
        behavior = games.behavior_from_quantum(cglmp.game_strategy())
        cf_gap = max(
            abs(behavior.table[i, y, b] - cglmp.closed_form_prob(x0, x, y, b))
            for i, (x0, x) in enumerate(game.alice_inputs)
            for y in range(2)
            for b in range(3)
        )
    ok = (
        valid == 1000
        and rejected == 100
        and lp_ok
        and lin_gap < 1e-12
        and cf_gap < 1e-12
    )
    _report(
        "criterion 7 (property suites)",
        ok,
        f"{valid}/1000 valid accepted, {rejected}/100 invalid rejected, "
        f"LP deterministic+feasible {lp_ok}, linearity gap {lin_gap:.1e}, "
        f"closed-form gap {cf_gap:.1e}, {t.elapsed:.1f}s",
    )
