"""Alternating heuristic search for quantum values of oblivious games.

Each restart alternates two steps:

* measurements: for fixed preparations, each receiver measurement is
  improved by the Jezek-Rehacek-Fiurasek fixed-point exchange on the effect
  operators, warm-started from the current POVM (completeness is preserved
  by construction); the candidate is only accepted when it increases the
  objective.  Before every exchange the step forms the Holevo /
  Yuen-Kennedy-Lax certificate ``Y = herm(sum_b G_b M_b)`` and
  ``lam = max(0, max_b lambda_max(G_b - Y))``: since ``G_b <= Y + lam I``
  for every outcome, ``Tr Y + d lam`` bounds the score of every POVM, and
  the exchange stops once that bound exceeds the current score by less
  than the acceptance margin, so an optimal measurement is left as it is.
* preparations: the objective is linear in the preparation operators, so a
  plain gradient step is taken and the trial is projected back onto the
  feasible set by alternating an exact affine projection (trace one plus all
  obliviousness equalities, which factor over the input index) with the
  eigenvalue-simplex projection onto unit-trace positive matrices.  The
  alternation is Anderson-mixed (Walker and Ni, SIAM J. Numer. Anal. 49,
  1715 (2011)): each sweep feeds the next eigenvalue projection a real
  least-squares combination of the last three affine outputs rather than
  the last one alone, and a mix that does not lower the residual falls back
  to a plain sweep.  Each sweep ends with the eigenvalue projection and the
  loop stops once that output's residual is below the tolerance, so the
  states returned are always positive with unit trace.

A restart ends at the first window boundary (every 30 iterations) where
either the value gained less than 1e-8 over the window (``"window"``) or the
preparation step stayed within two growth factors of its floor for the
whole window (``"stalled"``), and otherwise after ``max_iters`` iterations
(``"max_iters"``).  Both rules only truncate the path: a run stopped at
iteration ``n`` returns exactly what a run capped at ``max_iters=n`` returns.

Accepted values are non-decreasing within a restart, so results are honest
lower bounds on the quantum optimum; nothing here certifies optimality.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .games import (
    ObliviousGame,
    QuantumStrategy,
    behavior_from_quantum,
    obliviousness_residual_quantum,
    performance,
)
from .qmath import DensityMatrix, Povm

# Cap on the Jezek-Rehacek-Fiurasek steps of one call; the certificate
# usually ends a call after a few steps.
_JRF_MAX_STEPS = 60
_CONVERGENCE_WINDOW = 30
_CONVERGENCE_GAIN = 1e-8
_ACCEPT_MARGIN = 1e-14
_STEP_FLOOR = 1e-4
_STEP_GROW = 1.4
# From the floor the step can grow at most twice before a rejected trial
# sends it back: a window spent at or below this level is a stall.
_STALL_STEP = _STEP_FLOOR * _STEP_GROW**2
# Differences kept by the Anderson mixing of the feasibility projection.
_ANDERSON_MEMORY = 2


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    restarts: int = 64
    max_iters: int = 500
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("dim", "restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.dim > 8:
            raise ValueError("dimensions above 8 are not supported")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True, eq=False)
class SearchResult:
    value: float
    strategy: QuantumStrategy
    feasibility_residual: float
    iterations_used: int
    feasible: bool
    stop_reason: str
    restart_index: int = 0


def _null_projector(rows: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of the constraint rows."""
    n = rows.shape[1]
    if rows.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12 * s[0]))
    null_basis = vt[rank:]
    return null_basis.T @ null_basis


def _simplex_project(eigvals: np.ndarray) -> np.ndarray:
    """Rowwise Euclidean projection onto the probability simplex.

    With the values sorted in decreasing order, the partial means
    ``(u_1 + ... + u_k - 1) / k`` rise up to the support size of the
    projection and fall after it, so the threshold is their maximum.
    """
    u = np.sort(eigvals, axis=-1)[..., ::-1]
    ks = np.arange(1, eigvals.shape[-1] + 1)
    tau = np.max((np.cumsum(u, axis=-1) - 1.0) / ks, axis=-1)
    return np.clip(eigvals - tau[..., None], 0.0, None)


class _Projector:
    """Alternating projection onto {trace one, oblivious} intersect PSD."""

    def __init__(self, game: ObliviousGame, dim: int):
        self.rows = game.constraint_rows()
        self.null_p = _null_projector(self.rows)
        self.dim = dim
        self.eye = np.eye(dim)

    def affine(self, rhos: np.ndarray) -> np.ndarray:
        # The obliviousness rows annihilate constant trace shifts, so the
        # exact projection splits: project every entry along the input index,
        # then pin every trace back to one.
        out = (self.null_p @ rhos.reshape(len(rhos), -1)).reshape(rhos.shape)
        traces = np.trace(out, axis1=1, axis2=2).real
        return out + ((1.0 - traces) / self.dim)[:, None, None] * self.eye

    def psd(self, rhos: np.ndarray) -> np.ndarray:
        herm = (rhos + np.conj(np.swapaxes(rhos, 1, 2))) / 2
        w, v = np.linalg.eigh(herm)
        return (v * _simplex_project(w)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))

    def residual(self, rhos: np.ndarray) -> float:
        if self.rows.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(self.rows @ rhos.reshape(len(rhos), -1))))

    def feasible(self, rhos: np.ndarray, tol: float, max_sweeps: int = 200) -> np.ndarray:
        """Anderson-mixed alternating projection.

        Iterates the map ``affine(psd(.))`` and mixes its last outputs with
        real least-squares coefficients over the stacked real and imaginary
        parts, so every iterate stays Hermitian.  The returned states are a
        ``psd`` output, the first whose residual is below ``tol`` or the one
        after ``max_sweeps`` sweeps.  A mixed step that does not lower the
        residual clears the history, so the next step is a plain sweep.
        """
        y = self.affine(rhos)
        fs, gs = [], []
        last = math.inf
        for _ in range(max_sweeps):
            out = self.psd(y)
            res = self.residual(out)
            if res < tol:
                break
            if res >= last:
                fs, gs = [], []
            last = res
            g = self.affine(out).reshape(-1).view(float)
            f = g - y.reshape(-1).view(float)
            if fs:
                gamma = np.linalg.lstsq(f[:, None] - np.array(fs).T, f, rcond=None)[0]
                mixed = g - (g[:, None] - np.array(gs).T) @ gamma
            else:
                mixed = g
            fs = [f, *fs][:_ANDERSON_MEMORY]
            gs = [g, *gs][:_ANDERSON_MEMORY]
            y = mixed.view(complex).reshape(rhos.shape)
        return out


def _objective(weighted: np.ndarray, rhos: np.ndarray, effects: np.ndarray) -> float:
    return float(np.einsum("xyb,ybij,xji->", weighted, effects, rhos).real)


def _complete(parts: np.ndarray) -> np.ndarray:
    """Rescale positive operators so that they sum to the identity.

    With ``L = sum_b parts_b``, each part becomes ``L^-1/2 parts_b L^-1/2``
    with the pseudo-inverse square root restricted to the support of ``L``;
    the complement of that support is shared uniformly over the outcomes so
    completeness holds on the full space.
    """
    total = parts.sum(axis=0)
    w, v = np.linalg.eigh((total + total.conj().T) / 2)
    support = w > max(float(w.max()), 1.0) * 1e-12
    vs = v[:, support]
    inv_sqrt = (vs / np.sqrt(w[support])) @ vs.conj().T
    complement = np.eye(total.shape[0]) - vs @ vs.conj().T
    out = np.einsum("ij,bjk,kl->bil", inv_sqrt, parts, inv_sqrt) + complement / len(parts)
    return (out + np.conj(np.swapaxes(out, 1, 2))) / 2


def _normalize_povm(effects: np.ndarray) -> np.ndarray:
    """Clip effects to the positive cone and complete them to a POVM."""
    effects = (effects + np.conj(np.swapaxes(effects, 1, 2))) / 2
    w, v = np.linalg.eigh(effects)
    return _complete(np.einsum("bik,bk,bjk->bij", v, np.clip(w, 0.0, None), np.conj(v)))


def _score(gram: np.ndarray, effects: np.ndarray) -> float:
    return float(np.einsum("bij,bji->", effects, gram).real)


def _certificate_gap(gram: np.ndarray, effects: np.ndarray, current: float) -> float:
    """How far ``Tr(Y + lam I)`` lies above the score ``current`` of ``effects``.

    With ``Y = herm(sum_b G_b M_b)`` and ``lam = max(0, max_b lambda_max(G_b - Y))``
    every ``G_b`` is below ``Y + lam I``, so ``Tr(Y) + d lam`` bounds
    ``sum_b Tr(G_b N_b)`` for every POVM ``N`` (Holevo; Yuen, Kennedy and
    Lax).  The gap is zero exactly when ``effects`` is optimal.
    """
    y_op = np.einsum("bij,bjk->ik", gram, effects)
    y_op = (y_op + y_op.conj().T) / 2
    lam = max(0.0, float(np.linalg.eigvalsh(gram - y_op).max()))
    return float(np.trace(y_op).real) + gram.shape[-1] * lam - current


def _jrf_update(gram: np.ndarray, effects: np.ndarray, max_steps: int) -> np.ndarray:
    """Fixed-point iteration M_b <- L^-1/2 G_b M_b G_b L^-1/2 on shifted scores.

    ``gram`` holds one positive score operator per outcome; adding a common
    multiple of the identity to all of them shifts the objective by a
    constant, so the operators are shifted positive first.  Every step
    completes the effects to a POVM.  Before every step the certificate is
    formed, and the iteration stops once its gap is below the acceptance
    margin or after ``max_steps`` steps; the last iterate is returned, which
    is ``effects`` itself when no step was taken.
    """
    shift = min(0.0, float(np.linalg.eigvalsh(gram).min()))
    g = gram - (shift - 1e-9) * np.eye(gram.shape[-1])
    m = effects
    for _ in range(max_steps):
        if _certificate_gap(gram, m, _score(gram, m)) < _ACCEPT_MARGIN:
            break
        m = _complete(np.einsum("bij,bjk,bkl->bil", g, m, g))
    return m


def _random_rhos(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    kets = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return np.einsum("xi,xj->xij", kets, np.conj(kets))


def _random_povm(rng: np.random.Generator, n_out: int, dim: int) -> np.ndarray:
    g = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
    effects = np.einsum("bij,bkj->bik", g, np.conj(g))
    return _normalize_povm(effects)


def _strategy_arrays(strategy: QuantumStrategy):
    rhos = np.stack([p.matrix for p in strategy.preparations])
    effects = [np.stack(m.elements) for m in strategy.measurements]
    return rhos, effects


def _run_restart(game, cfg, weighted, projector, restart, initial):
    rng = np.random.default_rng([cfg.seed, restart])
    n_alice, n_bob, n_out = weighted.shape
    dim = cfg.dim

    if initial is not None and restart == 0:
        rhos, effect_list = _strategy_arrays(initial)
        effects = np.stack(effect_list)
        if rhos.shape[-1] != dim:
            raise ValueError("initial strategy dimension disagrees with the config")
    else:
        rhos = projector.feasible(_random_rhos(rng, n_alice, dim), cfg.tolerance / 10)
        effects = np.stack([_random_povm(rng, n_out, dim) for _ in range(n_bob)])

    value = _objective(weighted, rhos, effects)
    step = 0.5
    window_anchor = value
    window_peak_step = 0.0
    iterations = 0
    stop_reason = "max_iters"
    for it in range(cfg.max_iters):
        iterations = it + 1

        # Measurement step: one warm-started candidate per receiver input.
        for y in range(n_bob):
            gram = np.einsum("xb,xij->bij", weighted[:, y, :], rhos)
            gram = (gram + np.conj(np.swapaxes(gram, 1, 2))) / 2
            cand = _jrf_update(gram, effects[y], _JRF_MAX_STEPS)
            if _score(gram, cand) > _score(gram, effects[y]) + _ACCEPT_MARGIN:
                effects[y] = cand
        value = _objective(weighted, rhos, effects)

        # Preparation step: gradient ascent plus exact projection.
        grad = np.einsum("xyb,ybij->xij", weighted, effects)
        grad = (grad + np.conj(np.swapaxes(grad, 1, 2))) / 2
        for _ in range(4):
            window_peak_step = max(window_peak_step, step)
            trial = projector.feasible(rhos + step * grad, cfg.tolerance / 10)
            trial_val = _objective(weighted, trial, effects)
            if trial_val > value + _ACCEPT_MARGIN:
                rhos = trial
                value = trial_val
                step = min(step * _STEP_GROW, 16.0)
            else:
                step = max(step * 0.4, _STEP_FLOOR)

        if iterations % _CONVERGENCE_WINDOW == 0 and iterations < cfg.max_iters:
            if value - window_anchor < _CONVERGENCE_GAIN:
                stop_reason = "window"
                break
            if window_peak_step <= _STALL_STEP:
                stop_reason = "stalled"
                break
            window_anchor = value
            window_peak_step = 0.0

    # Final polish: land exactly inside the feasible set and report the value
    # of the strategy actually returned.
    rhos = projector.feasible(rhos, cfg.tolerance / 10, max_sweeps=500)
    preparations = tuple(DensityMatrix(_unit_trace(r)) for r in rhos)
    measurements = tuple(Povm(tuple(_normalize_povm(e))) for e in effects)
    strategy = QuantumStrategy(preparations, measurements)
    residual = obliviousness_residual_quantum(game, strategy)
    value = performance(game, behavior_from_quantum(strategy))
    return SearchResult(
        value=value,
        strategy=strategy,
        feasibility_residual=residual,
        iterations_used=iterations,
        feasible=residual < cfg.tolerance,
        stop_reason=stop_reason,
        restart_index=restart,
    )


def _unit_trace(rho: np.ndarray) -> np.ndarray:
    herm = (rho + rho.conj().T) / 2
    return herm / float(np.trace(herm).real)


def search(
    game: ObliviousGame,
    cfg: SearchConfig,
    initial: QuantumStrategy | None = None,
) -> SearchResult:
    """Best strategy over restarts; the value is a lower bound, never a claim.

    Restarts run in order and each ends on the first stop rule that fires
    (see the module docstring); ``SearchResult.stop_reason`` records which.
    The measurement step runs each exchange until the optimality
    certificate closes, so a measurement it already certifies costs one
    certificate and is left unchanged.  With a fixed seed the run is
    bit-reproducible, and the reduction (largest value among feasible
    restarts, ties broken by the lower restart index) is deterministic.
    """
    if not game.partitions:
        raise ValueError("game has no obliviousness families to respect")
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    projector = _Projector(game, cfg.dim)
    results = [
        _run_restart(game, cfg, weighted, projector, r, initial)
        for r in range(cfg.restarts)
    ]
    feasible = [r for r in results if r.feasible]
    pool = feasible if feasible else results
    return max(pool, key=lambda r: (r.value, -r.restart_index))
