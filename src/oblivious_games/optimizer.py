"""Alternating heuristic search for quantum values of oblivious games.

All restarts run as one stack in lockstep: every array carries a leading
restart axis, so one numpy call serves every running restart, and a restart
leaves the stack when its stop rule fires.  Each restart alternates two
steps:

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

The measurement step solves every (restart, receiver input) problem of the
stack in one call, each stopping on its own certificate, and the projection
stops each restart on its own residual with its own mixing history, so a
restart follows the path it would follow alone, up to rounding.

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
    check_integer,
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
# Differences kept by the Anderson mixing of the feasibility projection;
# ``_mixing_weights`` solves for exactly two.
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
            check_integer(getattr(self, name), name)
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.dim > 8:
            raise ValueError("dimensions above 8 are not supported")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if check_integer(self.seed, "seed") < 0:
            raise ValueError(f"seed {self.seed!r} is negative")
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real):
            raise ValueError(f"tolerance {self.tolerance!r} is not a real number")
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
    # One record per restart, in restart order.
    per_restart: tuple = ()


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of a search ended."""

    value: float
    iterations_used: int
    stop_reason: str
    feasibility_residual: float
    feasible: bool


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

    Each row must be sorted in increasing order, as ``eigh`` returns it.
    With the values in decreasing order, the partial means
    ``(u_1 + ... + u_k - 1) / k`` rise up to the support size of the
    projection and fall after it, so the threshold is their maximum.
    """
    u = eigvals[..., ::-1]
    ks = np.arange(1, eigvals.shape[-1] + 1)
    tau = np.max((np.cumsum(u, axis=-1) - 1.0) / ks, axis=-1)
    return np.clip(eigvals - tau[..., None], 0.0, None)


class _Projector:
    """Alternating projection onto {trace one, oblivious} intersect PSD.

    Every method takes states of shape ``(..., n, d, d)``: the leading axes
    hold a stack of restarts, and one ``(n, d, d)`` set is the stack of one.
    """

    def __init__(self, game: ObliviousGame, dim: int):
        self.rows = game.constraint_rows()
        self.null_p = _null_projector(self.rows)
        self.dim = dim
        self.eye = np.eye(dim)

    def affine(self, rhos: np.ndarray) -> np.ndarray:
        # The obliviousness rows annihilate constant trace shifts, so the
        # exact projection splits: project every entry along the input index,
        # then pin every trace back to one.
        out = (self.null_p @ rhos.reshape(*rhos.shape[:-2], -1)).reshape(rhos.shape)
        traces = np.trace(out, axis1=-2, axis2=-1).real
        return out + ((1.0 - traces) / self.dim)[..., None, None] * self.eye

    def psd(self, rhos: np.ndarray) -> np.ndarray:
        herm = (rhos + np.conj(np.swapaxes(rhos, -1, -2))) / 2
        w, v = np.linalg.eigh(herm)
        return (v * _simplex_project(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))

    def residual(self, rhos: np.ndarray):
        """Largest constraint violation of each set in the stack."""
        if self.rows.shape[0] == 0:
            return np.zeros(rhos.shape[:-3])[()]
        flat = rhos.reshape(*rhos.shape[:-2], -1)
        return np.max(np.abs(self.rows @ flat), axis=(-2, -1))

    def feasible(self, rhos: np.ndarray, tol: float, max_sweeps: int = 200) -> np.ndarray:
        """Anderson-mixed alternating projection, on each set of the stack.

        Iterates the map ``affine(psd(.))`` and mixes its last outputs with
        real least-squares coefficients over the stacked real and imaginary
        parts, so every iterate stays Hermitian.  Each set returns a ``psd``
        output, the first whose residual is below ``tol`` or the one after
        ``max_sweeps`` sweeps, and leaves the stack there.  A mixed step that
        does not lower a set's residual clears that set's history, so its
        next step is a plain sweep.  The sets share nothing but the calls:
        each one ends where it would end alone, up to rounding.
        """
        shape = rhos.shape
        stack = rhos.reshape(-1, *shape[-3:])
        out = np.empty_like(stack)
        index = np.arange(len(stack))
        y = self.affine(stack)
        size = y[0].size * 2
        # Newest first; a set's slots past ``filled`` are empty.
        hist_f = np.zeros((len(stack), _ANDERSON_MEMORY, size))
        hist_g = np.zeros_like(hist_f)
        filled = np.zeros(len(stack), dtype=int)
        last = np.full(len(stack), math.inf)
        slots = np.arange(_ANDERSON_MEMORY)
        for _ in range(max_sweeps):
            sweep = self.psd(y)
            res = self.residual(sweep)
            going = res >= tol
            if not going.all():
                out[index[~going]] = sweep[~going]
                index, y, sweep, res, hist_f, hist_g, filled, last = (
                    a[going] for a in (index, y, sweep, res, hist_f, hist_g, filled, last)
                )
                if not index.size:
                    return out.reshape(shape)
            filled[res >= last] = 0
            last = res
            g = self.affine(sweep).reshape(len(index), -1).view(float)
            f = g - y.reshape(len(index), -1).view(float)
            gamma = _mixing_weights(f[:, None, :] - hist_f, f, slots < filled[:, None])
            mixed = g - (gamma[:, None, :] @ (g[:, None, :] - hist_g))[:, 0]
            hist_f = np.concatenate([f[:, None], hist_f[:, :-1]], axis=1)
            hist_g = np.concatenate([g[:, None], hist_g[:, :-1]], axis=1)
            filled = np.minimum(filled + 1, _ANDERSON_MEMORY)
            y = mixed.view(complex).reshape(sweep.shape)
        out[index] = sweep
        return out.reshape(shape)


def _mixing_weights(a: np.ndarray, f: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Least-squares ``gamma`` minimizing ``|f - gamma . a|`` for each stack entry.

    ``a`` holds the two history differences, newest first, and ``used``
    marks the slots in use; an empty slot gets weight zero.  The 2x2 normal
    equations are solved in closed form.  Where the two differences are
    parallel to within 1e-12 in the squared sine of their angle, or only
    one is in use, the newest is used alone.
    """
    x = np.concatenate([a * used[..., None], f[:, None]], axis=1)
    gram = x @ np.swapaxes(x, 1, 2)
    a00, a01, a11 = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    b0, b1 = gram[:, 0, 2], gram[:, 1, 2]
    det = a00 * a11 - a01 * a01
    pair = det > 1e-12 * a00 * a11
    num0 = np.where(pair, a11 * b0 - a01 * b1, b0)
    num1 = np.where(pair, a00 * b1 - a01 * b0, 0.0)
    den = np.where(pair, det, a00)
    num = np.stack([num0, num1], axis=1)
    return num / np.where(den > 0.0, den, np.inf)[:, None]


def _objective(weighted: np.ndarray, rhos: np.ndarray, effects: np.ndarray):
    return np.einsum("xyb,...ybij,...xji->...", weighted, effects, rhos).real


def _herm(ops: np.ndarray) -> np.ndarray:
    return (ops + np.conj(np.swapaxes(ops, -1, -2))) / 2


def _complete(parts: np.ndarray) -> np.ndarray:
    """Rescale positive operators so that they sum to the identity.

    ``parts`` has shape ``(..., outcomes, d, d)``, one problem per leading
    index.  With ``L = sum_b parts_b``, each part becomes
    ``L^-1/2 parts_b L^-1/2`` with the pseudo-inverse square root restricted
    to the support of ``L``; the complement of that support is shared
    uniformly over the outcomes so completeness holds on the full space.
    """
    w, v = np.linalg.eigh(_herm(parts.sum(axis=-3)))
    support = w > np.maximum(w.max(axis=-1, keepdims=True), 1.0) * 1e-12
    vh = np.conj(np.swapaxes(v, -1, -2))
    scale = np.where(support, 1.0 / np.sqrt(np.where(support, w, 1.0)), 0.0)
    inv_sqrt = ((v * scale[..., None, :]) @ vh)[..., None, :, :]
    complement = np.eye(w.shape[-1]) - (v * support[..., None, :]) @ vh
    out = inv_sqrt @ parts @ inv_sqrt + complement[..., None, :, :] / parts.shape[-3]
    return _herm(out)


def _normalize_povm(effects: np.ndarray) -> np.ndarray:
    """Clip effects to the positive cone and complete them to a POVM."""
    w, v = np.linalg.eigh(_herm(effects))
    clipped = v * np.clip(w, 0.0, None)[..., None, :]
    return _complete(clipped @ np.conj(np.swapaxes(v, -1, -2)))


def _score(gram: np.ndarray, effects: np.ndarray):
    return np.einsum("...bij,...bji->...", effects, gram).real


def _certificate_gap(gram: np.ndarray, effects: np.ndarray, current):
    """How far ``Tr(Y + lam I)`` lies above the score ``current`` of ``effects``.

    With ``Y = herm(sum_b G_b M_b)`` and ``lam = max(0, max_b lambda_max(G_b - Y))``
    every ``G_b`` is below ``Y + lam I``, so ``Tr(Y) + d lam`` bounds
    ``sum_b Tr(G_b N_b)`` for every POVM ``N`` (Holevo; Yuen, Kennedy and
    Lax).  The gap is zero exactly when ``effects`` is optimal.  Leading axes
    of ``gram`` and ``effects`` hold a stack of problems.
    """
    y_op = _herm(np.einsum("...bij,...bjk->...ik", gram, effects))
    top = np.linalg.eigvalsh(gram - y_op[..., None, :, :]).max(axis=(-2, -1))
    lam = np.maximum(0.0, top)
    return np.trace(y_op, axis1=-2, axis2=-1).real + gram.shape[-1] * lam - current


def _jrf_update(gram: np.ndarray, effects: np.ndarray, max_steps: int) -> np.ndarray:
    """Fixed-point iteration M_b <- L^-1/2 G_b M_b G_b L^-1/2 on shifted scores.

    ``gram`` holds one positive score operator per outcome; adding a common
    multiple of the identity to all of them shifts the objective by a
    constant, so the operators are shifted positive first.  Every step
    completes the effects to a POVM.  Leading axes hold a stack of problems
    that step together: before every step each problem forms its
    certificate and leaves the stack once its gap is below the acceptance
    margin, and all stop after ``max_steps`` steps.  The last iterates are
    returned, which is ``effects`` itself when no problem took a step.
    """
    shape = effects.shape
    gram = gram.reshape(-1, *shape[-3:])
    shift = np.minimum(0.0, np.linalg.eigvalsh(gram).min(axis=(-2, -1)))
    g = gram - (shift - 1e-9)[:, None, None, None] * np.eye(shape[-1])
    m = effects.reshape(gram.shape)
    index = np.arange(len(gram))
    out = None
    for _ in range(max_steps):
        going = _certificate_gap(gram, m, _score(gram, m)) >= _ACCEPT_MARGIN
        if not going.all():
            index, gram, g, m = index[going], gram[going], g[going], m[going]
            if not index.size:
                break
        if out is None:
            out = effects.reshape(-1, *shape[-3:]).copy()
        m = _complete(g @ m @ g)
        out[index] = m
    return effects if out is None else out.reshape(shape)


def _random_rhos(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    kets = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return np.einsum("xi,xj->xij", kets, np.conj(kets))


def _random_povm(rng: np.random.Generator, n_out: int, dim: int) -> np.ndarray:
    g = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
    effects = np.einsum("bij,bkj->bik", g, np.conj(g))
    return _normalize_povm(effects)


def _check_initial(game: ObliviousGame, cfg: SearchConfig, initial: QuantumStrategy) -> None:
    # A QuantumStrategy already has one dimension and one outcome count.
    checks = (
        (len(initial.preparations), game.n_alice, "preparations, the game has {} Alice inputs"),
        (len(initial.measurements), game.n_bob, "measurements, the game has {} Bob inputs"),
        (initial.n_outcomes, game.n_outcomes, "outcomes per measurement, the game has {}"),
    )
    for have, want, what in checks:
        if have != want:
            raise ValueError(f"initial strategy has {have} " + what.format(want))
    if initial.dim != cfg.dim:
        raise ValueError(f"initial strategy has dimension {initial.dim}, the config {cfg.dim}")


def _start(game, cfg, projector, initial):
    """The starting states and measurements of every restart, stacked.

    Restart ``r`` draws from its own generator, seeded ``[seed, r]``; the
    drawn states are projected as one stack.
    """
    d = cfg.dim
    rhos = np.empty((cfg.restarts, game.n_alice, d, d), dtype=complex)
    effects = np.empty((cfg.restarts, game.n_bob, game.n_outcomes, d, d), dtype=complex)
    first = 0
    if initial is not None:
        rhos[0] = [p.matrix for p in initial.preparations]
        effects[0] = [m.elements for m in initial.measurements]
        first = 1
    for restart in range(first, cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        rhos[restart] = _random_rhos(rng, game.n_alice, d)
        effects[restart] = [_random_povm(rng, game.n_outcomes, d) for _ in range(game.n_bob)]
    if first < cfg.restarts:
        rhos[first:] = projector.feasible(rhos[first:], cfg.tolerance / 10)
    return rhos, effects


def _ascend(weighted, projector, rhos, effects, cfg):
    """Run every restart of the stack until its stop rule fires.

    Returns the final states and measurements of each restart with its
    iteration count and stop reason.  The running restarts form their own
    stack, which sheds each restart as it stops.
    """
    tol = cfg.tolerance / 10
    restarts = len(rhos)
    iterations = np.full(restarts, cfg.max_iters)
    reasons = np.full(restarts, "max_iters", dtype=object)
    final_rhos, final_effects = rhos.copy(), effects.copy()
    index = np.arange(restarts)
    value = _objective(weighted, rhos, effects)
    step = np.full(restarts, 0.5)
    anchor = value
    peak = np.zeros(restarts)
    for it in range(1, cfg.max_iters + 1):
        # Measurement step: one warm-started candidate per receiver input.
        gram = _herm(np.einsum("xyb,rxij->rybij", weighted, rhos))
        cand = _jrf_update(gram, effects, _JRF_MAX_STEPS)
        if cand is not effects:
            better = _score(gram, cand) > _score(gram, effects) + _ACCEPT_MARGIN
            effects = np.where(better[..., None, None, None], cand, effects)
        value = _objective(weighted, rhos, effects)

        # Preparation step: gradient ascent plus exact projection.
        grad = _herm(np.einsum("xyb,rybij->rxij", weighted, effects))
        for _ in range(4):
            peak = np.maximum(peak, step)
            trial = projector.feasible(rhos + step[:, None, None, None] * grad, tol)
            trial_val = _objective(weighted, trial, effects)
            better = trial_val > value + _ACCEPT_MARGIN
            rhos = np.where(better[:, None, None, None], trial, rhos)
            value = np.where(better, trial_val, value)
            step = np.where(
                better, np.minimum(step * _STEP_GROW, 16.0), np.maximum(step * 0.4, _STEP_FLOOR)
            )

        if it % _CONVERGENCE_WINDOW == 0 and it < cfg.max_iters:
            window = value - anchor < _CONVERGENCE_GAIN
            stalled = ~window & (peak <= _STALL_STEP)
            stop = window | stalled
            if stop.any():
                done = index[stop]
                iterations[done] = it
                reasons[done] = np.where(window[stop], "window", "stalled")
                final_rhos[done], final_effects[done] = rhos[stop], effects[stop]
                index, rhos, effects, value, step = (
                    a[~stop] for a in (index, rhos, effects, value, step)
                )
                if not index.size:
                    break
            anchor = value
            peak = np.zeros(index.size)
    final_rhos[index], final_effects[index] = rhos, effects
    return final_rhos, final_effects, iterations, reasons


def _unit_trace(rho: np.ndarray) -> np.ndarray:
    herm = (rho + rho.conj().T) / 2
    return herm / float(np.trace(herm).real)


def search(
    game: ObliviousGame,
    cfg: SearchConfig,
    initial: QuantumStrategy | None = None,
) -> SearchResult:
    """Best strategy over restarts; the value is a lower bound, never a claim.

    All restarts run as one stack in lockstep, and each leaves the stack on
    the first stop rule that fires for it (see the module docstring);
    ``SearchResult.stop_reason`` records which, and ``per_restart`` keeps
    every restart's record.  Each restart draws from its own generator and
    follows the path it would follow alone, up to rounding.  The
    measurement step runs each exchange until the optimality certificate
    closes, so a measurement it already certifies costs one certificate and
    is left unchanged.  With a fixed seed the run is bit-reproducible, and
    the reduction (largest value among feasible restarts, ties broken by the
    lower restart index) is deterministic.
    """
    if not game.partitions:
        raise ValueError("game has no obliviousness families to respect")
    if initial is not None:
        _check_initial(game, cfg, initial)
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    projector = _Projector(game, cfg.dim)
    rhos, effects = _start(game, cfg, projector, initial)
    rhos, effects, iterations, reasons = _ascend(weighted, projector, rhos, effects, cfg)

    # Final polish: land exactly inside the feasible set and report the value
    # of the strategy actually returned.
    rhos = projector.feasible(rhos, cfg.tolerance / 10, max_sweeps=500)
    effects = _normalize_povm(effects)
    records, strategies = [], []
    for restart in range(cfg.restarts):
        preparations = tuple(DensityMatrix(_unit_trace(r)) for r in rhos[restart])
        measurements = tuple(Povm(tuple(e)) for e in effects[restart])
        strategy = QuantumStrategy(preparations, measurements)
        residual = obliviousness_residual_quantum(game, strategy)
        strategies.append(strategy)
        records.append(
            RestartRecord(
                value=performance(game, behavior_from_quantum(strategy)),
                iterations_used=int(iterations[restart]),
                stop_reason=str(reasons[restart]),
                feasibility_residual=residual,
                feasible=residual < cfg.tolerance,
            )
        )
    pool = [r for r in range(cfg.restarts) if records[r].feasible] or range(cfg.restarts)
    best = max(pool, key=lambda r: (records[r].value, -r))
    return SearchResult(
        value=records[best].value,
        strategy=strategies[best],
        feasibility_residual=records[best].feasibility_residual,
        iterations_used=records[best].iterations_used,
        feasible=records[best].feasible,
        stop_reason=records[best].stop_reason,
        restart_index=best,
        per_restart=tuple(records),
    )
