"""Seesaw search for quantum values of oblivious games.

All restarts run as one stack in lockstep: every array carries a leading
restart axis, so one numpy call serves every running restart, and a restart
leaves the stack when its stop rule fires.  Each restart alternates two
steps, each a convex program at the other half fixed, as in the
prepare-and-measure seesaw of Tavakoli, Kaniewski, Vertesi, Rosset and
Brunner (PRA 98, 062307 (2018)):

* measurements: for fixed preparations, each receiver measurement is
  improved by the Jezek-Rehacek-Fiurasek fixed-point exchange on the effect
  operators, warm-started from the current POVM (completeness is preserved
  by construction); the candidate is only accepted when it increases the
  objective.  Before every exchange the step forms the Holevo /
  Yuen-Kennedy-Lax certificate ``Y = herm(sum_b G_b M_b)`` and
  ``lam = max(0, max_b lambda_max(G_b - Y))``: since ``G_b <= Y + lam I``
  for every outcome, ``Tr Y + d lam`` bounds the score of every POVM, and
  the exchange stops once that bound exceeds the current score by no more
  than rounding of its terms, so an optimal measurement is left as it is.
* preparations: for fixed measurements, ``sum_x Tr(rho_x G_x)`` is
  maximised over unit-trace positive ``rho_x`` that meet the obliviousness
  equalities, by ADMM (Wen, Goldfarb and Yin, Math. Prog. Comp. 2, 203
  (2010)) built from the two projections of the feasible set: the exact
  affine projection (trace one plus all obliviousness equalities, which
  factor over the input index) and the eigenvalue-simplex projection onto
  unit-trace positive matrices.  The ADMM is Douglas-Rachford splitting
  of those two projections with the objective as a shift, and one routine,
  ``_Projector.douglas_rachford``, takes its steps.  It steps the running
  sets of a stack as a compacted stack of their own and writes a set back
  only at the step it leaves, and the affine projection holds its
  null-space projector as a complex matrix, so neither the gathers and
  scatters of the whole stack nor a cast is paid at every step.  The ADMM
  is over-relaxed (Eckstein and Bertsekas, Math. Prog. 55, 293 (1992)): its
  eigenvalue projection and dual update take ``1.7 X - 0.7 Z`` in place of
  the affine output ``X``, at penalty 0.15.  Its iterate and scaled dual
  carry over from one iteration to the next, each iteration takes at most
  15 steps, and a restart stops stepping once its primal and dual residuals
  are below 1e-10; new measurements change the objective, so they restart
  that count.  The iterate is then projected onto the feasible set by the
  same routine with no shift, and kept only when it raises the value.  Each
  sweep of that projection ends with the eigenvalue projection and the loop
  stops once that output's residual, the one ``feasibility_residual``
  reports, is below ``_TOLERANCE / 10``, so the states returned are always
  positive with unit trace.  The search's final polish projects every
  restart on to a residual below 1e-12, so a returned strategy cannot beat
  a noncontextual bound by more than rounding.

The measurement step solves every (restart, receiver input) problem of the
stack in one call, each stopping on its own certificate, the ADMM and the
projection step each restart on its own residuals, and every kernel gives a
problem the bits it gets alone, so a restart follows the path it would
follow alone, bit for bit, until it trails (below).
``RestartRecord.sweeps`` counts the eigenvalue projections a restart spent,
ADMM steps and projection sweeps together.

A restart stops on the first of four rules to fire (``STOP_REASONS``):
``"settled"`` at the first iteration it comes through with its states,
measurements and ADMM iterate bit for bit unchanged (no candidate accepted
and no ADMM step taken), since it would repeat that iteration until another
rule fired; ``"window"`` at the first window boundary (every 30 iterations
before the cap) where the value gained less than 1e-8 over the window;
``"trailing"`` at a race boundary (every 10 iterations before the cap, so
three per window) where the value plus the gain of the last 10 iterations,
once for each 10 iterations left before the cap, is still more than 1e-9
below the stack's best value, the highest of the running values at that
iteration and of the values restarts had when they stopped; and
``"max_iters"`` after ``max_iters`` iterations.  When two rules fire at one
iteration, the earlier in that list wins.  The trailing rule races the
restarts, as multi-start and bandit methods stop their losing arms early
(Rinnooy Kan and Timmer, Math. Prog. 39, 57 (1987); Li et al., JMLR 18, 185
(2018)).  It is a heuristic, not a bound: a restart's gain can grow again
after a slow stretch, so a trailing restart might have overtaken the best.
A search with one restart never trails.  The rules only truncate the path: a
run stopped at iteration ``n`` returns the strategy that a run capped at
``max_iters=n`` returns, and for a settled restart the same record too.  On
the (2,3) access code at dimension 4, of two restarts at seed 0 the second
settles at iteration 43 at 0.6875076, and the first trails at iteration 30
at 0.6860348, on its way to the local optimum 0.6860390; on the qutrit game,
over 8 restarts at each of seeds 0-29, every restart settles at iteration
7-11 within 4e-12 of (3+sqrt(33))/12, all but one before the first race
boundary.

Accepted values are non-decreasing within a restart, so results are honest
lower bounds on the quantum optimum; nothing here certifies optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    ObliviousGame,
    QuantumStrategy,
    behavior_from_quantum,
    check_integer,
    obliviousness_residual,
    obliviousness_residual_quantum,
    performance,
)

# Cap on the Jezek-Rehacek-Fiurasek steps of one call; the certificate
# usually ends a call after a few steps.
_JRF_MAX_STEPS = 60
_CONVERGENCE_WINDOW = 30
_CONVERGENCE_GAIN = 1e-8
# The restarts race on a shorter clock than the window rule: a restart trails
# when even its gain over the last race window, kept up to the cap, leaves it
# this far below the stack's best value.
_RACE_WINDOW = 10
_TRAILING_MARGIN = 1e-9
_ACCEPT_MARGIN = 1e-14
# A certificate gap is a difference of terms of size |Tr Y| + d lam + |score|,
# and at an optimal measurement it rounds to at most about 15 ulps of that
# size (random problems up to d = 5 with four outcomes): the exchange stops
# at four times that.
_GAP_ROUNDING = 64 * np.finfo(float).eps
# The preparation step's ADMM: its penalty, its over-relaxation, its steps per
# iteration, and the residual below which a restart's solve counts as
# converged.  Relaxed at 1.7 with penalty 0.15, 15 steps reach the values that
# 25 plain steps at penalty 0.2 reached, with 30 % fewer eigenvalue
# projections on the (2,3) access code at dimension 4 (BENCH_46.json).
_ADMM_SIGMA = 0.15
_ADMM_RELAX = 1.7
_ADMM_STEPS = 15
_ADMM_TOL = 1e-10
# A restart's strategy counts as feasible when its obliviousness residual is
# below this; the projections stop a tenth below it.
_TOLERANCE = 1e-8
# The final polish projects every returned strategy to this residual, so it
# cannot score above a noncontextual bound by more than rounding.
_POLISH_TOL = 1e-12
# The largest supported dimension, and the read-only constants the kernels
# slice to a dimension: the simplex projection's divisors 1..d and the identity.
_MAX_DIM = 8
_DIVISORS = np.arange(1.0, _MAX_DIM + 1)
_DIVISORS.setflags(write=False)
_IDENTITY = np.eye(_MAX_DIM)
_IDENTITY.setflags(write=False)


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    restarts: int = 64
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "restarts", "max_iters"):
            check_integer(getattr(self, name), name)
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.dim > _MAX_DIM:
            raise ValueError(f"dimensions above {_MAX_DIM} are not supported")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")
        if check_integer(self.seed, "seed") < 0:
            raise ValueError(f"seed {self.seed!r} is negative")


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


# The rules that can stop a restart, in the order they take precedence.
STOP_REASONS = ("settled", "window", "trailing", "max_iters")


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of a search ended.

    ``stop_reason`` is one of ``STOP_REASONS``: ``"settled"`` (an iteration
    changed nothing), ``"window"`` (too little gain over a 30-iteration
    window), ``"trailing"`` (at a 10-iteration race boundary, at the pace of
    its last 10 iterations it would end below the stack's best value) or
    ``"max_iters"`` (the cap), and ``iterations_used`` is the number of
    iterations the restart ran.
    """

    value: float
    iterations_used: int
    stop_reason: str
    feasibility_residual: float
    feasible: bool
    # PSD projections spent on the restart: its ADMM steps and the sweeps of
    # every ``feasible`` call on its states.
    sweeps: int
    # The restart's running value at each 30-iteration window boundary it
    # reached, the cap among them; race boundaries add none.
    window_values: tuple


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
    tau = ((u.cumsum(axis=-1) - 1.0) / _DIVISORS[: eigvals.shape[-1]]).max(axis=-1)
    return np.maximum(eigvals - tau[..., None], 0.0)


class _Projector:
    """Projections onto {trace one, oblivious} and onto unit-trace PSD, and a point of both.

    Every method takes states of shape ``(..., n, d, d)``: the leading axes
    hold a stack of restarts, and one ``(n, d, d)`` set is the stack of one.
    After each ``feasible`` call, ``sweeps`` holds the sweeps (``psd`` calls)
    each set took, with the stack's leading shape.  ``null_p``, the projector
    onto the null space of the obliviousness rows, is real but stored as a
    complex matrix, the type of the states it multiplies.
    """

    def __init__(self, game: ObliviousGame, dim: int):
        self.game = game
        # Complex once here, as the matmul with complex states would cast it
        # on every call.
        self.null_p = _null_projector(game.constraint_rows()).astype(complex)
        self.dim = dim

    def affine(self, rhos: np.ndarray) -> np.ndarray:
        # The obliviousness rows annihilate constant trace shifts, so the
        # exact projection splits: project every entry along the input index,
        # then pin every trace back to one, on the diagonal of the product
        # (every (d + 1)-th entry of a flattened matrix).
        flat = self.null_p @ rhos.reshape(*rhos.shape[:-2], -1)
        diagonal = flat[..., :: self.dim + 1]
        # The reduction ``np.trace`` makes, without its wrapper: bit-equal.
        traces = np.add.reduce(diagonal, axis=-1).real
        diagonal += ((1.0 - traces) / self.dim)[..., None]
        return flat.reshape(rhos.shape)

    def psd(self, rhos: np.ndarray) -> np.ndarray:
        """Nearest unit-trace positive matrices to Hermitian ``rhos``.

        ``eigh`` reads only the lower triangle, so no Hermitian part is taken.
        """
        w, v = np.linalg.eigh(rhos)
        return (v * _simplex_project(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)

    def residual(self, rhos: np.ndarray):
        """``obliviousness_residual`` of each set in the stack."""
        return obliviousness_residual(self.game, rhos)

    def douglas_rachford(self, z, u, res, tol, max_steps, residual, shift=None, relax=1.0):
        """Steps ``X = affine(Z - U + shift)``, ``Z+ = psd(X^ + U)``, ``U += X^ - Z+``.

        Douglas-Rachford splitting of the two projections (Lions and Mercier,
        SIAM J. Numer. Anal. 16, 964 (1979); Eckstein and Bertsekas, Math.
        Prog. 55, 293 (1992)); with the shift ``G / sigma`` it is the scaled
        ADMM on ``max sum_x Tr(rho_x G_x)`` over the feasible set.  The
        eigenvalue projection and the dual take the over-relaxed point
        ``X^ = relax X + (1 - relax) Z`` of Eckstein and Bertsekas, which is
        ``X`` itself at the default ``relax`` of 1; the residuals read ``X``.
        ``z``, ``u`` and ``res`` hold a stack of sets and are updated in place.
        Only sets whose ``res`` is at least ``tol`` step, and each step sets
        ``res`` to ``residual(X, Z, Z+)``, so a set leaves once it falls below
        ``tol`` or after ``max_steps`` steps, where it would leave alone.
        Returns the steps each set took.

        The running sets step as their own compacted stack, with their slice
        of ``shift``: a set's ``Z``, ``U``, residual and step count are written
        back to ``z``, ``u``, ``res`` and the returned steps at the step it
        leaves, and those of the sets still running once the steps run out.
        """
        steps = np.zeros(len(z), dtype=int)
        index = np.flatnonzero(res >= tol)
        zs, us, r = z[index], u[index], res[index]
        if shift is not None:
            shift = shift[index]
        for step in range(1, max_steps + 1):
            if not index.size:
                break
            x = self.affine(zs - us if shift is None else zs - us + shift)
            x_hat = x if relax == 1.0 else relax * x + (1.0 - relax) * zs
            z_out = self.psd(x_hat + us)
            us += x_hat
            us -= z_out
            r = residual(x, zs, z_out)
            zs = z_out
            going = r >= tol
            if not going.all():
                done = ~going
                leave = index[done]
                z[leave], u[leave], res[leave], steps[leave] = zs[done], us[done], r[done], step
                index, zs, us, r = index[going], zs[going], us[going], r[going]
                if shift is not None:
                    shift = shift[going]
        z[index], u[index], res[index], steps[index] = zs, us, r, max_steps
        return steps

    def feasible(self, rhos: np.ndarray, tol: float, max_sweeps: int = 200) -> np.ndarray:
        """``douglas_rachford`` with no shift on each set, from ``Z = rhos`` and ``U = 0``.

        Each set returns a ``psd`` output: the first ``Z`` whose residual is
        below ``tol``, or the one after ``max_sweeps`` sweeps.
        """
        shape = rhos.shape
        z = rhos.reshape(-1, *shape[-3:]).copy()
        self.sweeps = self.douglas_rachford(
            z, np.zeros_like(z), np.full(len(z), np.inf), tol, max_sweeps,
            lambda x, z_in, z_out: self.residual(z_out),
        ).reshape(shape[:-3])
        return z.reshape(shape)


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
    d = w.shape[-1]
    complement = _IDENTITY[:d, :d] - (v * support[..., None, :]) @ vh
    out = inv_sqrt @ parts @ inv_sqrt + complement[..., None, :, :] / parts.shape[-3]
    return _herm(out)


def _normalize_povm(effects: np.ndarray) -> np.ndarray:
    """Clip effects to the positive cone and complete them to a POVM."""
    w, v = np.linalg.eigh(_herm(effects))
    clipped = v * np.clip(w, 0.0, None)[..., None, :]
    return _complete(clipped @ np.conj(np.swapaxes(v, -1, -2)))


def _score(gram: np.ndarray, effects: np.ndarray):
    """``sum_b Tr(M_b G_b)`` per problem, one reduction of its (b, i, j) products.

    A problem gets the bits it gets alone, in a stack of any size.
    """
    products = effects * np.swapaxes(gram, -1, -2)
    return np.add.reduce(products.reshape(*products.shape[:-3], -1), axis=-1).real


def _gram(weighted: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The score operators ``G_yb = herm(sum_x w_xyb rho_x)`` of every restart."""
    return _herm(np.einsum("xyb,rxij->rybij", weighted, rhos))


def _certificate(gram: np.ndarray, effects: np.ndarray):
    """``Tr Y`` and ``lam`` of the optimality certificate of ``effects``.

    With ``Y = herm(sum_b G_b M_b)`` and ``lam = max(0, max_b lambda_max(G_b - Y))``
    every ``G_b`` is below ``Y + lam I``, so ``Tr(Y) + d lam`` bounds
    ``sum_b Tr(G_b N_b)`` for every POVM ``N`` (Holevo; Yuen, Kennedy and
    Lax).  The gap ``Tr(Y) + d lam`` less the score of ``effects`` is zero
    exactly when ``effects`` is optimal.  Leading axes of ``gram`` and
    ``effects`` hold a stack of problems.
    """
    y_op = _herm(np.einsum("...bij,...bjk->...ik", gram, effects))
    top = np.linalg.eigvalsh(gram - y_op[..., None, :, :]).max(axis=(-2, -1))
    return np.trace(y_op, axis1=-2, axis2=-1).real, np.maximum(0.0, top)


def _jrf_update(gram: np.ndarray, effects: np.ndarray, max_steps: int) -> np.ndarray:
    """Fixed-point iteration M_b <- L^-1/2 G_b M_b G_b L^-1/2 on shifted scores.

    ``gram`` holds one positive score operator per outcome; adding a common
    multiple of the identity to all of them shifts the objective by a
    constant, so the operators are shifted positive before the first step.
    Every step completes the effects to a POVM.  Leading axes hold a stack
    of problems that step together: before every step each problem forms
    its certificate and leaves the stack once its gap is below the rounding
    floor of the terms it is a difference of, and all stop after
    ``max_steps`` steps.  Returns a new array of the last iterates.
    """
    shape = effects.shape
    d = shape[-1]
    gram = gram.reshape(-1, *shape[-3:])
    shift = np.minimum(0.0, np.linalg.eigvalsh(gram).min(axis=(-2, -1)))
    g = gram - (shift - 1e-9)[:, None, None, None] * _IDENTITY[:d, :d]
    m = out = effects.reshape(gram.shape).copy()
    index = np.arange(len(gram))
    for _ in range(max_steps):
        trace, lam = _certificate(gram, m)
        score = _score(gram, m)
        d_lam = d * lam
        floor = _GAP_ROUNDING * (np.abs(trace) + d_lam + np.abs(score))
        going = trace + d_lam - score >= floor
        if not going.all():
            # The problems that leave keep the iterate of their last step.
            out[index[~going]] = m[~going]
            index, gram, g, m = index[going], gram[going], g[going], m[going]
            if not index.size:
                break
        m = _complete(g @ m @ g)
    out[index] = m
    return out.reshape(shape)


def _random_rhos(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    kets = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return np.einsum("xi,xj->xij", kets, np.conj(kets))


def _random_parts(rng: np.random.Generator, n_out: int, dim: int) -> np.ndarray:
    """``n_out`` random positive operators, the draw of ``_random_povm``."""
    g = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
    return np.einsum("bij,bkj->bik", g, np.conj(g))


def _random_povm(rng: np.random.Generator, n_out: int, dim: int) -> np.ndarray:
    return _normalize_povm(_random_parts(rng, n_out, dim))


def _start(game, cfg, projector):
    """The starting states and measurements of every restart, stacked.

    Restart ``r`` draws from its own generator, seeded ``[seed, r]``; the
    drawn states are projected as one stack, and the drawn effects are
    completed to POVMs as one stack.
    """
    d = cfg.dim
    rhos = np.empty((cfg.restarts, game.n_alice, d, d), dtype=complex)
    effects = np.empty((cfg.restarts, game.n_bob, game.n_outcomes, d, d), dtype=complex)
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        rhos[restart] = _random_rhos(rng, game.n_alice, d)
        effects[restart] = [_random_parts(rng, game.n_outcomes, d) for _ in range(game.n_bob)]
    return projector.feasible(rhos, _TOLERANCE / 10), _normalize_povm(effects)


def _admm(projector, grad, z, u, res) -> np.ndarray:
    """Warm-started ADMM steps on ``max sum_x Tr(rho_x G_x)`` over the feasible set.

    ``douglas_rachford`` with the shift ``G / sigma`` (Wen, Goldfarb and Yin,
    Math. Prog. Comp. 2, 203 (2010)), over-relaxed by ``_ADMM_RELAX`` (Eckstein
    and Bertsekas, Math. Prog. 55, 293 (1992)); ``sigma U`` estimates the
    dual.  ``z``, ``u`` and ``res`` hold a stack of restarts and are updated
    in place; ``res`` is each restart's larger residual, primal ``|X - Z+|``
    or dual ``|Z+ - Z|``, both taken at the unrelaxed ``X``.  Returns the
    steps each restart took.
    """
    def residual(x, z_in, z_out):
        # The larger of the two Frobenius norms, as ``np.linalg.norm(a, axis=1)``
        # computes them; the square root is monotone, so it is taken once.
        squares = [
            np.add.reduce((a.conj() * a).real, axis=1)
            for a in ((x - z_out).reshape(len(x), -1), (z_out - z_in).reshape(len(x), -1))
        ]
        return np.sqrt(np.maximum(*squares))

    return projector.douglas_rachford(
        z, u, res, _ADMM_TOL, _ADMM_STEPS, residual, grad / _ADMM_SIGMA, _ADMM_RELAX
    )


def _ascend(weighted, projector, rhos, effects, cfg):
    """Run every restart of the stack until its stop rule fires.

    Returns the final states and measurements of each restart with its
    iteration count, stop reason, the PSD projections it spent and its
    running value at each window boundary it reached.  The running restarts
    form their own stack, in which each follows its solo path bit for bit,
    and which sheds each restart at the iteration its first rule fires:
    ``"settled"`` when nothing changed in it, ``"window"`` at a 30-iteration
    window boundary with too little gain, ``"trailing"`` at a 10-iteration
    race boundary where its value plus its last 10 iterations' gain per 10
    iterations left stays below the best value of the stack, running or
    stopped, or ``"max_iters"`` at the cap.  Each rule
    keeps its own anchor, the value at its last boundary.  The trailing rule
    is a heuristic, not a bound: it guesses that a restart's gain does not
    grow.
    """
    tol = _TOLERANCE / 10
    restarts = len(rhos)
    iterations = np.full(restarts, cfg.max_iters)
    reasons = np.full(restarts, "max_iters", dtype=object)
    sweeps = np.zeros(restarts, dtype=int)
    final_rhos, final_effects = rhos.copy(), effects.copy()
    index = np.arange(restarts)
    rhos = rhos.copy()
    z, u, res = rhos.copy(), np.zeros_like(rhos), np.full(restarts, np.inf)
    window_values = [[] for _ in range(restarts)]
    stopped_best = -np.inf
    value = _score(_gram(weighted, rhos), effects).sum(axis=-1)
    anchor = race_anchor = value
    for it in range(1, cfg.max_iters + 1):
        # Measurement step: one warm-started candidate per receiver input.
        gram = _gram(weighted, rhos)
        cand = _jrf_update(gram, effects, _JRF_MAX_STEPS)
        scores, cand_scores = _score(gram, effects), _score(gram, cand)
        better = cand_scores > scores + _ACCEPT_MARGIN
        effects = np.where(better[..., None, None, None], cand, effects)
        moved = better.any(axis=1)
        value = np.where(better, cand_scores, scores).sum(axis=-1)

        # Preparation step: ADMM on the state program at these measurements,
        # then the exact projection of its iterate.  New measurements change
        # the objective, so the residuals of the last solve no longer hold.
        res[moved] = np.inf
        grad = _herm(np.einsum("xyb,rybij->rxij", weighted, effects))
        steps = _admm(projector, grad, z, u, res)
        sweeps[index] += steps
        stepped = np.flatnonzero(steps)
        if stepped.size:
            trial = projector.feasible(z[stepped], tol)
            sweeps[index[stepped]] += projector.sweeps
            trial_val = _score(_gram(weighted, trial), effects[stepped]).sum(axis=-1)
            better = trial_val > value[stepped] + _ACCEPT_MARGIN
            up = stepped[better]
            rhos[up], value[up], moved[up] = trial[better], trial_val[better], True

        settled = ~moved & (steps == 0)
        stop = settled.copy()
        window = np.zeros_like(stop)
        if it % _RACE_WINDOW == 0 and it < cfg.max_iters:
            gain = value - race_anchor
            left = (cfg.max_iters - it) / _RACE_WINDOW
            best = max(value.max(), stopped_best)
            stop |= value + gain * left < best - _TRAILING_MARGIN
            race_anchor = value.copy()
        if it % _CONVERGENCE_WINDOW == 0:
            # A boundary at the cap is recorded, as a run that goes on records
            # it, but the cap stops the restart there, not the window rule.
            for r, v in zip(index, value.tolist()):
                window_values[r].append(v)
            if it < cfg.max_iters:
                window = value - anchor < _CONVERGENCE_GAIN
                stop |= window
                anchor = value.copy()
        if stop.any():
            done = index[stop]
            iterations[done] = it
            reasons[done] = np.where(
                settled[stop], "settled", np.where(window[stop], "window", "trailing")
            )
            stopped_best = max(stopped_best, value[stop].max())
            final_rhos[done], final_effects[done] = rhos[stop], effects[stop]
            index, rhos, effects, value, anchor, race_anchor, z, u, res = (
                a[~stop] for a in (index, rhos, effects, value, anchor, race_anchor, z, u, res)
            )
            if not index.size:
                break
    final_rhos[index], final_effects[index] = rhos, effects
    return final_rhos, final_effects, iterations, reasons, sweeps, window_values


def search(game: ObliviousGame, cfg: SearchConfig) -> SearchResult:
    """Best strategy over restarts; the value is a lower bound, never a claim.

    All restarts run as one stack in lockstep, and each leaves the stack on
    the first stop rule that fires for it (see the module docstring);
    ``SearchResult.stop_reason`` records which, and ``per_restart`` keeps
    every restart's record.  Each restart draws from its own generator and
    follows the path it would follow alone, bit for bit, unless it
    trails: a restart that, at the pace of its last 10 iterations, would end
    below the best value another restart holds stops at that race boundary,
    one every 10 iterations.  That rule is a heuristic, not a bound: it cuts
    paths short, never changes them, but a restart it cuts might have
    overtaken the best.  The
    measurement step runs each exchange until the optimality certificate
    closes, so a measurement it already certifies costs one certificate and
    is left unchanged.  A restart is feasible when the obliviousness
    residual of its returned strategy is below ``_TOLERANCE`` (1e-8).  With a
    fixed seed the run is bit-reproducible, and the reduction (largest value
    among feasible restarts, ties broken by the lower restart index) is
    deterministic.
    """
    if not game.partitions:
        raise ValueError("game has no obliviousness families to respect")
    weighted = game.weighted_payoff()
    projector = _Projector(game, cfg.dim)
    rhos, effects = _start(game, cfg, projector)
    start_sweeps = projector.sweeps
    rhos, effects, iterations, reasons, sweeps, window_values = _ascend(
        weighted, projector, rhos, effects, cfg
    )

    # Final polish: land exactly inside the feasible set and report the value
    # of the strategy actually returned.
    rhos = projector.feasible(rhos, _POLISH_TOL, max_sweeps=500)
    sweeps += start_sweeps + projector.sweeps
    rhos = _herm(rhos)
    rhos = rhos / np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]
    effects = _normalize_povm(effects)
    records, strategies = [], []
    for restart in range(cfg.restarts):
        strategy = QuantumStrategy(rhos[restart], effects[restart])
        residual = obliviousness_residual_quantum(game, strategy)
        strategies.append(strategy)
        records.append(
            RestartRecord(
                value=performance(game, behavior_from_quantum(strategy)),
                iterations_used=int(iterations[restart]),
                stop_reason=str(reasons[restart]),
                feasibility_residual=residual,
                feasible=residual < _TOLERANCE,
                sweeps=int(sweeps[restart]),
                window_values=tuple(window_values[restart]),
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
