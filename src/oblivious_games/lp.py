"""Dense two-phase simplex for small equality-constrained programs, run on stacks.

Maximizes c.v subject to A v = b, v >= 0: the one form of both programs of
the package, whose variables are probabilities.  A variable with an upper
bound u_j is written with a slack as the row x_j + s_j = u_j.  Bland's
anti-cycling rule is used throughout, so the pivot sequence is
deterministic and terminates even on degenerate programs; rows are scaled
to unit norm up front to keep mixed-magnitude probability constraints well
behaved.

A ``LinearProgram`` is a stack of programs of one shape: every field
carries a leading stack axis, and a program given without one is the stack
of one.  It is validated once per stack.  ``solve_many`` runs the simplex
on a stack in lockstep: each step picks every running program's entering
column and leaving row with array reductions and pivots them all with one
outer-product update.  On a row whose factor is zero that update subtracts
an exact zero, so every program takes the pivots, and rounds every nonzero
entry, exactly as it would alone; only the sign of a zero can differ, and
the final clamp at zero removes it.  Empty and redundant rows are zeroed in
place rather than deleted, which keeps the stack one shape.  One stacked
residual checks every optimal vertex against its original system.

The simplex runs in two stages: ``_feasible`` (phase 1 and the drive-out
of artificial variables) and ``_maximize`` (phase 2 from whatever basis it
is given).  ``solve_many`` runs both on its stack.  A ``Polytope`` runs
``_feasible`` once on a stack of one, and each ``maximize`` re-optimizes a
new objective from the basis the last one ended in; ``solve`` is the first
``maximize`` of a fresh polytope.  A step costs a few dozen numpy calls
whatever the stack holds, which outweighs the arithmetic of a program of a
dozen rows.  Such programs gain by taking fewer steps: a sequence of
objectives over one polytope pays for phase 1 once, and a warm phase 2
often takes a few pivots where a cold solve takes twenty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_VARS = 500
MAX_ROWS = 500
PIVOT_TOL = 1e-9
PHASE1_TOL = 1e-9
_MAX_PIVOTS = 200_000


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . v  s.t.  eq_matrix v = eq_rhs, v >= 0.

    A stack of such programs: ``objective`` is (k, n), ``eq_matrix`` (k, m, n)
    and ``eq_rhs`` (k, m).  A 2-D ``eq_matrix`` is one program, stored as the
    stack of one.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if a.ndim == 2:
            a, c, b = a[None], c.reshape(1, -1), b.reshape(1, -1)
        if a.ndim != 3 or c.shape != (len(a), a.shape[2]) or b.shape != a.shape[:2]:
            raise ValueError(f"inconsistent program: A {a.shape}, b {b.shape}, c {c.shape}")
        if c.shape[1] > MAX_VARS or b.shape[1] > MAX_ROWS:
            raise ValueError("program exceeds the supported desk scale")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("objective, matrix and rhs must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None = None
    objective_value: float | None = None
    pivots: int = 0  # over phase 1, the artificial drive-out and phase 2
    phase1_pivots: int = 0  # the phase-1 and drive-out part of ``pivots``


def _pivot(tableau: np.ndarray, basis: np.ndarray, k, row, col, column) -> None:
    """Pivot program ``p`` of the stack on ``(row[p], col[p])``, for every ``p``.

    ``k`` is ``arange(len(tableau))`` and ``column[p]`` is column ``col[p]`` of
    program ``p``.
    """
    pivot_row = tableau[k, row] / column[k, row, None]
    tableau -= np.einsum("ki,kj->kij", column, pivot_row)
    tableau[k, row] = pivot_row
    basis[k, row] = col


def _bland(tableau, basis, live, n_cols, pivots) -> np.ndarray:
    """Bland's rule in lockstep on the live programs until each is optimal or
    unbounded; returns the unbounded mask.

    The last row holds reduced costs of a MAXIMIZATION problem (entry > 0
    means the column improves the objective); the last column is the rhs.
    The running programs form their own stack, which sheds each program as
    it stops.
    """
    unbounded = np.zeros_like(live)
    index = np.flatnonzero(live)
    t, b = (tableau, basis) if index.size == live.size else (tableau[index], basis[index])
    k = np.arange(index.size)
    for step in range(_MAX_PIVOTS):
        if not index.size:
            return unbounded
        improving = t[:, -1, :n_cols] > PIVOT_TOL
        enter = improving.argmax(axis=1)
        column = t[k, :, enter]
        # rows that cannot bound the step get a NaN ratio, which fmin skips
        bounding = column[:, :-1]
        ratios = t[:, :-1, -1] / np.where(bounding > PIVOT_TOL, bounding, np.nan)
        best = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        improves = column[:, -1] > PIVOT_TOL
        going = improves & (best < np.inf)
        if not going.all():
            stop = index[~going]
            tableau[stop], basis[stop] = t[~going], b[~going]
            pivots[stop] += step
            unbounded[stop] = improves[~going]
            index, t, b, enter, column, ratios, best = (
                x[going] for x in (index, t, b, enter, column, ratios, best)
            )
            k = np.arange(index.size)
            if not index.size:
                return unbounded
        # Bland: among the minimum-ratio rows the smallest basic index leaves.
        ties = ratios <= best[:, None] + PIVOT_TOL
        _pivot(t, b, k, np.where(ties, b, tableau.shape[2]).argmin(axis=1), enter, column)
    raise RuntimeError("simplex failed to terminate")


def _phase_one(lp: LinearProgram) -> tuple:
    """The phase-1 tableau of each program, and which are infeasible on sight.

    A tableau holds [a | artificials | b] over its reduced costs for
    maximizing -sum(artificials), with the basic (artificial) columns
    eliminated.
    """
    k, m, n = lp.eq_matrix.shape
    tableau = np.zeros((k, m + 1, n + m + 1))
    a = tableau[:, :m, :n]
    b = tableau[:, :m, -1]
    a[:] = lp.eq_matrix
    b[:] = lp.eq_rhs
    infeasible = np.zeros(k, dtype=bool)

    # Row scaling; empty rows are either redundant or inconsistent, and are
    # zeroed.  The stacked product reduces each row as np.linalg.norm does.
    norms = np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])
    empty = norms < 1e-14
    if empty.any():
        infeasible |= (empty & (np.abs(b) > 1e-12)).any(axis=1)
        norms[empty] = 1.0
        a[empty] = 0.0
        b[empty] = 0.0
    b /= norms
    # Rows with a negative rhs are negated: x / -y is exactly -(x / y).
    flip = b < 0
    a /= np.where(flip, -norms, norms)[..., None]
    b[flip] *= -1.0

    rows = np.arange(m)
    tableau[:, rows, n + rows] = 1.0
    tableau[:, -1, :n] = a.sum(axis=1)
    tableau[:, -1, -1] = b.sum(axis=1)
    return tableau, infeasible


def _feasible(lp: LinearProgram) -> tuple:
    """Phase 1 and the artificial drive-out, in lockstep.

    Returns the phase-2 tableau ([a | b] in the last feasible basis, over a
    cost row that ``_maximize`` fills), the basis, the infeasible mask and
    the pivots taken.
    """
    tableau, infeasible = _phase_one(lp)
    k, m, n = lp.eq_matrix.shape
    rows = np.arange(m)

    # Phase 1: drive artificial variables to zero.
    basis = np.repeat(n + rows[None], k, axis=0)
    live = ~infeasible
    pivots = np.zeros(k, dtype=int)
    if _bland(tableau, basis, live, n + m, pivots).any():  # pragma: no cover
        raise RuntimeError("phase 1 simplex reported unbounded")
    infeasible |= live & (tableau[:, -1, -1] > PHASE1_TOL)
    live &= ~infeasible

    # Pivot remaining artificials out of the basis, row by row; a row where no
    # real column can pivot is a redundant constraint and is zeroed.  Rows
    # change only when a pivot is made, so each round zeroes every row before
    # the next pivot row at once.  Afterwards exactly the zeroed rows have an
    # artificial basic variable.
    pending = (basis >= n) & live[:, None]
    while pending.any():
        movable = np.abs(tableau[:, :m, :n]) > PIVOT_TOL
        ready = pending & movable.any(axis=2)
        turn = np.where(ready.any(axis=1), ready.argmax(axis=1), m)
        redundant = pending & (rows < turn[:, None])
        tableau[:, :m][redundant] = 0.0
        pending &= ~redundant
        (on,) = np.nonzero(turn < m)
        if on.size:
            pending[on, turn[on]] = False
            col = movable[on, turn[on]].argmax(axis=1)
            t, b, sub = tableau[on], basis[on], np.arange(on.size)
            _pivot(t, b, sub, turn[on], col, t[sub, :, col])
            tableau[on], basis[on] = t, b
            pivots[on] += 1

    tableau = np.concatenate([tableau[:, :, :n], tableau[:, :, -1:]], axis=2)
    return tableau, basis, infeasible, pivots


def _maximize(tableau, basis, infeasible, phase1, lp, objectives) -> list:
    """Phase 2 from each program's current basis, to each one's solution.

    ``tableau`` and ``basis`` come from ``_feasible`` or from an earlier
    call; they are updated in place, so they end at the last basis, which is
    feasible for any objective.  ``phase1`` is the pivots to count before
    phase 2, and ``objectives`` holds one row per program of ``lp``.
    """
    k, m = basis.shape
    n = tableau.shape[2] - 1
    # Basic columns are exact unit vectors, so eliminating one row's basic
    # cost leaves the others' as they were: the rows are subtracted in order
    # in one reduction, a row with no cost adding an exact +0.  Artificials
    # left basic on zeroed rows cost nothing.
    cost = np.zeros((k, n + m + 1))
    cost[:, :n] = objectives
    stack = np.arange(k)[:, None]
    factor = cost[stack, basis][..., None]
    tableau[:, -1] = np.subtract.reduce(
        np.concatenate(
            [cost[:, None, : n + 1], np.where(factor != 0.0, factor * tableau[:, :m], 0.0)],
            axis=1,
        ),
        axis=1,
    )
    pivots = phase1.copy()
    unbounded = _bland(tableau, basis, ~infeasible, n, pivots)

    values = np.zeros((k, n + m))
    values[stack, basis] = tableau[:, :m, -1]
    values = values[:, :n]
    np.maximum(values, 0.0, out=values)  # remove sub-tolerance pivot noise
    optimal = ~(infeasible | unbounded)
    value = _checked(lp, objectives, values, optimal)

    results = []
    for p in range(k):
        counts = {"pivots": int(pivots[p]), "phase1_pivots": int(phase1[p])}
        if infeasible[p]:
            results.append(LpSolution(status="infeasible", **counts))
        elif unbounded[p]:
            results.append(LpSolution(status="unbounded", **counts))
        else:
            results.append(LpSolution("optimal", values[p], float(value[p]), **counts))
    return results


def _checked(lp: LinearProgram, objectives, values, optimal) -> np.ndarray:
    """Each program's objective value, once every optimal vertex satisfies
    its original system.

    The stacked product reduces each program as ``np.dot`` does.
    """
    if lp.eq_rhs.shape[1]:
        residual = np.abs((lp.eq_matrix @ values[..., None])[..., 0] - lp.eq_rhs)
        feas = float(np.max(residual[optimal], initial=0.0))
        if feas >= 1e-8:  # pragma: no cover - simplex invariant
            raise RuntimeError(f"vertex violates equalities by {feas:.2e}")
    return (objectives[:, None, :] @ values[..., None])[:, 0, 0]


def solve_many(programs: LinearProgram) -> list:
    """Two-phase simplex on a stacked ``LinearProgram``, in lockstep.

    Element ``p`` of the result equals ``solve`` of program ``p``: same
    status, pivots and bit-equal values.
    """
    if not isinstance(programs, LinearProgram):
        raise TypeError(f"expected one stacked LinearProgram, got {type(programs).__name__}")
    if not len(programs.objective):
        return []
    tableau, basis, infeasible, pivots = _feasible(programs)
    return _maximize(tableau, basis, infeasible, pivots, programs, programs.objective)


class Polytope:
    """The set {v : eq_matrix v = eq_rhs, v >= 0}, maximized over one
    objective after another.

    Phase 1 runs once, in the constructor.  Each ``maximize`` runs phase 2
    from the basis the previous call ended in: that basis is feasible for
    every objective, and near-optimal for a similar one.  The first call
    counts the phase-1 pivots in its ``pivots`` and ``phase1_pivots``; later
    calls count only their own phase 2.  An infeasible polytope reports
    ``infeasible`` for every objective.
    """

    def __init__(self, eq_matrix, eq_rhs):
        a = np.asarray(eq_matrix, dtype=float)
        objective = np.zeros(a.shape[:-2] + a.shape[-1:])
        self._program = LinearProgram(objective, a, eq_rhs)
        if len(self._program.objective) != 1:
            raise ValueError("a polytope is one program, not a stack")
        self._tableau, self._basis, self._infeasible, self._phase1 = _feasible(self._program)

    def maximize(self, objective) -> LpSolution:
        """Maximize ``objective . v`` over the polytope; infeasible and
        unbounded results are reported, never raised."""
        c = np.asarray(objective, dtype=float).reshape(1, -1)
        if c.shape != self._program.objective.shape:
            raise ValueError(
                f"objective of {c.size} entries for {self._program.objective.size} variables"
            )
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        (solution,) = _maximize(
            self._tableau, self._basis, self._infeasible, self._phase1, self._program, c
        )
        self._phase1 = np.zeros_like(self._phase1)
        return solution


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex on one program (a stack of one); infeasible/unbounded
    programs are reported, never raised.

    This is the first ``maximize`` of a fresh ``Polytope``.
    """
    return Polytope(lp.eq_matrix, lp.eq_rhs).maximize(lp.objective)
