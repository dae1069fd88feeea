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
of one.  It is validated once per stack.  ``solve`` runs the simplex on a
stack in lockstep: each step picks every running program's entering column
and leaving row with array reductions and pivots them all with one
outer-product update.  On a row whose factor is zero that update subtracts
an exact zero, so every program takes the pivots, and rounds every entry,
exactly as it would alone.  Bland's ratio test takes the least ratio to
within a few ulps, so no pivot drives a basic value below zero by more than
round-off, and each vertex is returned as pivoted.  Empty rows, and rows
that phase 1 leaves with no entry above ``PIVOT_TOL``, are zeroed in place
rather than deleted, which keeps the stack one shape.  One stacked
residual checks every optimal vertex against its original system.  The
result is one ``LpSolutions``, the solver's own arrays with a row or entry
per program (NaN values where a program is not optimal).  Without a start
basis, row ``p`` of each array is what ``solve`` gives for program ``p``
alone, as the stack of one.

``solve`` can also start a stack from one basis, such as the optimal basis
of a nearby program or the last basis of an earlier solve.  Each program's
tableau in that basis is B^-1 [A | b] over its reduced costs, for B its
basic columns; an artificial start index n + j marks row j as redundant
there, and that row is dropped.  It is built in place, in a caller's
``work`` buffer when one is given, from one copy of the kept rows, one
stacked inverse and one product.  Where that tableau is finite and well
posed, and dual feasible or primal feasible, the dual simplex (Lemke 1954)
with Bland's rule pivots it, in lockstep, until it is primal feasible (from
a primal feasible start it takes no step); its pivots keep the cost row
current, so phase 2 prices it no second time.  Every other program, and
any that the dual simplex proves infeasible, runs the two-phase simplex in
the same call, as it would without a start.  A program served warm reaches
the optimum of a cold solve to round-off, but perhaps on another optimal
vertex, so its values need not equal those of a cold solve.

Every pivot runs in ``_lockstep``, under one of four rules: phase 1 and
phase 2 (``_bland``), the drive-out of the artificial variables phase 1
leaves basic, and the dual simplex (``_dual_bland``); and ``_reduced_costs``
prices every cost row from a basis.  ``_feasible`` runs phase 1 and the
drive-out, ``_warm`` builds a start tableau and ``_maximize`` runs phase 2
from whatever basis it is given, pricing the programs whose cost row is
stale; only a program with an improving column enters Bland's rule.
``solve`` runs them on its stack, with ``_warm`` and the dual simplex in
place of ``_feasible`` for each program that its start basis serves.  A
step costs a few dozen numpy calls whatever the stack holds, which
outweighs the arithmetic of a program of a dozen rows.  Such programs gain
by taking fewer steps: a sequence of objectives over one polytope, each
solved from the basis the last one ended in, pays for phase 1 once, and a
warm phase 2 often takes a few pivots where a cold solve takes twenty.  A
stack of programs close to one whose optimal basis is known skips phase 1,
and the dual simplex from that basis takes a few pivots where a cold solve
takes forty.
"""

from __future__ import annotations

import contextlib
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
        if not a.shape[2]:
            raise ValueError(f"program has no variables: A {a.shape}, b {b.shape}, c {c.shape}")
        if c.shape[1] > MAX_VARS or b.shape[1] > MAX_ROWS:
            raise ValueError(
                f"program of {c.shape[1]} variables and {b.shape[1]} rows exceeds the "
                f"supported desk scale of {MAX_VARS} variables and {MAX_ROWS} rows"
            )
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("objective, matrix and rhs must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True, eq=False)
class LpSolutions:
    """The solutions of a stack of programs, one row or entry per program.

    ``values`` is (k, n), ``basis`` (k, m) and the other fields are (k,); the
    values and objective value of a program that is not optimal are NaN.
    ``pivots`` counts each program's pivots over phase 1, the artificial
    drive-out, the dual simplex and phase 2, and ``phase1_pivots`` the
    phase-1 and drive-out part of them, 0 on a warm start.
    """

    status: np.ndarray  # of "optimal" | "infeasible" | "unbounded"
    values: np.ndarray
    objective_value: np.ndarray
    pivots: np.ndarray
    phase1_pivots: np.ndarray
    basis: np.ndarray  # (k, m), each program's last basis; see ``solve``


def _pivot(tableau: np.ndarray, basis: np.ndarray, k, row, col, column) -> None:
    """Pivot program ``p`` of the stack on ``(row[p], col[p])``, for every ``p``.

    ``k`` is ``arange(len(tableau))`` and ``column[p]`` is column ``col[p]`` of
    program ``p``.
    """
    pivot_row = tableau[k, row] / column[k, row, None]
    tableau -= np.einsum("ki,kj->kij", column, pivot_row)
    tableau[k, row] = pivot_row
    basis[k, row] = col


def _lockstep(tableau, basis, live, pivots, rule) -> np.ndarray:
    """Pivot the live programs in lockstep by ``rule`` until each stops;
    returns the mask of programs that stopped with the rule's flag set.

    ``rule(t, b, k)`` takes the running stack and returns, per program,
    whether it pivots, the flag it stops with, and its pivot row, column and
    column entries; it may also write rows of the running stack, as the
    drive-out zeroes redundant ones.  The running programs form their own
    stack, which sheds each program as it stops.
    """
    flagged = np.zeros_like(live)
    index = np.flatnonzero(live)
    t, b = (tableau, basis) if index.size == live.size else (tableau[index], basis[index])
    k = np.arange(index.size)
    for step in range(_MAX_PIVOTS):
        if not index.size:
            return flagged
        going, flag, row, col, column = rule(t, b, k)
        if not going.all():
            stop = index[~going]
            tableau[stop], basis[stop] = t[~going], b[~going]
            pivots[stop] += step
            flagged[stop] = flag[~going]
            index, t, b, row, col, column = (
                x[going] for x in (index, t, b, row, col, column)
            )
            if not index.size:
                return flagged
            k = np.arange(index.size)
        _pivot(t, b, k, row, col, column)
    raise RuntimeError("simplex failed to terminate")


def _smallest_basic(rows, basis) -> np.ndarray:
    """The row of smallest basic index among each program's ``rows`` (any
    row when it has none)."""
    if not basis.shape[1]:
        return np.zeros(len(basis), dtype=int)
    return np.where(rows, basis, np.iinfo(basis.dtype).max).argmin(axis=1)


def _bland(tableau, basis, live, n_cols, pivots) -> np.ndarray:
    """Bland's rule in lockstep on the live programs until each is optimal or
    unbounded; returns the unbounded mask.

    The last row holds reduced costs of a MAXIMIZATION problem (entry > 0
    means the column improves the objective); the last column is the rhs.
    """

    def rule(t, b, k):
        improving = t[:, -1, :n_cols] > PIVOT_TOL
        enter = improving.argmax(axis=1)
        column = t[k, :, enter]
        # rows that cannot bound the step get a NaN ratio, which fmin skips
        bounding = column[:, :-1]
        ratios = t[:, :-1, -1] / np.where(bounding > PIVOT_TOL, bounding, np.nan)
        best = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        improves = column[:, -1] > PIVOT_TOL
        # Bland: among the rows within a few ulps of the minimum ratio the
        # smallest basic index leaves, so the leaving row is the true minimum
        # to round-off and no basic value is driven below zero.
        tie = best + 4 * np.finfo(float).eps * np.abs(best)
        leave = _smallest_basic(ratios <= tie[:, None], b)
        return improves & (best < np.inf), improves, leave, enter, column

    return _lockstep(tableau, basis, live, pivots, rule)


def _dual_bland(tableau, basis, live, n_cols, pivots) -> np.ndarray:
    """The dual simplex with Bland's rule, in lockstep on the live programs,
    from dual feasible bases until each is primal feasible or has a row that
    proves it infeasible; returns the infeasible mask.

    The tableau is laid out as for ``_bland``.  Among the rows with a
    negative rhs the one of smallest basic index leaves; among the columns
    with a negative entry in it, those whose reduced cost over that entry is
    least tie, and the smallest enters.
    """

    def rule(t, b, k):
        short = t[:, :-1, -1] < -PIVOT_TOL
        leave = _smallest_basic(short, b)
        row = t[k, leave, :n_cols]
        ratios = t[:, -1, :n_cols] / np.where(row < -PIVOT_TOL, row, np.nan)
        best = np.fmin.reduce(ratios, axis=1, initial=np.inf)
        enter = (ratios <= best[:, None] + PIVOT_TOL).argmax(axis=1)
        pending = short.any(axis=1)
        return pending & (best < np.inf), pending, leave, enter, t[k, :, enter]

    return _lockstep(tableau, basis, live, pivots, rule)


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
    """Phase 1 and the artificial drive-out, each a ``_lockstep`` rule.

    Returns the phase-2 tableau ([a | b] in the last feasible basis, over a
    cost row that ``_reduced_costs`` fills), the basis, the infeasible mask
    and the pivots taken.
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

    # Pivot remaining artificials out of the basis, row by row; a row where no
    # real column can pivot is a redundant constraint and is zeroed, so that
    # phase 2's pivots cannot grow what is left in it past PIVOT_TOL.  Rows
    # change only when a pivot is made, so each step zeroes every row before
    # the next pivot row at once.  Afterwards exactly the zeroed rows have an
    # artificial basic variable.
    def drive_out(t, b, k):
        artificial = b >= n
        movable = np.abs(t[:, :m, :n]) > PIVOT_TOL
        ready = artificial & movable.any(axis=2)
        going = ready.any(axis=1)
        turn = ready.argmax(axis=1)
        t[:, :m][artificial & (rows < np.where(going, turn, m)[:, None])] = 0.0
        col = movable[k, turn].argmax(axis=1)
        return going, going, turn, col, t[k, :, col]

    if m:
        _lockstep(tableau, basis, ~infeasible, pivots, drive_out)
    tableau = np.concatenate([tableau[:, :, :n], tableau[:, :, -1:]], axis=2)
    return tableau, basis, infeasible, pivots


def _reduced_costs(tableau, basis, objectives) -> np.ndarray:
    """Each program's cost row, [c | 0] - c_B [a | b] = [reduced costs |
    -objective value], in its current basis; artificials cost nothing."""
    k, m = basis.shape
    n = tableau.shape[2] - 1
    cost = np.zeros((k, n + m + 1))
    cost[:, :n] = objectives
    factor = cost[np.arange(k)[:, None], basis]
    # Basic columns are exact unit vectors, so basic reduced costs are exactly 0.
    return cost[:, : n + 1] - (factor[:, None] @ tableau[:, :m])[:, 0]


def _maximize(tableau, basis, infeasible, phase1, lp, pivots, stale) -> LpSolutions:
    """Phase 2 from each program's current basis, to each one's solution.

    ``tableau`` and ``basis`` come from ``_feasible`` or ``_warm``; they are
    updated in place, so they end at the last basis, which is feasible for
    any objective.  ``phase1`` is the phase-1 pivots of each program and
    ``pivots``, which phase 2 adds to in place, all pivots before it.  The
    cost rows of the programs ``stale`` selects are priced for the
    objectives of ``lp``; the others are current already.  Only a
    program with a reduced cost above ``PIVOT_TOL`` enters Bland's rule: any
    other would stop there at once.
    """
    k, m = basis.shape
    n = tableau.shape[2] - 1
    tableau[stale, -1] = _reduced_costs(tableau[stale], basis[stale], lp.objective[stale])
    improvable = ~infeasible & (tableau[:, -1, :n] > PIVOT_TOL).any(axis=1)
    unbounded = _bland(tableau, basis, improvable, n, pivots)

    values = np.zeros((k, n + m))
    values[np.arange(k)[:, None], basis] = tableau[:, :m, -1]
    values = values[:, :n]
    stopped = infeasible | unbounded
    value = _checked(lp, values, ~stopped)
    values[stopped] = np.nan
    value[stopped] = np.nan
    status = np.where(infeasible, "infeasible", np.where(unbounded, "unbounded", "optimal"))
    return LpSolutions(status, values, value, pivots, phase1, basis.copy())


def _checked(lp: LinearProgram, values, optimal) -> np.ndarray:
    """Each program's objective value, once every optimal vertex satisfies
    its original system.

    The stacked product reduces each program as ``np.dot`` does.
    """
    if lp.eq_rhs.shape[1]:
        residual = np.abs((lp.eq_matrix @ values[..., None])[..., 0] - lp.eq_rhs)
        feas = float(np.max(residual[optimal], initial=0.0))
        if feas >= 1e-8:  # pragma: no cover - simplex invariant
            raise RuntimeError(f"vertex violates equalities by {feas:.2e}")
    return (lp.objective[:, None, :] @ values[..., None])[:, 0, 0]


def _inverse(matrices) -> np.ndarray:
    """The inverse of each matrix of the stack; NaN where one is exactly
    singular."""
    try:
        return np.linalg.inv(matrices)
    except np.linalg.LinAlgError:
        out = np.full(matrices.shape, np.nan)
        for p, matrix in enumerate(matrices):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[p] = np.linalg.inv(matrix)
        return out


def _warm(lp: LinearProgram, start: np.ndarray, tableau: np.ndarray) -> tuple:
    """Each program's phase-2 tableau in basis ``start``, built in
    ``tableau`` as ``_feasible`` lays it out, over the cost row that
    ``_reduced_costs`` prices there; the basis, and the programs from which
    the dual simplex can start there.

    An artificial start index n + j marks original row j as redundant, as
    the drive-out leaves it.  The other rows come first, as B^-1 [a | b] for
    B their rows of the real start columns: one copy of those rows of
    [a | b], one stacked inverse and one product written into ``tableau``.
    Each redundant row is zeroed under its own artificial index, so a warm
    result's basis can start the next solve.  The dual simplex can start
    where the tableau is finite and well posed (B^-1 B is the identity to
    ``PIVOT_TOL``, and the redundant rows follow from the kept ones as
    closely) and the basis is dual feasible or primal feasible; from a
    primal feasible basis it takes no step.
    """
    k, m, n = lp.eq_matrix.shape
    columns = start[start < n]
    artificial = start[start >= n]
    dropped = artificial - n
    # a mask, not np.setdiff1d: the first np.unique of a process keeps about
    # 560 KB resident
    kept = np.ones(m, dtype=bool)
    kept[dropped] = False
    kept = np.flatnonzero(kept)
    r = columns.size
    system = np.empty((k, r, n + 1))
    # the indices are in range; "clip" writes straight into out, "raise" via a copy
    np.take(lp.eq_matrix, kept, axis=1, out=system[..., :n], mode="clip")
    system[..., -1] = lp.eq_rhs[:, kept]
    rows = tableau[:, :r]
    # a singular B gives NaN, a nearly singular one may overflow
    with np.errstate(invalid="ignore", over="ignore"):
        np.matmul(_inverse(system[..., columns]), system, out=rows)
        error = np.abs(rows[..., columns] - np.eye(r)).max(axis=(1, 2), initial=0.0)
        implied = lp.eq_matrix[:, dropped][..., columns] @ rows
        implied[..., :n] -= lp.eq_matrix[:, dropped]
        implied[..., -1] -= lp.eq_rhs[:, dropped]
        implied = np.abs(implied).max(axis=(1, 2), initial=0.0)
    tableau[:, r:m] = 0.0
    posed = np.maximum(error, implied) < PIVOT_TOL  # False where either is NaN
    tableau[~posed] = 0.0  # no NaN reaches the cost row
    rows[..., columns] = np.eye(r)  # exact unit vectors
    basis = np.repeat(np.concatenate([columns, artificial])[None], k, axis=0)
    tableau[:, -1] = _reduced_costs(tableau, basis, lp.objective)
    dual = (tableau[:, -1, :n] <= PIVOT_TOL).all(axis=1)
    primal = (rows[..., -1] >= -PIVOT_TOL).all(axis=1)
    return basis, posed & (dual | primal)


def solve(programs: LinearProgram, start=None, work=None) -> LpSolutions:
    """Simplex on a stacked ``LinearProgram``, in lockstep; infeasible and
    unbounded programs are reported in ``status``, never raised.

    Without ``start`` every program runs the two-phase simplex, and row
    ``p`` of each result array equals that of program ``p`` solved alone as
    the stack of one: same status, pivots, basis and bit-equal values.
    ``start`` is one row of an ``LpSolutions.basis``, such as the optimal
    basis of a program close to all of these, or of the same rows under
    another objective: m distinct indices below n + m.  Each program that
    can start there (see ``_warm``) runs the dual simplex, then phase 2 from
    the cost row the dual simplex kept, and ends with ``phase1_pivots`` 0
    and the status of a cold solve: where optimal, at the optimum a cold
    solve reaches, though perhaps on another optimal vertex.  Every other
    program, and each that the dual simplex proves infeasible, runs the
    two-phase simplex in the same call, and its rows equal a cold solve's.

    ``work``, allowed only with ``start``, is a writeable C-contiguous
    float64 array of shape (k, m + 1, n + 1) in which the start tableaux are
    built and pivoted, so that a caller solving stack after stack reuses
    one buffer; by default a fresh one is allocated.  It changes no result,
    and the result does not refer to it.

    Row ``p`` of the result's ``basis`` is program ``p``'s last basis, which
    can start a later solve; where the program is optimal or unbounded, an
    index n + j marks row j as redundant, zeroed in the tableau.
    """
    if not isinstance(programs, LinearProgram):
        raise TypeError(f"expected one stacked LinearProgram, got {type(programs).__name__}")
    k, m, n = programs.eq_matrix.shape
    if start is None:
        if work is not None:
            raise ValueError("work is the buffer of a start tableau; it needs a start basis")
        tableau, basis, infeasible, pivots = _feasible(programs)
        return _maximize(tableau, basis, infeasible, pivots, programs, pivots.copy(), slice(None))
    start = np.asarray(start)
    if (
        start.shape != (m,)
        or start.dtype.kind not in "iu"
        or (start < 0).any()
        or (start >= n + m).any()
        or len(set(start.tolist())) != m
    ):
        raise ValueError(
            f"start must be a basis of {m} distinct indices below {n + m}, got {start!r}"
        )
    shape = (k, m + 1, n + 1)
    if work is None:
        work = np.empty(shape)
    elif not (
        isinstance(work, np.ndarray)
        and work.dtype == np.float64
        and work.shape == shape
        and work.flags.c_contiguous
        and work.flags.writeable
    ):
        raise ValueError(f"work must be a writeable C-contiguous float64 array of shape {shape}")
    basis, served = _warm(programs, start, work)
    pivots = np.zeros(k, dtype=int)
    served &= ~_dual_bland(work, basis, served, n, pivots)
    infeasible = np.zeros_like(served)
    phase1 = np.zeros_like(pivots)
    cold = np.flatnonzero(~served)
    if cold.size:
        rest = LinearProgram(
            programs.objective[cold], programs.eq_matrix[cold], programs.eq_rhs[cold]
        )
        work[cold], basis[cold], infeasible[cold], phase1[cold] = _feasible(rest)
        pivots[cold] = phase1[cold]
    return _maximize(work, basis, infeasible, phase1, programs, pivots, cold)

