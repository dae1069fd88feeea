"""Dense two-phase simplex solver for small equality-constrained programs.

Maximizes c.v subject to A v = b, v >= 0, and optional per-variable upper
bounds.  Bland's anti-cycling rule is used throughout, so the pivot sequence
is deterministic and terminates even on degenerate programs; rows are scaled
to unit norm up front to keep mixed-magnitude probability constraints well
behaved.  Problem sizes here stay well under a few hundred variables, so
robustness is preferred over speed everywhere.
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
    """maximize objective . v  s.t.  eq_matrix v = eq_rhs, 0 <= v <= upper_bounds."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    upper_bounds: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        a = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent program: A {a.shape}, b ({b.size},), c ({c.size},)"
            )
        if c.size > MAX_VARS or b.size > MAX_ROWS:
            raise ValueError("program exceeds the supported desk scale")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("objective, matrix and rhs must be finite")
        u = self.upper_bounds
        if u is not None:
            u = np.asarray(u, dtype=float).reshape(-1)
            if u.shape != c.shape:
                raise ValueError("upper bounds do not match the variable count")
            # solve() drops every non-finite bound, which is right only for +inf
            if np.any(np.isnan(u) | np.isneginf(u)):
                raise ValueError("upper bounds must be numbers or +inf")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "upper_bounds", u)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: np.ndarray | None = None
    objective_value: float | None = None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> str:
    """Run simplex iterations with Bland's rule on the standard tableau.

    The last row holds reduced costs of a MAXIMIZATION problem (entry > 0
    means the column improves the objective); the last column is the rhs.
    """
    m = tableau.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(n_cols):
            if tableau[-1, j] > PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        ratios = np.full(m, np.inf)
        for i in range(m):
            if tableau[i, enter] > PIVOT_TOL:
                ratios[i] = tableau[i, -1] / tableau[i, enter]
        best = float(np.min(ratios)) if m else np.inf
        if not np.isfinite(best):
            return "unbounded"
        # Bland: among the minimum-ratio rows pick the smallest basic index.
        leave = min(
            (i for i in range(m) if ratios[i] <= best + PIVOT_TOL),
            key=lambda i: basis[i],
        )
        _pivot(tableau, basis, leave, enter)
    raise RuntimeError("simplex failed to terminate")


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; infeasible/unbounded programs are reported, never raised."""
    c0 = lp.objective
    n_orig = c0.size
    a = lp.eq_matrix.copy()
    b = lp.eq_rhs.copy()

    # Fold finite upper bounds into equality rows x_j + s_j = u_j.
    n = n_orig
    if lp.upper_bounds is not None:
        finite = [j for j in range(n_orig) if np.isfinite(lp.upper_bounds[j])]
        if finite:
            if np.min(lp.upper_bounds[finite]) < 0:
                return LpSolution(status="infeasible")
            extra = np.zeros((len(finite), n_orig + len(finite)))
            a = np.hstack([a, np.zeros((a.shape[0], len(finite)))])
            for r, j in enumerate(finite):
                extra[r, j] = 1.0
                extra[r, n_orig + r] = 1.0
            a = np.vstack([a, extra])
            b = np.concatenate([b, lp.upper_bounds[finite]])
            n = n_orig + len(finite)

    # Row scaling; empty rows are either redundant or inconsistent.
    keep = []
    for i in range(a.shape[0]):
        norm = float(np.linalg.norm(a[i]))
        if norm < 1e-14:
            if abs(b[i]) > 1e-12:
                return LpSolution(status="infeasible")
            continue
        a[i] /= norm
        b[i] /= norm
        keep.append(i)
    a = a[keep]
    b = b[keep]
    m = a.shape[0]

    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: drive artificial variables to zero.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, n + m)
    # Reduced costs for maximizing -sum(artificials): eliminate basic columns.
    tableau[-1, :n] = tableau[:m, :n].sum(axis=0)
    tableau[-1, -1] = b.sum()
    status = _bland_iterate(tableau, basis, n + m)
    if status != "optimal":  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase 1 simplex reported " + status)
    if tableau[-1, -1] > PHASE1_TOL:
        return LpSolution(status="infeasible")

    # Pivot remaining artificials out of the basis; rows that cannot pivot are
    # redundant constraints and get dropped.
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            piv = -1
            for j in range(n):
                if abs(tableau[i, j]) > PIVOT_TOL:
                    piv = j
                    break
            if piv >= 0:
                _pivot(tableau, basis, i, piv)
            else:
                drop_rows.append(i)
    if drop_rows:
        rows = [i for i in range(m) if i not in drop_rows]
        tableau = np.vstack([tableau[rows], tableau[-1:]])
        basis = basis[rows]
        m = len(rows)

    # Phase 2 on the original objective (bound slacks cost nothing).
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    obj = np.zeros(n + 1)
    obj[:n_orig] = c0
    for i in range(m):
        if abs(obj[basis[i]]) > 0.0:
            obj -= obj[basis[i]] * tableau[i]
    full = np.vstack([tableau[:m], obj])
    status = _bland_iterate(full, basis, n)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    values = np.zeros(n)
    for i in range(m):
        values[basis[i]] = full[i, -1]
    values = values[:n_orig]
    np.clip(values, 0.0, None, out=values)  # remove sub-tolerance pivot noise

    # Solution contract: the vertex must satisfy the original system.
    if lp.eq_rhs.size:
        feas = float(np.max(np.abs(lp.eq_matrix @ values - lp.eq_rhs)))
        if feas >= 1e-8:  # pragma: no cover - simplex invariant
            raise RuntimeError(f"vertex violates equalities by {feas:.2e}")
    if lp.upper_bounds is not None and np.any(
        values > lp.upper_bounds + 1e-10
    ):  # pragma: no cover - simplex invariant
        raise RuntimeError("vertex violates an upper bound")
    return LpSolution(
        status="optimal",
        values=values,
        objective_value=float(np.dot(c0, values)),
    )
