"""Upper-bounded test programs written in the solver's one form, A v = b, v >= 0."""

import numpy as np

from oblivious_games.lp import LinearProgram


def with_upper_bounds(objective, eq_matrix, eq_rhs, upper_bounds=None) -> LinearProgram:
    """maximize c.v  s.t.  A v = b, 0 <= v <= u, as one equality program.

    Each finite u_j appends the row x_j + s_j = u_j after A and its slack s_j
    after v; an infinite u_j, or no ``upper_bounds`` at all, adds nothing.
    The solution's first ``len(c)`` values are v, and the slacks cost nothing.
    """
    c = np.asarray(objective, dtype=float)
    n = len(c)
    a = np.asarray(eq_matrix, dtype=float)
    u = np.full(n, np.inf) if upper_bounds is None else np.asarray(upper_bounds, dtype=float)
    capped = np.flatnonzero(np.isfinite(u))
    rows = np.zeros((capped.size, n + capped.size))
    rows[np.arange(capped.size), capped] = 1.0
    rows[:, n:] = np.eye(capped.size)
    return LinearProgram(
        np.concatenate([c, np.zeros(capped.size)]),
        np.vstack([np.hstack([a, np.zeros((len(a), capped.size))]), rows]),
        np.concatenate([np.asarray(eq_rhs, dtype=float), u[capped]]),
    )
