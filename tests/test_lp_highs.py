"""Cross-check of the Bland-rule simplex against scipy's HiGHS solver.

An upper-bounded program reaches the simplex in slack form and HiGHS with
native bounds, so two independent formulations must agree.
"""

import numpy as np
import pytest

from oblivious_games import expdata
from oblivious_games.lp import LinearProgram, solve
from slack_form import with_upper_bounds

linprog = pytest.importorskip("scipy.optimize").linprog

STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def assert_agrees(c, a, b, upper=None, ours=None, row=0):
    """Same status as HiGHS and, when optimal, the same optimum to 1e-8 at a
    vertex of the slack form: no value below -1e-13, and A v = b to 1e-12
    relative.  Returns the status.

    ``ours`` is the solver's result when it was solved elsewhere, in a
    stack, and ``row`` the program's row in it.
    """
    slack = with_upper_bounds(c, a, b, upper)
    if ours is None:
        ours = solve(slack)
    status, values = ours.status[row], ours.values[row]
    caps = np.full(len(c), np.inf) if upper is None else np.asarray(upper)
    bounds = [(0.0, None if np.isinf(u) else u) for u in caps]
    ref = linprog(
        -np.asarray(c),
        A_eq=np.asarray(a) if len(b) else None,
        b_eq=np.asarray(b) if len(b) else None,
        bounds=bounds,
        method="highs",
    )
    assert status == STATUS[ref.status]
    if status == "optimal":
        assert abs(ours.objective_value[row] - (-ref.fun)) < 1e-8 * max(1.0, abs(ref.fun))
        assert values.min() >= -1e-13
        rhs = slack.eq_rhs[0]
        residual = np.abs(slack.eq_matrix[0] @ values - rhs).max(initial=0.0)
        assert residual <= 1e-12 * max(1.0, np.abs(rhs).max(initial=0.0))
    return status


def feasible_program(rng, m, n, support=None):
    """Random equalities through a nonnegative point, bounded by a sum row."""
    x0 = rng.random(n)
    if support is not None:
        x0[rng.permutation(n)[support:]] = 0.0
    a = np.vstack([rng.normal(size=(m, n)), np.ones(n)])
    return rng.normal(size=n), a, a @ x0, x0


def infeasible_program(rng, n):
    """Positive rows cannot reach a negative right-hand side with v >= 0."""
    a = rng.random((3, n)) + 0.1
    b = np.concatenate([rng.random(2), [-0.5 - rng.random()]])
    return rng.normal(size=n), a, b


def unbounded_program(rng, k):
    """v = (u, w) with B u - B w = b: the ray u = w = t 1 stays feasible and
    gains with a positive objective."""
    bmat = rng.normal(size=(2, k))
    a = np.hstack([bmat, -bmat])
    b = a @ rng.random(2 * k)
    return rng.random(2 * k) + 0.1, a, b


def degenerate_program(rng, n):
    """A sparse feasible point, a duplicated row and zero right-hand sides
    give vertices with many zero basic variables."""
    c, a, b, _ = feasible_program(rng, 4, n, support=2)
    return c, np.vstack([a, a[0], 2.0 * a[1]]), np.concatenate([b, b[:1], 2.0 * b[1:2]])


def capped_program(rng, n, capped):
    """A feasible program with upper bounds above its point on ``capped``."""
    c, a, b, x0 = feasible_program(rng, 3, n)
    upper = np.full(n, np.inf)
    upper[capped] = x0[capped] + rng.random(len(capped))
    return c, a, b, upper


@pytest.mark.parametrize("seed", range(12))
def test_random_feasible(seed):
    rng = np.random.default_rng(seed)
    c, a, b, _ = feasible_program(rng, 3 + seed % 4, 8 + seed)
    assert assert_agrees(c, a, b) == "optimal"


@pytest.mark.parametrize("seed", range(6))
def test_random_infeasible(seed):
    program = infeasible_program(np.random.default_rng(100 + seed), 5 + seed)
    assert assert_agrees(*program) == "infeasible"


@pytest.mark.parametrize("seed", range(6))
def test_random_unbounded(seed):
    program = unbounded_program(np.random.default_rng(200 + seed), 3 + seed)
    assert assert_agrees(*program) == "unbounded"


@pytest.mark.parametrize("seed", range(8))
def test_random_degenerate(seed):
    rng = np.random.default_rng(300 + seed)
    n = 10
    c, a, b = degenerate_program(rng, n)
    zero_rows = rng.normal(size=(2, n))
    zero_rows[:, rng.permutation(n)[:5]] = 0.0
    assert assert_agrees(c, a, b) == "optimal"
    assert_agrees(c, np.vstack([np.ones((1, n)), np.abs(zero_rows)]), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("seed", range(8))
def test_random_upper_bounded(seed):
    rng = np.random.default_rng(400 + seed)
    n = 9
    c, a, b, x0 = feasible_program(rng, 3, n)
    upper = x0 + rng.random(n)
    upper[rng.permutation(n)[:3]] = np.inf
    assert assert_agrees(c, a, b, upper) == "optimal"
    # upper bounds alone, no equalities
    assert_agrees(rng.normal(size=n), np.zeros((0, n)), [], rng.random(n))


# Each category at one shape, so that its seeds form one stack.
STACKS = {
    "feasible": lambda rng: feasible_program(rng, 4, 10)[:3],
    "infeasible": lambda rng: infeasible_program(rng, 7),
    "unbounded": lambda rng: unbounded_program(rng, 4),
    "degenerate": lambda rng: degenerate_program(rng, 10),
    "upper-bounded": lambda rng: capped_program(rng, 9, [0, 2, 3, 5, 6, 8]),
}


@pytest.mark.parametrize("category", sorted(STACKS))
def test_category_as_one_stack(category):
    programs = [STACKS[category](np.random.default_rng(500 + seed)) for seed in range(8)]
    slack = [with_upper_bounds(*program) for program in programs]
    fields = ("objective", "eq_matrix", "eq_rhs")
    stacked = solve(
        LinearProgram(*(np.concatenate([getattr(p, f) for p in slack]) for f in fields))
    )
    for p, (program, alone) in enumerate(zip(programs, slack)):
        assert_agrees(*program, ours=stacked, row=p)
        assert stacked.pivots[p] == solve(alone).pivots[0]


def secondary_program(tables, mapping):
    """The secondary-data program of ``tables`` written out independently:
    W[t, s] at t * 6 + s, unit row sums, and equal sums of the mixed tables
    over the two values of x.  Returns (objective, A, b)."""
    sign = [1.0 if mapping.state_map[lab][1] == 0 else -1.0 for lab in expdata.STATES]
    rows = []
    for t in range(6):
        row = np.zeros(36)
        row[6 * t : 6 * t + 6] = 1.0
        rows.append(row)
    for i in range(2):
        for p in range(3):
            row = np.zeros(36)
            for t in range(6):
                row[6 * t : 6 * t + 6] = sign[t] * tables[:, i, p]
            rows.append(row)
    return np.eye(6).ravel() / 6, np.asarray(rows), np.concatenate([np.ones(6), np.zeros(6)])


def test_secondary_optimum_on_bundled_tables(data_dir):
    data = expdata.load_primary(
        data_dir / "table2.csv", data_dir / "table3.csv", data_dir / "table4.csv"
    )
    mapping = expdata.pinned_mapping()
    program = secondary_program(data.normalized(), mapping)
    ours = solve(LinearProgram(*program))
    assert assert_agrees(*program, ours=ours) == "optimal"
    assert abs(expdata.secondary_data(data, mapping).s - ours.objective_value[0]) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_warm_started_perturbed_secondary_programs(data_dir, seed):
    # each stack starts from the optimal basis of the bundled tables' program,
    # as the Monte Carlo does, with the tables perturbed by their sigmas
    data = expdata.load_primary(
        data_dir / "table2.csv", data_dir / "table3.csv", data_dir / "table4.csv"
    )
    mapping = expdata.pinned_mapping()
    start = solve(LinearProgram(*secondary_program(data.normalized(), mapping))).basis[0]
    rng = np.random.default_rng(700 + seed)
    programs = []
    for _ in range(16):
        draw = np.clip(data.probabilities + rng.normal(size=(6, 2, 3)) * data.sigmas, 0.0, 1.0)
        programs.append(secondary_program(draw / draw.sum(axis=2, keepdims=True), mapping))
    stack = LinearProgram(*(np.stack(field) for field in zip(*programs)))
    ours = solve(stack, start)
    for p, program in enumerate(programs):
        assert ours.status[p] == "optimal" and ours.phase1_pivots[p] == 0
        ref = linprog(-program[0], A_eq=program[1], b_eq=program[2], method="highs")
        assert ref.status == 0
        assert abs(ours.objective_value[p] + ref.fun) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_polytope_over_a_sequence_of_objectives(seed):
    # a bounded polytope with one free column: an objective that gains on it
    # is unbounded, and the next bounded one must re-optimize from there;
    # each solve starts from the basis the last one ended in
    rng = np.random.default_rng(600 + seed)
    _, a, b, x0 = feasible_program(rng, 3, 8)
    a = np.hstack([a, np.zeros((len(a), 1))])
    upper = np.full(9, np.inf)
    upper[[1, 4]] = x0[[1, 4]] + rng.random(2)
    slack = with_upper_bounds(np.zeros(9), a, b, upper)
    start, statuses, phase1 = None, [], []
    for step in range(8):
        c = rng.normal(size=9)
        c[-1] = 1.0 if step == 3 else -abs(c[-1])
        # the two slacks cost nothing
        solutions = solve(
            LinearProgram(np.append(c, [0.0, 0.0]), slack.eq_matrix[0], slack.eq_rhs[0]), start
        )
        start = solutions.basis[0]
        phase1.append(int(solutions.phase1_pivots[0]))
        statuses.append(assert_agrees(c, a, b, upper, ours=solutions))
    assert statuses == ["optimal"] * 3 + ["unbounded"] + ["optimal"] * 4
    assert phase1[0] > 0 and phase1[1:] == [0] * 7  # phase 1 runs once
