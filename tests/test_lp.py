import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games.lp import LinearProgram, LpSolution, solve


def test_fixed_variable_with_bounds():
    sol = solve(LinearProgram([1.0], [[1.0]], [0.5], upper_bounds=[1.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 0.5) < 1e-12


def test_degenerate_optimum_terminates():
    sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-12


def test_infeasible_reported():
    sol = solve(LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert sol.status == "infeasible"
    assert sol.values is None


def test_unbounded_reported():
    sol = solve(LinearProgram([1.0, 0.0], np.zeros((0, 2)), []))
    assert sol.status == "unbounded"


def test_redundant_rows_handled():
    sol = solve(LinearProgram([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 2.0) < 1e-12


def test_negative_rhs_rows():
    sol = solve(LinearProgram([1.0, 0.0], [[-1.0, -1.0]], [-1.0]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) < 1e-12


def test_upper_bound_binds():
    # maximize x + y st x + y <= via x + y + s = 2 upper bounds x,y <= 0.7
    sol = solve(
        LinearProgram(
            [1.0, 1.0],
            np.zeros((0, 2)),
            [],
            upper_bounds=[0.7, 0.7],
        )
    )
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.4) < 1e-12


@pytest.mark.parametrize("part", ["objective", "eq_matrix", "eq_rhs", "upper_bounds"])
def test_nan_program_rejected(part):
    fields = dict(
        objective=[1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0], upper_bounds=[1.0, 1.0]
    )
    fields[part] = np.full(np.shape(fields[part]), np.nan)
    with pytest.raises(ValueError):
        LinearProgram(**fields)


def test_infinite_upper_bound_means_unbounded_variable():
    sol = solve(LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], upper_bounds=[np.inf, 0.25]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.25) < 1e-12
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], upper_bounds=[-np.inf, 0.25])


def test_size_guard():
    with pytest.raises(ValueError):
        LinearProgram(np.ones(501), np.ones((1, 501)), [1.0])


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 9))
    x_feas = rng.random(9)
    b = a @ x_feas
    c = rng.normal(size=9)
    sol = solve(LinearProgram(c, a, b, upper_bounds=np.full(9, 5.0)))
    assert sol.status == "optimal"
    assert np.max(np.abs(a @ sol.values - b)) < 1e-8
    assert np.min(sol.values) >= -1e-10
    assert np.max(sol.values) <= 5.0 + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_weak_duality_on_random_feasible_programs(seed):
    # solver optimum must dominate any feasible point we can sample
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 4))
    a = rng.normal(size=(m, n))
    interior = rng.random(n) + 0.1
    b = a @ interior
    c = rng.normal(size=n)
    lp = LinearProgram(c, a, b, upper_bounds=np.full(n, 10.0))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.objective_value >= float(c @ interior) - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_variable_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    m = int(rng.integers(1, 4))
    a = rng.normal(size=(m, n))
    b = a @ (rng.random(n) + 0.1)
    c = rng.normal(size=n)
    u = np.full(n, 4.0)
    base = solve(LinearProgram(c, a, b, upper_bounds=u))
    perm = rng.permutation(n)
    permuted = solve(LinearProgram(c[perm], a[:, perm], b, upper_bounds=u[perm]))
    assert base.status == permuted.status == "optimal"
    assert abs(base.objective_value - permuted.objective_value) < 1e-9


def test_deterministic_across_repeat_solves():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 7))
    b = a @ (rng.random(7) + 0.05)
    c = rng.normal(size=7)
    lp = LinearProgram(c, a, b, upper_bounds=np.full(7, 3.0))
    first = solve(lp)
    second = solve(lp)
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.values, second.values)


def test_solution_dataclass_fields():
    sol = LpSolution(status="infeasible")
    assert sol.values is None and sol.objective_value is None
