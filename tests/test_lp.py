from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games import bellmap, bounds, expdata, games, lp
from oblivious_games.lp import LinearProgram, LpSolution, Polytope, solve, solve_many
from slack_form import with_upper_bounds


def test_fixed_variable_with_bounds():
    sol = solve(with_upper_bounds([1.0], [[1.0]], [0.5], [1.0]))
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
    # maximize x + y with no equality rows, only the caps x, y <= 0.7
    sol = solve(with_upper_bounds([1.0, 1.0], np.zeros((0, 2)), [], [0.7, 0.7]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.4) < 1e-12


@pytest.mark.parametrize("part", ["objective", "eq_matrix", "eq_rhs"])
def test_nan_program_rejected(part):
    fields = dict(objective=[1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    fields[part] = np.full(np.shape(fields[part]), np.nan)
    with pytest.raises(ValueError):
        LinearProgram(**fields)


def test_infinite_upper_bound_means_unbounded_variable():
    sol = solve(with_upper_bounds([1.0, 2.0], [[1.0, 1.0]], [1.0], [np.inf, 0.25]))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.25) < 1e-12


def test_only_the_equality_form():
    with pytest.raises(TypeError):
        LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], upper_bounds=[1.0, 1.0])
    with pytest.raises(TypeError):
        Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])


def test_size_guard():
    with pytest.raises(ValueError):
        LinearProgram(np.ones(501), np.ones((1, 501)), [1.0])


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 9))
    x_feas = rng.random(9)
    b = a @ x_feas
    c = rng.normal(size=9)
    sol = solve(with_upper_bounds(c, a, b, np.full(9, 5.0)))
    assert sol.status == "optimal"
    v = sol.values[:9]
    assert np.max(np.abs(a @ v - b)) < 1e-8
    assert np.min(sol.values) >= -1e-10
    assert np.max(v) <= 5.0 + 1e-10


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
    sol = solve(with_upper_bounds(c, a, b, np.full(n, 10.0)))
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
    base = solve(with_upper_bounds(c, a, b, u))
    perm = rng.permutation(n)
    permuted = solve(with_upper_bounds(c[perm], a[:, perm], b, u[perm]))
    assert base.status == permuted.status == "optimal"
    assert abs(base.objective_value - permuted.objective_value) < 1e-9


def test_deterministic_across_repeat_solves():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 7))
    b = a @ (rng.random(7) + 0.05)
    c = rng.normal(size=7)
    program = with_upper_bounds(c, a, b, np.full(7, 3.0))
    first = solve(program)
    second = solve(program)
    assert first.objective_value == second.objective_value
    assert np.array_equal(first.values, second.values)


def test_solution_dataclass_fields():
    sol = LpSolution(status="infeasible")
    assert sol.values is None and sol.objective_value is None


def _mixed_stack():
    """Programs of one shape (3 rows, 4 variables, only the last one capped,
    so 4 rows and 5 variables in slack form) that end in every way the solver
    distinguishes."""
    rng = np.random.default_rng(7)

    def capped(c, a, b, u):
        return with_upper_bounds(c, a, b, [np.inf, np.inf, np.inf, u])

    a = rng.normal(size=(3, 4))
    x0 = rng.random(4)
    return [
        # optimal, a random program through a nonnegative point
        (capped(rng.normal(size=4), a, a @ x0, 5.0), "optimal"),
        # infeasible: two rows ask for different sums of the same variables
        (capped([1, 0, 0, 0], [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]],
                [1.0, 2.0, 0.5], 5.0), "infeasible"),
        # infeasible: an all-zero row with a nonzero rhs
        (capped([1, 0, 0, 0], [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
                [1.0, 0.3, 0.5], 5.0), "infeasible"),
        # unbounded along x0 = x1 + t, with an all-zero row and zero rhs
        (capped([1, 1, 0, 0], [[1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                [0.0, 1.0, 0.0], 5.0), "unbounded"),
        # a row repeated twice over, one of them scaled
        (capped([1, 2, 0, 1], [[1, 1, 1, 0], [2, 2, 2, 0], [0, 0, 1, 1]],
                [1.0, 2.0, 0.5], 5.0), "optimal"),
        # every rhs negative
        (capped([1, 0, 2, 0], -np.abs(a), -np.abs(a) @ x0, 5.0), "optimal"),
        # the upper bound binds
        (capped([0, 0, 0, 1], [[1, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0]],
                [1.0, 0.1, 0.2], 0.3), "optimal"),
        # a negative upper bound
        (capped([1, 0, 0, 0], a, a @ x0, -1.0), "infeasible"),
    ]


FIELDS = ("objective", "eq_matrix", "eq_rhs")


def _one_stack(programs):
    """The programs as one stacked LinearProgram."""
    return LinearProgram(*(np.concatenate([getattr(p, f) for p in programs]) for f in FIELDS))


def test_one_program_is_the_stack_of_one():
    program = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert program.objective.shape == (1, 2)
    assert program.eq_matrix.shape == (1, 1, 2)
    assert program.eq_rhs.shape == (1, 1)


def test_stack_equals_each_program_alone():
    programs, expected = zip(*_mixed_stack())
    stacked = solve_many(_one_stack(programs))
    assert [s.status for s in stacked] == list(expected)
    for p, together in enumerate(stacked):
        alone = solve(LinearProgram(*(getattr(programs[p], f)[0] for f in FIELDS)))
        assert together.status == alone.status
        assert together.pivots == alone.pivots
        assert together.phase1_pivots == alone.phase1_pivots
        assert together.objective_value == alone.objective_value
        if alone.values is None:
            assert together.values is None
        else:
            assert together.values.tobytes() == alone.values.tobytes()
    assert stacked[6].objective_value == 0.3


def test_stack_needs_one_shape():
    assert solve_many(LinearProgram(np.zeros((0, 2)), np.zeros((0, 1, 2)), np.zeros((0, 1)))) == []
    ones = np.ones((2, 1, 2))
    with pytest.raises(ValueError):  # a three-variable objective over two-variable rows
        LinearProgram(np.ones((2, 3)), ones, np.ones((2, 1)))


def test_solve_many_takes_one_stacked_program():
    square = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0])
    for not_a_stack in ([square], [], (square, square)):
        with pytest.raises(TypeError, match="one stacked LinearProgram"):
            solve_many(not_a_stack)


@pytest.mark.parametrize("part", FIELDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_one_layer_rejected(part, bad):
    fields = {f: np.concatenate([getattr(p, f) for p, _ in _mixed_stack()]) for f in FIELDS}
    fields[part][(3,) + (0,) * (fields[part].ndim - 1)] = bad  # layer 3's first entry
    with pytest.raises(ValueError):
        LinearProgram(**fields)


def test_mismatched_stack_axes_rejected():
    stack = _one_stack([p for p, _ in _mixed_stack()])
    fields = {f: getattr(stack, f) for f in FIELDS}
    for part in FIELDS:
        with pytest.raises(ValueError):
            LinearProgram(**{**fields, part: fields[part][:-1]})
    with pytest.raises(ValueError):
        solve(stack)
    with pytest.raises(ValueError):
        Polytope(stack.eq_matrix, stack.eq_rhs)


def _solutions_of(monkeypatch, run):
    """Every LpSolution returned while ``run()`` executes."""
    solutions = []
    original = lp.solve

    def recording(program):
        solutions.append(original(program))
        return solutions[-1]

    monkeypatch.setattr(lp, "solve", recording)
    run()
    return solutions


# Pivot counts of the earlier solver, which pivoted one tableau row at a time,
# counted as calls of its pivot routine: the lockstep solver takes the same
# pivots.
def test_pivots_of_the_bundled_secondary_program(monkeypatch, data_dir):
    data = expdata.load_primary(
        data_dir / "table2.csv", data_dir / "table3.csv", data_dir / "table4.csv"
    )
    solutions = _solutions_of(monkeypatch, lambda: expdata.secondary_data(data))
    assert [s.pivots for s in solutions] == [38]


def _cold_oracle(game, messages):
    """The LP oracle written out with one cold ``solve`` per decoder.

    Same decoder order, pruning bound and polytope as
    ``bounds.pnc_bound_lp_oracle``; returns the best value and decoder, and
    each solved program with its solution.
    """
    na, nb, no = game.n_alice, game.n_bob, game.n_outcomes
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    fns = list(product(range(no), repeat=nb))
    scores = np.array([[weighted[x, np.arange(nb), list(f)].sum() for x in range(na)] for f in fns])
    rows = game.constraint_rows()
    a = np.vstack(
        [np.kron(np.eye(na), np.ones(messages))]
        + [np.kron(row, np.eye(messages)[m]) for m in range(messages) for row in rows]
    )
    b = np.concatenate([np.ones(na), np.zeros(len(a) - na)])
    best, decoder, solved = -np.inf, None, []
    for combo in combinations_with_replacement(range(len(fns)), messages):
        chosen = scores[list(combo)]
        if chosen.max(axis=0).sum() <= best + 1e-12:
            continue
        program = LinearProgram(chosen.T.ravel(), a, b)
        solved.append((program, solve(program)))
        if solved[-1][1].objective_value > best + 1e-12:
            best, decoder = solved[-1][1].objective_value, [list(fns[i]) for i in combo]
    return best, decoder, solved


def test_pivots_of_the_rac23_oracle_programs():
    _, _, solved = _cold_oracle(games.make_rac_game(2, 3), 3)
    assert [s.pivots for _, s in solved] == [20, 22, 25, 24, 24, 24, 26]


def test_pivots_of_the_warm_rac23_oracle():
    # one phase 1, then each decoder re-optimized from the last basis
    result = bounds.pnc_bound_lp_oracle(games.make_rac_game(2, 3), 3)
    assert result.programs == 7
    assert result.pivots == 38


ORACLE_GAMES = {
    "rac22": (lambda: games.make_rac_game(2, 2), 2),
    "rac23": (lambda: games.make_rac_game(2, 3), 3),
    "rac32": (lambda: games.make_rac_game(3, 2), 2),
    "cglmp3": (games.make_cglmp3_game, 3),
    "bell-cglmp3": (lambda: bellmap.game_from_bell(bellmap.cglmp3(), np.full((2, 3), 1 / 3)), 3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GAMES))
def test_warm_maximize_equals_cold_solve(name):
    make, messages = ORACLE_GAMES[name]
    game = make()
    best, decoder, solved = _cold_oracle(game, messages)
    polytope = Polytope(solved[0][0].eq_matrix, solved[0][0].eq_rhs)
    for program, cold in solved:
        warm = polytope.maximize(program.objective)
        assert warm.status == cold.status == "optimal"
        assert abs(warm.objective_value - cold.objective_value) < 1e-12
    result = bounds.pnc_bound_lp_oracle(game, messages)
    assert abs(result.value - best) < 1e-12
    assert result.witness["decoder"] == decoder
    assert result.programs == len(solved)


def test_warm_pivots_after_the_first():
    program = _mixed_stack()[0][0]
    polytope = Polytope(program.eq_matrix, program.eq_rhs)
    first = polytope.maximize(program.objective)
    cold = solve(program)
    assert (first.pivots, first.phase1_pivots) == (cold.pivots, cold.phase1_pivots)
    assert 0 < first.phase1_pivots <= first.pivots
    assert first.values.tobytes() == cold.values.tobytes()
    # the same objective again: the basis is already optimal
    again = polytope.maximize(program.objective)
    assert (again.pivots, again.phase1_pivots) == (0, 0)
    assert again.objective_value == first.objective_value
    assert again.values.tobytes() == first.values.tobytes()


def test_infeasible_polytope_stays_infeasible():
    program = _mixed_stack()[1][0]
    polytope = Polytope(program.eq_matrix, program.eq_rhs)
    rng = np.random.default_rng(4)
    # the slack of the capped variable costs nothing
    for objective in [program.objective, np.append(rng.normal(size=4), 0.0), np.zeros(5)]:
        solution = polytope.maximize(objective)
        assert solution.status == "infeasible"
        assert solution.values is None


def test_polytope_rejects_bad_objectives():
    polytope = Polytope([[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        polytope.maximize([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        polytope.maximize([1.0, np.nan])
    with pytest.raises(ValueError):
        Polytope([1.0, 1.0], [1.0])
