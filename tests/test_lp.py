from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games import bellmap, bounds, expdata, games, lp
from oblivious_games.lp import LinearProgram, solve
from conftest import every_parity_rac_game, random_game
from slack_form import with_upper_bounds


def test_fixed_variable_with_bounds():
    sol = solve(with_upper_bounds([1.0], [[1.0]], [0.5], [1.0]))
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 0.5) < 1e-12


def test_degenerate_optimum_terminates():
    sol = solve(LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0]))
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 1.0) < 1e-12


def test_infeasible_reported():
    sol = solve(LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert sol.status[0] == "infeasible"
    assert np.isnan(sol.values).all()


def test_unbounded_reported():
    sol = solve(LinearProgram([1.0, 0.0], np.zeros((0, 2)), []))
    assert sol.status[0] == "unbounded"


def test_redundant_rows_handled():
    program = LinearProgram([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    sol = solve(program)
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 2.0) < 1e-12
    # the drive-out zeroes row 1 under its artificial index n + 1
    assert sol.basis[0].tolist() == [1, 3]


def test_row_redundant_to_the_pivot_tolerance_stays_dropped():
    # the last row is the sum of the first two plus entries of about 5e-10,
    # below PIVOT_TOL: phase 1 leaves an artificial basic on a row with no
    # movable entry, and the drive-out zeroes that row.  Left in place, its
    # entries grow past PIVOT_TOL under phase 2's pivots, a degenerate step
    # makes it a constraint again, and the solve stops at 0.8710281379; HiGHS
    # gives 1.3720638231 with the row and without it.
    rng = np.random.default_rng(3)
    x0 = rng.random(8)
    kept = np.vstack([rng.normal(size=(3, 8)), np.ones(8)])
    a = np.vstack([kept, kept[0] + kept[1] + 5e-10 * rng.normal(size=8)])
    c = rng.normal(size=8)
    solution = solve(LinearProgram(c, a, a @ x0))
    assert (solution.basis[0] >= 8).sum() == 1
    without = solve(LinearProgram(c, kept, kept @ x0))
    assert abs(solution.objective_value[0] - without.objective_value[0]) < 1e-9
    assert abs(solution.objective_value[0] - 1.3720638231) < 1e-9


def test_negative_rhs_rows():
    sol = solve(LinearProgram([1.0, 0.0], [[-1.0, -1.0]], [-1.0]))
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 1.0) < 1e-12


def test_upper_bound_binds():
    # maximize x + y with no equality rows, only the caps x, y <= 0.7
    sol = solve(with_upper_bounds([1.0, 1.0], np.zeros((0, 2)), [], [0.7, 0.7]))
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 1.4) < 1e-12


@pytest.mark.parametrize("part", ["objective", "eq_matrix", "eq_rhs"])
def test_nan_program_rejected(part):
    fields = dict(objective=[1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0])
    fields[part] = np.full(np.shape(fields[part]), np.nan)
    with pytest.raises(ValueError):
        LinearProgram(**fields)


def test_infinite_upper_bound_means_unbounded_variable():
    sol = solve(with_upper_bounds([1.0, 2.0], [[1.0, 1.0]], [1.0], [np.inf, 0.25]))
    assert sol.status[0] == "optimal"
    assert abs(sol.objective_value[0] - 1.25) < 1e-12


def test_only_the_equality_form():
    with pytest.raises(TypeError):
        LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], upper_bounds=[1.0, 1.0])


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
    assert sol.status[0] == "optimal"
    v = sol.values[0, :9]
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
    assert sol.status[0] == "optimal"
    assert sol.objective_value[0] >= float(c @ interior) - 1e-9


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
    assert base.status[0] == permuted.status[0] == "optimal"
    assert abs(base.objective_value[0] - permuted.objective_value[0]) < 1e-9


def test_deterministic_across_repeat_solves():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 7))
    b = a @ (rng.random(7) + 0.05)
    c = rng.normal(size=7)
    program = with_upper_bounds(c, a, b, np.full(7, 3.0))
    first = solve(program)
    second = solve(program)
    assert first.objective_value[0] == second.objective_value[0]
    assert np.array_equal(first.values, second.values)


def test_solution_dataclass_fields():
    sol = solve(LinearProgram([1.0], [[1.0], [1.0]], [1.0, 2.0]))
    assert sol.status.tolist() == ["infeasible"]
    assert sol.values.shape == (1, 1) and sol.objective_value.shape == (1,)
    assert np.isnan(sol.values).all() and np.isnan(sol.objective_value).all()


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


def test_stacked_fields_equal_each_program_alone():
    programs, expected = zip(*_mixed_stack())
    stacked = solve(_one_stack(programs))
    n = programs[0].objective.shape[1]
    assert stacked.status.tolist() == list(expected)
    assert len(stacked.status) == len(programs)
    assert stacked.values.shape == (len(programs), n)
    for field in ("status", "objective_value", "pivots", "phase1_pivots"):
        assert getattr(stacked, field).shape == (len(programs),)
    for p, program in enumerate(programs):
        # each program given without a stack axis, which is the stack of one
        alone = solve(LinearProgram(*(getattr(program, f)[0] for f in FIELDS)))
        assert stacked.status[p] == alone.status[0]
        assert stacked.pivots[p] == alone.pivots[0]
        assert stacked.phase1_pivots[p] == alone.phase1_pivots[0]
        assert stacked.basis[p].tolist() == alone.basis[0].tolist()
        if alone.status[0] != "optimal":
            assert np.isnan(alone.values).all() and np.isnan(alone.objective_value).all()
            assert np.isnan(stacked.values[p]).all() and np.isnan(stacked.objective_value[p])
        else:
            assert stacked.values[p].tobytes() == alone.values[0].tobytes()
            assert stacked.objective_value[p] == alone.objective_value[0]
    assert stacked.objective_value[6] == 0.3


def _warm_start_stack():
    """A program with a redundant row, its optimal basis, and programs of its
    shape labelled by what that basis is to them."""
    rng = np.random.default_rng(11)
    n = 8
    a = rng.normal(size=(2, n))
    x0 = rng.random(n)
    # the last row repeats the first, so the drive-out zeroes one row
    eq = np.vstack([a, np.ones(n), a[0]])
    c = rng.normal(size=n)
    start = solve(LinearProgram(c, eq, eq @ x0)).basis[0]
    programs = []
    for _ in range(6):  # new right-hand sides leave the basis dual feasible
        x = rng.random(n) * (rng.random(n) < 0.5)
        programs.append((LinearProgram(c, eq, eq @ x), "dual feasible"))
    # the start is optimal for c, so feasible for -c, but not optimal
    programs.append((LinearProgram(-c, eq, eq @ x0), "primal feasible"))
    singular = eq.copy()
    singular[:, start[0]] = 0.0
    programs.append((LinearProgram(c, singular, singular @ x0), "singular"))
    rhs = eq @ x0
    rhs[2] = -1.0  # no nonnegative point sums to -1
    programs.append((LinearProgram(c, eq, rhs), "infeasible"))
    unrelated = eq.copy()
    unrelated[3] = rng.normal(size=n)
    programs.append((LinearProgram(c, unrelated, unrelated @ x0), "dropped row not implied"))
    return start, programs


def test_warm_start_serves_dual_or_primal_feasible_bases():
    start, labelled = _warm_start_stack()
    assert (start >= 8).sum() == 1
    programs, kinds = zip(*labelled)
    stack = _one_stack(programs)
    warm = solve(stack, start)
    cold = solve(stack)
    assert list(cold.status) == ["optimal"] * 8 + ["infeasible", "optimal"]
    assert warm.basis.shape == (len(programs), 4)
    for p, kind in enumerate(kinds):
        if kind == "dual feasible":
            assert warm.status[p] == "optimal" and warm.phase1_pivots[p] == 0
            assert abs(warm.objective_value[p] - cold.objective_value[p]) < 1e-12
            alone = solve(programs[p], start)
            assert warm.values[p].tobytes() == alone.values[0].tobytes()
            assert warm.pivots[p] == alone.pivots[0]
        elif kind == "primal feasible":
            # the dual simplex takes no step, and phase 2 runs from the start
            assert warm.status[p] == "optimal" and warm.phase1_pivots[p] == 0
            assert abs(warm.objective_value[p] - cold.objective_value[p]) < 1e-12
        else:
            assert warm.status[p] == cold.status[p]
            assert warm.values[p].tobytes() == cold.values[p].tobytes()
            assert warm.objective_value[p].tobytes() == cold.objective_value[p].tobytes()
            assert warm.pivots[p] == cold.pivots[p]
            assert warm.phase1_pivots[p] == cold.phase1_pivots[p] > 0
    served = warm.pivots[: kinds.count("dual feasible")]
    assert served.min() == 0 < served.max()  # some need the dual simplex, some not


def test_warm_restart_from_its_own_optimal_basis():
    # the rows to drop are those the artificial start indices name, not those
    # at their positions in the basis; on this polytope, whose families repeat,
    # the two differ, and the rows at those positions leave B singular
    a, b = _oracle_polytope(every_parity_rac_game(3, 3), 3)
    n = a.shape[1]
    program = LinearProgram(np.random.default_rng(0).normal(size=n), a, b)
    cold = solve(program)
    assert (cold.pivots[0], cold.phase1_pivots[0]) == (182, 128)
    basis = cold.basis[0]
    positions = np.flatnonzero(basis >= n)
    named = basis[positions] - n
    assert positions.size and (named != positions).any()
    columns = a[:, basis[basis < n]]
    assert np.linalg.matrix_rank(np.delete(columns, named, axis=0)) == columns.shape[1]
    assert np.linalg.matrix_rank(np.delete(columns, positions, axis=0)) < columns.shape[1]
    warm = solve(program, cold.basis[0])
    assert (warm.pivots[0], warm.phase1_pivots[0]) == (0, 0)
    assert abs(warm.objective_value[0] - cold.objective_value[0]) < 1e-12


def test_warm_start_chains_over_objectives():
    # each result's basis starts the next solve, as the LP oracle chains them,
    # over a polytope whose families repeat
    a, b = _oracle_polytope(every_parity_rac_game(3, 3), 2)
    rng = np.random.default_rng(0)
    start, phase1, zeroed = None, [], []
    for _ in range(4):
        program = LinearProgram(rng.normal(size=a.shape[1]), a, b)
        solution = solve(program, start)
        assert abs(solution.objective_value[0] - solve(program).objective_value[0]) < 1e-12
        start = solution.basis[0]
        phase1.append(int(solution.phase1_pivots[0]))
        zeroed.append(int((start >= a.shape[1]).sum()))
    assert phase1 == [107, 0, 0, 0]
    assert min(zeroed) > 0


def test_start_basis_checked():
    program = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    for bad in ([0, 1], [-1], [0.5], [[0]], "0", [3], [7]):
        with pytest.raises(ValueError, match="start"):
            solve(program, bad)
    two_rows = LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0])
    for bad in ([1, 1], [3, 3], [0, 4]):
        with pytest.raises(ValueError, match="start"):
            solve(two_rows, bad)


def _fields(solutions):
    return [
        getattr(solutions, name).tobytes()
        for name in ("status", "values", "objective_value", "pivots", "phase1_pivots", "basis")
    ]


def test_work_buffer_changes_no_result():
    start, labelled = _warm_start_stack()
    stack = _one_stack([program for program, _ in labelled])
    k, m, n = stack.eq_matrix.shape
    work = np.full((k, m + 1, n + 1), np.nan)
    fresh = solve(stack, start)
    buffered = solve(stack, start, work=work)
    before = _fields(buffered)
    assert before == _fields(fresh)
    assert not np.isnan(work).all()  # the tableaux were built there
    work[:] = 1e300
    assert _fields(buffered) == before


def test_work_buffer_checked():
    start, labelled = _warm_start_stack()
    stack = _one_stack([program for program, _ in labelled])
    k, m, n = stack.eq_matrix.shape
    readonly = np.empty((k, m + 1, n + 1))
    readonly.flags.writeable = False
    for bad in (
        np.empty((k, m + 1, n)),
        np.empty((k + 1, m + 1, n + 1)),
        np.empty((k, m + 1, n + 1), dtype=np.float32),
        np.empty((k, m + 1, n + 1), dtype=complex),
        np.empty((k, n + 1, m + 1)).transpose(0, 2, 1),  # not C-contiguous
        np.empty((2 * k, m + 1, n + 1))[::2],
        readonly,
        np.empty((k, m + 1, n + 1)).tolist(),
    ):
        with pytest.raises(ValueError, match="work"):
            solve(stack, start, work=bad)
    with pytest.raises(ValueError, match="work"):
        solve(stack, work=np.empty((k, m + 1, n + 1)))


@pytest.mark.parametrize("samples,seed", [(500, 5), (333, 7), (1100, 501013)])
def test_monte_carlo_warm_objective_equals_cold(monkeypatch, data_dir, samples, seed):
    data = expdata.load_primary(
        data_dir / "table2.csv", data_dir / "table3.csv", data_dir / "table4.csv"
    )
    original = lp.solve
    compared = []

    def both(programs, start=None, work=None):
        warm = original(programs, start, work=work)
        if start is not None:
            gap = np.abs(warm.objective_value - original(programs).objective_value)
            compared.append((gap.size, float(gap.max())))
        return warm

    monkeypatch.setattr(lp, "solve", both)
    expdata.mc_uncertainty(data, expdata.pinned_mapping(), samples, seed=seed)
    assert sum(size for size, _ in compared) == samples
    assert max(gap for _, gap in compared) < 1e-12


def test_stack_needs_one_shape():
    empty = LinearProgram(np.zeros((0, 2)), np.zeros((0, 1, 2)), np.zeros((0, 1)))
    assert len(solve(empty).status) == 0
    ones = np.ones((2, 1, 2))
    with pytest.raises(ValueError):  # a three-variable objective over two-variable rows
        LinearProgram(np.ones((2, 3)), ones, np.ones((2, 1)))
    # no variables, under one row (whatever its rhs) or none
    for rows, rhs in ((1, [0.0]), (1, [1.0]), (0, [])):
        with pytest.raises(ValueError, match=rf"no variables: A \(1, {rows}, 0\)"):
            LinearProgram(np.zeros(0), np.zeros((rows, 0)), rhs)


def test_solve_takes_one_stacked_program():
    square = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0])
    for not_a_stack in ([square], [], (square, square)):
        with pytest.raises(TypeError, match="one stacked LinearProgram"):
            solve(not_a_stack)


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


def _solutions_of(monkeypatch, run):
    """Every ``LpSolutions`` returned while ``run()`` executes."""
    solutions = []
    original = lp.solve

    def recording(programs, start=None, work=None):
        solutions.append(original(programs, start, work=work))
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
    assert [s.pivots.tolist() for s in solutions] == [[38]]


def _oracle_polytope(game, messages):
    """The equality rows and rhs of the encoding polytope, as
    ``bounds.pnc_bound_lp_oracle`` builds them."""
    na = game.n_alice
    rows = game.constraint_rows()
    a = np.vstack(
        [np.kron(np.eye(na), np.ones(messages))]
        + [np.kron(row, np.eye(messages)[m]) for m in range(messages) for row in rows]
    )
    return a, np.concatenate([np.ones(na), np.zeros(len(a) - na)])


def _cold_oracle(game, messages, decoders=combinations):
    """The LP oracle written out with one cold ``solve`` per decoder.

    Same decoder order (sets of distinct decoding functions), pruning bound
    and polytope as ``bounds.pnc_bound_lp_oracle``; returns the best value
    and decoder, and each solved program with its solution.  With
    ``combinations_with_replacement`` as ``decoders`` it enumerates multisets
    instead, the reference that sets must match.
    """
    na, nb, no = game.n_alice, game.n_bob, game.n_outcomes
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    fns = list(product(range(no), repeat=nb))
    scores = np.array([[weighted[x, np.arange(nb), list(f)].sum() for x in range(na)] for f in fns])
    a, b = _oracle_polytope(game, messages)
    best, decoder, solved = -np.inf, None, []
    for combo in decoders(range(len(fns)), messages):
        chosen = scores[list(combo)]
        if chosen.max(axis=0).sum() <= best + 1e-12:
            continue
        program = LinearProgram(chosen.T.ravel(), a, b)
        solved.append((program, solve(program)))
        if solved[-1][1].objective_value[0] > best + 1e-12:
            best, decoder = solved[-1][1].objective_value[0], [list(fns[i]) for i in combo]
    return best, decoder, solved


def test_pivots_of_the_rac23_oracle_programs():
    _, _, solved = _cold_oracle(games.make_rac_game(2, 3), 3)
    # the first set attains 2/3, and no other set's constraint-free bound exceeds it
    assert [s.pivots[0] for _, s in solved] == [25]


def test_pivots_of_the_warm_rac23_oracle():
    # one phase 1, then each decoder re-optimized from the last basis
    result = bounds.pnc_bound_lp_oracle(games.make_rac_game(2, 3), 3)
    assert result.programs == 1
    assert result.pivots == 25


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
    start = None
    for program, cold in solved:
        warm = solve(program, start)
        start = warm.basis[0]
        assert warm.status[0] == cold.status[0] == "optimal"
        assert abs(warm.objective_value[0] - cold.objective_value[0]) < 1e-12
    result = bounds.pnc_bound_lp_oracle(game, messages)
    assert abs(result.value - best) < 1e-12
    assert result.witness["decoder"] == decoder
    assert result.programs == len(solved)


@pytest.mark.parametrize("messages", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_GAMES) + ["random"])
def test_decoder_sets_equal_decoder_multisets(name, messages):
    game = random_game() if name == "random" else ORACLE_GAMES[name][0]()
    best, _, _ = _cold_oracle(game, messages, combinations_with_replacement)
    assert abs(bounds.pnc_bound_lp_oracle(game, messages).value - best) < 1e-12


def test_warm_pivots_after_the_first():
    program = _mixed_stack()[0][0]
    first = solve(program)
    cold = solve(LinearProgram(*(getattr(program, f)[0] for f in FIELDS)))
    assert (first.pivots[0], first.phase1_pivots[0]) == (cold.pivots[0], cold.phase1_pivots[0])
    assert 0 < cold.phase1_pivots[0] <= cold.pivots[0]
    assert first.values.tobytes() == cold.values.tobytes()
    # the same objective from the basis it ended in, which is optimal already;
    # the tableau is rebuilt there, so it rounds differently
    again = solve(program, first.basis[0])
    assert (again.pivots[0], again.phase1_pivots[0]) == (0, 0)
    assert abs(again.objective_value[0] - cold.objective_value[0]) < 1e-12
    assert np.abs(again.values[0] - cold.values[0]).max() < 1e-12


def test_infeasible_polytope_stays_infeasible():
    program = _mixed_stack()[1][0]
    rng = np.random.default_rng(4)
    start = None
    # the slack of the capped variable costs nothing
    for objective in [program.objective[0], np.append(rng.normal(size=4), 0.0), np.zeros(5)]:
        solutions = solve(
            LinearProgram(objective, program.eq_matrix[0], program.eq_rhs[0]), start
        )
        start = solutions.basis[0]
        assert solutions.status[0] == "infeasible"
        assert np.isnan(solutions.values[0]).all()
