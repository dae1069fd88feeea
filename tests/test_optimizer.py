import math

import numpy as np
import pytest

from conftest import random_game
from oblivious_games import optimizer
from oblivious_games.bounds import pnc_bound_lp_oracle
from oblivious_games.games import (
    QuantumStrategy,
    behavior_from_quantum,
    make_cglmp3_game,
    make_rac_game,
    obliviousness_residual_quantum,
    performance,
)
from oblivious_games.optimizer import (
    SearchConfig,
    _admm,
    _certificate,
    _jrf_update,
    _Projector,
    _random_povm,
    _herm,
    _random_rhos,
    search,
)

from test_bounds import WITNESS_GAMES, witness_strategy


class TestConfig:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=1)

    def test_dimension_ceiling(self):
        with pytest.raises(ValueError):
            SearchConfig(dim=9)

    # Explicit ids keep a case's id when other cases are removed.
    @pytest.mark.parametrize(
        "field",
        [
            {"max_iters": 0},
            {"dim": 3.5},
            {"dim": True},
            {"restarts": 1.5},
            {"restarts": True},
            {"max_iters": 2.5},
            {"max_iters": False},
        ],
        ids=[f"field{k}" for k in (0, 9, 10, 11, 12, 13, 14)],
    )
    def test_settings_that_break_search_rejected(self, field):
        with pytest.raises(ValueError):
            SearchConfig(**{"dim": 3, **field})

    # This test and the next keep the names they had while SearchConfig still
    # took a tolerance, so that the seed cases keep their ids.
    @pytest.mark.parametrize(
        "field,message",
        [
            ({"seed": 1.5}, "seed 1.5 is not an integer"),
            ({"seed": True}, "seed True is not an integer"),
            ({"seed": "0"}, "seed '0' is not an integer"),
            ({"seed": -1}, "seed -1 is negative"),
        ],
    )
    def test_seed_and_tolerance_checked_before_search(self, field, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**{"dim": 3, **field})

    def test_numpy_seed_and_integer_tolerance_accepted(self):
        SearchConfig(dim=3, seed=np.int64(7))


def _random_scores(rng, n_out, dim):
    a = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
    return (a + np.conj(np.swapaxes(a, 1, 2))) / 2


def _score(gram, effects):
    return float(np.einsum("bij,bji->", effects, gram).real)


class TestCertificate:
    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_every_povm(self, seed):
        rng = np.random.default_rng(seed)
        n_out, dim = 2 + seed % 3, 2 + seed % 3
        gram = _random_scores(rng, n_out, dim)
        effects = _random_povm(rng, n_out, dim)
        current = _score(gram, effects)
        trace, lam = _certificate(gram, effects)
        gap = trace + dim * lam - current
        assert gap >= -1e-12
        for _ in range(50):
            other = _random_povm(rng, n_out, dim)
            assert _score(gram, other) <= current + gap + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_closes_at_jrf_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        n_out, dim = 2 + seed % 2, 2 + seed % 3
        gram = _random_scores(rng, n_out, dim)
        effects = _jrf_update(gram, _random_povm(rng, n_out, dim), 2000)
        trace, lam = _certificate(gram, effects)
        gap = trace + dim * lam - _score(gram, effects)
        assert -1e-12 <= gap < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_certified_povm_returned_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        n_out, dim = 2 + seed % 2, 2 + seed % 3
        gram = _random_scores(rng, n_out, dim)
        fixed = _jrf_update(gram, _random_povm(rng, n_out, dim), 2000)
        assert _jrf_update(gram, fixed, 60) is fixed

    @pytest.mark.parametrize("seed", range(5))
    def test_stops_on_certificate_before_the_cap(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_out, dim = 2 + seed % 2, 2 + seed % 3
        gram = _random_scores(rng, n_out, dim)
        steps = []
        complete = optimizer._complete

        def counted(parts):
            steps.append(1)
            return complete(parts)

        monkeypatch.setattr(optimizer, "_complete", counted)
        effects = _jrf_update(gram, _random_povm(rng, n_out, dim), 2000)
        trace, lam = _certificate(gram, effects)
        gap = trace + dim * lam - _score(gram, effects)
        assert gap < 1e-12
        assert 0 < len(steps) < 2000


@pytest.mark.parametrize("n_out,dim", [(2, 2), (3, 3), (3, 4)])
def test_jrf_stack_equals_each_problem_alone(n_out, dim):
    rng = np.random.default_rng(n_out * 10 + dim)
    grams = np.stack([_random_scores(rng, n_out, dim) for _ in range(6)])
    starts = np.stack([_random_povm(rng, n_out, dim) for _ in range(6)])
    # a certified problem leaves the stack before its first step
    starts[4] = _jrf_update(grams[4], starts[4], 2000)
    alone = np.stack([_jrf_update(g, m, 60) for g, m in zip(grams, starts)])
    shape = (2, 3, n_out, dim, dim)
    stacked = _jrf_update(grams.reshape(shape), starts.reshape(shape), 60)
    assert stacked.shape == shape
    assert np.max(np.abs(stacked.reshape(alone.shape) - alone)) < 1e-12
    # a stack with no problem left to step returns its input
    fixed = _jrf_update(grams, starts, 2000)
    assert _jrf_update(grams, fixed, 60) is fixed



@pytest.mark.parametrize("n_out,dim", [(2, 2), (3, 3), (3, 4)])
def test_jrf_problem_takes_the_same_steps_alone_and_stacked(n_out, dim, monkeypatch):
    rng = np.random.default_rng(n_out * 10 + dim)
    grams = np.stack([_random_scores(rng, n_out, dim) for _ in range(6)])
    starts = np.stack([_random_povm(rng, n_out, dim) for _ in range(6)])
    starts[4] = _jrf_update(grams[4], starts[4], 2000)
    sizes = []
    complete = optimizer._complete

    def counted(parts):
        sizes.append(len(parts))
        return complete(parts)

    monkeypatch.setattr(optimizer, "_complete", counted)
    alone = []
    for g, m in zip(grams, starts):
        sizes.clear()
        _jrf_update(g, m, 60)
        alone.append(len(sizes))
    sizes.clear()
    stacked = _jrf_update(grams, starts, 60)
    # a certified problem takes no step, alone or inside the stack
    assert alone[4] == 0
    assert np.array_equal(stacked[4], starts[4])
    # the stack holds, at step k, every problem that takes k steps alone
    assert sizes == [sum(n >= k for n in alone) for k in range(1, max(alone) + 1)]


PROJECTOR_CASES = [
    pytest.param(make_rac_game(2, 2), 4, id="rac22-d4"),
    pytest.param(make_rac_game(2, 3), 4, id="rac23-d4"),
    pytest.param(make_cglmp3_game(), 3, id="cglmp3-d3"),
]


def _count_sweeps(projector):
    """Wrap ``psd`` on one projector and return the list that counts its calls."""
    calls = []
    psd = projector.psd

    def counted(rhos):
        calls.append(1)
        return psd(rhos)

    projector.psd = counted
    return calls


def _trial_states(game, projector, rng):
    """A feasible point plus a Hermitian step, like the search's trial states."""
    base = projector.feasible(_random_rhos(rng, game.n_alice, projector.dim), 1e-12)
    return base + 0.3 * _random_scores(rng, game.n_alice, projector.dim)


def _simplex_reference(values):
    """Sort-based projection onto the probability simplex, one value at a time."""
    u = sorted(values, reverse=True)
    total, tau = 0.0, 0.0
    for k, uk in enumerate(u, start=1):
        total += uk
        if uk - (total - 1.0) / k > 0:
            tau = (total - 1.0) / k
    return [max(v - tau, 0.0) for v in values]


def _reference_feasible(projector, rhos, tol, max_sweeps=200):
    """The ADMM with no objective (Douglas-Rachford splitting) written out for one set.

    Takes the Hermitian part before every eigendecomposition and projects
    the eigenvalues one list at a time.  Returns the projected set and the
    number of sweeps it took.
    """
    def psd(x):
        w, v = np.linalg.eigh((x + x.conj().swapaxes(-1, -2)) / 2)
        p = np.array([_simplex_reference(list(row)) for row in w])
        return (v * p[:, None, :]) @ v.conj().swapaxes(-1, -2)

    z, u = rhos, np.zeros_like(rhos)
    for sweeps in range(1, max_sweeps + 1):
        x = projector.affine(z - u)
        z = psd(x + u)
        u = u + x - z
        if projector.residual(z) < tol:
            break
    return z, sweeps


@pytest.mark.parametrize(
    "game,dim",
    [
        pytest.param(make_rac_game(2, 3), 4, id="rac23-d4"),
        pytest.param(make_cglmp3_game(), 3, id="cglmp3-d3"),
        pytest.param(random_game(), 2, id="random-d2"),
    ],
)
def test_projection_stops_on_the_residual_it_reports(game, dim):
    # the projection's stop test is feasibility_residual, bit for bit, on
    # sets far from, near and exactly on the obliviousness constraint
    projector = _Projector(game, dim)
    rng = np.random.default_rng(9)
    stack = np.stack([_random_rhos(rng, game.n_alice, dim) for _ in range(4)])
    stack[1] = projector.feasible(stack[1], 1e-9)
    stack[2] = projector.psd(projector.affine(stack[2]))
    stack[3] = np.eye(dim) / dim
    residuals = projector.residual(stack)
    measurement = np.array([np.diag(e) for e in np.eye(dim)])
    for rhos, residual in zip(stack, residuals):
        strategy = QuantumStrategy(rhos, measurement[None])
        assert residual == obliviousness_residual_quantum(game, strategy)
    assert residuals[0] > 1e-3 and 0 < residuals[1] < 1e-9 and residuals[3] == 0.0


@pytest.mark.parametrize("game,dim", PROJECTOR_CASES)
class TestProjector:
    def test_feasible_states_are_valid(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(0)
        for _ in range(5):
            out = projector.feasible(_trial_states(game, projector, rng), 1e-9)
            assert projector.residual(out) < 1e-9
            for rho in out:
                assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-12

    def test_feasible_input_returns_after_one_sweep(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(1)
        rhos = projector.feasible(_random_rhos(rng, game.n_alice, dim), 1e-13)
        sweeps = _count_sweeps(projector)
        out = projector.feasible(rhos, 1e-9)
        assert len(sweeps) == 1
        assert np.max(np.abs(out - rhos)) < 1e-12

    def test_affine_is_an_oblivious_idempotent(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(2)
        once = projector.affine(_trial_states(game, projector, rng))
        assert np.max(np.abs(projector.affine(once) - once)) < 1e-12
        flat = once.reshape(len(once), -1)
        assert np.max(np.abs(game.constraint_rows() @ flat)) < 1e-12
        assert np.max(np.abs(np.trace(once, axis1=1, axis2=2) - 1.0)) < 1e-12
        # A step along the constraint rows is cancelled by the projection, so
        # the preparation step needs no penalty on obliviousness violations.
        x = _trial_states(game, projector, rng)
        rows = game.constraint_rows()
        size = (len(rows), dim * dim)
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        shifted = projector.affine(x + (rows.T @ v).reshape(x.shape))
        assert np.max(np.abs(shifted - projector.affine(x))) < 1e-12

    def test_psd_matches_eigenvalue_simplex_reference(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(3)
        rhos = _trial_states(game, projector, rng)
        for rho, got in zip(rhos, projector.psd(rhos)):
            w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
            p = _simplex_reference(list(w))
            want = sum(p[k] * np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("max_sweeps", [1, 3, 7])
    def test_sweep_cap_holds(self, game, dim, max_sweeps):
        projector = _Projector(game, dim)
        rhos = _trial_states(game, projector, np.random.default_rng(4))
        sweeps = _count_sweeps(projector)
        out = projector.feasible(rhos, 0.0, max_sweeps=max_sweeps)
        assert len(sweeps) == max_sweeps
        assert np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)) < 1e-12
        sweeps.clear()
        projector.feasible(rhos, 1e-9, max_sweeps=max_sweeps)
        assert len(sweeps) <= max_sweeps

    def test_stack_equals_each_set_alone(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(7)
        trials = np.stack([_trial_states(game, projector, rng) for _ in range(5)])
        # one set that is already feasible leaves the stack after one sweep
        trials[2] = projector.feasible(trials[2], 1e-13)
        sweeps = _count_sweeps(projector)
        alone, counts = [], []
        for rhos in trials:
            alone.append(projector.feasible(rhos, 1e-9))
            counts.append(len(sweeps))
            sweeps.clear()
        stacked = projector.feasible(trials, 1e-9)
        assert len(sweeps) == max(counts)
        assert min(counts) == 1 < max(counts)
        assert np.max(np.abs(stacked - np.stack(alone))) < 1e-12
        assert (projector.residual(stacked) < 1e-9).all()

    def test_mixing_halves_the_plain_sweeps(self, game, dim):
        # the Douglas-Rachford splitting mixes the two projections; the plain
        # alternating projection is the reference
        projector = _Projector(game, dim)
        rng = np.random.default_rng(6)
        trials = [_trial_states(game, projector, rng) for _ in range(10)]
        sweeps = _count_sweeps(projector)
        for rhos in trials:
            projector.feasible(rhos, 1e-9)
        splitting = len(sweeps)
        sweeps.clear()
        for rhos in trials:  # the plain alternating projection, as reference
            out = rhos
            for _ in range(500):
                out = projector.psd(projector.affine(out))
                if projector.residual(out) < 1e-9:
                    break
        assert splitting <= len(sweeps) / 2

    def test_matches_reference_loop(self, game, dim):
        projector = _Projector(game, dim)
        rng = np.random.default_rng(8)
        trials = np.stack([_trial_states(game, projector, rng) for _ in range(4)])
        want = [_reference_feasible(projector, rhos, 1e-9) for rhos in trials]
        sweeps = _count_sweeps(projector)
        for rhos, (ref, count) in zip(trials, want):
            sweeps.clear()
            assert np.max(np.abs(projector.feasible(rhos, 1e-9) - ref)) < 1e-12
            assert len(sweeps) == count
        stacked = projector.feasible(trials, 1e-9)
        assert np.max(np.abs(stacked - np.stack([ref for ref, _ in want]))) < 1e-12


@pytest.mark.parametrize(
    "game,dim",
    [
        pytest.param(make_rac_game(2, 3), 3, id="rac23-d3"),
        pytest.param(make_rac_game(2, 3), 4, id="rac23-d4"),
        pytest.param(make_cglmp3_game(), 3, id="cglmp3-d3"),
    ],
)
def test_preparation_step_closes_its_duality_gap(game, dim):
    """The converged ADMM state is optimal at its fixed measurements.

    For any Hermitian ``Y``, with ``Y' = Y + P(G - Y)`` and ``P`` the
    projection onto the directions of the affine set,
    ``sum_x lambda_max(Y'_x) + <G - Y', 1/d>`` bounds the objective over
    the feasible set (weak duality); ``Y = sigma U`` is the ADMM's dual.
    """
    projector = _Projector(game, dim)
    rng = np.random.default_rng(dim)
    restarts = 3
    effects = np.stack(
        [
            [_random_povm(rng, game.n_outcomes, dim) for _ in range(game.n_bob)]
            for _ in range(restarts)
        ]
    )
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    grad = _herm(np.einsum("xyb,rybij->rxij", weighted, effects))
    z = projector.feasible(
        np.stack([_random_rhos(rng, game.n_alice, dim) for _ in range(restarts)]), 1e-12
    )
    u, res = np.zeros_like(z), np.full(restarts, np.inf)
    for _ in range(1000):
        if not _admm(projector, grad, z, u, res).any():
            break
    assert (res < optimizer._ADMM_TOL).all()
    value = np.einsum("rxij,rxji->r", grad, projector.feasible(z, 1e-12)).real
    mixed = np.eye(dim) / dim
    y = optimizer._ADMM_SIGMA * u
    y = y + projector.affine(mixed + grad - y) - mixed
    bound = np.linalg.eigvalsh(y).max(axis=-1).sum(axis=-1) + np.einsum(
        "rxii->r", grad - y
    ).real / dim
    assert (bound - value <= 1e-6).all()
    assert (bound - value >= -1e-9).all()


def _admm_to_rest(projector, grad, z, u, res):
    """Call ``_admm`` until no set steps; returns the steps of every call, (calls, sets)."""
    calls = []
    for _ in range(1000):
        steps = _admm(projector, grad, z, u, res)
        if not steps.any():
            return np.array(calls).reshape(-1, len(z))
        calls.append(steps)
    raise AssertionError("the ADMM did not come to rest in 1000 calls")


@pytest.mark.parametrize("game,dim", PROJECTOR_CASES)
def test_admm_stack_equals_each_set_alone(game, dim):
    projector = _Projector(game, dim)
    rng = np.random.default_rng(10)
    sets = 4
    effects = np.stack(
        [[_random_povm(rng, game.n_outcomes, dim) for _ in range(game.n_bob)] for _ in range(sets)]
    )
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    grad = _herm(np.einsum("xyb,rybij->rxij", weighted, effects))
    rhos = np.stack([_random_rhos(rng, game.n_alice, dim) for _ in range(sets)])
    z0 = projector.feasible(rhos, 1e-12)
    u0 = np.zeros_like(z0)
    res0 = np.full(sets, np.inf)
    # set 2 enters below the tolerance, with a dual that is not zero
    u0[2], res0[2] = 0.1 * _random_scores(rng, game.n_alice, dim), 0.5 * optimizer._ADMM_TOL
    z, u, res = z0.copy(), u0.copy(), res0.copy()
    stacked = _admm_to_rest(projector, grad, z, u, res)
    assert stacked.shape[0] > 1
    assert not stacked[:, 2].any()
    assert np.array_equal(z[2], z0[2]) and np.array_equal(u[2], u0[2])
    for k in range(sets):
        one = slice(k, k + 1)
        z_k, u_k, res_k = z0[one].copy(), u0[one].copy(), res0[one].copy()
        alone = _admm_to_rest(projector, grad[one], z_k, u_k, res_k)[:, 0]
        assert np.array_equal(stacked[: len(alone), k], alone)
        assert not stacked[len(alone) :, k].any()
        assert np.max(np.abs(z[k] - z_k[0])) < 1e-12
        assert np.max(np.abs(u[k] - u_k[0])) < 1e-12
    assert (res < optimizer._ADMM_TOL).all()


class TestRacSearch:
    def test_d3_reaches_classical_value(self):
        cfg = SearchConfig(dim=3, restarts=3, max_iters=200, seed=0)
        result = search(make_rac_game(2, 3), cfg)
        assert result.value >= 0.6667 - 1e-3
        assert result.feasibility_residual < 1e-8

    def test_d4_certifies_contextuality(self):
        cfg = SearchConfig(dim=4, restarts=3, max_iters=250, seed=0)
        result = search(make_rac_game(2, 3), cfg)
        assert result.value >= 0.6875 - 1e-2
        assert result.value > 2 / 3  # strictly above the noncontextual bound
        assert result.feasibility_residual < 1e-8

    def test_d2_two_symbol_reaches_the_quantum_optimum(self):
        result = search(make_rac_game(2, 2), SearchConfig(dim=2, restarts=2, seed=0))
        assert abs(result.value - (1 + 1 / math.sqrt(2)) / 2) < 1e-9

    def test_d4_two_restarts_reach_eleven_sixteenths(self):
        result = search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=2, seed=0))
        assert result.value >= 0.68750
        assert result.feasibility_residual < 1e-8

    @pytest.mark.slow
    def test_three_symbol_game_stretch_benchmark(self):
        # not a gate: the three-symbol game at dimension 4 should still beat
        # its noncontextual bound 5/9 (best observed value ~0.5999)
        cfg = SearchConfig(dim=4, restarts=3, max_iters=150, seed=0)
        result = search(make_rac_game(3, 3), cfg)
        print(f"three-symbol value {result.value:.4f} vs bound {5 / 9:.4f}")
        assert result.value > 5 / 9 + 0.02
        assert result.feasibility_residual < 1e-8


@pytest.mark.parametrize("messages", [2, 3])
@pytest.mark.parametrize("name", sorted(WITNESS_GAMES))
def test_seesaw_cannot_leave_a_classical_optimum(name, messages):
    # the simplex's optimal strategy over m messages, as diagonal states and
    # effects in dimension m, is a point no seesaw step improves: the seesaw,
    # independent code, settles there with at least the oracle's value
    game = WITNESS_GAMES[name]()
    result = pnc_bound_lp_oracle(game, messages)
    start = witness_strategy(game, result)
    rhos, effects, _, reasons, _ = optimizer._ascend(
        game.weighted_payoff(), _Projector(game, messages), start.states[None],
        start.effects[None], SearchConfig(dim=messages, restarts=1),
    )
    assert reasons.tolist() == ["settled"]
    behavior = behavior_from_quantum(QuantumStrategy(rhos[0], effects[0]))
    assert performance(game, behavior) >= result.value - 1e-12


@pytest.fixture(scope="module")
def small_result():
    cfg = SearchConfig(dim=3, restarts=2, max_iters=60, seed=7)
    return search(make_rac_game(2, 2), cfg)


class TestResultContract:
    def test_residual_matches_strategy(self, small_result):
        game = make_rac_game(2, 2)
        recomputed = obliviousness_residual_quantum(game, small_result.strategy)
        assert recomputed == small_result.feasibility_residual

    def test_strategy_invariants_hold(self, small_result):
        strategy = small_result.strategy
        traces = np.trace(strategy.states, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) < 1e-12
        totals = strategy.effects.sum(axis=1)
        assert np.max(np.abs(totals - np.eye(strategy.states.shape[-1]))) < 1e-12

    def test_reported_value_is_achieved_by_strategy(self, small_result):
        from oblivious_games.games import behavior_from_quantum, performance

        game = make_rac_game(2, 2)
        value = performance(game, behavior_from_quantum(small_result.strategy))
        assert abs(value - small_result.value) < 1e-12


class TestDeterminism:
    def test_single_restart_bit_reproducible(self):
        game = make_rac_game(2, 2)
        cfg = SearchConfig(dim=2, restarts=1, max_iters=50, seed=11)
        a = search(game, cfg)
        b = search(game, cfg)
        assert a.value == b.value
        assert np.array_equal(a.strategy.states, b.strategy.states)


def _assert_same_strategy(a, b):
    assert np.array_equal(a.strategy.states, b.strategy.states)
    assert np.array_equal(a.strategy.effects, b.strategy.effects)


@pytest.fixture(scope="module")
def rac23_window_stop():
    # the one restart of rac:2,3 at d = 4, seed 5, still gains until the window
    # rule stops it
    return search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=1, seed=5))


class TestStopping:
    def test_stall_stop_only_truncates_the_path(self, rac23_window_stop):
        stopped = rac23_window_stop
        assert (stopped.stop_reason, stopped.iterations_used) == ("window", 90)
        capped = search(
            make_rac_game(2, 3),
            SearchConfig(dim=4, restarts=1, max_iters=stopped.iterations_used, seed=5),
        )
        assert (capped.stop_reason, capped.iterations_used) == ("max_iters", 90)
        assert capped.value == stopped.value
        _assert_same_strategy(capped, stopped)

    @pytest.mark.parametrize("extra", [45, 60])
    def test_window_stop_only_truncates_the_path(self, rac23_window_stop, extra):
        # a cap past the window stop leaves the record and the strategy as they are
        stopped = rac23_window_stop
        capped = search(
            make_rac_game(2, 3),
            SearchConfig(dim=4, restarts=1, max_iters=stopped.iterations_used + extra, seed=5),
        )
        assert capped.per_restart == stopped.per_restart
        _assert_same_strategy(capped, stopped)

    @pytest.mark.parametrize(
        "game,dim,want",
        [
            (make_cglmp3_game(), 3, 7),
            (make_rac_game(2, 3), 3, 36),
            (make_rac_game(2, 3), 4, 138),
        ],
        ids=["cglmp3-d3", "rac23-d3", "rac23-d4"],
    )
    def test_iterations_used_is_the_iterations_run(self, game, dim, want, monkeypatch):
        # one measurement step, so one _jrf_update call, per iteration
        iterations = []
        jrf = optimizer._jrf_update

        def counted_jrf(gram, effects, max_steps):
            iterations.append(1)
            return jrf(gram, effects, max_steps)

        monkeypatch.setattr(optimizer, "_jrf_update", counted_jrf)
        result = search(game, SearchConfig(dim=dim, restarts=1, seed=0))
        assert (result.stop_reason, result.iterations_used) == ("settled", want)
        assert result.iterations_used == len(iterations)

    @pytest.mark.parametrize(
        "game,dim,caps",
        [(make_cglmp3_game(), 3, (7, 45, 60)), (make_rac_game(2, 3), 3, (36, 60))],
        ids=["cglmp3-d3", "rac23-d3"],
    )
    def test_settled_stop_only_truncates_the_path(self, game, dim, caps):
        # a settled restart wins over the cap at its own iteration, so a run
        # capped there or later returns the same record and strategy
        stopped = search(game, SearchConfig(dim=dim, restarts=1, seed=0))
        assert (stopped.stop_reason, stopped.iterations_used) == ("settled", caps[0])
        for cap in caps:
            capped = search(game, SearchConfig(dim=dim, restarts=1, max_iters=cap, seed=0))
            assert capped.per_restart == stopped.per_restart
            _assert_same_strategy(capped, stopped)

    def test_settled_restart_leaves_early_without_repeated_trials(self, monkeypatch):
        # At seed 0 the one cglmp3 restart stops changing at iteration 7: its
        # measurement certificate is closed and its ADMM residuals stay below
        # tolerance, so it takes no ADMM step, and it stops there.
        iterations, projections = [], []
        jrf, feasible = optimizer._jrf_update, _Projector.feasible

        def counted_jrf(gram, effects, max_steps):
            iterations.append(1)
            return jrf(gram, effects, max_steps)

        def counted_feasible(self, rhos, tol, max_sweeps=200):
            projections.append(1)
            return feasible(self, rhos, tol, max_sweeps)

        monkeypatch.setattr(optimizer, "_jrf_update", counted_jrf)
        monkeypatch.setattr(_Projector, "feasible", counted_feasible)
        result = search(make_cglmp3_game(), SearchConfig(dim=3, restarts=1, seed=0))
        assert (result.stop_reason, result.iterations_used) == ("settled", 7)
        assert len(iterations) == 7
        # the start and the final polish project once each
        assert len(projections) - 2 < 4 * len(iterations)


def test_game_without_partitions_rejected():
    from oblivious_games.games import ObliviousGame

    bare = ObliviousGame(
        alice_inputs=(0, 1),
        bob_inputs=(0,),
        outcomes=(0, 1),
        p_alice=[0.5, 0.5],
        p_bob=[1.0],
        payoff=np.zeros((2, 1, 2)),
    )
    with pytest.raises(ValueError):
        search(bare, SearchConfig(dim=2, restarts=1))


@pytest.fixture(scope="module")
def cglmp3_eight():
    return search(make_cglmp3_game(), SearchConfig(dim=3, restarts=8, seed=0))


class TestRestartStack:
    """Every restart of the lockstep stack follows the path it takes alone."""

    def test_per_restart_records(self, cglmp3_eight):
        records = cglmp3_eight.per_restart
        assert len(records) == 8
        best = records[cglmp3_eight.restart_index]
        assert best.value == cglmp3_eight.value
        assert best.feasibility_residual == cglmp3_eight.feasibility_residual
        assert best.iterations_used == cglmp3_eight.iterations_used
        assert best.stop_reason == cglmp3_eight.stop_reason
        assert all(r.feasible and r.feasibility_residual < 1e-8 for r in records)
        assert max(r.value for r in records) == cglmp3_eight.value

    def test_cglmp3_stops_are_pinned(self, cglmp3_eight):
        stops = [(r.stop_reason, r.iterations_used) for r in cglmp3_eight.per_restart]
        assert stops == [("settled", n) for n in (7, 7, 6, 7, 7, 7, 7, 6)]

    def test_rac23_d4_stops_are_pinned(self):
        result = search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=2, seed=0))
        stops = [(r.stop_reason, r.iterations_used) for r in result.per_restart]
        assert stops == [("settled", 138), ("settled", 42)]

    @pytest.mark.parametrize(
        "game", [make_rac_game(2, 3), make_cglmp3_game()], ids=["rac23-d3", "cglmp3-d3"]
    )
    def test_sweeps_count_every_psd_call(self, game, monkeypatch):
        # The start, the ADMM steps, each trial and the final polish all
        # project through ``psd``, and a restart's record counts them all.
        calls = []
        psd = _Projector.psd

        def counted(self, rhos):
            calls.append(1)
            return psd(self, rhos)

        monkeypatch.setattr(_Projector, "psd", counted)
        result = search(game, SearchConfig(dim=3, restarts=1, seed=0))
        assert result.per_restart[0].sweeps == len(calls)

    @pytest.mark.parametrize(
        "game,dim,restarts",
        [(make_cglmp3_game(), 3, 8), (make_rac_game(2, 3), 3, 3)],
        ids=["cglmp3-d3", "rac23-d3"],
    )
    def test_restart_zero_matches_a_single_restart(self, game, dim, restarts):
        stacked = search(game, SearchConfig(dim=dim, restarts=restarts, seed=0))
        alone = search(game, SearchConfig(dim=dim, restarts=1, seed=0))
        first = stacked.per_restart[0]
        assert first.iterations_used == alone.iterations_used
        assert first.stop_reason == alone.stop_reason
        assert abs(first.value - alone.value) < 1e-9
