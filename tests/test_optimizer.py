import numpy as np
import pytest

from oblivious_games import cglmp, optimizer
from oblivious_games.games import (
    QuantumStrategy,
    make_cglmp3_game,
    make_rac_game,
    obliviousness_residual_quantum,
)
from oblivious_games.optimizer import (
    SearchConfig,
    _certificate_gap,
    _jrf_update,
    _Projector,
    _random_povm,
    _random_rhos,
    search,
)
from oblivious_games.qmath import Povm

A3 = (3 + np.sqrt(33)) / 12


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
            {"tolerance": 0.0},
            {"tolerance": -1e-8},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"dim": 3.5},
            {"dim": True},
            {"restarts": 1.5},
            {"restarts": True},
            {"max_iters": 2.5},
            {"max_iters": False},
        ],
        ids=[f"field{k}" for k in (0, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14)],
    )
    def test_settings_that_break_search_rejected(self, field):
        with pytest.raises(ValueError):
            SearchConfig(**{"dim": 3, **field})

    @pytest.mark.parametrize(
        "field,message",
        [
            ({"seed": 1.5}, "seed 1.5 is not an integer"),
            ({"seed": True}, "seed True is not an integer"),
            ({"seed": "0"}, "seed '0' is not an integer"),
            ({"seed": -1}, "seed -1 is negative"),
            ({"tolerance": True}, "tolerance True is not a real number"),
            ({"tolerance": "1e-8"}, "tolerance '1e-8' is not a real number"),
            ({"tolerance": 1j}, "tolerance 1j is not a real number"),
        ],
    )
    def test_seed_and_tolerance_checked_before_search(self, field, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**{"dim": 3, **field})

    def test_numpy_seed_and_integer_tolerance_accepted(self):
        SearchConfig(dim=3, seed=np.int64(7), tolerance=np.float64(1e-6))
        SearchConfig(dim=3, seed=0, tolerance=1)


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
        gap = _certificate_gap(gram, effects, current)
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
        gap = _certificate_gap(gram, effects, _score(gram, effects))
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
        gap = _certificate_gap(gram, effects, _score(gram, effects))
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
        projector = _Projector(game, dim)
        rng = np.random.default_rng(6)
        trials = [_trial_states(game, projector, rng) for _ in range(10)]
        sweeps = _count_sweeps(projector)
        for rhos in trials:
            projector.feasible(rhos, 1e-9)
        mixed = len(sweeps)
        sweeps.clear()
        for rhos in trials:  # the plain alternating projection, as reference
            out = rhos
            for _ in range(500):
                out = projector.psd(projector.affine(out))
                if projector.residual(out) < 1e-9:
                    break
        assert mixed <= len(sweeps) / 2


class TestSeededStart:
    def test_cglmp_warm_start_does_not_regress(self):
        cfg = SearchConfig(dim=3, restarts=1, max_iters=40, seed=3)
        result = search(make_cglmp3_game(), cfg, initial=cglmp.game_strategy())
        assert result.value >= A3 - 1e-9
        assert result.feasible
        assert result.feasibility_residual < 1e-8


class TestInitialStrategy:
    """A warm start that does not fit the game or the config is named."""

    def _search(self, strategy, dim=3):
        search(make_cglmp3_game(), SearchConfig(dim=dim, restarts=1, max_iters=1), initial=strategy)

    def test_preparation_count(self):
        s = cglmp.game_strategy()
        with pytest.raises(ValueError, match="5 preparations, the game has 6"):
            self._search(QuantumStrategy(s.preparations[:5], s.measurements))

    def test_measurement_count(self):
        s = cglmp.game_strategy()
        with pytest.raises(ValueError, match="1 measurements, the game has 2"):
            self._search(QuantumStrategy(s.preparations, s.measurements[:1]))

    def test_outcome_count(self):
        s = cglmp.game_strategy()
        proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
        two = Povm((proj, np.eye(3) - proj))
        with pytest.raises(ValueError, match="2 outcomes per measurement, the game has 3"):
            self._search(QuantumStrategy(s.preparations, (two, two)))

    def test_dimension(self):
        with pytest.raises(ValueError, match="dimension 3, the config 4"):
            self._search(cglmp.game_strategy(), dim=4)


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

    @pytest.mark.slow
    def test_three_symbol_game_stretch_benchmark(self):
        # not a gate: the three-symbol game at dimension 4 should still beat
        # its noncontextual bound 5/9 (best observed value ~0.5999)
        cfg = SearchConfig(dim=4, restarts=3, max_iters=150, seed=0)
        result = search(make_rac_game(3, 3), cfg)
        print(f"three-symbol value {result.value:.4f} vs bound {5 / 9:.4f}")
        assert result.value > 5 / 9 + 0.02
        assert result.feasibility_residual < 1e-8


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
        for rho in small_result.strategy.preparations:
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        for povm in small_result.strategy.measurements:
            total = sum(povm.elements)
            assert np.max(np.abs(total - np.eye(povm.dim))) < 1e-12

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
        for pa, pb in zip(a.strategy.preparations, b.strategy.preparations):
            assert np.array_equal(pa.matrix, pb.matrix)


class TestStopping:
    def test_stall_stop_only_truncates_the_path(self):
        game = make_rac_game(2, 3)
        stopped = search(game, SearchConfig(dim=3, restarts=1, max_iters=500, seed=0))
        assert stopped.stop_reason == "stalled"
        assert stopped.iterations_used < 500
        capped = search(
            game,
            SearchConfig(dim=3, restarts=1, max_iters=stopped.iterations_used, seed=0),
        )
        assert capped.stop_reason == "max_iters"
        assert capped.iterations_used == stopped.iterations_used
        assert capped.value == stopped.value
        for pa, pb in zip(capped.strategy.preparations, stopped.strategy.preparations):
            assert np.array_equal(pa.matrix, pb.matrix)
        for ma, mb in zip(capped.strategy.measurements, stopped.strategy.measurements):
            for ea, eb in zip(ma.elements, mb.elements):
                assert np.array_equal(ea, eb)

    def test_cglmp3_stops_on_window(self):
        result = search(make_cglmp3_game(), SearchConfig(dim=3, restarts=1, seed=0))
        assert result.stop_reason == "window"
        assert result.iterations_used < 500


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
        assert stops == [("window", 60)] * 8

    def test_rac23_d4_stops_are_pinned(self):
        result = search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=2, seed=0))
        stops = [(r.stop_reason, r.iterations_used) for r in result.per_restart]
        assert stops == [("stalled", 90)] * 2

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
