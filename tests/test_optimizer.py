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
            {"restarts": 0},
        ],
        ids=[f"field{k}" for k in (0, 9, 10, 11, 12, 13, 14, 15)],
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
    def test_certified_povm_returned_unchanged(self, seed, monkeypatch):
        # a certified POVM takes no step: no completion, and the same bits back
        rng = np.random.default_rng(seed)
        n_out, dim = 2 + seed % 2, 2 + seed % 3
        gram = _random_scores(rng, n_out, dim)
        fixed = _jrf_update(gram, _random_povm(rng, n_out, dim), 2000)
        steps = []
        complete = optimizer._complete

        def counted(parts):
            steps.append(1)
            return complete(parts)

        monkeypatch.setattr(optimizer, "_complete", counted)
        assert np.array_equal(_jrf_update(gram, fixed, 60), fixed)
        assert not steps

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
    assert np.array_equal(stacked.reshape(alone.shape), alone)


def _random_stack(seed):
    """Score operators and POVMs of 1-16 random problems, at d = 2-6 with 2-4 outcomes."""
    rng = np.random.default_rng(seed)
    size, dim, n_out = 1 + seed % 16, 2 + seed % 5, 2 + seed % 3
    grams = np.stack([_random_scores(rng, n_out, dim) for _ in range(size)])
    starts = np.stack([_random_povm(rng, n_out, dim) for _ in range(size)])
    return grams, starts


# Bit for bit, on 308 problems in all: as an einsum the score gave 221 of them
# other bits in their stack than alone, and through it the exchange returned
# other bits for problem 0 of seed 36's stack.
@pytest.mark.parametrize("seed", range(40))
def test_score_gives_each_problem_its_bits_alone(seed):
    grams, starts = _random_stack(seed)
    stacked = optimizer._score(grams, starts)
    for k, (g, m) in enumerate(zip(grams, starts)):
        assert np.array_equal(stacked[k], optimizer._score(g, m))


@pytest.mark.parametrize("seed", range(40))
def test_jrf_gives_each_problem_its_bits_alone(seed):
    grams, starts = _random_stack(seed)
    stacked = _jrf_update(grams, starts, 60)
    for k, (g, m) in enumerate(zip(grams, starts)):
        assert np.array_equal(stacked[k], _jrf_update(g, m, 60))



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


@pytest.mark.parametrize("max_steps", [3, 2000])
@pytest.mark.parametrize("n_out,dim", [(2, 2), (3, 3), (3, 4)])
def test_jrf_output_equals_the_per_step_scatter(n_out, dim, max_steps, monkeypatch):
    # bit for bit: problems that leave at different steps keep the iterate of
    # their last step, a certified one its input, and at a cap of 3 steps
    # every other problem is still running when the steps run out
    rng = np.random.default_rng(n_out * 10 + dim)
    grams = np.stack([_random_scores(rng, n_out, dim) for _ in range(6)])
    starts = np.stack([_random_povm(rng, n_out, dim) for _ in range(6)])
    starts[4] = _jrf_update(grams[4], starts[4], 2000)
    shape = (2, 3, n_out, dim, dim)
    want = _reference_jrf_update(grams.reshape(shape), starts.reshape(shape), max_steps)
    sizes = []
    complete = optimizer._complete

    def counted(parts):
        sizes.append(len(parts))
        return complete(parts)

    monkeypatch.setattr(optimizer, "_complete", counted)
    got = _jrf_update(grams.reshape(shape), starts.reshape(shape), max_steps)
    assert got.shape == want.shape and np.array_equal(got, want)
    if max_steps == 3:
        assert sizes == [5, 5, 5]
    else:
        assert sizes[0] == 5 and len(set(sizes)) == 5 and len(sizes) < max_steps


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


def _reference_douglas_rachford(
    projector, z, u, res, tol, max_steps, residual, shift=None, relax=1.0
):
    """``_Projector.douglas_rachford`` as a gather and scatter of the whole stack per step.

    Every step gathers the running sets from ``z``, ``u`` and ``shift`` and
    scatters ``Z``, ``U``, the residuals and the step counts back.  The
    relaxed point ``relax X + (1 - relax) Z`` feeds the eigenvalue projection
    and the dual, and the residuals read ``X`` itself.
    """
    steps = np.zeros(len(z), dtype=int)
    index = np.flatnonzero(res >= tol)
    for _ in range(max_steps):
        if not index.size:
            break
        z_in, u_in = z[index], u[index]
        x = projector.affine(z_in - u_in if shift is None else z_in - u_in + shift[index])
        x_hat = x if relax == 1.0 else relax * x + (1.0 - relax) * z_in
        z_out = projector.psd(x_hat + u_in)
        z[index], u[index] = z_out, u_in + x_hat - z_out
        res[index] = residual(x, z_in, z_out)
        steps[index] += 1
        index = index[res[index] >= tol]
    return steps


def _reference_jrf_update(gram, effects, max_steps):
    """``_jrf_update`` with the stack's iterates scattered into its output at every step."""
    shape = effects.shape
    gram = gram.reshape(-1, *shape[-3:])
    shift = np.minimum(0.0, np.linalg.eigvalsh(gram).min(axis=(-2, -1)))
    g = gram - (shift - 1e-9)[:, None, None, None] * np.eye(shape[-1])
    m = effects.reshape(gram.shape)
    index = np.arange(len(gram))
    d = shape[-1]
    out = None
    for _ in range(max_steps):
        trace, lam = _certificate(gram, m)
        score = optimizer._score(gram, m)
        floor = optimizer._GAP_ROUNDING * (np.abs(trace) + d * lam + np.abs(score))
        going = trace + d * lam - score >= floor
        if not going.all():
            index, gram, g, m = index[going], gram[going], g[going], m[going]
            if not index.size:
                break
        if out is None:
            out = effects.reshape(-1, *shape[-3:]).copy()
        m = optimizer._complete(g @ m @ g)
        out[index] = m
    return effects if out is None else out.reshape(shape)


def _douglas_rachford_calls(projector, run):
    """Run ``run()`` and return every ``douglas_rachford`` call it made on ``projector``.

    Each call is ``(inputs, outputs)``: copies of ``z``, ``u`` and ``res``
    with ``tol``, ``max_steps``, ``residual``, ``shift`` and ``relax`` as they
    came in, and ``z``, ``u``, ``res`` and the returned steps as the call left
    them.
    """
    calls = []
    method = projector.douglas_rachford

    def recorded(z, u, res, tol, max_steps, residual, shift=None, relax=1.0):
        inputs = (z.copy(), u.copy(), res.copy(), tol, max_steps, residual, shift, relax)
        steps = method(z, u, res, tol, max_steps, residual, shift, relax)
        calls.append((inputs, (z.copy(), u.copy(), res.copy(), steps)))
        return steps

    projector.douglas_rachford = recorded
    run()
    del projector.douglas_rachford
    return calls


def _assert_each_call_matches_the_reference(projector, calls):
    """Replay every recorded call through the gather-and-scatter loop; all bits agree."""
    for (z, u, res, *args), got in calls:
        steps = _reference_douglas_rachford(projector, z, u, res, *args)
        for want, have in zip((z, u, res, steps), got):
            assert want.shape == have.shape
            assert np.array_equal(want, have)


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

    def test_affine_equals_its_np_trace_form(self, game, dim):
        # bit for bit: ``affine`` reduces the strided diagonal as np.trace does
        def reference(rhos):
            flat = projector.null_p @ rhos.reshape(*rhos.shape[:-2], -1)
            out = flat.reshape(rhos.shape)
            traces = np.trace(out, axis1=-2, axis2=-1).real
            flat[..., :: dim + 1] += ((1.0 - traces) / dim)[..., None]
            return out

        projector = _Projector(game, dim)
        rng = np.random.default_rng(4)
        for scale in (1e-6, 1.0, 1e2):
            x = scale * np.stack([_random_scores(rng, game.n_alice, dim) for _ in range(50)])
            assert np.array_equal(projector.affine(x), reference(x))

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
        assert np.array_equal(stacked, np.stack(alone))
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

    @pytest.mark.parametrize("max_sweeps", [3, 200])
    def test_compacted_loop_equals_the_gather_and_scatter_loop(self, game, dim, max_sweeps):
        # bit for bit, with no shift: the sets leave at different sweeps, one
        # feasible set after the first, and at a cap of 3 sweeps the others
        # are still running when the sweeps run out
        projector = _Projector(game, dim)
        rng = np.random.default_rng(11)
        trials = np.stack([_trial_states(game, projector, rng) for _ in range(5)])
        trials[2] = projector.feasible(trials[2], 1e-13)
        calls = _douglas_rachford_calls(
            projector, lambda: projector.feasible(trials, 1e-9, max_sweeps)
        )
        ((inputs, (*_, steps)),) = calls
        # no shift and no relaxation
        assert inputs[-2:] == (None, 1.0)
        assert np.array_equal(projector.sweeps, steps)
        if max_sweeps == 3:
            assert steps.tolist() == [3, 3, 1, 3, 3]
        else:
            assert steps[2] == 1 and len(set(steps.tolist())) >= 3
        _assert_each_call_matches_the_reference(projector, calls)


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
        assert np.array_equal(z[k], z_k[0]) and np.array_equal(u[k], u_k[0])
    assert (res < optimizer._ADMM_TOL).all()


@pytest.mark.parametrize("game,dim", PROJECTOR_CASES)
def test_admm_compacted_loop_equals_the_gather_and_scatter_loop(game, dim):
    # bit for bit, with the shift, on every call of an ADMM brought to rest:
    # sets leave inside a call at different steps, and set 2 enters below
    # the tolerance with a dual that is not zero, so it never steps
    projector = _Projector(game, dim)
    rng = np.random.default_rng(10)
    sets = 4
    effects = np.stack(
        [[_random_povm(rng, game.n_outcomes, dim) for _ in range(game.n_bob)] for _ in range(sets)]
    )
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    grad = _herm(np.einsum("xyb,rybij->rxij", weighted, effects))
    rhos = np.stack([_random_rhos(rng, game.n_alice, dim) for _ in range(sets)])
    z = projector.feasible(rhos, 1e-12)
    u, res = np.zeros_like(z), np.full(sets, np.inf)
    u[2], res[2] = 0.1 * _random_scores(rng, game.n_alice, dim), 0.5 * optimizer._ADMM_TOL
    calls = _douglas_rachford_calls(projector, lambda: _admm_to_rest(projector, grad, z, u, res))
    assert all(inputs[-2] is not None for inputs, _ in calls)
    assert all(inputs[-1] == optimizer._ADMM_RELAX != 1.0 for inputs, _ in calls)
    steps = np.array([out[-1] for _, out in calls])
    assert not steps[:, 2].any()
    cap = optimizer._ADMM_STEPS
    assert any(((0 < s) & (s < cap)).any() and (s == cap).any() for s in steps)
    _assert_each_call_matches_the_reference(projector, calls)


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
    rhos, effects, iterations, reasons, *_ = optimizer._ascend(
        game.weighted_payoff(), _Projector(game, messages), start.states[None],
        start.effects[None], SearchConfig(dim=messages, restarts=1),
    )
    if (name, messages) == ("random", 3):
        # at this degenerate vertex the relaxed ADMM's residual stays above
        # its tolerance, so the restart keeps stepping and the window rule
        # stops it, with the start left as it was, bit for bit
        assert np.array_equal(rhos[0], start.states)
        assert np.array_equal(effects[0], start.effects)
        assert iterations[0] <= 30
    else:
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
            (make_cglmp3_game(), 3, ("settled", 8)),
            (make_rac_game(2, 3), 3, ("settled", 30)),
            (make_rac_game(2, 3), 4, ("window", 120)),
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
        assert (result.stop_reason, result.iterations_used) == want
        assert result.iterations_used == len(iterations)

    @pytest.mark.parametrize(
        "game,dim,caps",
        [(make_cglmp3_game(), 3, (8, 45, 60)), (make_rac_game(2, 3), 3, (30, 60))],
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
        # At seed 0 the one cglmp3 restart stops changing at iteration 8: its
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
        assert (result.stop_reason, result.iterations_used) == ("settled", 8)
        assert len(iterations) == 8
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
        assert stops == [("settled", n) for n in (8, 8, 8, 8, 8, 8, 8, 8)]

    def test_rac23_d4_stops_are_pinned(self):
        result = search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=2, seed=0))
        stops = [(r.stop_reason, r.iterations_used) for r in result.per_restart]
        assert stops == [("trailing", 30), ("settled", 43)]

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
        assert stacked.per_restart[0] == alone.per_restart[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_restart_is_its_solo_run(self, seed, monkeypatch):
        # bit for bit, with the trailing rule off, the one rule that reads the
        # other restarts; at seed 3 restart 2 once parted from its solo path
        monkeypatch.setattr(optimizer, "_TRAILING_MARGIN", np.inf)
        game, cfg = make_cglmp3_game(), SearchConfig(dim=3, restarts=8, max_iters=60, seed=seed)
        weighted, projector = game.weighted_payoff(), _Projector(game, cfg.dim)
        rhos, effects = optimizer._start(game, cfg, projector)
        stacked = optimizer._ascend(weighted, projector, rhos, effects, cfg)
        for r in range(cfg.restarts):
            one = slice(r, r + 1)
            alone = optimizer._ascend(weighted, projector, rhos[one], effects[one], cfg)
            # states, effects, iterations, stop reasons, sweeps and window values
            for got, want in zip(stacked[:5], alone[:5]):
                assert np.array_equal(got[one], want)
            assert stacked[5][r] == alone[5][0]


class TestTrailing:
    """A restart that cannot catch the stack's best stops at a race boundary.

    The restarts race every ``_RACE_WINDOW`` (10) iterations, three times per
    30-iteration window of the window rule.
    """

    # At d = 5 restarts 1 and 2 trail at iterations 50 and 30, between and on
    # window boundaries, and without the race they run to the 200-iteration cap.
    @pytest.mark.parametrize(
        "dim,restarts,max_iters,seed",
        [(4, 2, 500, 0), (4, 2, 500, 5), (4, 2, 500, 8), (4, 2, 500, 9), (5, 3, 200, 1)],
        ids=["0", "5", "8", "9", "d5-3"],
    )
    def test_trailing_keeps_the_best_result(self, dim, restarts, max_iters, seed, monkeypatch):
        game = make_rac_game(2, 3)
        cfg = SearchConfig(dim=dim, restarts=restarts, max_iters=max_iters, seed=seed)
        raced = search(game, cfg)
        monkeypatch.setattr(optimizer, "_TRAILING_MARGIN", np.inf)
        full = search(game, cfg)
        trailed = [r for r, rec in enumerate(raced.per_restart) if rec.stop_reason == "trailing"]
        assert trailed
        assert all(raced.per_restart[r].iterations_used % optimizer._RACE_WINDOW == 0 for r in trailed)
        assert not any(rec.stop_reason == "trailing" for rec in full.per_restart)
        assert (raced.value, raced.restart_index) == (full.value, full.restart_index)
        _assert_same_strategy(raced, full)
        for r in trailed:
            assert full.per_restart[r].value <= full.value - 1e-4
        for rec in raced.per_restart:
            assert len(rec.window_values) == rec.iterations_used // 30

    def test_a_single_restart_never_trails(self):
        # restart 0 of seed 0 trails at iteration 30 in a stack of two; alone
        # its best is its own value, and it runs on until the window rule stops it
        result = search(make_rac_game(2, 3), SearchConfig(dim=4, restarts=1, seed=0))
        (record,) = result.per_restart
        assert (record.stop_reason, record.iterations_used) == ("window", 120)
        assert len(record.window_values) == 4
        assert list(record.window_values) == sorted(record.window_values)

    @pytest.mark.slow
    def test_criterion_6_losers_trail_and_winners_run_on(self, criterion_6_search):
        # the acceptance suite's search, shared through the session fixture
        result, _ = criterion_6_search
        records = result.per_restart
        assert sum(r.value >= 0.6875076 for r in records) == 51
        trailed = [r.value for r in records if r.stop_reason == "trailing"]
        assert len(trailed) == 13 and max(trailed) < 0.687


# The best values the seesaw returned with a plain (unrelaxed) ADMM of 25
# steps an iteration at penalty 0.2: rac:2,3 at d = 4 with 2 restarts, seeds
# 0-9, and the qutrit game with 8 restarts, seeds 0-3.  A faster search must
# not fall out of a basin these reached.
RAC23_D4_FLOOR = (
    0.687507610900387, 0.6875076109014457, 0.68750761090142, 0.6875076109022188,
    0.6875076109021656, 0.6875076109005966, 0.6875076109008222, 0.6875076108979068,
    0.68750761090089, 0.6875076108990069,
)
CGLMP3_FLOOR = (0.7287135538667157, 0.7287135538686944, 0.7287135538679851, 0.7287135538675462)


class TestValueFloor:
    @pytest.mark.parametrize(
        "game,dim,restarts,seed,floor",
        [(make_rac_game(2, 3), 4, 2, seed, v) for seed, v in enumerate(RAC23_D4_FLOOR)]
        + [(make_cglmp3_game(), 3, 8, seed, v) for seed, v in enumerate(CGLMP3_FLOOR)],
        ids=[f"rac23-d4-{seed}" for seed in range(10)] + [f"cglmp3-{seed}" for seed in range(4)],
    )
    def test_best_value_keeps_its_floor(self, game, dim, restarts, seed, floor):
        result = search(game, SearchConfig(dim=dim, restarts=restarts, seed=seed))
        assert result.value >= floor - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_dimension_stays_below_the_bound(self, seed):
        # at d = 3 the (2,3) access code has no quantum advantage: the polish
        # brings every restart to a residual below 1e-12, so the best cannot
        # beat the noncontextual bound 2/3 by more than rounding
        cfg = SearchConfig(dim=3, restarts=4, max_iters=200, seed=seed)
        result = search(make_rac_game(2, 3), cfg)
        assert result.value <= 2 / 3 + 1e-12
        assert all(r.feasibility_residual < 1e-12 for r in result.per_restart)
