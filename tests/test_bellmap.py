import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games import cglmp
from oblivious_games.bellmap import (
    BellFunctional,
    NoSignalingBox,
    _no_signaling_residual,
    bell_value,
    box_from_quantum,
    cglmp3,
    game_from_bell,
    load_box,
    load_functional,
    preparations_from_entangled,
    save_box,
    strategy_from_box,
)
from oblivious_games.games import (
    behavior_from_quantum,
    make_cglmp3_game,
    obliviousness_residual_behavior,
    performance,
    save_record,
)
from oblivious_games.qmath import DensityMatrix, Povm

from test_qmath import pure_state, random_density, random_povm

A3 = (3 + np.sqrt(33)) / 12


def deterministic_box(f, g, m_a=2, m_b=2, d=3):
    table = np.zeros((m_a, m_b, d, d))
    for X in range(m_a):
        for Y in range(m_b):
            table[X, Y, f[X], g[Y]] = 1.0
    return NoSignalingBox(table)


def uniform_box(m_a=2, m_b=2, d=3):
    return NoSignalingBox(np.full((m_a, m_b, d, d), 1.0 / d**2))


class TestCglmp3Functional:
    def test_correlated_terms_positive(self):
        bell = cglmp3()
        for a in range(3):
            assert bell.coeffs[0, 0, a, a] == 1.0

    def test_shifted_terms_negative(self):
        bell = cglmp3()
        for a in range(3):
            assert bell.coeffs[0, 0, a, (a + 1) % 3] == -1.0

    def test_24_nonzero_cells(self):
        assert np.count_nonzero(cglmp3().coeffs) == 24

    def test_uniform_box_scores_zero(self):
        assert abs(bell_value(cglmp3(), uniform_box())) < 1e-12

    def test_optimal_quantum_box(self):
        assert abs(bell_value(cglmp3(), cglmp.optimal_box()) - A3) < 1e-12

    def test_deterministic_boxes_below_local_bound(self):
        bell = cglmp3()
        values = [
            bell_value(bell, deterministic_box(f, g))
            for f in np.ndindex(3, 3)
            for g in np.ndindex(3, 3)
        ]
        assert max(values) <= 0.5 + 1e-15
        assert abs(max(values) - 0.5) < 1e-15  # equality achievable


def test_nan_coefficients_rejected():
    coeffs = cglmp3().coeffs.copy()
    coeffs[0, 1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        BellFunctional(coeffs, np.full(2, 0.5), np.full(2, 0.5))


def test_nan_p_g_rejected():
    p_g = np.full((2, 3), 1 / 3)
    p_g[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        game_from_bell(cglmp3(), p_g)


@pytest.mark.parametrize(
    "coeffs,p_alice,message",
    [
        (np.zeros((2, 2, 3, 2)), [0.5, 0.5], "must have shape"),
        (np.zeros((2, 2, 3, 3)), [1 / 3] * 3, "priors do not match"),
    ],
    ids=["shape", "prior-count"],
)
def test_functional_rejects(coeffs, p_alice, message):
    with pytest.raises(ValueError, match=message):
        BellFunctional(coeffs, p_alice, [0.5, 0.5])


@pytest.mark.parametrize(
    "p_alice,p_g,message",
    [
        ([0.5, 0.5], np.full((3, 2), 1 / 2), r"p_g must have shape \(2, 3\)"),
        ([1.0, 0.0], np.full((2, 3), 1 / 3), "input 1 has zero prior"),
    ],
    ids=["p_g-shape", "zero-prior"],
)
def test_game_from_bell_rejects(p_alice, p_g, message):
    bell = BellFunctional(cglmp3().coeffs, p_alice, [0.5, 0.5])
    with pytest.raises(ValueError, match=message):
        game_from_bell(bell, p_g)


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: bell_value(cglmp3(), deterministic_box((0, 1), (1, 0), d=2)),
            "box shape does not match functional",
        ),
        (
            # qubit measurements on both sides, a state of dimension 6, not 4
            lambda: box_from_quantum(
                DensityMatrix(np.eye(6) / 6),
                [Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])],
                [Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])],
            ),
            "state dimension does not factor over the measurements",
        ),
    ],
    ids=["bell-value-box-shape", "quantum-box-dimension"],
)
def test_shapes_that_do_not_fit_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _unnormalized_box():
    table = deterministic_box((0, 1), (1, 2)).table.copy()
    table[:, :, 0, 0] += 1e-9  # every input pair sums to 1 + 1e-9; no signaling
    return table


def _negative_box():
    table = deterministic_box((0, 1), (1, 2)).table.copy()
    table[1, 0, 2, 2] = -1e-9
    return table


class TestNoSignalingBox:
    def test_signaling_table_rejected(self):
        table = np.full((2, 2, 2, 2), 0.25)
        table[0, 0] = [[0.5, 0.0], [0.0, 0.5]]  # Bob marginal depends on X
        table[1, 0] = [[0.5, 0.25], [0.25, 0.0]]
        with pytest.raises(ValueError):
            NoSignalingBox(table)

    def test_nan_box_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            NoSignalingBox(np.full((2, 2, 3, 3), np.nan))

    @pytest.mark.parametrize(
        "table,message",
        [
            (np.full((2, 2, 9), 1 / 9), "must have shape"),
            (_negative_box(), "box has negative"),
            (_unnormalized_box(), "do not"),
        ],
        ids=["ndim", "negative", "unnormalized"],
    )
    def test_malformed_table_rejected(self, table, message):
        with pytest.raises(ValueError, match=message):
            NoSignalingBox(table)

    def test_quantum_box_passes(self):
        box = cglmp.optimal_box()
        assert _no_signaling_residual(box.table) < 1e-12

    def test_alice_marginals_uniform_for_optimal_box(self):
        box = cglmp.optimal_box()
        assert np.max(np.abs(box.alice_marginals() - 1 / 3)) < 1e-12


class TestBoxFromQuantum:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(11)
        ka = rng.normal(size=2) + 1j * rng.normal(size=2)
        kb = rng.normal(size=2) + 1j * rng.normal(size=2)
        ka /= np.linalg.norm(ka)
        kb /= np.linalg.norm(kb)
        state = DensityMatrix(np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj())))
        meas_a = [random_povm(rng, 2, 2) for _ in range(2)]
        meas_b = [random_povm(rng, 2, 2) for _ in range(2)]
        box = box_from_quantum(state, meas_a, meas_b)
        pa = box.table.sum(axis=3)
        pb = box.table.sum(axis=2)
        for X in range(2):
            for Y in range(2):
                assert np.max(np.abs(box.table[X, Y] - np.outer(pa[X, Y], pb[X, Y]))) < 1e-12

    def test_conjugate_fourier_bases_correlate(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        state = DensityMatrix(np.outer(phi, phi))
        w = np.exp(2j * np.pi / 3)
        fourier = np.array([[w ** (k * a) for k in range(3)] for a in range(3)]) / np.sqrt(3)
        alice = Povm(fourier[:, :, None] * fourier.conj()[:, None, :])
        bob = Povm(fourier.conj()[:, :, None] * fourier[:, None, :])
        box = box_from_quantum(state, [alice], [bob])
        for a in range(3):
            assert abs(box.table[0, 0, a, a] - 1 / 3) < 1e-12


class TestGameFromBell:
    def test_matches_handwritten_game(self):
        bell = cglmp3()
        game = game_from_bell(bell, np.full((2, 3), 1 / 3))
        reference = make_cglmp3_game()
        assert game.alice_inputs == reference.alice_inputs
        assert np.allclose(game.p_alice, reference.p_alice, atol=1e-15)
        assert game.partitions == reference.partitions
        # payoffs agree entrywise after undoing the x0 relabeling on x = 1
        relabeled = np.empty_like(game.payoff)
        for i, (x0, x) in enumerate(reference.alice_inputs):
            a = (x0 - (1 if x == 1 else 0)) % 3
            j = game.alice_inputs.index((a, x))
            relabeled[i] = game.payoff[j]
        assert np.max(np.abs(relabeled - reference.payoff)) < 1e-15

    def test_zero_functional(self):
        bell = BellFunctional(np.zeros((2, 2, 3, 3)), [0.5, 0.5], [0.5, 0.5])
        game = game_from_bell(bell, np.full((2, 3), 1 / 3))
        assert np.max(np.abs(game.payoff)) == 0.0

    def test_partition_shape(self):
        game = game_from_bell(cglmp3(), np.full((2, 3), 1 / 3))
        (family,) = game.partitions
        assert len(family) == 2 and all(len(s) == 3 for s in family)

    def test_relabeled_cglmp3_game_is_the_bundled_game(self):
        # the paper's correspondence: input (x0, x) of the bundled game is the
        # functional's outcome a = x0 - x (mod 3) on input x, with p_g uniform
        game = game_from_bell(cglmp3(), np.full((2, 3), 1 / 3))
        reference = make_cglmp3_game()
        order = [game.alice_inputs.index(((x0 - x) % 3, x)) for x0, x in reference.alice_inputs]
        assert game.payoff[order].tobytes() == reference.payoff.tobytes()
        assert game.p_alice[order].tobytes() == reference.p_alice.tobytes()
        assert game.p_bob.tobytes() == reference.p_bob.tobytes()
        relabeled = tuple(
            tuple(sorted(order.index(j) for j in subset)) for subset in game.partitions[0]
        )
        assert (relabeled,) == reference.partitions


class TestStrategyFromBox:
    def test_optimal_box_reproduces_quantum_value(self):
        box = cglmp.optimal_box()
        p_g, behavior = strategy_from_box(box)
        game = game_from_bell(cglmp3(), p_g)
        assert abs(performance(game, behavior) - A3) < 1e-12

    def test_deterministic_box_identity(self):
        bell = cglmp3()
        box = deterministic_box((0, 2), (1, 1))
        p_g, behavior = strategy_from_box(box)
        game = game_from_bell(bell, p_g)
        assert abs(performance(game, behavior) - bell_value(bell, box)) < 1e-14

    def test_uniform_box_rows(self):
        _, behavior = strategy_from_box(uniform_box())
        assert np.max(np.abs(behavior.table - 1 / 3)) < 1e-12

    def test_residual_equals_box_residual(self):
        box = cglmp.optimal_box()
        p_g, behavior = strategy_from_box(box)
        game = game_from_bell(cglmp3(), p_g)
        assert obliviousness_residual_behavior(game, behavior) < 1e-10

    def test_two_outcome_counts_rejected(self):
        # a valid box, as measurements with 3 and 2 outcomes give, but no game
        box = NoSignalingBox(np.full((2, 2, 3, 2), 1 / 6))
        with pytest.raises(ValueError, match=r"box of shape \(2, 2, 3, 2\) has two outcome"):
            strategy_from_box(box)


class TestRoundTripIdentity:
    def test_random_mixtures(self):
        rng = np.random.default_rng(2024)
        bell = cglmp3()
        quantum = cglmp.optimal_box()
        det_boxes = [
            deterministic_box(tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
            for _ in range(6)
        ]
        for _ in range(20):
            weights = rng.dirichlet(np.ones(len(det_boxes) + 1))
            table = weights[0] * quantum.table
            for w, b in zip(weights[1:], det_boxes):
                table = table + w * b.table
            box = NoSignalingBox(table)
            p_g, behavior = strategy_from_box(box)
            game = game_from_bell(bell, p_g)
            assert abs(performance(game, behavior) - bell_value(bell, box)) < 1e-12


class TestPreparationsFromEntangled:
    def test_computational_measurement_on_max_entangled(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        state = DensityMatrix(np.outer(phi, phi))
        povm = Povm(tuple(np.diag([1.0 if i == k else 0.0 for i in range(3)]) for k in range(3)))
        p_g, states = preparations_from_entangled(state, [povm])
        assert np.max(np.abs(p_g - 1 / 3)) < 1e-12
        assert np.max(np.abs(states[0] - povm.elements)) < 1e-12

    def test_zero_outcomes_get_the_maximally_mixed_placeholder(self):
        state = DensityMatrix(np.diag(np.eye(9)[0]))  # |00>
        povm = Povm(tuple(np.diag(np.eye(3)[k]) for k in range(3)))
        p_g, states = preparations_from_entangled(state, [povm])
        assert p_g.tolist() == [[1.0, 0.0, 0.0]]
        assert np.array_equal(states[0, 0], np.diag(np.eye(3)[0]))
        for k in (1, 2):
            assert np.array_equal(states[0, k], np.eye(3) / 3)

    def test_averages_reproduce_reduced_state(self):
        state = pure_state(cglmp.optimal_state())
        p_g, states = preparations_from_entangled(
            state, [cglmp.alice_povm(0), cglmp.alice_povm(1)]
        )
        rho_b = np.einsum("abac->bc", state.matrix.reshape(3, 3, 3, 3))
        averages = np.einsum("Xa,Xabc->Xbc", p_g, states)
        assert np.max(np.abs(averages - rho_b)) < 1e-12

    def test_conditional_states_are_pure(self):
        state = pure_state(cglmp.optimal_state())
        _, states = preparations_from_entangled(
            state, [cglmp.alice_povm(0), cglmp.alice_povm(1)]
        )
        purity = np.trace(states @ states, axis1=-2, axis2=-1).real
        assert np.max(np.abs(purity - 1.0)) < 1e-10


def test_behavior_pipelines_agree():
    # steered-preparation route vs direct box conversion
    state = pure_state(cglmp.optimal_state())
    alice = [cglmp.alice_povm(0), cglmp.alice_povm(1)]
    bob = [cglmp.bob_povm(0), cglmp.bob_povm(1)]
    box = box_from_quantum(state, alice, bob)
    _, behavior_box = strategy_from_box(box)
    behavior_direct = behavior_from_quantum(cglmp.game_strategy())
    # game_strategy applies the x0 relabeling on x = 1; undo it to compare
    game = make_cglmp3_game()
    for i, (x0, x) in enumerate(game.alice_inputs):
        a = (x0 - (1 if x == 1 else 0)) % 3
        j = game.alice_inputs.index((a, x))
        assert np.max(np.abs(behavior_direct.table[i] - behavior_box.table[j])) < 1e-10


def _reference_steered(state, alice_meas, da, db):
    # the per-effect loop with an einsum partial trace over the first factor
    pg = np.zeros((len(alice_meas), alice_meas[0].n_outcomes))
    states = np.empty(pg.shape + (db, db), dtype=complex)
    for X, povm in enumerate(alice_meas):
        for a, eff in enumerate(povm.elements):
            op = np.kron(eff, np.eye(db)) @ state.matrix
            reduced = np.einsum("abac->bc", op.reshape(da, db, da, db))
            p = float(np.trace(reduced).real)
            if p <= 1e-14:
                states[X, a] = np.eye(db) / db
            else:
                m = reduced / p
                states[X, a] = (m + m.conj().T) / 2
                pg[X, a] = p
    return pg, states


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.tuples(st.integers(2, 3), st.integers(2, 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.integers(2, 4), st.integers(2, 4)),
)
def test_batched_products_are_the_loops(seed, dims, settings_, outcomes):
    # box_from_quantum and preparations_from_entangled equal np.kron per pair of
    # effects and the per-effect partial trace, bit for bit, on random
    # entangled states and measurements
    rng = np.random.default_rng(seed)
    (da, db), (ma, mb), (na, nb) = dims, settings_, outcomes
    state = random_density(rng, da * db)
    alice = [random_povm(rng, da, na) for _ in range(ma)]
    bob = [random_povm(rng, db, nb) for _ in range(mb)]
    reference = np.empty((ma, mb, na, nb))
    for X, Y, a, b in np.ndindex(reference.shape):
        product = np.kron(alice[X].elements[a], bob[Y].elements[b])
        reference[X, Y, a, b] = float(np.trace(product @ state.matrix).real)
    assert np.array_equal(box_from_quantum(state, alice, bob).table, reference)
    p_g, states = preparations_from_entangled(state, alice)
    ref_pg, ref_states = _reference_steered(state, alice, da, db)
    assert np.array_equal(p_g, ref_pg) and np.array_equal(states, ref_states)


def test_serialization_roundtrip(tmp_path):
    bell = cglmp3()
    box = cglmp.optimal_box()
    save_record(bell, tmp_path / "bell.json")
    save_box(box, tmp_path / "box.json")
    bell2 = load_functional(tmp_path / "bell.json")
    box2 = load_box(tmp_path / "box.json")
    assert np.array_equal(bell2.coeffs, bell.coeffs)
    assert np.array_equal(box2.table, box.table)
