import math

import numpy as np
import pytest

from oblivious_games import bellmap, cglmp, games

from test_qmath import pure_state

A3 = (3 + math.sqrt(33)) / 12


class TestOptimalState:
    def test_amplitude_on_00(self):
        ket = cglmp.optimal_state()
        assert abs(ket[0] - 1 / math.sqrt(cglmp.NORMALIZATION)) < 1e-12
        assert abs(abs(ket[0]) - 0.61685) < 1e-4

    def test_off_diagonal_amplitudes_vanish(self):
        ket = cglmp.optimal_state()
        for idx in range(9):
            if idx not in (0, 4, 8):
                assert ket[idx] == 0.0

    def test_normalized(self):
        assert abs(np.sum(np.abs(cglmp.optimal_state()) ** 2) - 1.0) < 1e-12


class TestBases:
    def test_first_alice_vector_uniform(self):
        k = cglmp.alice_basis(0)[0]
        assert np.max(np.abs(k - 1 / math.sqrt(3))) < 1e-12

    @pytest.mark.parametrize("side,setting", [("a", 0), ("a", 1), ("b", 0), ("b", 1)])
    def test_orthonormality(self, side, setting):
        basis = cglmp.alice_basis(setting) if side == "a" else cglmp.bob_basis(setting)
        assert basis.shape == (3, 3)
        gram = np.array([[np.vdot(k1, k2) for k2 in basis] for k1 in basis])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_bases_achieve_maximal_value(self):
        assert abs(bellmap.bell_value(bellmap.cglmp3(), cglmp.optimal_box()) - A3) < 1e-12


class TestClosedForm:
    def test_rows_normalize(self):
        for x0 in range(3):
            for x in range(2):
                for y in range(2):
                    total = sum(cglmp.closed_form_prob(x0, x, y, b) for b in range(3))
                    assert abs(total - 1.0) < 1e-12

    def test_matches_matrix_oracle_everywhere(self):
        # independent route: steered states + Born rule, all 36 cells
        from oblivious_games.games import behavior_from_quantum, make_cglmp3_game

        behavior = behavior_from_quantum(cglmp.game_strategy())
        game = make_cglmp3_game()
        for i, (x0, x) in enumerate(game.alice_inputs):
            for y in range(2):
                for b in range(3):
                    assert (
                        abs(behavior.table[i, y, b] - cglmp.closed_form_prob(x0, x, y, b))
                        < 1e-12
                    )

    def test_scored_probability_independent_of_x0(self):
        from oblivious_games.games import cglmp3_targets

        for x in range(2):
            for y in range(2):
                for q in range(2):
                    vals = {
                        round(cglmp.closed_form_prob(x0, x, y, cglmp3_targets(x0, x, y)[q]), 14)
                        for x0 in range(3)
                    }
                    assert len(vals) == 1

    def test_a3_assembled_from_closed_form(self):
        from oblivious_games.games import cglmp3_targets

        total = 0.0
        for x0 in range(3):
            for x in range(2):
                for y in range(2):
                    t0, t1 = cglmp3_targets(x0, x, y)
                    total += cglmp.closed_form_prob(x0, x, y, t0)
                    total -= cglmp.closed_form_prob(x0, x, y, t1)
        assert abs(total / 12 - A3) < 1e-12


class TestA3Quantum:
    def test_closed_form_value(self):
        assert abs(cglmp.a3_quantum() - A3) < 1e-12
        assert abs(cglmp.a3_quantum() - 0.72871355) < 1e-7

    def test_exceeds_noncontextual_bound(self):
        assert cglmp.a3_quantum() - 0.5 > 0.228

    def test_agrees_with_game_evaluation(self):
        from oblivious_games.games import behavior_from_quantum, make_cglmp3_game, performance

        value = performance(make_cglmp3_game(), behavior_from_quantum(cglmp.game_strategy()))
        assert abs(value - cglmp.a3_quantum()) < 1e-10


class TestSteeredPreparations:
    def test_match_closed_form_states(self):
        # closed-form conditional operators vs the partial-trace construction:
        # steering a rank-1 effect |a><a| through sum_k gamma_k |kk> leaves
        # gamma_k gamma_j <a|k><j|a> / N on |k><j|
        state = pure_state(cglmp.optimal_state())
        _, steered = bellmap.preparations_from_entangled(
            state, [cglmp.alice_povm(0), cglmp.alice_povm(1)]
        )
        w = cglmp.OMEGA
        for x in range(2):
            for x0 in range(3):
                u = x0 + cglmp.ALPHA[x] - (1 if x == 1 else 0)
                expected = np.array(
                    [
                        [
                            cglmp.GAMMA[k] * cglmp.GAMMA[j] * w ** (-(k - j) * u)
                            for j in range(3)
                        ]
                        for k in range(3)
                    ]
                ) / cglmp.NORMALIZATION
                a = (x0 - (1 if x == 1 else 0)) % 3
                assert np.max(np.abs(steered[x, a] - expected)) < 1e-12

    def test_scaled_partial_trace_identity(self):
        state = pure_state(cglmp.optimal_state())
        povm = cglmp.alice_povm(0)
        _, steered = bellmap.preparations_from_entangled(state, [povm])
        for a in range(3):
            op = np.kron(povm.elements[a], np.eye(3)) @ state.matrix
            direct = 3 * np.einsum("abac->bc", op.reshape(3, 3, 3, 3))
            assert np.max(np.abs(direct - steered[0, a])) < 1e-12


@pytest.mark.parametrize(
    "build",
    [games.make_cglmp3_game, bellmap.cglmp3, cglmp.game_strategy, cglmp.optimal_box],
    ids=lambda f: f.__name__,
)
def test_constant_constructors_build_once(build):
    first = build()
    assert build() is first
    arrays = [v for v in vars(first).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
