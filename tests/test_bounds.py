import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import every_parity_rac_game, random_game

from oblivious_games.bellmap import BellFunctional, cglmp3, game_from_bell
from oblivious_games.bounds import (
    BoundResult,
    local_bound,
    pnc_bound_lp_oracle,
    rac_pnc_bound,
)
from oblivious_games.games import (
    ObliviousGame,
    behavior_from_quantum,
    classical_strategy,
    make_cglmp3_game,
    make_rac_game,
    obliviousness_residual_quantum,
    performance,
)


def enumerate_local_reversed(bell):
    """Index-order-reversed brute force used as an independent oracle."""
    ma, mb, d = bell.m_alice, bell.m_bob, bell.n_outcomes
    best = -np.inf
    for g in product(range(d), repeat=mb):
        for f in product(range(d), repeat=ma):
            value = sum(
                bell.coeffs[X, Y, f[X], g[Y]] * bell.p_alice[X] * bell.p_bob[Y]
                for X in range(ma)
                for Y in range(mb)
            )
            best = max(best, value)
    return best


class TestRacFormula:
    @pytest.mark.parametrize(
        "n,d,expected", [(2, 2, 3 / 4), (3, 3, 5 / 9), (2, 3, 2 / 3)]
    )
    def test_reference_values(self, n, d, expected):
        assert rac_pnc_bound(n, d) == expected

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            rac_pnc_bound(2, 6)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            rac_pnc_bound(0, 3)

    @pytest.mark.parametrize("n,d", [(2, 2.5), (2.5, 3), (2.0, 3), (2, 3.0), (True, 3), (2, True)])
    def test_non_integer_sizes_rejected(self, n, d):
        with pytest.raises(ValueError, match="not an integer"):
            rac_pnc_bound(n, d)

    def test_numpy_integers_accepted(self):
        assert rac_pnc_bound(np.int64(2), np.int32(3)) == 2 / 3

    @pytest.mark.parametrize("build", [rac_pnc_bound, make_rac_game])
    @pytest.mark.parametrize("n,d", [(2, 3.0), (2.0, 3)])
    def test_float_sizes_rejected_by_both(self, build, n, d):
        with pytest.raises(ValueError, match="not an integer"):
            build(n, d)


class TestLocalBound:
    def test_cglmp3_is_half(self):
        result = local_bound(cglmp3())
        assert result.value == 0.5
        assert result.method == "bruteforce"

    def test_zero_functional(self):
        bell = BellFunctional(np.zeros((2, 2, 3, 3)), [0.5, 0.5], [0.5, 0.5])
        assert local_bound(bell).value == 0.0

    def test_single_coefficient(self):
        coeffs = np.zeros((2, 2, 3, 3))
        coeffs[0, 0, 0, 0] = 1.0
        bell = BellFunctional(coeffs, [0.5, 0.5], [0.5, 0.5])
        result = local_bound(bell)
        assert abs(result.value - 0.25) < 1e-15
        assert result.witness["alice_assignment"][0] == 0
        assert result.witness["bob_assignment"][0] == 0

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(21)
        bell = BellFunctional(rng.normal(size=(2, 2, 3, 3)), [0.5, 0.5], [0.5, 0.5])
        result = local_bound(bell)
        f = result.witness["alice_assignment"]
        g = result.witness["bob_assignment"]
        value = sum(
            bell.coeffs[X, Y, f[X], g[Y]] * 0.25 for X in range(2) for Y in range(2)
        )
        assert abs(value - result.value) < 1e-12

    def test_enumeration_guard(self):
        bell = BellFunctional(
            np.zeros((9, 9, 8, 8)), np.full(9, 1 / 9), np.full(9, 1 / 9)
        )
        with pytest.raises(ValueError):
            local_bound(bell)

    def test_guard_counts_only_alices_assignments(self):
        # 3**2 assignments of Alice, each with Bob's best reply, though
        # 3**15 joint strategies; the functional pays only for Bob's outcome 0
        coeffs = np.zeros((2, 13, 3, 3))
        coeffs[..., 0] = 1.0
        result = local_bound(BellFunctional(coeffs, [0.5, 0.5], np.full(13, 1 / 13)))
        assert abs(result.value - 1.0) < 1e-12
        assert result.witness == {"alice_assignment": [0, 0], "bob_assignment": [0] * 13}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_agrees_with_reversed_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        bell = BellFunctional(rng.normal(size=(2, 2, 3, 3)), [0.5, 0.5], [0.5, 0.5])
        assert abs(local_bound(bell).value - enumerate_local_reversed(bell)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_outcome_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(2, 2, 3, 3))
        bell = BellFunctional(coeffs, [0.5, 0.5], [0.5, 0.5])
        perm = rng.permutation(3)
        relabeled = BellFunctional(coeffs[:, :, perm, :], [0.5, 0.5], [0.5, 0.5])
        assert abs(local_bound(bell).value - local_bound(relabeled).value) < 1e-12


class TestPncBellGame:
    def test_cglmp3_matches_game_bound(self):
        assert local_bound(cglmp3()).value == 0.5

    def test_zero(self):
        bell = BellFunctional(np.zeros((2, 2, 2, 2)), [0.5, 0.5], [0.5, 0.5])
        assert local_bound(bell).value == 0.0


class TestLpOracle:
    def test_rac22_matches_formula(self):
        game = make_rac_game(2, 2)
        result = pnc_bound_lp_oracle(game, 2)
        assert abs(result.value - rac_pnc_bound(2, 2)) < 1e-9
        assert result.method == "lp-oracle"

    def test_rac23_matches_formula(self):
        game = make_rac_game(2, 3)
        assert abs(pnc_bound_lp_oracle(game, 3).value - rac_pnc_bound(2, 3)) < 1e-9

    def test_rac32_matches_formula(self):
        game = make_rac_game(3, 2)
        assert abs(pnc_bound_lp_oracle(game, 2).value - rac_pnc_bound(3, 2)) < 1e-9

    def test_single_message_is_best_constant_decoder(self):
        game = make_rac_game(2, 2)
        result = pnc_bound_lp_oracle(game, 1)
        # no information flows: per y, guess the most favorable outcome
        weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
        expected = float(weighted.sum(axis=0).max(axis=1).sum())
        assert abs(result.value - expected) < 1e-12

    def test_monotone_in_message_count(self):
        game = make_rac_game(2, 2)
        values = [pnc_bound_lp_oracle(game, m).value for m in (1, 2, 3)]
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9

    def test_witness_encoding_is_oblivious(self):
        game = make_rac_game(2, 3)
        result = pnc_bound_lp_oracle(game, 3)
        enc = np.asarray(result.witness["encoding"])
        assert np.max(np.abs(enc.sum(axis=1) - 1.0)) < 1e-8
        for family in game.partitions:
            sums = [enc[list(s)].sum(axis=0) for s in family]
            for v in sums[1:]:
                assert np.max(np.abs(v - sums[0])) < 1e-7

    def test_decoder_guard(self):
        # C(27, 8) sets of 8 distinct decoding functions; the program fits
        with pytest.raises(ValueError, match="2220075 decoders"):
            pnc_bound_lp_oracle(make_rac_game(3, 3), 8)
        game = make_rac_game(2, 5)
        # 25 + 16 x 12 rows fit, but C(25, 12) sets do not
        with pytest.raises(ValueError, match="5200300 decoders"):
            pnc_bound_lp_oracle(game, 12)
        # one set, but its program of 25 x 25 variables is above the desk scale
        with pytest.raises(ValueError, match="625 variables"):
            pnc_bound_lp_oracle(game, 25)
        # with every family four times, 25 + 64 x 12 rows are above the desk
        # scale, and the row guard refuses first
        with pytest.raises(ValueError, match="793 rows"):
            pnc_bound_lp_oracle(every_parity_rac_game(2, 5), 12)

    def test_guards_precede_the_enumeration(self):
        # 2**21 decoding functions: both guards refuse before any is listed
        game = ObliviousGame(
            alice_inputs=(0, 1),
            bob_inputs=tuple(range(21)),
            outcomes=(0, 1),
            p_alice=np.full(2, 1 / 2),
            p_bob=np.full(21, 1 / 21),
            payoff=np.ones((2, 21, 2)),
        )
        with pytest.raises(ValueError, match="2097152 decoders"):
            pnc_bound_lp_oracle(game, 1)
        with pytest.raises(ValueError, match="4194304 variables"):
            pnc_bound_lp_oracle(game, 2**21)

    def test_messages_beyond_the_decoding_functions(self):
        game = make_rac_game(2, 2)
        exact, beyond = pnc_bound_lp_oracle(game, 4), pnc_bound_lp_oracle(game, 5)
        assert beyond.value == exact.value == 0.75
        assert beyond.witness == exact.witness

    @pytest.mark.parametrize("count", [True, 2.0, 2.5, "2"])
    def test_message_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match=re.escape(repr(count))):
            pnc_bound_lp_oracle(make_rac_game(2, 2), count)

    def test_numpy_integer_message_count(self):
        game = make_rac_game(2, 2)
        result = pnc_bound_lp_oracle(game, np.int64(2))
        assert result.value == pnc_bound_lp_oracle(game, 2).value
        assert (result.programs, result.pivots) == (1, 7)

    def test_rac33_two_messages(self):
        result = pnc_bound_lp_oracle(make_rac_game(3, 3), 2)
        assert abs(result.value - 4 / 9) < 1e-9
        assert result.witness["decoder"] == [[0, 0, 0], [0, 0, 1]]
        assert (result.programs, result.pivots) == (271, 651)

    def test_rac33_matches_formula(self):
        # the README's 5/9: three messages reach the closed form
        result = pnc_bound_lp_oracle(make_rac_game(3, 3), 3)
        assert abs(result.value - rac_pnc_bound(3, 3)) < 1e-9
        assert abs(result.value - 5 / 9) < 1e-9
        assert (result.programs, result.pivots) == (1333, 7589)

    def test_cglmp_game_oracle_matches_local_bound(self):
        game = make_cglmp3_game()
        result = pnc_bound_lp_oracle(game, 3)
        assert abs(result.value - 0.5) < 1e-9
        assert (result.programs, result.pivots) == (46, 66)


@pytest.mark.parametrize("n,d,messages", [(2, 3, 3), (3, 3, 2), (2, 5, 2)])
def test_canonical_families_keep_the_oracle_value(n, d, messages):
    canonical = pnc_bound_lp_oracle(make_rac_game(n, d), messages)
    every = pnc_bound_lp_oracle(every_parity_rac_game(n, d), messages)
    assert abs(canonical.value - every.value) < 1e-12


WITNESS_GAMES = {
    "rac22": lambda: make_rac_game(2, 2),
    "rac23": lambda: make_rac_game(2, 3),
    "rac32": lambda: make_rac_game(3, 2),
    "cglmp3": make_cglmp3_game,
    "bell-cglmp3": lambda: game_from_bell(cglmp3(), np.full((2, 3), 1 / 3)),
    "random": random_game,
}


def witness_strategy(game, result):
    """The oracle's witness as the classical strategy it names."""
    decoding = np.eye(game.n_outcomes)[result.witness["decoder"]]  # one-hot (m, y, b)
    return classical_strategy(result.witness["encoding"], decoding)


@pytest.mark.parametrize(
    "messages", [1, 2, 3, None], ids=["1-message", "2-messages", "3-messages", "all-decoders"]
)
@pytest.mark.parametrize("name", sorted(WITNESS_GAMES))
def test_witness_attains_the_value(name, messages):
    """The witness is an explicit oblivious classical strategy scoring ``value``; one
    message gives the strategy of dimension 1."""
    game = WITNESS_GAMES[name]()
    result = pnc_bound_lp_oracle(game, messages or game.n_outcomes**game.n_bob)
    strategy = witness_strategy(game, result)
    assert abs(performance(game, behavior_from_quantum(strategy)) - result.value) < 1e-12
    assert obliviousness_residual_quantum(game, strategy) <= 1e-12


def _encoding_vertices(game, messages):
    """Vertices of the oblivious encoding polytope by basis enumeration.

    Variable ``x * messages + m`` is p(m|x).  Each input's row sums to one,
    and for every family and message the prior-weighted average of p(m|.)
    over each set equals the one over the family's first set.
    """
    na = game.n_alice
    rows, rhs = [], []
    for x in range(na):
        row = np.zeros(na * messages)
        row[x * messages : (x + 1) * messages] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for family in game.partitions:
        averages = []
        for members in family:
            avg = np.zeros(na)
            avg[list(members)] = game.p_alice[list(members)]
            averages.append(avg / avg.sum())
        for avg in averages[1:]:
            for m in range(messages):
                row = np.zeros(na * messages)
                row[m::messages] = avg - averages[0]
                rows.append(row)
                rhs.append(0.0)
    a, b = np.array(rows), np.array(rhs)
    # Keep an independent set of equations, so every basis is square.
    u, sv, _ = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    a, b = u[:, :rank].T @ a, u[:, :rank].T @ b
    vertices = []
    for basis in combinations(range(a.shape[1]), rank):
        sub = a[:, basis]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        p = np.zeros(a.shape[1])
        p[list(basis)] = np.linalg.solve(sub, b)
        if p.min() > -1e-12:
            vertices.append(p.reshape(na, messages))
    return np.array(vertices)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3)])
def test_lp_oracle_matches_vertex_enumeration(n, d):
    game = make_rac_game(n, d)
    vertices = _encoding_vertices(game, 2)
    weighted = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    # score[f, x]: expected payoff at input x of the deterministic decoder f
    score = np.array(
        [
            [sum(weighted[x, y, f[y]] for y in range(game.n_bob)) for x in range(game.n_alice)]
            for f in product(range(game.n_outcomes), repeat=game.n_bob)
        ]
    )
    # per vertex, each message takes its best decoder on its own
    per_message = np.einsum("vxm,fx->vmf", vertices, score).max(axis=2)
    brute = float(per_message.sum(axis=1).max())
    assert abs(pnc_bound_lp_oracle(game, 2).value - brute) < 1e-9


def test_bound_result_rejects_nan():
    with pytest.raises(ValueError):
        BoundResult(value=float("nan"), method="formula")
