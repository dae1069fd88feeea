import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games import cglmp
from oblivious_games.bellmap import BellFunctional, NoSignalingBox
from oblivious_games.games import (
    Behavior,
    ObliviousGame,
    QuantumStrategy,
    behavior_from_quantum,
    cglmp3_targets,
    check_distribution,
    classical_strategy,
    is_prime,
    load_game,
    make_cglmp3_game,
    make_rac_game,
    obliviousness_residual_behavior,
    obliviousness_residual_quantum,
    performance,
    save_game,
)
from oblivious_games.optimizer import _null_projector

from conftest import every_parity_rac_game
from test_qmath import random_density, random_povm


def uniform_behavior(game):
    return Behavior(np.full(game.payoff.shape, 1.0 / game.n_outcomes))


class TestCglmp3Game:
    def test_targets_formula(self):
        assert cglmp3_targets(0, 0, 0) == (0, 1)

    def test_targets_never_collide(self):
        for x0 in range(3):
            for x in range(2):
                for y in range(2):
                    t0, t1 = cglmp3_targets(x0, x, y)
                    assert t0 != t1

    def test_uniform_behavior_scores_zero(self):
        game = make_cglmp3_game()
        assert abs(performance(game, uniform_behavior(game))) < 1e-12

    def test_payoff_rows_sum_to_zero(self):
        game = make_cglmp3_game()
        assert np.max(np.abs(game.payoff.sum(axis=2))) < 1e-12

    def test_optimal_quantum_value(self):
        game = make_cglmp3_game()
        behavior = behavior_from_quantum(cglmp.game_strategy())
        value = performance(game, behavior)
        assert abs(value - (3 + np.sqrt(33)) / 12) < 1e-10

    def test_partition_groups_by_x(self):
        game = make_cglmp3_game()
        (family,) = game.partitions
        assert len(family) == 2
        for v, subset in enumerate(family):
            assert all(game.alice_inputs[i][1] == v for i in subset)


class TestRacGame:
    def test_2_2_structure(self):
        game = make_rac_game(2, 2)
        assert len(game.alice_inputs) == 4
        assert len(game.partitions) == 1  # only r = (1, 1)
        assert [len(s) for s in game.partitions[0]] == [2, 2]

    def test_2_3_admissible_strings(self):
        # every hidden parity string has at least two nonzero weights, and
        # (1, 1) and (1, 2) stand for their multiples (2, 2) and (2, 1)
        game = make_rac_game(2, 3)
        assert len(game.partitions) == 2

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            make_rac_game(2, 4)

    def test_set_sizes_are_d_pow_n_minus_1(self):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            game = make_rac_game(n, d)
            for family in game.partitions:
                assert all(len(s) == d ** (n - 1) for s in family)

    def test_always_send_first_symbol_value(self):
        # classical strategy: message = x_1, guess when y != 1
        for n, d in ((2, 2), (2, 3), (3, 2)):
            game = make_rac_game(n, d)
            enc = np.zeros((d**n, d))
            for i, x in enumerate(game.alice_inputs):
                enc[i, x[0]] = 1.0
            dec = np.zeros((d, n, d))
            for m in range(d):
                dec[m, 0, m] = 1.0
                dec[m, 1:, :] = 1.0 / d
            value = performance(game, behavior_from_quantum(classical_strategy(enc, dec)))
            assert abs(value - (n + d - 1) / (n * d)) < 1e-12

    def test_send_first_symbol_is_oblivious(self):
        game = make_rac_game(2, 3)
        enc = np.zeros((9, 3))
        for i, x in enumerate(game.alice_inputs):
            enc[i, x[0]] = 1.0
        dec = np.zeros((3, 2, 3))
        for m in range(3):
            dec[m, 0, m] = 1.0
            dec[m, 1, :] = 1.0 / 3
        behavior = behavior_from_quantum(classical_strategy(enc, dec))
        assert obliviousness_residual_behavior(game, behavior) < 1e-12


class TestResiduals:
    def test_x_independent_behavior(self):
        game = make_cglmp3_game()
        assert obliviousness_residual_behavior(game, uniform_behavior(game)) == 0.0

    def test_distinguishing_behavior_positive(self):
        game = make_cglmp3_game()
        table = np.zeros((6, 2, 3))
        for i, (_, x) in enumerate(game.alice_inputs):
            table[i, :, x] = 1.0  # outcome reveals x outright
        assert obliviousness_residual_behavior(game, Behavior(table)) > 0.4

    def test_equal_preparations_zero(self):
        game = make_cglmp3_game()
        povm = cglmp.bob_povm(0)
        strategy = QuantumStrategy(np.tile(np.eye(3) / 3, (6, 1, 1)), np.stack([povm.elements] * 2))
        assert obliviousness_residual_quantum(game, strategy) == 0.0

    def test_cglmp_preparations_satisfy_constraint(self):
        game = make_cglmp3_game()
        assert obliviousness_residual_quantum(game, cglmp.game_strategy()) < 1e-12

    def test_residual_compares_every_pair_of_sets(self):
        # set 0 sits halfway between sets 1 and 2, so comparing only against
        # set 0 would report half of the true gap
        game = ObliviousGame(
            alice_inputs=(0, 1, 2),
            bob_inputs=(0,),
            outcomes=(0, 1),
            p_alice=np.full(3, 1 / 3),
            p_bob=[1.0],
            payoff=np.zeros((3, 1, 2)),
            partitions=(((0,), (1,), (2,)),),
        )
        table = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 1.0]]])
        assert obliviousness_residual_behavior(game, Behavior(table)) == 1.0

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            ObliviousGame(
                alice_inputs=(0, 1),
                bob_inputs=(0,),
                outcomes=(0, 1),
                p_alice=[0.5, 0.5],
                p_bob=[1.0],
                payoff=np.zeros((2, 1, 2)),
                partitions=((),),
            )


class TestQuantumBehavior:
    def test_identity_table(self):
        basis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        behavior = behavior_from_quantum(QuantumStrategy(basis, basis[None]))
        assert np.allclose(behavior.table[:, 0, :], np.eye(2), atol=1e-12)

    def test_maximally_mixed_rows(self):
        # rank-1 projective measurement on the maximally mixed qutrit: 1/3 rows
        rng = np.random.default_rng(8)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        basis, _ = np.linalg.qr(g)
        effects = np.einsum("ik,jk->kij", basis, basis.conj())
        behavior = behavior_from_quantum(QuantumStrategy(np.eye(3)[None] / 3, effects[None]))
        assert np.max(np.abs(behavior.table - 1 / 3)) < 1e-12

    def test_shape_mismatch_rejected(self):
        game = make_cglmp3_game()
        with pytest.raises(ValueError):
            performance(game, Behavior(np.full((4, 2, 3), 1 / 3)))

    def test_closed_form_agreement(self):
        behavior = behavior_from_quantum(cglmp.game_strategy())
        game = make_cglmp3_game()
        for i, (x0, x) in enumerate(game.alice_inputs):
            for y in range(2):
                for b in range(3):
                    assert abs(behavior.table[i, y, b] - cglmp.closed_form_prob(x0, x, y, b)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
def test_performance_linear_in_behavior(seed, lam):
    rng = np.random.default_rng(seed)
    game = make_cglmp3_game()
    shape = game.payoff.shape

    def random_behavior():
        t = rng.random(shape)
        return Behavior(t / t.sum(axis=2, keepdims=True))

    p, q = random_behavior(), random_behavior()
    mix = Behavior(lam * p.table + (1 - lam) * q.table)
    lhs = performance(game, mix)
    rhs = lam * performance(game, p) + (1 - lam) * performance(game, q)
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_behavior_residual_bounded_by_operator_residual(seed, dim):
    rng = np.random.default_rng(seed)
    n_inputs = 4
    game = ObliviousGame(
        alice_inputs=tuple(range(n_inputs)),
        bob_inputs=(0, 1),
        outcomes=tuple(range(dim)),
        p_alice=np.full(n_inputs, 1 / n_inputs),
        p_bob=np.full(2, 0.5),
        payoff=np.zeros((n_inputs, 2, dim)),
        partitions=(((0, 1), (2, 3)),),
    )
    states = np.stack([random_density(rng, dim).matrix for _ in range(n_inputs)])
    effects = np.stack([random_povm(rng, dim, dim).elements for _ in range(2)])
    strategy = QuantumStrategy(states, effects)
    lhs = obliviousness_residual_behavior(game, behavior_from_quantum(strategy))
    rhs = dim * obliviousness_residual_quantum(game, strategy)
    assert lhs <= rhs + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(1, 3), st.integers(2, 4))
def test_behavior_from_quantum_is_the_born_rule_loop(seed, dim, n_bob, n_outcomes):
    # one batched product and trace equals Tr(M @ rho) per entry, bit for bit
    rng = np.random.default_rng(seed)
    states = np.stack([random_density(rng, dim).matrix for _ in range(int(rng.integers(1, 7)))])
    effects = np.stack([random_povm(rng, dim, n_outcomes).elements for _ in range(n_bob)])
    reference = np.empty((len(states), n_bob, n_outcomes))
    for x, y, b in np.ndindex(reference.shape):
        p = complex(np.trace(effects[y, b] @ states[x]))
        reference[x, y, b] = min(max(p.real, 0.0), 1.0)
    table = behavior_from_quantum(QuantumStrategy(states, effects)).table
    assert np.array_equal(table, reference)


def test_weighted_payoff_is_the_read_only_product():
    game = make_rac_game(2, 3)
    weighted = game.weighted_payoff()
    expected = game.payoff * game.p_alice[:, None, None] * game.p_bob[None, :, None]
    assert np.array_equal(weighted, expected)
    assert not weighted.flags.writeable


def test_constraint_rows_rac23():
    game = make_rac_game(2, 3)
    rows = game.constraint_rows()
    assert rows.shape == (2 * (3 - 1), 9)  # families x (sets - 1), inputs
    # reference: the loop the quantum search projected with before
    expected = []
    for family in game.partitions:
        weights = []
        for subset in family:
            w = np.zeros(game.n_alice)
            q = float(np.sum(game.p_alice[list(subset)]))
            for i in subset:
                w[i] = game.p_alice[i] / q
            weights.append(w)
        for k in range(1, len(weights)):
            expected.append(weights[0] - weights[k])
    assert np.array_equal(rows, np.asarray(expected))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 5), (3, 5)])
def test_canonical_families_lose_no_constraint(n, d):
    # one family per class {c r} of parity strings keeps the constraints of
    # every string; the constructor keeps the repeated families it is given
    game, every = make_rac_game(n, d), every_parity_rac_game(n, d)
    rows = game.constraint_rows()
    assert len(game.partitions) == (d**n - 1 - n * (d - 1)) // (d - 1)
    assert len(every.partitions) == (d - 1) * len(game.partitions)
    assert np.linalg.matrix_rank(rows) == len(rows)
    assert np.max(np.abs(_null_projector(rows) - _null_projector(every.constraint_rows()))) < 1e-12


def _valid_game_fields():
    return dict(
        alice_inputs=(0, 1),
        bob_inputs=(0,),
        outcomes=(0, 1),
        p_alice=np.array([0.5, 0.5]),
        p_bob=np.array([1.0]),
        payoff=np.ones((2, 1, 2)),
        partitions=(((0,), (1,)),),
    )


def test_nan_prior_rejected():
    fields = _valid_game_fields()
    fields["p_alice"] = np.array([np.nan, 0.5])
    with pytest.raises(ValueError, match="non-finite"):
        ObliviousGame(**fields)


def test_infinite_payoff_rejected():
    fields = _valid_game_fields()
    fields["payoff"][1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ObliviousGame(**fields)


def test_non_integer_partition_index_rejected():
    fields = _valid_game_fields()
    for bad in (1.5, True):
        fields["partitions"] = (((0,), (bad,)),)
        with pytest.raises(ValueError, match="not an integer"):
            ObliviousGame(**fields)
    fields["partitions"] = (((np.int64(0),), (np.int64(1),)),)
    assert ObliviousGame(**fields).partitions == (((0,), (1,)),)


def test_nan_behavior_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Behavior(np.full((2, 2, 3), np.nan))


def _random_tables(rng, shape):
    t = rng.random(shape)
    return t / t.sum(axis=-1, keepdims=True)


class TestBehaviorStacks:
    @pytest.mark.parametrize("k", [1, 2, 33])
    def test_stacked_performance_equals_each_table_alone(self, k):
        game = make_cglmp3_game()
        tables = _random_tables(np.random.default_rng(k), (k, 6, 2, 3))
        values = performance(game, Behavior(tables))
        assert values.shape == (k,)
        alone = [performance(game, Behavior(t)) for t in tables]
        assert all(type(v) is float for v in alone)
        assert values.tolist() == alone

    @pytest.mark.parametrize("seed", range(6))
    def test_performance_matches_the_four_operand_contraction(self, seed):
        # A random game and stack, scored against the parent form: the
        # payoff, both priors and the tables in one contraction, agreeing to
        # a few ulps of the sum of |weight * probability|.  Row p of the
        # stack scores bit for bit as a stack of one and as a single table.
        rng = np.random.default_rng(seed)
        na, nb, no = rng.integers(1, 7, size=3)
        pa, pb = rng.random(na) + 0.1, rng.random(nb) + 0.1
        game = ObliviousGame(
            alice_inputs=tuple(range(na)),
            bob_inputs=tuple(range(nb)),
            outcomes=tuple(range(no)),
            p_alice=pa / pa.sum(),
            p_bob=pb / pb.sum(),
            payoff=rng.normal(size=(na, nb, no)) * 10.0 ** rng.integers(-3, 4),
        )
        tables = _random_tables(rng, (int(rng.integers(1, 130)), na, nb, no))
        values = performance(game, Behavior(tables))
        reference = np.einsum(
            "ayb,a,y,...ayb->...", game.payoff, game.p_alice, game.p_bob, tables
        )
        scale = np.einsum("ayb,...ayb->...", np.abs(game.weighted_payoff()), tables)
        assert np.all(np.abs(values - reference) <= 4 * np.finfo(float).eps * scale)
        for p in range(len(tables)):
            assert performance(game, Behavior(tables[p : p + 1]))[0] == values[p]
            assert performance(game, Behavior(tables[p])) == values[p]

    def test_two_leading_axes(self):
        game = make_rac_game(2, 2)
        tables = _random_tables(np.random.default_rng(4), (3, 2, 4, 2, 2))
        values = performance(game, Behavior(tables))
        assert values.shape == (3, 2)
        assert values[2, 1] == performance(game, Behavior(tables[2, 1]))

    @pytest.mark.parametrize(
        "fault,message",
        [(1e-3, "do not sum to 1"), (-1.0, "negative"), (np.nan, "non-finite")],
    )
    def test_one_bad_row_rejects_the_stack(self, fault, message):
        tables = np.full((5, 6, 2, 3), 1 / 3)
        tables[3, 4, 1, 2] += fault
        with pytest.raises(ValueError, match=message):
            Behavior(tables)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            performance(make_cglmp3_game(), Behavior(np.full((2, 4, 2, 3), 1 / 3)))

    def test_too_few_axes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Behavior(np.full((2, 3), 1 / 3))

    def test_residual_rejects_a_stack(self):
        game = make_cglmp3_game()
        with pytest.raises(ValueError, match="does not match"):
            obliviousness_residual_behavior(game, Behavior(np.full((2, 6, 2, 3), 1 / 3)))


@pytest.mark.parametrize(
    "p,message",
    [([0.5, 0.6, -0.1], "p_alice has negative entries"), ([0.5, 0.4], "sums to 0.9")],
    ids=["negative", "unnormalized"],
)
def test_check_distribution_rejects(p, message):
    with pytest.raises(ValueError, match=message):
        check_distribution(np.array(p), 1e-12, "p_alice")


def _game_without(field):
    fields = _valid_game_fields()
    axis = ("alice_inputs", "bob_inputs", "outcomes").index(field)
    fields[field] = ()
    fields["payoff"] = np.ones(tuple(0 if k == axis else n for k, n in enumerate((2, 1, 2))))
    if field == "alice_inputs":
        fields["p_alice"], fields["partitions"] = np.array([]), ()
    if field == "bob_inputs":
        fields["p_bob"] = np.array([])
    return ObliviousGame(**fields)


@pytest.mark.parametrize(
    "build,field",
    [
        pytest.param(lambda: _game_without("alice_inputs"), "alice_inputs", id="game-no-alice"),
        pytest.param(lambda: _game_without("bob_inputs"), "bob_inputs", id="game-no-bob"),
        pytest.param(lambda: _game_without("outcomes"), "outcomes", id="game-no-outcomes"),
        pytest.param(
            lambda: BellFunctional(np.zeros((0, 2, 2, 2)), [], [0.5, 0.5]),
            "m_alice",
            id="functional-no-alice",
        ),
        pytest.param(
            lambda: BellFunctional(np.zeros((2, 0, 2, 2)), [0.5, 0.5], []),
            "m_bob",
            id="functional-no-bob",
        ),
        pytest.param(
            lambda: BellFunctional(np.zeros((2, 2, 0, 0)), [0.5, 0.5], [0.5, 0.5]),
            "n_outcomes",
            id="functional-no-outcomes",
        ),
        pytest.param(lambda: Behavior(np.zeros((0, 2, 2))), "behavior", id="behavior-no-inputs"),
        pytest.param(
            lambda: Behavior(np.zeros((2, 2, 0))), "behavior", id="behavior-no-outcomes"
        ),
        pytest.param(lambda: NoSignalingBox(np.zeros((2, 0, 2, 2))), "box", id="box-no-inputs"),
        pytest.param(
            lambda: classical_strategy(np.zeros((0, 2)), np.full((2, 2, 2), 0.5)),
            "encoding",
            id="strategy-no-inputs",
        ),
        pytest.param(
            lambda: classical_strategy(np.zeros((2, 0)), np.zeros((0, 2, 2))),
            "encoding",
            id="strategy-no-messages",
        ),
    ],
)
def test_empty_alphabet_rejected_by_name(build, field):
    with pytest.raises(ValueError, match=field) as info:
        build()
    assert "zero-size array" not in str(info.value)


def test_classical_strategy_shape_mismatch_rejected():
    with pytest.raises(ValueError, match=r"shapes disagree: \(2, 3\) and \(2, 2, 2\)"):
        classical_strategy(np.full((2, 3), 1 / 3), np.full((2, 2, 2), 0.5))


def _strategy_arrays(d=2, n_alice=3, n_bob=2):
    states = np.tile(np.eye(d, dtype=complex) / d, (n_alice, 1, 1))
    effects = np.tile(np.eye(d, dtype=complex) / 2, (n_bob, 2, 1, 1))
    return states, effects


def _spoil(field, index, value):
    def build():
        states, effects = _strategy_arrays()
        target = states if field == "states" else effects
        target[index] = value
        return states, effects

    return build


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: _strategy_arrays(n_alice=0), r"states is empty: shape \(0, 2, 2\)"),
        (_spoil("states", (1, 0, 1), np.nan), r"states\[1\] has non-finite entries"),
        (_spoil("effects", (1, 0, 0, 1), 0.25), r"effects\[1, 0\] is not Hermitian"),
        (_spoil("states", 2, np.diag([1.0 + 2e-10, -2e-10])), r"states\[2\] has eigenvalue -2"),
        (_spoil("states", 1, np.eye(2) / 4), r"states\[1\] trace \(0\.5\+0j\) is not 1"),
        (_spoil("effects", (1, 0), np.eye(2) / 4), r"effects\[1\] do not sum to the identity"),
        (lambda: (_strategy_arrays(d=3)[0], _strategy_arrays(d=2)[1]),
         r"shape \(3, 3, 3\) and effects of shape \(2, 2, 2, 2\) are not"),
    ],
    ids=["empty", "non-finite", "non-hermitian", "negative-eigenvalue", "trace", "incomplete",
         "different-d"],
)
def test_quantum_strategy_rejects(build, message):
    with pytest.raises(ValueError, match=message):
        QuantumStrategy(*build())


def test_is_prime():
    assert [k for k in range(14) if is_prime(k)] == [2, 3, 5, 7, 11, 13]


def test_game_json_roundtrip(tmp_path):
    game = make_rac_game(2, 3)
    path = tmp_path / "game.json"
    save_game(game, path)
    loaded = load_game(path)
    assert loaded.alice_inputs == game.alice_inputs
    assert loaded.partitions == game.partitions
    assert np.array_equal(loaded.payoff, game.payoff)
    assert np.array_equal(loaded.p_alice, game.p_alice)
    # document is plain JSON
    json.loads(path.read_text())
