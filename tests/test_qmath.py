import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games.bellmap import preparations_from_entangled
from oblivious_games.games import QuantumStrategy, behavior_from_quantum
from oblivious_games.qmath import PROB_TOL, PSD_TOL, DensityMatrix, Povm, as_matrix, is_hermitian


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def pure_state(amplitudes):
    """The density matrix of a ket, given as its amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


def random_density(rng, dim, rank=None):
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_povm(rng, dim, n_out):
    g = rng.normal(size=(n_out, dim, dim)) + 1j * rng.normal(size=(n_out, dim, dim))
    effects = np.einsum("bij,bkj->bik", g, np.conj(g))
    total = effects.sum(axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = np.einsum("ij,bjk,kl->bil", inv_sqrt, effects, inv_sqrt)
    effects = (effects + np.conj(np.swapaxes(effects, 1, 2))) / 2
    return Povm(tuple(effects))


def computational_povm(dim):
    return Povm(tuple(np.diag(e) for e in np.eye(dim)))


class TestPartialTrace:
    """The partial trace over the first factor, as ``preparations_from_entangled`` takes
    it: p_g[X, a] states[X, a] = Tr_A[(A_{a|X} (x) 1) rho]."""

    def test_product_state(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2).matrix
        sigma = random_density(rng, 3).matrix
        povm = random_povm(rng, 2, 2)
        p_g, states = preparations_from_entangled(DensityMatrix(np.kron(rho, sigma)), [povm])
        assert np.allclose(p_g[0], np.trace(povm.elements @ rho, axis1=1, axis2=2).real, atol=1e-12)
        assert np.allclose(states, sigma, atol=1e-12)

    def test_maximally_entangled_qutrits(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        state = DensityMatrix(np.outer(phi, phi))
        p_g, states = preparations_from_entangled(state, [computational_povm(3)])
        reduced = np.einsum("a,abc->bc", p_g[0], states[0])
        assert np.allclose(reduced, np.eye(3) / 3, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        p_g, states = preparations_from_entangled(
            random_density(rng, 6), [random_povm(rng, 2, 3) for _ in range(2)]
        )
        assert np.max(np.abs(p_g.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not factor"):
            preparations_from_entangled(DensityMatrix(np.eye(5) / 5), [computational_povm(2)])


def quantum_strategy(states, effects):
    return QuantumStrategy(np.array(states, dtype=complex), np.array([effects], dtype=complex))


class TestBornProb:
    """Born-rule probabilities Tr(E rho), as ``behavior_from_quantum`` tabulates them."""

    def test_aligned_and_orthogonal(self):
        strategy = quantum_strategy([np.diag([1.0, 0.0])], computational_povm(2).elements)
        table = behavior_from_quantum(strategy).table
        assert table.tolist() == [[[1.0, 0.0]]]

    def test_maximally_mixed(self):
        rng = np.random.default_rng(2)
        ket = random_ket(rng, 3)
        proj = np.outer(ket, ket.conj())
        effects = [proj, np.eye(3) - proj]
        table = behavior_from_quantum(quantum_strategy([np.eye(3) / 3], effects)).table
        assert abs(table[0, 0, 0] - 1 / 3) < 1e-12

    def test_edge_strategy_gives_clipped_table(self):
        # each matrix passes its own checks at the edge of PSD_TOL, and the
        # probability of outcome 0 is about -1.8e-10: inside the -(d + n) PSD_TOL
        # that those checks allow, so the table clips it to 0
        delta = 0.9e-10
        state = np.diag([1.0 + delta, -delta])
        effects = [np.diag([-delta, 1.0 + delta]), np.diag([1.0 + delta, -delta])]
        table = behavior_from_quantum(quantum_strategy([state], effects)).table
        assert table.tolist() == [[[0.0, 1.0]]]
        assert -2 * PROB_TOL < np.trace(effects[0] @ state).real < -PROB_TOL

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extreme_strategies_stay_in_range(self, d, n):
        # a state with every eigenvalue but one at -PSD_TOL against an effect at
        # -PSD_TOL on its large one reaches the first-order low end -d PSD_TOL; an
        # effect at 1 + (n - 1) PSD_TOL there reaches the high end
        # 1 + (d + n - 2) PSD_TOL.  Either passes the strategy's checks and
        # gives a table, clipped and its row rescaled to unit sum.
        eps = PSD_TOL
        state = np.diag([1 + (d - 1) * eps] + [-eps] * (d - 1))
        big, rest = 1 + (n - 1) * eps, (1 + eps) / (n - 1)
        low = [np.diag([-eps] + [big] * (d - 1))] + [np.diag([rest] + [-eps] * (d - 1))] * (n - 1)
        high = [np.diag([big] + [-eps] * (d - 1))] + [np.diag([-eps] + [rest] * (d - 1))] * (n - 1)
        for effects, first, edge in ((low, 0.0, -d * eps), (high, 1.0, 1 + (d + n - 2) * eps)):
            table = behavior_from_quantum(quantum_strategy([state], effects)).table
            assert table[0, 0, 0] == first
            assert table.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
            assert np.trace(effects[0] @ state).real == pytest.approx(edge, rel=0, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        state = np.diag([1.0, 0.0]).astype(complex)
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[0, 1] = bad  # meets a zero of the state
        with pytest.raises(ValueError, match=r"effects\[0, 0\] has non-finite"):
            quantum_strategy([state], [effect, np.eye(2) - effect])
        with pytest.raises(ValueError, match=r"states\[1\] has non-finite"):
            quantum_strategy([state, np.where(np.eye(2) > 0, 0.5, bad)], [np.eye(2)])


class TestInvariantValidation:
    def test_ket_norm(self):
        with pytest.raises(ValueError, match=r"trace \(2\+0j\) is not 1"):
            pure_state([1.0, 1.0])

    def test_ket_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pure_state([np.nan, 1.0])

    def test_density_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_density_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_povm_completeness(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))

    def test_povm_negative_effect(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_density_non_finite_rejected(self, bad):
        m = np.array([[0.5, bad], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_povm_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"effects\[1\] has non-finite entries"):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, bad])))


@pytest.mark.parametrize(
    "effects,message",
    [
        ((), "at least one outcome"),
        ((np.eye(2), np.zeros((3, 3))), "mixed dimensions"),
        ((np.array([[1.0, 0.5], [0.0, 0.0]]), np.array([[0.0, -0.5], [0.0, 1.0]])),
         r"effects\[0\] is not Hermitian"),
    ],
    ids=["empty", "mixed-dimensions", "non-hermitian"],
)
def test_povm_rejects(effects, message):
    with pytest.raises(ValueError, match=message):
        Povm(effects)


def test_ket_without_amplitudes_rejected():
    with pytest.raises(ValueError, match=r"density matrix is empty: shape \(0, 0\)"):
        pure_state([])


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        as_matrix(np.zeros((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_hermitian_eigendecomposition_reconstructs(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (g + g.conj().T) / 2
    w, v = np.linalg.eigh(m)
    assert np.max(np.abs(m - (v * w) @ v.conj().T)) < 1e-10
    assert is_hermitian(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.integers(2, 5))
def test_born_prob_sums_to_one_over_povm(seed, dim, n_out):
    rng = np.random.default_rng(seed)
    state = random_density(rng, dim).matrix
    strategy = quantum_strategy([state], random_povm(rng, dim, n_out).elements)
    assert abs(behavior_from_quantum(strategy).table.sum() - 1.0) < 1e-10
