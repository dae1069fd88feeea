import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblivious_games.qmath import (
    DensityMatrix,
    Ket,
    Povm,
    born_prob,
    fidelity,
    is_hermitian,
    kron,
    partial_trace,
)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v / np.linalg.norm(v))


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


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01>
        assert np.array_equal(out, expected)

    def test_index_formula(self):
        # independent oracle: (A (x) B)[3i+k, 3j+l] = A[i,j] B[k,l]
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = kron(a, b)
        assert out.shape == (6, 6)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        # vectorized multiply may use fma, so compare to 1 ulp
                        assert abs(out[3 * i + k, 3 * j + l] - a[i, j] * b[k, l]) < 1e-14


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2).matrix
        sigma = random_density(rng, 3).matrix
        reduced = partial_trace(np.kron(rho, sigma), 2, 3, which="a")
        assert np.allclose(reduced, sigma, atol=1e-12)

    def test_maximally_entangled_qutrits(self):
        phi = np.zeros(9)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        reduced = partial_trace(np.outer(phi, phi), 3, 3, which="a")
        assert np.allclose(reduced, np.eye(3) / 3, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        m = random_density(rng, 6).matrix
        for which in ("a", "b"):
            reduced = partial_trace(m, 2, 3, which=which)
            assert abs(np.trace(reduced) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 3)

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 3, which="c")


class TestBornProb:
    def test_aligned_and_orthogonal(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]))
        assert born_prob(zero, np.diag([1.0, 0.0])) == 1.0
        assert born_prob(zero, np.diag([0.0, 1.0])) == 0.0

    def test_maximally_mixed(self):
        rng = np.random.default_rng(2)
        mixed = DensityMatrix(np.eye(3) / 3)
        proj = random_ket(rng, 3).projector()
        assert abs(born_prob(mixed, proj) - 1 / 3) < 1e-12

    def test_invalid_effect_rejected(self):
        state = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            born_prob(state, 3.0 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        state = DensityMatrix(np.diag([1.0, 0.0]))
        effect = np.diag([1.0, 0.0]).astype(complex)
        effect[0, 1] = bad  # meets a zero of the state
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            born_prob(state, effect)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            born_prob(np.where(np.eye(2) > 0, 0.5, bad), np.eye(2))


class TestFidelity:
    def test_identical_pure(self):
        rng = np.random.default_rng(3)
        k = random_ket(rng, 4)
        rho = DensityMatrix.from_ket(k)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_pure(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert fidelity(a, b) < 1e-12

    def test_mixed_vs_pure_closed_form(self):
        rng = np.random.default_rng(4)
        mixed = DensityMatrix(np.eye(3) / 3)
        pure = DensityMatrix.from_ket(random_ket(rng, 3))
        assert abs(fidelity(mixed, pure) - 1 / 3) < 1e-12

    def test_pure_overlap_convention(self):
        rng = np.random.default_rng(6)
        k1, k2 = random_ket(rng, 3), random_ket(rng, 3)
        f = fidelity(DensityMatrix.from_ket(k1), DensityMatrix.from_ket(k2))
        assert abs(f - abs(k1.overlap(k2)) ** 2) < 1e-10

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            fidelity(bad, np.eye(2) / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError):
            fidelity(m, np.eye(2) / 2)
        with pytest.raises(ValueError):
            fidelity(np.eye(2) / 2, m)


class TestInvariantValidation:
    def test_ket_norm(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])

    def test_ket_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Ket([np.nan, 1.0])

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
        with pytest.raises(ValueError, match="effect 1 has non-finite entries"):
            Povm((np.diag([1.0, 0.0]), np.diag([0.0, bad])))


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
    state = random_density(rng, dim)
    povm = random_povm(rng, dim, n_out)
    total = sum(born_prob(state, e) for e in povm.elements)
    assert abs(total - 1.0) < 1e-10
