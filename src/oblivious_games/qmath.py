"""Dense complex linear algebra for small-dimensional quantum states and measurements.

All heavy lifting is plain double-precision numpy; the dataclasses only add
validated physical invariants (normalization, Hermiticity, positivity,
completeness) on top of the raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Global tolerance constants. Dimensions stay <= 64, so conditioning is a
# non-issue and these can be tight.
HERM_TOL = 1e-12
PSD_TOL = 1e-10
PROB_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(m, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) < tol)


def readonly(a: np.ndarray) -> np.ndarray:
    """Write-protected copy of an array, for the fields of frozen records."""
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Ket:
    """Normalized pure-state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size == 0:
            raise ValueError("ket needs at least one amplitude")
        if not np.isfinite(amp).all():
            raise ValueError("ket has non-finite amplitudes")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) >= HERM_TOL:
            raise ValueError(f"ket is not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", readonly(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def overlap(self, other: "Ket") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        if not is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) >= HERM_TOL:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {lo} < -{PSD_TOL}")
        object.__setattr__(self, "matrix", readonly(m))

    @classmethod
    def from_ket(cls, ket: Ket) -> "DensityMatrix":
        return cls(ket.projector())

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive-operator-valued measure: one effect per outcome, summing to 1."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(as_matrix(e) for e in self.elements)
        if not elems:
            raise ValueError("measurement needs at least one outcome")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, e in enumerate(elems):
            if e.shape != (d, d):
                raise ValueError("measurement effects have mixed dimensions")
            if not np.isfinite(e).all():
                raise ValueError(f"effect {i} has non-finite entries")
            if not is_hermitian(e):
                raise ValueError(f"effect {i} is not Hermitian")
            if float(np.linalg.eigvalsh(e).min()) < -PSD_TOL:
                raise ValueError(f"effect {i} is not positive semidefinite")
            total = total + e
        if np.max(np.abs(total - np.eye(d))) >= HERM_TOL:
            raise ValueError("effects do not sum to the identity")
        object.__setattr__(self, "elements", tuple(readonly(e) for e in elems))

    @classmethod
    def from_kets(cls, kets) -> "Povm":
        """Projective measurement onto an orthonormal basis."""
        return cls(tuple(k.projector() for k in kets))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def kron(a, b) -> np.ndarray:
    """Tensor product of two matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dim_a: int, dim_b: int, which: str = "a") -> np.ndarray:
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator.

    ``which`` names the subsystem that is traced *out*; the reduced operator
    on the other factor is returned.
    """
    m = as_matrix(m)
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(
            f"matrix of shape {m.shape} does not factor as {dim_a}x{dim_b}"
        )
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if which == "a":
        return np.einsum("abac->bc", t)
    if which == "b":
        return np.einsum("abcb->ac", t)
    raise ValueError(f"subsystem tag must be 'a' or 'b', got {which!r}")


def born_prob(state, effect) -> float:
    """Outcome probability Tr(effect * state), clamped to [0, 1] at the edges."""
    rho = state.matrix if isinstance(state, DensityMatrix) else as_matrix(state)
    eff = as_matrix(effect)
    p = complex(np.trace(eff @ rho))
    # Every entry of either matrix enters the trace, so a NaN or an infinity
    # makes it NaN or infinite, which fails these comparisons.
    if not (abs(p.imag) <= PROB_TOL and -PROB_TOL <= p.real <= 1 + PROB_TOL):
        raise ValueError(f"invalid effect/state pair: Tr(E rho) = {p!r}")
    return min(max(p.real, 0.0), 1.0)


def fidelity(a, b) -> float:
    """Uhlmann fidelity, squared-overlap convention: F(pure, pure) = |<psi|phi>|^2."""
    ra = a.matrix if isinstance(a, DensityMatrix) else as_matrix(a)
    rb = b.matrix if isinstance(b, DensityMatrix) else as_matrix(b)
    if ra.shape != rb.shape:
        raise ValueError("fidelity needs equal dimensions")
    for m in (ra, rb):
        if not np.isfinite(m).all():
            raise ValueError("fidelity input is not finite")
        if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < -PSD_TOL:
            raise ValueError("fidelity input is not positive semidefinite")
    wa, va = np.linalg.eigh((ra + ra.conj().T) / 2)
    sqrt_a = (va * np.sqrt(np.clip(wa, 0.0, None))) @ va.conj().T
    inner = sqrt_a @ rb @ sqrt_a
    w = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    # sqrt amplifies eigenvalue noise of rank-deficient inputs; drop it
    w[w < np.max(w, initial=0.0) * 1e-13] = 0.0
    f = float(np.sum(np.sqrt(w)) ** 2)
    return min(max(f, 0.0), 1.0)
