"""Dense complex linear algebra for small-dimensional quantum states and measurements.

All heavy lifting is plain double-precision numpy; the dataclasses only add
validated physical invariants (normalization, Hermiticity, positivity,
completeness) on top of the raw arrays.  Every check takes a stack of
matrices on leading axes, a single matrix being the stack without them, and
names the index of the first matrix that fails.  A pure state is a plain
amplitude vector ``v``: its projector ``v[:, None] * v.conj()[None, :]`` is
checked as a ``DensityMatrix``, and a basis, one vector per row, gives the
effects of a projective ``Povm``.
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


def _reject(bad, name: str, problem: str, values=None) -> None:
    """Raise ``ValueError`` naming the first matrix of a stack that ``bad`` flags, if
    any; ``values`` at its index fills the ``{}`` of ``problem``."""
    hits = np.argwhere(bad)
    if len(hits):
        index = tuple(int(i) for i in hits[0])
        label = f"{name}[{', '.join(map(str, index))}]" if index else name
        if values is not None:
            problem = problem.format(np.asarray(values)[index].item())
        raise ValueError(f"{label} {problem}")


def is_hermitian(m, tol: float = HERM_TOL):
    """Whether each matrix of the stack ``m[..., d, d]`` is Hermitian to ``tol``."""
    m = np.asarray(m)
    return np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1)) < tol


def check_positive(m: np.ndarray, name: str) -> None:
    """Reject a stack ``m[..., d, d]`` that is empty or holds a matrix that is non-finite,
    not Hermitian or not positive semidefinite."""
    if not m.size:
        raise ValueError(f"{name} is empty: shape {m.shape}")
    _reject(~np.isfinite(m).all(axis=(-2, -1)), name, "has non-finite entries")
    _reject(~is_hermitian(m), name, "is not Hermitian")
    lo = np.linalg.eigvalsh(m).min(axis=-1)
    _reject(lo < -PSD_TOL, name, f"has eigenvalue {{}} < -{PSD_TOL}", lo)


def _check_states(m: np.ndarray, name: str) -> None:
    """Reject a stack ``m[..., d, d]`` unless each matrix is a density matrix."""
    check_positive(m, name)
    tr = np.trace(m, axis1=-2, axis2=-1)
    _reject(np.abs(tr - 1.0) >= HERM_TOL, name, "trace {!r} is not 1", tr)


def _check_measurements(m: np.ndarray, name: str) -> None:
    """Reject a stack ``m[..., n_outcomes, d, d]`` of measurements unless each has positive
    effects that sum to the identity."""
    check_positive(m, name)
    gaps = np.max(np.abs(m.sum(axis=-3) - np.eye(m.shape[-1])), axis=(-2, -1))
    _reject(gaps >= HERM_TOL, name, "do not sum to the identity")


def readonly(a: np.ndarray) -> np.ndarray:
    """Write-protected copy of an array, for the fields of frozen records."""
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        _check_states(m, "density matrix")
        object.__setattr__(self, "matrix", readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive-operator-valued measure: effects ``elements[b]`` (n_outcomes, d, d) summing to 1."""

    elements: np.ndarray

    def __post_init__(self):
        elems = tuple(as_matrix(e) for e in self.elements)
        if not elems:
            raise ValueError("measurement needs at least one outcome")
        if any(e.shape != elems[0].shape for e in elems):
            raise ValueError("measurement effects have mixed dimensions")
        elems = np.stack(elems)
        _check_measurements(elems, "effects")
        object.__setattr__(self, "elements", readonly(elems))

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)
