"""Bell functionals, no-signaling boxes, and their correspondence with games.

A bipartite correlation experiment with inputs X, Y and outcomes a, b maps to
a communication game in which Alice receives the pair (x0, x), playing the
roles of the remote outcome and the remote input, and must keep x hidden.
The directed no-signaling property of the correlations becomes exactly the
obliviousness constraint of the game, and the game performance reproduces the
Bell value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    Behavior,
    ObliviousGame,
    cglmp3_targets,
    check_distribution,
    load_record,
    save_record,
)
from .qmath import DensityMatrix, readonly

NS_TOL = 1e-10
ZERO_MARGINAL_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Real coefficient tensor C[X, Y, a, b] with input priors."""

    coeffs: np.ndarray
    p_alice: np.ndarray
    p_bob: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 4 or c.shape[2] != c.shape[3]:
            raise ValueError("coefficients must have shape (m_A, m_B, d, d)")
        for name, n in zip(("m_alice", "m_bob", "n_outcomes"), c.shape):
            if not n:
                raise ValueError(f"coefficients have {name} = 0")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        pa = np.asarray(self.p_alice, dtype=float).reshape(-1)
        pb = np.asarray(self.p_bob, dtype=float).reshape(-1)
        if pa.shape != (c.shape[0],) or pb.shape != (c.shape[1],):
            raise ValueError("priors do not match the input counts")
        check_distribution(pa, 1e-12, "p_alice")
        check_distribution(pb, 1e-12, "p_bob")
        object.__setattr__(self, "coeffs", readonly(c))
        object.__setattr__(self, "p_alice", readonly(pa))
        object.__setattr__(self, "p_bob", readonly(pb))

    @property
    def m_alice(self) -> int:
        return self.coeffs.shape[0]

    @property
    def m_bob(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.coeffs.shape[2]

    def to_dict(self) -> dict:
        return {
            "coeffs": self.coeffs.tolist(),
            "p_alice": self.p_alice.tolist(),
            "p_bob": self.p_bob.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BellFunctional":
        return cls(
            np.asarray(d["coeffs"], dtype=float),
            np.asarray(d["p_alice"], dtype=float),
            np.asarray(d["p_bob"], dtype=float),
        )


@dataclass(frozen=True, eq=False)
class NoSignalingBox:
    """Bipartite correlation table p[X, Y, a, b].

    Construction rejects tables whose marginals signal beyond ``NS_TOL`` in
    either direction; the residual itself is the diagnostic quantity, so no
    silent projection is performed.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 4:
            raise ValueError("box table must have shape (m_A, m_B, d, d)")
        check_distribution(t.reshape(*t.shape[:2], t.shape[2] * t.shape[3]), NS_TOL, "box")
        resid = _no_signaling_residual(t)
        if resid >= NS_TOL:
            raise ValueError(f"box signals: residual {resid:.3e} >= {NS_TOL}")
        object.__setattr__(self, "table", readonly(t))

    @property
    def m_alice(self) -> int:
        return self.table.shape[0]

    @property
    def m_bob(self) -> int:
        return self.table.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.table.shape[2]

    def alice_marginals(self) -> np.ndarray:
        """p(a|X), averaged over Bob's inputs (which agree within tolerance)."""
        return self.table.sum(axis=3).mean(axis=1)

    def to_dict(self) -> dict:
        return {"table": self.table.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NoSignalingBox":
        return cls(np.asarray(d["table"], dtype=float))


def _no_signaling_residual(t: np.ndarray) -> float:
    bob_marg = t.sum(axis=2)  # p(b|X,Y): must not depend on X
    alice_marg = t.sum(axis=3)  # p(a|X,Y): must not depend on Y
    r1 = np.max(np.abs(bob_marg - bob_marg.mean(axis=0, keepdims=True)))
    r2 = np.max(np.abs(alice_marg - alice_marg.mean(axis=1, keepdims=True)))
    return float(max(r1, r2))


def load_functional(path) -> BellFunctional:
    return load_record(path, BellFunctional.from_dict)


def save_box(box: NoSignalingBox, path) -> None:
    save_record(box, path)


def load_box(path) -> NoSignalingBox:
    return load_record(path, NoSignalingBox.from_dict)


def bell_value(bell: BellFunctional, box: NoSignalingBox) -> float:
    """Value of the functional on a box."""
    if box.table.shape != bell.coeffs.shape:
        raise ValueError("box shape does not match functional")
    return float(
        np.einsum("XYab,X,Y,XYab->", bell.coeffs, bell.p_alice, bell.p_bob, box.table)
    )


def cglmp3() -> BellFunctional:
    """Three-outcome facet functional with local bound 1/2 and quantum maximum (3+sqrt(33))/12.

    The coefficients are the payoffs of ``games.make_cglmp3_game``: outcome a
    on input X plays the game's input (x0, x) = ((a + X) mod 3, X).  The
    conventional 1/4 prefactor is absorbed into the uniform input priors.
    """
    coeffs = np.zeros((2, 2, 3, 3))
    for X, Y, a in np.ndindex(2, 2, 3):
        t0, t1 = cglmp3_targets((a + X) % 3, X, Y)
        coeffs[X, Y, a, t0] += 1.0
        coeffs[X, Y, a, t1] -= 1.0
    return BellFunctional(coeffs, np.full(2, 0.5), np.full(2, 0.5))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the matrices on the last two axes of ``a`` and ``b``, leading axes
    broadcast."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def box_from_quantum(state: DensityMatrix, alice_meas, bob_meas) -> NoSignalingBox:
    """Correlation table p[X, Y, a, b] = Tr[(A_{a|X} (x) B_{b|Y}) rho] of local measurements
    on a bipartite state."""
    alice = np.stack([m.elements for m in alice_meas])
    bob = np.stack([m.elements for m in bob_meas])
    if alice.shape[-1] * bob.shape[-1] != state.dim:
        raise ValueError("state dimension does not factor over the measurements")
    products = _kron(alice[:, None, :, None], bob[None, :, None, :]) @ state.matrix
    return NoSignalingBox(np.trace(products, axis1=-2, axis2=-1).real)


def game_alice_inputs(n_outcomes: int, m_alice: int) -> tuple:
    """Canonical (x0, x) input ordering of games built from functionals."""
    return tuple((x0, x) for x0 in range(n_outcomes) for x in range(m_alice))


def game_from_bell(bell: BellFunctional, p_g) -> ObliviousGame:
    """Communication game associated with a functional and a choice of p(x0|x).

    Alice's inputs are pairs (x0, x) distributed as p_g(x0|x) p_alice(x); the
    single partition family groups them by x, so the receiver may learn x0 but
    nothing about which x Alice held.
    """
    d, ma, mb = bell.n_outcomes, bell.m_alice, bell.m_bob
    pg = np.asarray(p_g, dtype=float)
    if pg.shape != (ma, d):
        raise ValueError(f"p_g must have shape ({ma}, {d})")
    check_distribution(pg, 1e-10, "p_g")
    for x in range(ma):
        if bell.p_alice[x] <= 0.0:
            raise ValueError(f"input {x} has zero prior; its partition set would vanish")
    alice = game_alice_inputs(d, ma)
    p_alice = np.array([pg[x, x0] * bell.p_alice[x] for (x0, x) in alice])
    payoff = np.array(
        [[[bell.coeffs[x, y, x0, b] for b in range(d)] for y in range(mb)] for (x0, x) in alice]
    )
    family = tuple(
        tuple(i for i, (_, x) in enumerate(alice) if x == v) for v in range(ma)
    )
    return ObliviousGame(
        alice_inputs=alice,
        bob_inputs=tuple(range(mb)),
        outcomes=tuple(range(d)),
        p_alice=p_alice,
        p_bob=bell.p_bob,
        payoff=payoff,
        partitions=(family,),
    )


def strategy_from_box(box: NoSignalingBox) -> tuple:
    """Convert a box into (p_g, behavior) for the associated game.

    Uses Alice's observed marginals as p_g, so that the game performance
    reproduces the Bell value of the box exactly.  Outcomes with (numerically)
    zero marginal get a uniform placeholder row; their prior weight vanishes,
    so they cannot affect the performance.  A game has one outcome alphabet,
    so a box whose two outcome axes differ is a ``ValueError``.
    """
    if box.table.shape[2] != box.table.shape[3]:
        raise ValueError(f"box of shape {box.table.shape} has two outcome counts; a game needs one")
    d, ma, mb = box.n_outcomes, box.m_alice, box.m_bob
    pg = box.alice_marginals()  # (ma, d)
    table = np.empty((d * ma, mb, d))
    for i, (x0, x) in enumerate(game_alice_inputs(d, ma)):
        if pg[x, x0] <= ZERO_MARGINAL_TOL:
            table[i] = 1.0 / d
        else:
            table[i] = box.table[x, :, x0, :] / pg[x, x0]
    pg = pg.copy()
    pg[pg <= ZERO_MARGINAL_TOL] = 0.0
    return pg, Behavior(table)


def preparations_from_entangled(state: DensityMatrix, alice_meas) -> tuple:
    """Conditional states steered on the second factor by Alice's measurements.

    Returns (p_g, states) with p_g[X, a] the outcome probability and
    states[X, a] (m_A, n_outcomes, d_B, d_B) the normalized reduced state
    Tr_A[(A_{a|X} (x) 1) rho] / p_g[X, a].  Averaging each row of states
    against p_g reproduces the fixed reduced state of the second subsystem,
    so the obliviousness constraint holds by construction.  Outcomes at or
    below ``ZERO_MARGINAL_TOL`` get a maximally mixed placeholder and zero
    weight.
    """
    alice = np.stack([m.elements for m in alice_meas])
    da = alice.shape[-1]
    if state.dim % da != 0:
        raise ValueError("state dimension does not factor over Alice's measurement")
    db = state.dim // da
    products = _kron(alice, np.eye(db)) @ state.matrix
    reduced = np.einsum("...abac->...bc", products.reshape(*alice.shape[:2], da, db, da, db))
    p = np.trace(reduced, axis1=-2, axis2=-1).real
    steered = p > ZERO_MARGINAL_TOL
    m = reduced / np.where(steered, p, 1.0)[..., None, None]
    states = (m + np.swapaxes(m, -1, -2).conj()) / 2
    return np.where(steered, p, 0.0), np.where(steered[..., None, None], states, np.eye(db) / db)
