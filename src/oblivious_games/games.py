"""Communication games with obliviousness constraints.

A game fixes input alphabets and priors for a sender (Alice) and receiver
(Bob), a raw payoff tensor, and partition families over Alice's inputs.  The
payoff coefficients are stored *unscaled*: the average payoff is always

    performance = sum_{x,y,b} payoff[x,y,b] * p_alice[x] * p_bob[y] * p(b|x,y)

so every conventional prefactor (1/12, 1/(n d^n), ...) arises from the priors.
Each partition family is a collection of pairwise-disjoint index sets over
Alice's inputs; the obliviousness constraint demands that the prior-weighted
average statistics of the sets in one family coincide.  Sets may overlap
*across* families.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .qmath import PROB_TOL, PSD_TOL, _check_measurements, _check_states, readonly

DIST_TOL = 1e-12
BEHAVIOR_TOL = 1e-10


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    i = 2
    while i * i <= k:
        if k % i == 0:
            return False
        i += 1
    return True


def check_distribution(p: np.ndarray, tol: float, name: str) -> None:
    """Reject an empty ``p`` and probability rows, along the last axis of ``p``, that
    are non-finite, below ``-tol`` anywhere, or off a sum of 1 by ``tol`` or more."""
    if not np.size(p):
        raise ValueError(f"{name} is empty")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite entries")
    if np.min(p) < -tol:
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=-1)
    gaps = np.abs(sums - 1.0)
    if np.max(gaps) >= tol:
        s = float(sums.flat[np.argmax(gaps)])
        raise ValueError(f"{name} rows do not sum to 1: one sums to {s!r}")


def save_record(record, path) -> None:
    """Write ``record.to_dict()`` to ``path`` as JSON; the twin of ``load_record``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=1)


def load_record(path, from_dict):
    """Read a JSON object from ``path`` and build a record with ``from_dict``.

    A file that is not JSON, whose top level is not an object, that lacks a
    key, or whose record is malformed or invalid raises ``ValueError``
    naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"expected a JSON object, not {type(data).__name__}")
        return from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def check_integer(value, name: str) -> int:
    """``int(value)`` for an integral ``value``; a bool or any other value is a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True, eq=False)
class ObliviousGame:
    """Alphabets, priors, raw payoff coefficients, and obliviousness partitions."""

    alice_inputs: tuple
    bob_inputs: tuple
    outcomes: tuple
    p_alice: np.ndarray
    p_bob: np.ndarray
    payoff: np.ndarray
    partitions: tuple = ()

    def __post_init__(self):
        na, nb, no = len(self.alice_inputs), len(self.bob_inputs), len(self.outcomes)
        for name, n in (("alice_inputs", na), ("bob_inputs", nb), ("outcomes", no)):
            if not n:
                raise ValueError(f"{name} is empty")
        pa = np.asarray(self.p_alice, dtype=float).reshape(-1)
        pb = np.asarray(self.p_bob, dtype=float).reshape(-1)
        pay = np.asarray(self.payoff, dtype=float)
        if pa.shape != (na,) or pb.shape != (nb,) or pay.shape != (na, nb, no):
            raise ValueError("game arrays do not match the alphabet sizes")
        check_distribution(pa, DIST_TOL, "p_alice")
        check_distribution(pb, DIST_TOL, "p_bob")
        if not np.isfinite(pay).all():
            raise ValueError("payoff has non-finite entries")
        families = tuple(
            tuple(tuple(check_integer(i, "partition index") for i in subset) for subset in family)
            for family in self.partitions
        )
        # Row k of ``averages`` is p_alice on set k over the set's weight;
        # ``pairs`` lists every two sets of one family, ``leading`` its first and another.
        averages = np.zeros((sum(map(len, families)), na))
        pairs, leading, k = [], [], 0
        for family in families:
            if not family:
                raise ValueError("empty partition family")
            pairs += combinations(range(k, k + len(family)), 2)
            leading += [(k, j) for j in range(k + 1, k + len(family))]
            seen: set[int] = set()
            for subset in family:
                if not subset:
                    raise ValueError("empty set inside a partition family")
                for i in subset:
                    if not 0 <= i < na:
                        raise ValueError(f"partition index {i} out of range")
                    if i in seen:
                        raise ValueError("sets within one family must be disjoint")
                    seen.add(i)
                idx = list(subset)
                weight = float(np.sum(pa[idx]))
                if weight <= 0.0:
                    raise ValueError("partition set has zero prior weight")
                averages[k, idx] = pa[idx] / weight
                k += 1
        first, other = np.array(leading, dtype=int).reshape(-1, 2).T
        object.__setattr__(self, "_averages", readonly(averages))
        object.__setattr__(self, "_pairs", readonly(np.array(pairs, dtype=int).reshape(-1, 2).T))
        object.__setattr__(self, "_rows", readonly(averages[first] - averages[other]))
        weighted = pay * pa[:, None, None] * pb[None, :, None]
        object.__setattr__(self, "_weighted", readonly(weighted))
        object.__setattr__(self, "alice_inputs", tuple(self.alice_inputs))
        object.__setattr__(self, "bob_inputs", tuple(self.bob_inputs))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "p_alice", readonly(pa))
        object.__setattr__(self, "p_bob", readonly(pb))
        object.__setattr__(self, "payoff", readonly(pay))
        object.__setattr__(self, "partitions", families)

    @property
    def n_alice(self) -> int:
        return len(self.alice_inputs)

    @property
    def n_bob(self) -> int:
        return len(self.bob_inputs)

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def constraint_rows(self) -> np.ndarray:
        """Rows ``w_0 - w_k`` (k >= 1) of set-average rows of every family; per-input
        data satisfies every obliviousness equality exactly when they annihilate it."""
        return self._rows

    def weighted_payoff(self) -> np.ndarray:
        """``payoff[x, y, b] * p_alice[x] * p_bob[y]``: a table's score is its sum
        against the table."""
        return self._weighted

    def to_dict(self) -> dict:
        return {
            "alice_inputs": [list(x) if isinstance(x, tuple) else x for x in self.alice_inputs],
            "bob_inputs": [list(y) if isinstance(y, tuple) else y for y in self.bob_inputs],
            "outcomes": [list(b) if isinstance(b, tuple) else b for b in self.outcomes],
            "p_alice": self.p_alice.tolist(),
            "p_bob": self.p_bob.tolist(),
            "payoff": self.payoff.tolist(),
            "partitions": [[list(s) for s in family] for family in self.partitions],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ObliviousGame":
        def label(v):
            return tuple(v) if isinstance(v, list) else v

        return cls(
            alice_inputs=tuple(label(x) for x in d["alice_inputs"]),
            bob_inputs=tuple(label(y) for y in d["bob_inputs"]),
            outcomes=tuple(label(b) for b in d["outcomes"]),
            p_alice=np.asarray(d["p_alice"], dtype=float),
            p_bob=np.asarray(d["p_bob"], dtype=float),
            payoff=np.asarray(d["payoff"], dtype=float),
            partitions=tuple(tuple(tuple(s) for s in family) for family in d["partitions"]),
        )


def save_game(game: ObliviousGame, path) -> None:
    save_record(game, path)


def load_game(path) -> ObliviousGame:
    return load_record(path, ObliviousGame.from_dict)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Outcome table p[x, y, b], or a stack p[..., x, y, b]; every row is a distribution."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim < 3:
            raise ValueError("behavior table must have shape (..., inputs_A, inputs_B, outcomes)")
        check_distribution(t, BEHAVIOR_TOL, "behavior")
        object.__setattr__(self, "table", readonly(t))


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """One state per Alice input, ``states[x]`` (n_alice, d, d), and one measurement per
    Bob input, ``effects[y, b]`` (n_bob, n_outcomes, d, d)."""

    states: np.ndarray
    effects: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        effects = np.asarray(self.effects, dtype=complex)
        if states.ndim != 3 or effects.ndim != 4 or not (
            states.shape[1] == states.shape[2] == effects.shape[2] == effects.shape[3]
        ):
            raise ValueError(
                f"states of shape {states.shape} and effects of shape {effects.shape} are not "
                "(n_alice, d, d) and (n_bob, n_outcomes, d, d) for one d"
            )
        _check_states(states, "states")
        _check_measurements(effects, "effects")
        object.__setattr__(self, "states", readonly(states))
        object.__setattr__(self, "effects", readonly(effects))

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[1]


def classical_strategy(encoding, decoding) -> QuantumStrategy:
    """The classical strategy with encoding p(m|x) ``encoding[x, m]`` and decoding
    p(b|m, y) ``decoding[m, y, b]``, as a quantum strategy in dimension m.

    Its states diag p(.|x) and effects diag p(b|., y) commute, so the Born
    rule gives sum_m p(m|x) p(b|m, y).
    """
    enc = np.asarray(encoding, dtype=float)
    dec = np.asarray(decoding, dtype=float)
    if enc.ndim != 2 or dec.ndim != 3 or enc.shape[1] != dec.shape[0]:
        raise ValueError(
            f"encoding (x, m) and decoding (m, y, b) shapes disagree: {enc.shape} and {dec.shape}"
        )
    check_distribution(enc, DIST_TOL, "encoding")
    check_distribution(dec, DIST_TOL, "decoding")
    eye = np.eye(enc.shape[1])
    return QuantumStrategy(enc[:, :, None] * eye, dec.transpose(1, 2, 0)[..., None] * eye)


def performance(game: ObliviousGame, behavior: Behavior):
    """Average payoff of a behavior in a game; one value per table of a stack.

    Each table, flattened, is summed against the flattened weighted payoff in
    one two-operand contraction, which gives a table the same value bit for
    bit whatever stack it is in; a BLAS matrix-vector product would not.
    """
    table = behavior.table
    if table.shape[-3:] != game.payoff.shape:
        raise ValueError(f"behavior shape {table.shape} does not match game {game.payoff.shape}")
    value = np.einsum("...i,i->...", table.reshape(*table.shape[:-3], -1), game._weighted.ravel())
    return float(value) if table.ndim == 3 else value


def behavior_from_quantum(strategy: QuantumStrategy) -> Behavior:
    """Born-rule outcome table p[x, y, b] = Tr(effects[y, b] states[x]), clipped to [0, 1].

    What ``QuantumStrategy`` checks bounds each entry: a state has eigenvalues
    of at least -PSD_TOL and unit trace, so its negative part has trace at
    most (d - 1) PSD_TOL, and an effect lies between -PSD_TOL and
    1 + (n_outcomes - 1) PSD_TOL, its measurement's other effects being at
    least -PSD_TOL.  To first order in PSD_TOL an entry therefore lies in
    [-d PSD_TOL, 1 + (d + n_outcomes - 2) PSD_TOL].  An entry more than
    (d + n_outcomes) PSD_TOL outside [0, 1], which leaves room for the
    second-order terms and the HERM_TOL slack of those checks, or with an
    imaginary part above PROB_TOL, is a ``ValueError``; so is a non-finite
    one, which every comparison fails.  Each row sums to Tr(states[x]) = 1 up
    to that slack; clipping can move a row's sum by up to
    (n_outcomes - 1) d PSD_TOL, so a row that clipping changed is rescaled to
    unit sum, and every other row is left as computed.
    """
    p = np.trace(strategy.effects[None] @ strategy.states[:, None, None], axis1=-2, axis2=-1)
    tol = (strategy.states.shape[-1] + strategy.n_outcomes) * PSD_TOL
    ok = (np.abs(p.imag) <= PROB_TOL) & (-tol <= p.real) & (p.real <= 1 + tol)
    if not ok.all():
        x, y, b = np.argwhere(~ok)[0]
        raise ValueError(
            f"invalid effect/state pair: Tr(effects[{y}, {b}] states[{x}]) = {complex(p[x, y, b])!r}"
        )
    table = np.minimum(np.maximum(p.real, 0.0), 1.0)
    clipped = (table != p.real).any(axis=-1, keepdims=True)
    return Behavior(np.where(clipped, table / table.sum(axis=-1, keepdims=True), table))


def obliviousness_residual(game: ObliviousGame, per_input: np.ndarray):
    """Largest entrywise gap between the averages of two sets of one family, of
    matrices ``per_input[..., x, :, :]`` per input x, one value per leading
    index; the averages are taken first, so equal averages give exactly 0."""
    averages = game._averages @ per_input.reshape(*per_input.shape[:-2], -1)
    ends = np.take(averages, game._pairs, axis=-2)
    gaps = np.abs(ends[..., 0, :, :] - ends[..., 1, :, :])
    return np.max(gaps, axis=(-2, -1), initial=0.0)


def obliviousness_residual_behavior(game: ObliviousGame, behavior: Behavior) -> float:
    """Worst-case deviation from the obliviousness constraint at the statistics level.

    Zero means that for every family, measurement, and outcome the mixed
    statistics of all sets coincide exactly.
    """
    if behavior.table.shape != game.payoff.shape:
        raise ValueError("behavior shape does not match game")
    return float(obliviousness_residual(game, behavior.table))


def obliviousness_residual_quantum(game: ObliviousGame, strategy: QuantumStrategy) -> float:
    """Operator-level obliviousness residual.

    Compares the prior-weighted average state operators of the sets in
    each family by entrywise max-norm.  A zero residual implies the
    statistics-level constraint for every conceivable measurement.
    """
    if len(strategy.states) != game.n_alice:
        raise ValueError("strategy has wrong number of states")
    return float(obliviousness_residual(game, strategy.states))


def cglmp3_targets(x0: int, x: int, y: int) -> tuple:
    """Outcomes earning payoff +1 (k=0) and -1 (k=1) in the three-outcome game."""
    return tuple((x0 - ((-1) ** (x + y + k)) * k - x * y) % 3 for k in (0, 1))


def make_cglmp3_game() -> ObliviousGame:
    """Three-outcome game whose noncontextual bound is 1/2.

    Alice holds (x0, x) in {0,1,2} x {0,1} uniformly, Bob holds y in {0,1};
    one partition family groups Alice's inputs by x.  The 1/12 prefactor of
    the usual score is absorbed into the priors.
    """
    alice = tuple((x0, x) for x0 in range(3) for x in range(2))
    bob = (0, 1)
    outcomes = (0, 1, 2)
    payoff = np.zeros((6, 2, 3))
    for i, (x0, x) in enumerate(alice):
        for y in bob:
            t0, t1 = cglmp3_targets(x0, x, y)
            payoff[i, y, t0] += 1.0
            payoff[i, y, t1] -= 1.0
    family = tuple(
        tuple(i for i, (_, x) in enumerate(alice) if x == v) for v in range(2)
    )
    return ObliviousGame(
        alice_inputs=alice,
        bob_inputs=bob,
        outcomes=outcomes,
        p_alice=np.full(6, 1 / 6),
        p_bob=np.full(2, 1 / 2),
        payoff=payoff,
        partitions=(family,),
    )


def make_rac_game(n: int, d: int) -> ObliviousGame:
    """Random access code over length-n strings of prime-d symbols.

    Bob must guess the y-th symbol; each parity r . x mod d with two or more
    nonzero weights is hidden by one family, of the r whose first nonzero
    weight is 1, as c r gives the same sets: (d^n - 1 - n(d - 1))/(d - 1)
    families.  Prime d gives every set d^(n-1) strings and equal weight.
    """
    n, d = check_integer(n, "symbol count"), check_integer(d, "alphabet size")
    if n < 2:
        raise ValueError("need at least two symbols")
    if not is_prime(d):
        raise ValueError(f"alphabet size {d} is not prime")
    alice = tuple(product(range(d), repeat=n))
    bob = tuple(range(1, n + 1))
    outcomes = tuple(range(d))
    payoff = np.zeros((d**n, n, d))
    for i, x in enumerate(alice):
        for yi, y in enumerate(bob):
            payoff[i, yi, x[y - 1]] = 1.0
    strings = [r for r in product(range(d), repeat=n) if sum(map(bool, r)) > 1]
    strings = [r for r in strings if next(filter(None, r)) == 1]
    parities = np.array(alice) @ np.array(strings).T % d
    families = [[np.flatnonzero(column == k).tolist() for k in range(d)] for column in parities.T]
    return ObliviousGame(
        alice_inputs=alice,
        bob_inputs=bob,
        outcomes=outcomes,
        p_alice=np.full(d**n, 1.0 / d**n),
        p_bob=np.full(n, 1.0 / n),
        payoff=payoff,
        partitions=families,
    )
