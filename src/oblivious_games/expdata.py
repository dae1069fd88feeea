"""Ingestion and analysis of the bundled qutrit measurement tables.

The CSV schema is ``state_j,state_k,basis,projector,probability,sigma``.
Bases 1 and 2 are the two protocol measurements (36 cells: six preparations,
two bases, three projectors); bases 3-5 are tomography rows kept in a
separate auxiliary table for diagnostics only.  Published entries are rounded
to four decimals, so rows may miss unit sum by up to 2e-3; they are stored
as printed and renormalized before any analysis.

The correspondence between lab labels (state psi_jk, basis, projector) and
game labels ((x0, x), y, b) is not part of the data.  It is recovered by an
exhaustive fit against the ideal closed-form distribution and pinned in
``data/mapping.json``; ``pinned_mapping()`` returns the same mapping.  A
mapping gathers the lab tables into a behavior of ``make_cglmp3_game()``,
which ``games.performance`` scores; the obliviousness rows of the
secondary-data program come from the same game.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import lp
from .cglmp import closed_form_prob
from .games import (
    Behavior,
    check_integer,
    load_record,
    make_cglmp3_game,
    obliviousness_residual_behavior,
    performance,
    save_record,
)

ROW_SUM_TOL = 2e-3

STATES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
PROTOCOL_BASES = (1, 2)
AUX_BASES = (3, 4, 5)

_GAME = make_cglmp3_game()

# Every bijection of the six lab states onto the six game inputs, in
# lexicographic order: row i sends lab state s to game input _BIJECTIONS[i, s].
_BIJECTIONS = np.fromiter(permutations(range(6)), dtype=(np.intp, 6), count=720)

# Monte Carlo programs per lockstep stack.  Each lockstep step pays a fixed
# set of numpy calls in lp._bland and lp._pivot for the whole stack, so a
# larger stack takes fewer steps: 5000 samples at seed 5 take 6450 steps at
# 32 and 1676 at 128.  One perfbench exp-mc operation (5000 samples of the
# bundled data, 2-core host) takes 0.60 s at 32, 0.46 s at 64, 0.42 s at 96,
# 0.37 s at 128, 0.37 s at 192 and 0.37 s at 256, while peak RSS rises from
# 40.3 MB at 32 through 42.6 MB at 128 to 45.2 MB at 256.  Time stops falling
# after 128; memory does not.
_MC_CHUNK = 128

# Round-off leaves a secondary weight row within about 1e-14 of unit sum
# (worst 1.2e-14 over 5000 Monte Carlo samples at seed 5).
_WEIGHT_SUM_TOL = 1e-12

# Lab-to-game correspondence fitted against the ideal model and frozen:
# psi_jk prepares (x0, x) = (k-1, j-1), bases and projectors map in order.
_PINNED_MAPPING_DICT = {
    "state_map": [[[j, k], [k - 1, j - 1]] for (j, k) in STATES],
    "basis_map": [[1, 0], [2, 1]],
    "outcome_map": [[1, [[1, 0], [2, 1], [3, 2]]], [2, [[1, 0], [2, 1], [3, 2]]]],
}


@dataclass(frozen=True, eq=False)
class PrimaryData:
    """Protocol probabilities (6 states x 2 bases x 3 projectors) plus sigmas.

    ``aux_probabilities`` and ``aux_sigmas`` hold the tomography rows (6 x 3
    x 3), NaN where a cell was not present in the input files.
    """

    probabilities: np.ndarray
    sigmas: np.ndarray
    aux_probabilities: np.ndarray | None = None
    aux_sigmas: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if p.shape != (6, 2, 3) or s.shape != (6, 2, 3):
            raise ValueError("protocol tables must have shape (6, 2, 3)")
        if not (np.isfinite(p).all() and np.isfinite(s).all()):
            raise ValueError("protocol tables must be finite")
        if np.min(p) < 0.0 or np.max(p) > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if np.min(s) < 0.0:
            raise ValueError("sigmas must be nonnegative")
        row_sums = p.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(
                f"a protocol row sums to {row_sums.flat[np.argmax(np.abs(row_sums - 1.0))]}"
            )
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "sigmas", s)
        for name, high in (("aux_probabilities", 1.0), ("aux_sigmas", np.inf)):
            aux = getattr(self, name)
            if aux is None:
                continue
            aux = np.asarray(aux, dtype=float)
            if aux.shape != (6, 3, 3):
                raise ValueError(f"{name} must have shape (6, 3, 3)")
            # NaN marks a missing cell; a present one is a finite number in range
            if np.isinf(aux).any() or np.any((aux < 0.0) | (aux > high)):
                raise ValueError(f"{name} must lie in [0, {high}], NaN where missing")
            object.__setattr__(self, name, aux)
        if not (
            self.aux_probabilities is None
            or self.aux_sigmas is None
            or np.array_equal(np.isnan(self.aux_probabilities), np.isnan(self.aux_sigmas))
        ):
            raise ValueError("a tomography cell must miss its probability and its sigma together")

    def normalized(self) -> np.ndarray:
        """Protocol rows rescaled to exact unit sum."""
        return self.probabilities / self.probabilities.sum(axis=2, keepdims=True)


def _parse_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"state_j", "state_k", "basis", "projector", "probability", "sigma"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(expected)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                j = int(row["state_j"])
                k = int(row["state_k"])
                basis = int(row["basis"])
                proj = int(row["projector"])
                prob = float(row["probability"])
                sigma = float(row["sigma"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if (j, k) not in STATES:
                raise ValueError(f"{path}:{lineno}: unknown state ({j},{k})")
            if basis not in PROTOCOL_BASES + AUX_BASES:
                raise ValueError(f"{path}:{lineno}: basis must be 1..5, got {basis}")
            if proj not in (1, 2, 3):
                raise ValueError(f"{path}:{lineno}: projector must be 1..3")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{path}:{lineno}: probability {prob} outside [0, 1]")
            if not (np.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(f"{path}:{lineno}: sigma {sigma} is not a nonnegative number")
            yield path, lineno, (j, k), basis, proj, prob, sigma


def load_primary(*paths) -> PrimaryData:
    """Load protocol (and optionally tomography) rows from one or more CSVs."""
    if not paths:
        raise ValueError("need at least one CSV path")
    prob = np.full((6, 2, 3), np.nan)
    sig = np.full((6, 2, 3), np.nan)
    aux_prob = np.full((6, 3, 3), np.nan)
    aux_sig = np.full((6, 3, 3), np.nan)
    state_index = {s: i for i, s in enumerate(STATES)}
    any_aux = False
    seen = {}  # (state, basis, projector) -> file:line
    for path in paths:
        for path_, lineno, state, basis, proj, p, s in _parse_rows(path):
            cell = (state, basis, proj)
            if cell in seen:
                raise ValueError(
                    f"{path_}:{lineno}: state {state}, basis {basis}, projector {proj} "
                    f"repeats the cell of {seen[cell]}"
                )
            seen[cell] = f"{path_}:{lineno}"
            si = state_index[state]
            if basis in PROTOCOL_BASES:
                prob[si, basis - 1, proj - 1] = p
                sig[si, basis - 1, proj - 1] = s
            else:
                aux_prob[si, basis - 3, proj - 1] = p
                aux_sig[si, basis - 3, proj - 1] = s
                any_aux = True
    if np.any(np.isnan(prob)):
        missing = int(np.sum(np.isnan(prob)))
        raise ValueError(f"protocol table incomplete: {missing} of 36 cells missing")
    return PrimaryData(
        probabilities=prob,
        sigmas=sig,
        aux_probabilities=aux_prob if any_aux else None,
        aux_sigmas=aux_sig if any_aux else None,
    )


@dataclass(frozen=True, eq=False)
class LabelMapping:
    """Bijections from lab labels to game labels.

    ``state_map``: (j, k) -> (x0, x); ``basis_map``: lab basis -> y;
    ``outcome_map``: lab basis -> {projector -> b}.
    """

    state_map: dict
    basis_map: dict
    outcome_map: dict

    def __post_init__(self):
        game_states = set(self.state_map.values())
        if set(self.state_map) != set(STATES) or game_states != set(_GAME.alice_inputs):
            raise ValueError("state map must be a bijection onto the six game inputs")
        if set(self.basis_map) != {1, 2} or set(self.basis_map.values()) != {0, 1}:
            raise ValueError("basis map must be a bijection {1,2} -> {0,1}")
        for basis in (1, 2):
            om = self.outcome_map.get(basis)
            if om is None or set(om) != {1, 2, 3} or set(om.values()) != {0, 1, 2}:
                raise ValueError(f"outcome map for basis {basis} must be a bijection")

    def game_index(self) -> tuple:
        """Index gathering a lab table [state, basis, projector] into the
        [(x0, x), y, b] order of ``make_cglmp3_game``."""
        state = {game: STATES.index(lab) for lab, game in self.state_map.items()}
        basis = {y: lab for lab, y in self.basis_map.items()}
        proj = {y: {b: p for p, b in self.outcome_map[basis[y]].items()} for y in basis}
        return (
            np.array([state[a] for a in _GAME.alice_inputs])[:, None, None],
            np.array([basis[y] - 1 for y in _GAME.bob_inputs])[None, :, None],
            np.array([[proj[y][b] - 1 for b in _GAME.outcomes] for y in _GAME.bob_inputs])[None],
        )

    def to_dict(self) -> dict:
        return {
            "state_map": [[list(lab), list(game)] for lab, game in sorted(self.state_map.items())],
            "basis_map": [[lab, game] for lab, game in sorted(self.basis_map.items())],
            "outcome_map": [
                [basis, [[p, b] for p, b in sorted(self.outcome_map[basis].items())]]
                for basis in (1, 2)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelMapping":
        return cls(
            state_map={tuple(lab): tuple(game) for lab, game in d["state_map"]},
            basis_map={lab: game for lab, game in d["basis_map"]},
            outcome_map={basis: dict(pairs) for basis, pairs in d["outcome_map"]},
        )


def pinned_mapping() -> LabelMapping:
    """The mapping shipped with the bundled data (also in data/mapping.json)."""
    return LabelMapping.from_dict(_PINNED_MAPPING_DICT)


def save_mapping(mapping: LabelMapping, path) -> None:
    save_record(mapping, path)


def load_mapping(path) -> LabelMapping:
    return load_record(path, LabelMapping.from_dict)


def _theory_table() -> np.ndarray:
    """Ideal p(b | (x0, x), y) indexed as [(x0, x), y, b] in the game's order."""
    cells = product(_GAME.alice_inputs, _GAME.bob_inputs, _GAME.outcomes)
    probs = [closed_form_prob(x0, x, y, b) for (x0, x), y, b in cells]
    return np.array(probs).reshape(_GAME.payoff.shape)


def fit_label_mapping(data: PrimaryData) -> tuple:
    """Exhaustive search for the mapping minimizing the L1 distance to theory.

    All 2 basis assignments x 36 outcome assignments are scanned.  For each,
    one broadcast ``|measured - relabelled theory|`` gives the (lab state,
    game input) cost matrix, and the 720 state bijections are scored from it
    at once; the first least-cost one is the assignment's candidate.  A later
    candidate replaces the incumbent only when lower by more than 1e-15, so
    near-ties keep the first in iteration order.  Returns (mapping, residual).
    """
    measured = data.normalized()
    theory = _theory_table()
    outcome_perms = list(permutations((0, 1, 2)))
    best_res = np.inf
    for basis_perm, *outs in product(permutations((0, 1)), outcome_perms, outcome_perms):
        # relabelled[t, lab basis, projector] is the theory of game input t in
        # lab labels; cost[s, t] is the L1 distance of lab state s to it
        relabelled = theory[:, np.array(basis_perm)[:, None], np.array(outs)]
        cost = np.abs(measured[:, None] - relabelled[None]).reshape(6, 6, 6).sum(axis=2)
        residuals = cost[np.arange(6), _BIJECTIONS].sum(axis=1)
        i = int(np.argmin(residuals))
        if residuals[i] < best_res - 1e-15:
            best_res = float(residuals[i])
            best = (basis_perm, outs, _BIJECTIONS[i])
    basis_perm, outs, perm = best
    mapping = LabelMapping(
        state_map={lab: _GAME.alice_inputs[t] for lab, t in zip(STATES, perm)},
        basis_map={1: basis_perm[0], 2: basis_perm[1]},
        outcome_map={lab: {p + 1: b for p, b in enumerate(outs[lab - 1])} for lab in (1, 2)},
    )
    return mapping, best_res


def _score(tables: np.ndarray, index: tuple):
    """Game score of lab-ordered tables (of each, for a stack), by ``games.performance``."""
    return performance(_GAME, Behavior(tables[(..., *index)]))


def a3_primary(data: PrimaryData, mapping: LabelMapping) -> float:
    """Game score computed from the measured (renormalized) tables."""
    return _score(data.normalized(), mapping.game_index())


@dataclass(frozen=True, eq=False)
class SecondaryData:
    """Reprocessed tables satisfying the obliviousness equality exactly.

    ``weights[t, s]`` is the convex weight of source table s in target table
    t (each target row is a distribution over sources); ``s`` is the average
    diagonal weight, the LP objective.  Tables are in lab-state order;
    ``mapping`` takes them to the game.
    """

    weights: np.ndarray
    p_prime: np.ndarray
    s: float
    mapping: LabelMapping

    def constraint_residual(self) -> float:
        """Set-average obliviousness residual of the secondary tables in the game."""
        return obliviousness_residual_behavior(
            _GAME, Behavior(self.p_prime[self.mapping.game_index()])
        )


def secondary_weights(tables: np.ndarray, rows: np.ndarray) -> tuple:
    """Secondary procedure of Mazurek et al., Nat. Commun. 7, 11780 (2016).

    Over tables indexed by input on the first axis, finds convex weights ``W``
    maximizing ``s = tr(W) / n`` such that the constraint rows annihilate
    ``p_prime[t] = sum_s W[t, s] tables[s]`` entrywise.  Returns ``(W, p_prime, s)``.
    """
    program = _secondary_programs(tables[None], rows)
    weights, p_prime, s = _secondary_result([lp.solve(program)], tables[None])
    return weights[0], p_prime[0], float(s[0])


def _secondary_programs(stack: np.ndarray, rows: np.ndarray) -> lp.LinearProgram:
    """The secondary-data programs of the sets of tables in ``stack``, as one stack."""
    k, n = stack.shape[:2]
    # Variable t * n + s is W[t, s]; n unit-sum rows, then one equality per
    # constraint row and table entry, ordered by row, then by entry.
    mixed = np.einsum("rt,kse->krets", rows, stack.reshape(k, n, -1)).reshape(k, -1, n * n)
    a_eq = np.empty((k, n + mixed.shape[1], n * n))
    a_eq[:, :n] = np.repeat(np.eye(n), n, axis=1)
    a_eq[:, n:] = mixed
    objective = np.eye(n).ravel() / n
    b_eq = np.concatenate([np.ones(n), np.zeros(mixed.shape[1])])
    return lp.LinearProgram(
        np.broadcast_to(objective, (k, n * n)), a_eq, np.broadcast_to(b_eq, a_eq.shape[:2])
    )


def _secondary_result(solutions: list, stack: np.ndarray) -> tuple:
    """Weights, secondary tables and objective of each program's solution,
    stacked like the sets of tables in ``stack``."""
    for solution in solutions:
        if solution.status != "optimal":  # pragma: no cover - uniform weights are feasible
            raise RuntimeError(f"secondary-data program reported {solution.status}")
    k, n = stack.shape[:2]
    weights = np.stack([solution.values for solution in solutions]).reshape(k, n, n)
    # Bland's tie tolerance can leave a basic weight near -1e-9, which the
    # solver's clamp at zero sets to zero; its target row then misses unit
    # sum by as much, which the solver's 1e-8 vertex check allows and a
    # Behavior does not.  Such a row is rescaled to unit sum; a row within
    # round-off of it is left bit for bit.
    sums = weights.sum(axis=2, keepdims=True)
    weights = np.where(np.abs(sums - 1.0) > _WEIGHT_SUM_TOL, weights / sums, weights)
    p_prime = np.einsum("kts,ks...->kt...", weights, stack)
    return weights, p_prime, np.array([solution.objective_value for solution in solutions])


def _lab_rows(index: tuple) -> np.ndarray:
    """The game's constraint rows with their columns in lab-state order.

    The secondary program runs over the tables in lab order: in game order
    Bland's rule takes about a third more pivots per program and can stop
    on another optimal vertex of the same objective value.
    """
    return _GAME.constraint_rows()[:, np.argsort(index[0].ravel())]


def secondary_data(data: PrimaryData, mapping: LabelMapping | None = None) -> SecondaryData:
    """Project the measured tables onto obliviousness-satisfying secondary data.

    The obliviousness rows come from the game through ``mapping``, by default
    ``pinned_mapping()``.
    """
    if mapping is None:
        mapping = pinned_mapping()
    weights, p_prime, s = secondary_weights(
        data.normalized(), _lab_rows(mapping.game_index())
    )
    return SecondaryData(weights=weights, p_prime=p_prime, s=s, mapping=mapping)


def a3_secondary(secondary: SecondaryData, mapping: LabelMapping) -> float:
    """Game score on the secondary tables."""
    return _score(secondary.p_prime, mapping.game_index())


def mc_uncertainty(
    data: PrimaryData,
    mapping: LabelMapping,
    samples: int,
    seed: int | None = None,
) -> tuple:
    """Monte Carlo spread (sigma_primary, sigma_secondary) of the two scores.

    Each sample perturbs every table entry by an independent zero-mean normal
    draw with the published sigma, clamps to [0, 1], renormalizes rows, and
    recomputes both scores.  Only the published per-entry uncertainties enter;
    systematic components are not modeled.  Samples are drawn ``_MC_CHUNK`` at
    a time as one stack of tables: their secondary-data programs are solved in
    lockstep, and the chunk's primary and secondary scores are one
    ``games.performance`` call each.  The draws continue one random stream and
    the lockstep solver keeps each program on the pivot path it takes alone,
    so the chunk size does not change the result: the sigmas are equal bit for
    bit at any chunk size.  ``seed`` is None (fresh entropy) or a non-negative
    integer; anything else is a ``ValueError``.
    """
    samples = check_integer(samples, "sample count")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if seed is not None and check_integer(seed, "seed") < 0:
        raise ValueError(f"seed {seed!r} is negative")
    rng = np.random.default_rng(seed)
    index = mapping.game_index()
    rows = _lab_rows(index)
    a3_pri = np.empty(samples)
    a3_sec = np.empty(samples)
    for start in range(0, samples, _MC_CHUNK):
        size = min(_MC_CHUNK, samples - start)
        draw = data.probabilities + rng.normal(size=(size, 6, 2, 3)) * data.sigmas
        np.clip(draw, 0.0, 1.0, out=draw)
        sums = draw.sum(axis=3, keepdims=True)
        sums[sums <= 0.0] = 1.0
        tables = draw / sums
        _, p_prime, _ = _secondary_result(lp.solve_many(_secondary_programs(tables, rows)), tables)
        a3_pri[start : start + size] = _score(tables, index)
        a3_sec[start : start + size] = _score(p_prime, index)
    return float(np.std(a3_pri)), float(np.std(a3_sec))
