"""Ingestion and analysis of the bundled qutrit measurement tables.

The CSV schema is ``state_j,state_k,basis,projector,probability,sigma``.
Bases 1 and 2 are the two protocol measurements (36 cells: six preparations,
two bases, three projectors); bases 3-5 are tomography rows, which are
parsed and checked like the protocol rows but not stored, since no analysis
reads them.  Published entries are rounded
to four decimals, so rows may miss unit sum by up to 2e-3; they are stored
as printed and renormalized before any analysis.

The correspondence between lab labels (state psi_jk, basis, projector) and
game labels ((x0, x), y, b) is not part of the data.  It is recovered by an
exhaustive fit against the ideal closed-form distribution and pinned in
code: ``pinned_mapping()`` returns it, and a mapping file (``load_mapping``)
has the form of ``LabelMapping.to_dict()``.  A mapping gathers the lab tables
into a behavior of ``make_cglmp3_game()``, which ``games.performance``
scores; the obliviousness rows of the secondary-data program come from the
same game.
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
    check_distribution,
    check_integer,
    load_record,
    make_cglmp3_game,
    obliviousness_residual_behavior,
    performance,
)

ROW_SUM_TOL = 2e-3

STATES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
PROTOCOL_BASES = (1, 2)
AUX_BASES = (3, 4, 5)

_GAME = make_cglmp3_game()

# Every bijection of the six lab states onto the six game inputs, in
# lexicographic order: row i sends lab state s to game input _BIJECTIONS[i, s].
# Column i of _INCIDENCE is 1 at s * 6 + _BIJECTIONS[i, s] and 0 elsewhere, so a
# flattened (lab state, game input) cost matrix times it sums bijection i's
# six costs, exact products added in the order of s.
_BIJECTIONS = np.fromiter(permutations(range(6)), dtype=(np.intp, 6), count=720)
_INCIDENCE = np.zeros((36, 720))
_INCIDENCE[np.arange(6) * 6 + _BIJECTIONS, np.arange(720)[:, None]] = 1.0

# The 72 basis and outcome assignments in the order the fit scans them, each
# (basis_perm, (outcomes of lab basis 1, outcomes of lab basis 2)).
_OUTCOME_PERMS = tuple(permutations((0, 1, 2)))
_ASSIGNMENTS = tuple(
    (basis_perm, outs)
    for basis_perm, *outs in product(permutations((0, 1)), _OUTCOME_PERMS, _OUTCOME_PERMS)
)

# Monte Carlo programs per lockstep stack.  Each lockstep step pays a fixed
# set of numpy calls in lp._lockstep and lp._pivot for the whole stack, and
# each stack pays once for its start tableau, so fewer, larger stacks cost
# less: warm-started from the nominal basis, 5000 samples at seed 5 take
# 492 pivot steps at 64, 276 at 128 and 158 at 256, the nominal program's
# 38 included.  One perfbench exp-mc operation (5000 samples of the bundled
# data, 2-core Xeon host) takes 0.136-0.141 s at 64 (two runs), 0.102-0.106 s
# at 128 and 0.083-0.088 s at 256 (four runs each), while peak RSS rises from
# 41.3-41.4 MB at 64 through 42.5-42.7 MB at 128 to 44.5-44.7 MB at 256; a
# 5000-sample call after a warm-up one takes 153, 390 and 716 minor page
# faults.  From 128 to 256 a sixth of the time goes for about 2 MB.
_MC_CHUNK = 256

# Lab-to-game correspondence fitted against the ideal model and frozen:
# psi_jk prepares (x0, x) = (k-1, j-1), bases and projectors map in order.
_PINNED_MAPPING_DICT = {
    "state_map": [[[j, k], [k - 1, j - 1]] for (j, k) in STATES],
    "basis_map": [[1, 0], [2, 1]],
    "outcome_map": [[1, [[1, 0], [2, 1], [3, 2]]], [2, [[1, 0], [2, 1], [3, 2]]]],
}


@dataclass(frozen=True, eq=False)
class PrimaryData:
    """Protocol probabilities (6 states x 2 bases x 3 projectors) plus sigmas."""

    probabilities: np.ndarray
    sigmas: np.ndarray

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
        check_distribution(p, ROW_SUM_TOL, "protocol table")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "sigmas", s)

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
    """Load the protocol rows from one or more CSVs.

    Tomography rows are checked, and a repeated cell among them is an error,
    but they are not stored.
    """
    if not paths:
        raise ValueError("need at least one CSV path")
    prob = np.full((6, 2, 3), np.nan)
    sig = np.full((6, 2, 3), np.nan)
    state_index = {s: i for i, s in enumerate(STATES)}
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
    if np.any(np.isnan(prob)):
        missing = int(np.sum(np.isnan(prob)))
        raise ValueError(f"protocol table incomplete: {missing} of 36 cells missing")
    return PrimaryData(probabilities=prob, sigmas=sig)


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
        # Sets compare 1.0 and True equal to 1, so each label is checked to be
        # an integer before the bijections are.
        outcome_maps = self.outcome_map.values()
        labels = (
            [("lab state", i) for lab in self.state_map for i in lab]
            + [("game input", i) for game in self.state_map.values() for i in game]
            + [("lab basis", basis) for basis in (*self.basis_map, *self.outcome_map)]
            + [("game measurement", y) for y in self.basis_map.values()]
            + [("projector", p) for om in outcome_maps for p in om]
            + [("game outcome", b) for om in outcome_maps for b in om.values()]
        )
        for name, label in labels:
            check_integer(label, f"{name} label")
        game_states = set(self.state_map.values())
        if set(self.state_map) != set(STATES) or game_states != set(_GAME.alice_inputs):
            raise ValueError("state map must be a bijection onto the six game inputs")
        if set(self.basis_map) != {1, 2} or set(self.basis_map.values()) != {0, 1}:
            raise ValueError("basis map must be a bijection {1,2} -> {0,1}")
        if set(self.outcome_map) != {1, 2}:
            raise ValueError("outcome map must have lab bases 1 and 2 and no other")
        for basis, om in self.outcome_map.items():
            if set(om) != {1, 2, 3} or set(om.values()) != {0, 1, 2}:
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
        outcome_maps = [
            (basis, _unique_pairs(pairs, f"outcome map for basis {basis}"))
            for basis, pairs in d["outcome_map"]
        ]
        return cls(
            state_map=_unique_pairs(
                [(tuple(lab), tuple(game)) for lab, game in d["state_map"]], "state map"
            ),
            basis_map=_unique_pairs(d["basis_map"], "basis map"),
            outcome_map=_unique_pairs(outcome_maps, "outcome map"),
        )


def _unique_pairs(pairs, name: str) -> dict:
    """``dict(pairs)``, where a repeated label is a ``ValueError``: ``dict``
    would keep the last of its pairs."""
    table = dict(pairs)
    if len(table) != len(pairs):
        raise ValueError(f"{name} repeats a lab label")
    return table


def pinned_mapping() -> LabelMapping:
    """The mapping fitted on the bundled data, kept as a code constant."""
    return LabelMapping.from_dict(_PINNED_MAPPING_DICT)


def load_mapping(path) -> LabelMapping:
    return load_record(path, LabelMapping.from_dict)


def _theory_table() -> np.ndarray:
    """Ideal p(b | (x0, x), y) indexed as [(x0, x), y, b] in the game's order."""
    cells = product(_GAME.alice_inputs, _GAME.bob_inputs, _GAME.outcomes)
    probs = [closed_form_prob(x0, x, y, b) for (x0, x), y, b in cells]
    return np.array(probs).reshape(_GAME.payoff.shape)


def _relabelled_theory() -> np.ndarray:
    """``[a, t, lab basis, projector]``: the theory of game input t in the lab
    labels of assignment a of ``_ASSIGNMENTS``."""
    bases = np.array([basis_perm for basis_perm, _ in _ASSIGNMENTS])[:, :, None]
    outcomes = np.array([outs for _, outs in _ASSIGNMENTS])
    return np.moveaxis(_theory_table()[:, bases, outcomes], 0, 1)


_RELABELLED = _relabelled_theory()


def fit_label_mapping(data: PrimaryData) -> tuple:
    """Exhaustive search for the mapping minimizing the L1 distance to theory.

    All 2 basis assignments x 36 outcome assignments are scanned.  One
    broadcast ``|measured - relabelled theory|`` gives the (lab state, game
    input) cost matrix of every assignment, and one matrix product with the
    0/1 incidence of the 720 state bijections scores every bijection of every
    assignment; the first least-cost bijection is the assignment's candidate.
    A later candidate replaces the incumbent only when lower by more than
    1e-15, so near-ties keep the first in iteration order.  Returns
    (mapping, residual).
    """
    measured = data.normalized()
    cost = np.abs(measured[None, :, None] - _RELABELLED[:, None]).reshape(-1, 6, 6, 6).sum(axis=3)
    residuals = cost.reshape(-1, 36) @ _INCIDENCE
    firsts = residuals.argmin(axis=1)
    lows = residuals[np.arange(len(firsts)), firsts]
    best_res = np.inf
    for a, low in enumerate(lows):
        if low < best_res - 1e-15:
            best_res, best = float(low), a
    (basis_perm, outs), perm = _ASSIGNMENTS[best], _BIJECTIONS[firsts[best]]
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
    weights, p_prime, s = _secondary_result(lp.solve(program), tables[None])
    return weights[0], p_prime[0], float(s[0])


def _secondary_programs(stack: np.ndarray, rows: np.ndarray, out=None) -> lp.LinearProgram:
    """The secondary-data programs of the sets of tables in ``stack``, as one
    stack; their equality matrices are built in ``out`` when it is given."""
    k, n = stack.shape[:2]
    tables = stack.reshape(k, n, -1)
    entries = tables.shape[2]
    # Variable t * n + s is W[t, s]; n unit-sum rows, then one equality per
    # constraint row and table entry, ordered by row, then by entry.
    a_eq = np.empty((k, n + len(rows) * entries, n * n)) if out is None else out
    a_eq[:, :n] = np.repeat(np.eye(n), n, axis=1)
    # Row (r, e) is rows[r, t] * tables[s, e] at column t * n + s: the rows
    # repeated n times along a row times the transposed tables tiled n times.
    mixed = a_eq[:, n:].reshape(k, len(rows), entries, n * n)  # a view: axes only split
    repeated = np.repeat(rows, n, axis=1)[:, None]
    np.multiply(repeated, np.tile(tables.transpose(0, 2, 1), n)[:, None], out=mixed)
    objective = np.eye(n).ravel() / n
    b_eq = np.concatenate([np.ones(n), np.zeros(a_eq.shape[1] - n)])
    return lp.LinearProgram(
        np.broadcast_to(objective, (k, n * n)), a_eq, np.broadcast_to(b_eq, a_eq.shape[:2])
    )


def _secondary_result(solutions, stack: np.ndarray) -> tuple:
    """Weights, secondary tables and objective of each program's solution,
    stacked like the sets of tables in ``stack``.

    ``solutions`` is the ``lp.LpSolutions`` of the stack's programs.
    """
    k, n = stack.shape[:2]
    status = solutions.status
    if (status != "optimal").any():  # pragma: no cover - uniform weights are feasible
        raise RuntimeError(f"secondary-data program reported {status[status != 'optimal'][0]}")
    weights = solutions.values.reshape(k, n, n)
    p_prime = (weights @ stack.reshape(k, n, -1)).reshape(stack.shape)
    return weights, p_prime, solutions.objective_value


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
    seed: int,
) -> tuple:
    """Monte Carlo spread (sigma_primary, sigma_secondary) of the two scores.

    Each sample perturbs every table entry by an independent zero-mean normal
    draw with the published sigma, clamps to [0, 1], renormalizes rows, and
    recomputes both scores.  Only the published per-entry uncertainties enter;
    systematic components are not modeled.  Samples are drawn ``_MC_CHUNK`` at
    a time as one stack of tables: their secondary-data programs are built as
    one stack, whose equality rows are one tiled product, and solved in
    lockstep; the chunk's secondary tables p' are one batched matrix product
    of the weights and the tables, and its primary and secondary scores are
    one ``games.performance`` call each.  Every program starts from the optimal
    basis of the unperturbed tables' program, solved once, and re-optimizes
    from there with the dual simplex: each chunk is one ``lp.solve`` call
    with that start basis, and a program the basis cannot serve is solved
    cold in the same call.  The call allocates two buffers, for a stack's
    equality matrices and for its start tableaux (the ``work`` of
    ``lp.solve``), and every stack builds into leading slices of them,
    reusing memory already faulted in rather than faulting in its own;
    nothing is kept between calls.  The draws continue one random stream,
    the lockstep solver keeps each program on the pivot path it takes alone,
    and each kernel gives a sample the value it has in a stack of one, so the
    chunk size does not change the result: the sigmas are equal bit for bit
    at any chunk size.
    ``seed`` is a non-negative integer; anything else is a ``ValueError``, as
    is a draw whose row clamps to all zeros: the message names its lab state
    and basis.
    """
    samples = check_integer(samples, "sample count")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if check_integer(seed, "seed") < 0:
        raise ValueError(f"seed {seed!r} is negative")
    rng = np.random.default_rng(seed)
    index = mapping.game_index()
    rows = _lab_rows(index)
    a3_pri = np.empty(samples)
    a3_sec = np.empty(samples)
    program = _secondary_programs(data.normalized()[None], rows)
    nominal = lp.solve(program).basis[0]
    # Every stack builds its equality matrices and start tableaux in leading
    # slices of these two buffers, held for the whole call.
    _, m, n = program.eq_matrix.shape
    chunk = min(_MC_CHUNK, samples)
    eq_matrices = np.empty((chunk, m, n))
    work = np.empty((chunk, m + 1, n + 1))
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        draw = data.probabilities + rng.normal(size=(size, 6, 2, 3)) * data.sigmas
        np.clip(draw, 0.0, 1.0, out=draw)
        sums = draw.sum(axis=3, keepdims=True)
        if (sums <= 0.0).any():
            _, state, basis, _ = np.argwhere(sums <= 0.0)[0]
            raise ValueError(
                f"a Monte Carlo draw of state {STATES[state]}, basis {PROTOCOL_BASES[basis]} "
                "clipped to all zeros, which no renormalization makes a distribution"
            )
        tables = draw / sums
        programs = _secondary_programs(tables, rows, out=eq_matrices[:size])
        solutions = lp.solve(programs, nominal, work=work[:size])
        _, p_prime, _ = _secondary_result(solutions, tables)
        a3_pri[start : start + size] = _score(tables, index)
        a3_sec[start : start + size] = _score(p_prime, index)
    return float(np.std(a3_pri)), float(np.std(a3_sec))
