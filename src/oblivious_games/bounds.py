"""Classical bounds: closed forms, brute force over local strategies, LP oracle.

Three routes to a preparation-noncontextual (or local-realist) bound:

* ``rac_pnc_bound`` -- the closed form (n + d - 1)/(n d) for the random
  access family;
* ``local_bound`` -- exhaustive enumeration of deterministic assignments for
  a correlation functional;
* ``pnc_bound_lp_oracle`` -- for a generic game, enumerate sets of distinct
  deterministic decoding functions, one per message, and maximize each set's
  score over the polytope of obliviousness-respecting encodings, each set
  from the last one's optimal basis.  Optimal decoding is deterministic by
  convexity.  From one message per decoding function, the one set's program
  is the exact noncontextual LP over p(f|x); with fewer messages the value is
  a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product
from math import comb

import numpy as np

from . import lp
from .bellmap import BellFunctional
from .games import ObliviousGame, check_integer, is_prime

ENUM_GUARD = 10**7
DECODER_GUARD = 10**6
_DECODER_BLOCK = 4096  # decoders whose pruning bounds are formed in one array


@dataclass(frozen=True, eq=False)
class BoundResult:
    value: float
    method: str  # "formula" | "bruteforce" | "lp-oracle"
    # JSON of an optimal strategy: ``local_bound``'s assignments, or the LP
    # oracle's ``decoder`` and ``encoding``, which for k outcomes are the
    # strategy games.classical_strategy(w["encoding"], np.eye(k)[w["decoder"]]).
    witness: dict | None = None
    programs: int | None = None  # LP oracle: programs solved after pruning
    pivots: int | None = None  # LP oracle: simplex pivots, its one phase 1 included

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("bound value must be finite")


def rac_pnc_bound(n: int, d: int) -> float:
    """Noncontextual bound (n + d - 1)/(n d) of the random access family."""
    n, d = check_integer(n, "symbol count"), check_integer(d, "alphabet size")
    if n < 1:
        raise ValueError("need at least one symbol")
    if not is_prime(d):
        raise ValueError(f"alphabet size {d} is not prime")
    return (n + d - 1) / (n * d)


def local_bound(bell: BellFunctional) -> BoundResult:
    """Maximum of a functional over deterministic local assignments a=f(X), b=g(Y)."""
    ma, mb, d = bell.m_alice, bell.m_bob, bell.n_outcomes
    # only Alice's assignments are enumerated; Bob's best reply is read off
    if d**ma > ENUM_GUARD:
        raise ValueError(f"{d**ma} assignments of Alice exceed the enumeration guard")
    weighted = bell.coeffs * bell.p_alice[:, None, None, None] * bell.p_bob[None, :, None, None]
    best = -np.inf
    witness = None
    for f in product(range(d), repeat=ma):
        # once f is fixed the value splits into one term per Y, so each Y
        # takes its first best outcome
        per_y = weighted[np.arange(ma), :, list(f), :].sum(axis=0)
        g = per_y.argmax(axis=1)
        value = float(sum(per_y[np.arange(mb), g]))
        if value > best:
            best = value
            witness = {"alice_assignment": list(f), "bob_assignment": g.tolist()}
    return BoundResult(value=best, method="bruteforce", witness=witness)


def pnc_bound_lp_oracle(game: ObliviousGame, message_count: int) -> BoundResult:
    """Best value of an oblivious game over ``message_count`` ontic states.

    A lower bound on the noncontextual bound, exact from as many messages as
    decoding functions y -> b: ontic states that decode alike merge, so a
    repeated decoding function never helps.  Messages are interchangeable,
    so decoders are enumerated as sets of min(message_count, functions)
    distinct decoding functions (lexicographically, which also fixes the
    witness on ties).  From one message per function there is one set, and
    its program is the exact LP over p(f|x).  A cheap constraint-free bound
    prunes decoders that cannot beat the incumbent.  Every decoder's program
    is over the same encoding polytope, so phase 1 runs once: each surviving
    decoder re-optimizes from the previous one's optimal basis, the start of
    its ``lp.solve``, and reads row 0 of that stack of one.
    The result counts the programs solved and their pivots, phase 1 included.
    """
    message_count = check_integer(message_count, "message count")
    if message_count < 1:
        raise ValueError(f"need at least one message, got {message_count!r}")
    na, nb, no = game.n_alice, game.n_bob, game.n_outcomes
    message_count = min(message_count, no**nb)
    # Variable x * message_count + m is p(m|x): each encoding row is a
    # distribution, then the obliviousness rows act on p(m|.) for each m.
    # The program's size is checked before anything of that size is built.
    rows = game.constraint_rows()
    n_vars, n_rows = na * message_count, na + len(rows) * message_count
    if n_vars > lp.MAX_VARS or n_rows > lp.MAX_ROWS:
        raise ValueError(
            f"{message_count} messages give a program of {n_vars} variables and {n_rows} "
            f"rows, above the supported desk scale of {lp.MAX_VARS} variables and "
            f"{lp.MAX_ROWS} rows; fewer messages give a lower bound"
        )
    if comb(no**nb, message_count) > DECODER_GUARD:
        raise ValueError(
            f"{comb(no**nb, message_count)} decoders exceed the enumeration guard"
        )
    weighted = game.weighted_payoff()
    # weighted[x, y, b] summed over y for a fixed decode function y -> b
    decode_fns = list(product(range(no), repeat=nb))
    fn_scores = np.stack(
        [weighted[:, np.arange(nb), list(fn)].sum(axis=1) for fn in decode_fns]
    )  # (n_fns, na): score of decoding with fn given Alice holds x

    eye = np.eye(message_count)
    oblivious = np.einsum("rx,mn->mrxn", rows, eye).reshape(-1, n_vars)
    a_eq = np.vstack([np.kron(np.eye(na), np.ones(message_count)), oblivious])
    b_eq = np.concatenate([np.ones(na), np.zeros(len(oblivious))])

    best = -np.inf
    witness = None
    programs = pivots = 0
    start = None
    combos = combinations(range(len(decode_fns)), message_count)
    while block := list(islice(combos, _DECODER_BLOCK)):
        # scores[c, m, x]: message m's decoder score at x; the constraint-free
        # bound sends each input its best message
        scores = fn_scores[np.array(block)]
        caps = scores.max(axis=1).sum(axis=1)
        for c in np.flatnonzero(caps > best + 1e-12):
            if caps[c] <= best + 1e-12:
                continue
            # objective coefficient of p(m|x) is the score of message m's decoder at x
            solution = lp.solve(lp.LinearProgram(scores[c].T.ravel(), a_eq, b_eq), start)
            start = solution.basis[0]
            programs += 1
            pivots += int(solution.pivots[0])
            if solution.status[0] != "optimal":  # pragma: no cover - uniform encodings are feasible
                raise RuntimeError(f"encoding program reported {solution.status[0]}")
            if solution.objective_value[0] > best + 1e-12:
                best = float(solution.objective_value[0])
                witness = {
                    "decoder": [list(decode_fns[i]) for i in block[c]],
                    "encoding": solution.values[0].reshape(na, message_count).tolist(),
                }
    return BoundResult(
        value=best, method="lp-oracle", witness=witness, programs=programs, pivots=pivots
    )
