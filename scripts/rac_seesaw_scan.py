"""Dimension scan of the seesaw search on the (2,3) access code.

Reproduces the qualitative picture that quantum advantage over the
noncontextual bound 2/3 appears from dimension 4 on.  Values are lower
bounds from random restarts, not certified optima.  At the defaults
(16 restarts, at most 400 iterations, seed 0) on a 2-core Xeon host,
dimension 3 gives 2/3 in 1.2 s, dimension 4 gives 0.6875076 in 2.5 s, and
dimension 5 gives 0.6875075 in 17.9 s.  At dimension 5 no restart settles:
9 of the 16 stop on the window, and the other 7 still gain more than 1e-8
per 30 iterations when they reach the cap.

    python scripts/rac_seesaw_scan.py [--dims 3 4 5] [--restarts 16] [--seed 0]
"""

import argparse
import json
import time
from collections import Counter

from oblivious_games.bounds import rac_pnc_bound
from oblivious_games.games import make_rac_game
from oblivious_games.optimizer import SearchConfig, search


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--restarts", type=int, default=16)
    parser.add_argument("--iters", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    game = make_rac_game(2, 3)
    bound = rac_pnc_bound(2, 3)
    print(f"noncontextual bound: {bound:.4f}")
    rows = []
    for dim in args.dims:
        cfg = SearchConfig(
            dim=dim, restarts=args.restarts, max_iters=args.iters, seed=args.seed
        )
        t0 = time.perf_counter()
        result = search(game, cfg)
        rows.append(
            {
                "dim": dim,
                "value": result.value,
                "violation": result.value - bound,
                "residual": result.feasibility_residual,
                "iterations_used": result.iterations_used,
                "stop_reason": result.stop_reason,
                "stop_reasons": dict(Counter(r.stop_reason for r in result.per_restart)),
                "best_restart": result.restart_index,
                "seconds": round(time.perf_counter() - t0, 1),
            }
        )
        print(json.dumps(rows[-1]))
    best = max(rows, key=lambda r: r["value"])
    print(f"largest violation: {best['violation']:+.4f} at dimension {best['dim']}")


if __name__ == "__main__":
    main()
