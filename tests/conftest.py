import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from oblivious_games import games
from oblivious_games.optimizer import SearchConfig, search

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def criterion_6_search():
    """Acceptance criterion 6's search, run once per session: the result and its wall time.

    The (2,3) access code at dimension 4 with 64 restarts, 500 iterations
    and seed 0; the time is that of the ``search`` call alone.
    """
    start = time.perf_counter()
    result = search(
        games.make_rac_game(2, 3), SearchConfig(dim=4, restarts=64, max_iters=500, seed=0)
    )
    return result, time.perf_counter() - start


def random_game():
    """Six inputs, three measurements, two outcomes, two families, uniform priors;
    the payoffs are the 125th draw of ``default_rng(1)``."""
    rng = np.random.default_rng(1)
    for _ in range(125):
        payoff = rng.normal(size=(6, 3, 2))
    return games.ObliviousGame(
        alice_inputs=tuple(range(6)),
        bob_inputs=(0, 1, 2),
        outcomes=(0, 1),
        p_alice=np.full(6, 1 / 6),
        p_bob=np.full(3, 1 / 3),
        payoff=payoff,
        partitions=(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4), (2, 5))),
    )


def every_parity_rac_game(n, d):
    """``games.make_rac_game(n, d)`` with one partition family per parity string r
    with at least two nonzero weights, not one per class {c r}: for d > 2 every
    family appears d - 1 times, and the constraint rows are d - 1 times their rank."""
    game = games.make_rac_game(n, d)
    families = tuple(
        tuple(
            tuple(i for i, x in enumerate(game.alice_inputs) if np.dot(r, x) % d == k)
            for k in range(d)
        )
        for r in product(range(d), repeat=n)
        if np.count_nonzero(r) >= 2
    )
    return replace(game, partitions=families)
