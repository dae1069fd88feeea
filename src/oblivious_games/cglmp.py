"""The explicit optimal qutrit strategy for the three-outcome game.

Fixes the global phase convention omega = exp(+2*pi*i/3) once; entangled
state, measurement bases, conditional preparations, and the closed-form
outcome distribution all follow from it.  The state is its amplitude vector
and each basis a (3, 3) array, one vector per row; their projectors are
checked as a ``DensityMatrix`` and ``Povm``s where a table is computed.
The game input x0 corresponds to the raw correlation outcome a = x0 - 1
(mod 3) whenever x = 1; that relabeling is what makes the scoring formula
of the game apply verbatim.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bellmap, games
from .games import QuantumStrategy
from .qmath import DensityMatrix, Povm

GAMMA1 = (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0
GAMMA = (1.0, GAMMA1, 1.0)
NORMALIZATION = 2.0 + GAMMA1**2
OMEGA = complex(np.exp(2j * np.pi / 3))
ALPHA = (0.0, 0.5)
BETA = (0.25, -0.25)


def optimal_state() -> np.ndarray:
    """Amplitudes of the partially entangled two-qutrit state, gamma_k/sqrt(N) on |kk>."""
    amp = np.zeros(9, dtype=complex)
    for k in range(3):
        amp[4 * k] = GAMMA[k] / math.sqrt(NORMALIZATION)
    return amp


def alice_basis(x: int) -> np.ndarray:
    """Measurement basis of the first party for setting x in {0, 1}, one vector per row."""
    return np.array(
        [[OMEGA ** (k * (a + ALPHA[x])) for k in range(3)] for a in range(3)]
    ) / math.sqrt(3)


def bob_basis(y: int) -> np.ndarray:
    """Measurement basis of the receiver for setting y in {0, 1}, one vector per row."""
    return np.array(
        [[OMEGA ** (k * (-b + BETA[y])) for k in range(3)] for b in range(3)]
    ) / math.sqrt(3)


def _projectors(v: np.ndarray) -> np.ndarray:
    """Projector onto each vector of the stack ``v[..., :]``; the product is np.outer's."""
    return v[..., :, None] * v.conj()[..., None, :]


def alice_povm(x: int) -> Povm:
    return Povm(_projectors(alice_basis(x)))


def bob_povm(y: int) -> Povm:
    return Povm(_projectors(bob_basis(y)))


def closed_form_prob(x0: int, x: int, y: int, b: int) -> float:
    """Receiver outcome distribution p(b | x0, x, y) of the optimal strategy."""
    u = x0 - b + ALPHA[x] + BETA[y] - (1 if x == 1 else 0)
    amp = sum(GAMMA[k] * OMEGA ** (k * u) for k in range(3))
    return float(abs(amp) ** 2 / (3.0 * NORMALIZATION))


def a3_quantum() -> float:
    """Quantum game value as a cosine sum; equals (3 + sqrt(33))/12."""
    total = 0.0
    for k in range(3):
        for j in range(3):
            total += GAMMA[k] * GAMMA[j] * (
                math.cos(math.pi / 6 * (k - j)) - math.cos(math.pi / 2 * (k - j))
            )
    return total / (3.0 * NORMALIZATION)


@functools.cache
def optimal_box() -> bellmap.NoSignalingBox:
    """Correlations of the optimal state and bases; built once per process, as the
    box is a frozen record of a read-only array."""
    return bellmap.box_from_quantum(
        DensityMatrix(_projectors(optimal_state())),
        [alice_povm(0), alice_povm(1)],
        [bob_povm(0), bob_povm(1)],
    )


@functools.cache
def game_strategy() -> QuantumStrategy:
    """Qutrit strategy for ``games.make_cglmp3_game``; built once per process, as the
    strategy is a frozen record of read-only arrays.

    States are the steered conditional states, reordered so that the game
    input (x0, x) holds the state for correlation outcome
    a = x0 - delta_{x,1} = x0 - x (mod 3).
    """
    state = DensityMatrix(_projectors(optimal_state()))
    _, steered = bellmap.preparations_from_entangled(state, [alice_povm(0), alice_povm(1)])
    x0, x = np.array(games.make_cglmp3_game().alice_inputs).T
    effects = np.stack([bob_povm(0).elements, bob_povm(1).elements])
    return QuantumStrategy(steered[x, (x0 - x) % 3], effects)
