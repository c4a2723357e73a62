"""Finite-support eigenstates, exact state revivals, and return probability.

The Grover coin gives the walk step two eigenvalues, +1 and -1, whose
eigenvectors can be chosen with finite support; superposing one of each
yields a state that the step swaps back and forth between two disjoint
configurations, an exact two-step revival.  This module constructs those
states in closed form, searches for finite-support eigenstates of
arbitrary coins by solving a box-restricted eigenproblem, and reads two
observables off one walk: the fidelity to the initial state, whose first
return to 1 is the revival period, and the return probability.

The return probability after t steps is the probability of finding the
walker at the lattice origin (0, 0), coin components traced out, for any
normalized initial state; a walker that starts away from the origin
starts with return probability 0.  :func:`detect_period` records it
alongside the fidelity in a single pass over
:func:`qwalk2d.dynamics._trajectory`.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import CoinOperator, _trajectory
from .spectral import _check_tolerance
from .states import (
    LatticePoint,
    PositionState,
    _require_normalized,
    fidelity,
    inner_product,
)

__all__ = [
    "RevivalReport",
    "StationaryStateSet",
    "detect_period",
    "find_local_stationary_states",
    "grover_stationary_states",
    "return_probability_series",
    "revival_state",
]

# singular values at or below this fraction of the largest one count as
# null directions in the finite-support search
NULL_SPACE_RTOL = 1e-10

_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def grover_stationary_states() -> tuple[PositionState, PositionState]:
    """The two four-site unit eigenstates of the Grover-coin step.

    Both occupy the 2x2 site block (0,0)..(1,1) with two equal-weight
    direction components per site.  The first is left fixed by the step;
    the second is an eigenstate with eigenvalue -1.  Translated copies are
    eigenstates as well, so both eigenvalues are infinitely degenerate.
    """
    s = 1.0 / np.sqrt(8.0)
    plus = PositionState(
        {
            (0, 0): (0, s, 0, s),  # L + D
            (1, 0): (s, 0, 0, s),  # R + D
            (0, 1): (0, s, s, 0),  # L + U
            (1, 1): (s, 0, s, 0),  # R + U
        }
    )
    minus = PositionState(
        {
            (0, 0): (0, -s, 0, -s),
            (1, 0): (s, 0, 0, s),
            (0, 1): (0, s, s, 0),
            (1, 1): (-s, 0, -s, 0),
        }
    )
    return plus, minus


def revival_state() -> PositionState:
    """The two-site state that the Grover-coin step cycles with period 2.

    It is the balanced superposition of the two stationary states, occupies
    (1,0) and (0,1), and after one step moves to the disjoint pair
    (0,0), (1,1) before returning exactly.
    """
    return PositionState(
        {
            (1, 0): (0.5, 0, 0, 0.5),  # R + D
            (0, 1): (0, 0.5, 0.5, 0),  # L + U
        }
    )


@dataclass(frozen=True)
class StationaryStateSet:
    """Orthonormal finite-support eigenstates found inside a search box."""

    eigenvalue: complex
    states: tuple[PositionState, ...]
    support: tuple[LatticePoint, LatticePoint]  # inclusive box corners

    def __len__(self):
        return len(self.states)


def find_local_stationary_states(
    coin: CoinOperator,
    eigenvalue: complex,
    box_size: int,
    origin: LatticePoint = (0, 0),
) -> StationaryStateSet:
    """Eigenstates of the walk step supported inside an s x s site box.

    A state supported in the box maps, after one step, onto the box padded
    by one site in every direction; demanding step(state) = eigenvalue *
    state on the whole padded box (zeros included) is a linear system of
    size 4(s+2)^2 x 4s^2.  Its null space, computed by SVD with singular
    values thresholded at 1e-10 of the largest, is returned as an
    orthonormal list of states.  An empty list means no such eigenstate
    exists; the eigenvalue must have unit modulus (within 1e-10).
    """
    eigenvalue = complex(eigenvalue)
    if abs(abs(eigenvalue) - 1.0) > 1e-10:
        raise ValueError(f"eigenvalue must have unit modulus, got |{eigenvalue}|")
    if box_size < 1:
        raise ValueError("box_size must be at least 1")

    s = int(box_size)
    m0, n0 = int(origin[0]), int(origin[1])
    padded = s + 2

    def row_index(m, n, c):
        return 4 * ((m - m0 + 1) * padded + (n - n0 + 1)) + c

    matrix = np.zeros((4 * padded * padded, 4 * s * s), dtype=complex)
    col = 0
    for m in range(m0, m0 + s):
        for n in range(n0, n0 + s):
            for c in range(4):
                for cp, (dm, dn) in enumerate(_MOVES):
                    matrix[row_index(m + dm, n + dn, cp), col] += coin.matrix[cp, c]
                matrix[row_index(m, n, c), col] -= eigenvalue
                col += 1

    _, singular, vh = np.linalg.svd(matrix)
    null_rows = vh[singular <= NULL_SPACE_RTOL * singular[0]]

    states = []
    for vector in null_rows.conj():
        grid = vector.reshape(s, s, 4)
        amplitudes = {
            (m0 + i, n0 + j): grid[i, j]
            for i in range(s)
            for j in range(s)
            if np.any(grid[i, j] != 0)
        }
        states.append(PositionState(amplitudes))
    return StationaryStateSet(
        eigenvalue=eigenvalue,
        states=tuple(states),
        support=((m0, n0), (m0 + s - 1, n0 + s - 1)),
    )


@dataclass(frozen=True)
class RevivalReport:
    """Fidelity-to-initial and return-probability series of one walk.

    ``period`` is the first step count at which the fidelity reaches
    1 - tolerance, or None if that never happens within the scanned range;
    ``phase`` is then the recovered global phase <initial|state(period)>.
    ``fidelity_series[t - 1]`` holds the fidelity after t steps and
    ``return_probability[t]`` the probability at the origin after t steps,
    for t = 0..t_max.
    """

    period: int | None
    fidelity_series: tuple[float, ...]
    tolerance: float
    phase: complex | None
    return_probability: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "tolerance": self.tolerance,
            "fidelity_series": list(self.fidelity_series),
            "phase": None
            if self.phase is None
            else {"re": self.phase.real, "im": self.phase.imag},
        }


def _origin_probability(state: PositionState) -> float:
    vec = state.amplitude((0, 0))
    return float(np.sum(np.abs(vec) ** 2))


def detect_period(
    initial: PositionState, coin: CoinOperator, t_max: int, tolerance: float = 1e-10
) -> RevivalReport:
    """Scan up to ``t_max`` steps for a full revival of ``initial``.

    The criterion is fidelity >= 1 - tolerance, which is insensitive to a
    global phase; the recovered phase is reported separately.  Both series
    are always recorded out to ``t_max``, even past a detected revival.
    Raises ValueError for an unnormalized start, ``t_max < 1``, or a
    tolerance outside [1e-12, 1e-4].
    """
    _require_normalized(initial, "detect_period")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    _check_tolerance(tolerance)
    trajectory = _trajectory(initial, coin, t_max)
    returns = [_origin_probability(next(trajectory))]
    series = []
    period = None
    phase = None
    for t, state in enumerate(trajectory, start=1):
        returns.append(_origin_probability(state))
        overlap = fidelity(state, initial)
        series.append(overlap)
        if period is None and overlap >= 1.0 - tolerance:
            period = t
            phase = inner_product(initial, state)
    return RevivalReport(
        period=period,
        fidelity_series=tuple(series),
        tolerance=tolerance,
        phase=phase,
        return_probability=tuple(returns),
    )


def return_probability_series(
    initial: PositionState, coin: CoinOperator, t_max: int
) -> list[float]:
    """Probability of finding the walker at the origin after 0..t_max steps.

    ``initial`` must be normalized and may be supported anywhere.  For a
    walker started at the origin, a coin with momentum-independent
    eigenvalues keeps this series bounded away from zero (the walker stays
    partially trapped); generic coins let it decay toward zero.
    """
    _require_normalized(initial, "return_probability_series")
    return [_origin_probability(state) for state in _trajectory(initial, coin, t_max)]
