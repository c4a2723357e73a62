"""Shared helpers for the test suite."""

import numpy as np
import pytest

from qwalk2d import CoinOperator, PositionState, superpose


def amp_diff(a: PositionState, b: PositionState) -> float:
    """Largest per-amplitude |a - b| over the union of supports."""
    diff = superpose([(1.0, a), (-1.0, b)])
    if diff.n_sites == 0:
        return 0.0
    return float(max(np.abs(vec).max() for _, vec in diff.items()))


def permutation_coin(perm, phases=(1, 1, 1, 1)) -> CoinOperator:
    """The coin sending direction j to direction perm[j] with phase phases[j]."""
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[list(perm), range(4)] = phases
    return CoinOperator(matrix)


def random_state(rng, n_sites=8, span=4, normalized=True) -> PositionState:
    """A random sparse state on up to ``n_sites`` distinct lattice points."""
    points = set()
    while len(points) < n_sites:
        points.add((int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1))))
    amplitudes = {
        p: rng.normal(size=4) + 1j * rng.normal(size=4) for p in sorted(points)
    }
    state = PositionState(amplitudes)
    if normalized:
        state = superpose([(1.0 / state.norm(), state)])
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
