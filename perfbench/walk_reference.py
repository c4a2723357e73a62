"""Independent dense-grid walk that the benchmark checks the program against.

It shares no code with qwalk2d, so a defect in the package's step kernel
cannot hide by corrupting the reference as well.  Components are ordered
(R, L, U, D); one step multiplies every site's 4-vector by the coin and
then moves R to (m+1, n), L to (m-1, n), U to (m, n+1) and D to (m, n-1).
"""

import numpy as np


class DenseWalk:
    """A walk on a (4, 2r+1, 2r+1) grid centred on the origin.

    The radius r is fixed from the initial support and the step budget, so
    the wavefront never reaches the border.  Each step works only on the
    window the wavefront can have reached.
    """

    def __init__(self, coin, initial: dict, max_steps: int):
        self.coin = np.asarray(coin, dtype=complex)
        self.extent = max(max(abs(m), abs(n)) for m, n in initial)
        self.radius = self.extent + int(max_steps) + 1
        self.max_steps = int(max_steps)
        self.t = 0
        size = 2 * self.radius + 1
        self.grid = np.zeros((4, size, size), dtype=complex)
        for (m, n), vec in initial.items():
            self.grid[:, m + self.radius, n + self.radius] = vec

    def step(self) -> None:
        if self.t >= self.max_steps:
            raise ValueError("step budget of the reference grid exhausted")
        self.t += 1
        r = self.radius
        w = self.extent + self.t
        window = self.grid[:, r - w : r + w + 1, r - w : r + w + 1]
        flipped = (self.coin @ window.reshape(4, -1)).reshape(window.shape)
        moved = np.zeros_like(flipped)
        moved[0, 1:, :] = flipped[0, :-1, :]
        moved[1, :-1, :] = flipped[1, 1:, :]
        moved[2, :, 1:] = flipped[2, :, :-1]
        moved[3, :, :-1] = flipped[3, :, 1:]
        window[...] = moved

    def amplitude(self, m: int, n: int) -> np.ndarray:
        return self.grid[:, m + self.radius, n + self.radius]

    def n_sites(self) -> int:
        return int(np.count_nonzero(np.any(self.grid != 0, axis=0)))

    def occupied(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied points in lexicographic (m, n) order and their 4-vectors."""
        i, j = np.nonzero(np.any(self.grid != 0, axis=0))
        points = np.stack([i - self.radius, j - self.radius], axis=1)
        return points, self.grid[:, i, j].T

    def overlap(self, initial: dict) -> complex:
        """<initial|current>, conjugating the initial amplitudes."""
        return complex(
            sum(np.vdot(vec, self.amplitude(m, n)) for (m, n), vec in initial.items())
        )


def walk_series(coin, initial: dict, steps: int):
    """Trajectory observables of a walk from ``initial`` for 0..steps.

    Returns ``(origin_probability, fidelity, site_steps, walk)``:
    probability at (0, 0) after t = 0..steps steps, fidelity to the
    initial state after t = 1..steps, the requested site-steps
    (sum of occupied sites over the states that get stepped), and the walk
    at its final state.
    """
    walk = DenseWalk(coin, initial, steps)
    origin = [float(np.sum(np.abs(walk.amplitude(0, 0)) ** 2))]
    fidelity = []
    site_steps = 0
    for _ in range(steps):
        site_steps += walk.n_sites()
        walk.step()
        origin.append(float(np.sum(np.abs(walk.amplitude(0, 0)) ** 2)))
        fidelity.append(min(1.0, abs(walk.overlap(initial)) ** 2))
    return origin, fidelity, site_steps, walk


def eigen_residual(coin, state: dict, eigenvalue: complex) -> float:
    """max |step(state) - eigenvalue * state| over every site and component."""
    walk = DenseWalk(coin, state, 1)
    before = walk.grid.copy()
    walk.step()
    return float(np.abs(walk.grid - eigenvalue * before).max())
