"""Coin operators and the walk step: coin flip, then conditional displacement.

One step first multiplies every occupied site's amplitude 4-vector by the
coin matrix and then moves each direction component one site: R to
(m+1, n), L to (m-1, n), U to (m, n+1), D to (m, n-1).  The step is exactly
unitary, so norms are preserved up to rounding, and it raises ValueError
rather than move a site past the coordinate limit of the state encoding.

The step runs on dense windows: a window is an origin (m0, n0) and a
component-major (4, H, W) array over the bounding box of its occupied
sites.  One step is ``C @ grid.reshape(4, -1)`` followed by
``_shift_into``, four slice copies into a zeroed (4, H+2, W+2) array and
the package's one encoding of the R/L/U/D moves (the finite-support
search in :mod:`qwalk2d.revival` uses it too).  Border rows and columns
that are all zero are then trimmed, so a stationary or localized state
keeps a small window.  :class:`PositionState` stays the input and output
type; states are converted to windows and back only at the boundaries.
Before a walk of t steps the support is split, along m and along n, at
every gap wider than 2t + 1: sites on either side of such a gap can never
meet, so each group walks in its own window and their union is exact.
Memory grows with the bounding box of each group, so a group that is wide
but sparse (say, sites spread along a diagonal with no wide gap) costs its
full box.

``_trajectory`` is the package's only time-stepping loop: :func:`evolve`
and the revival scans in :mod:`qwalk2d.revival` all consume the windows it
yields, so each of them walks the lattice once.

The same step can be run in the momentum picture on an even-sized periodic
box, where it acts at momentum (k, l) as the 4x4 unitary
Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C.  That symbol, in that one sign
convention, is built only by ``_momentum_symbol``.  :func:`evolve_momentum`
powers it via FFTs and reproduces the direct path exactly; it raises
unless ``span + 2*steps <= lattice_size``, so the wavefront cannot wrap
around the box.
"""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .states import PositionState, _KEY_BASE, _check_coords, _decode

__all__ = [
    "BUILTIN_COIN_NAMES",
    "CoinError",
    "CoinOperator",
    "UNITARITY_TOL",
    "apply_coin",
    "apply_shift",
    "builtin_coin",
    "evolve",
    "evolve_momentum",
    "load_coin",
    "random_coin",
    "step",
]

UNITARITY_TOL = 1e-12

# amplitudes this small are dropped when mapping a momentum-picture result
# back to the sparse representation
MOMENTUM_DROP_TOL = 1e-14

BUILTIN_COIN_NAMES = ("grover", "hadamard4", "dft4", "swap")

# sites per band of the coin multiply in the window step, a size that keeps
# the band's product in cache
_BAND_SITES = 4096


class CoinError(Exception):
    """A coin matrix failed validation (parse error or non-unitarity)."""


class CoinOperator:
    """A validated 4x4 unitary acting on the direction basis (R, L, U, D).

    Construction rejects matrices with non-finite entries or whose
    deviation from unitarity exceeds 1e-12 entrywise.  The matrix is
    stored read-only.
    """

    __slots__ = ("matrix", "name")

    def __init__(self, matrix, name: str | None = None):
        matrix = np.array(matrix, dtype=complex)
        if matrix.shape != (4, 4):
            raise CoinError(f"coin matrix must be 4x4, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise CoinError("coin matrix has non-finite entries")
        deviation = np.abs(matrix.conj().T @ matrix - np.eye(4)).max()
        if deviation > UNITARITY_TOL:
            raise CoinError(
                f"coin matrix is not unitary: max |C^dag C - I| = {deviation:.6e}"
            )
        matrix.flags.writeable = False
        self.matrix = matrix
        self.name = name

    def __repr__(self):
        label = self.name or "custom"
        return f"<CoinOperator {label}>"


def builtin_coin(name: str) -> CoinOperator:
    """One of the named 4x4 coins: grover, hadamard4, dft4, or swap."""
    if name == "grover":
        matrix = 0.5 * np.ones((4, 4)) - np.eye(4)
    elif name == "hadamard4":
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        matrix = np.kron(h, h)
    elif name == "dft4":
        # powers of i taken from an exact table, entries i^(jk) / 2
        powers = np.array([1.0, 1.0j, -1.0, -1.0j])
        matrix = powers[np.outer(np.arange(4), np.arange(4)) % 4] / 2.0
    elif name == "swap":
        matrix = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
    else:
        raise ValueError(
            f"unknown built-in coin {name!r}; choose from {', '.join(BUILTIN_COIN_NAMES)}"
        )
    return CoinOperator(matrix, name=name)


def load_coin(path) -> CoinOperator:
    """Read a coin matrix from a text file.

    The format is 4 non-blank lines of 8 whitespace-separated reals, the
    real and imaginary part of each row entry interleaved.  Raises
    CoinError on parse failure or if the matrix is not unitary.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CoinError(f"cannot read coin file {path}: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 4:
        raise CoinError(f"{path}: expected 4 matrix rows, found {len(lines)}")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if len(fields) != 8:
            raise CoinError(
                f"{path}: row {lineno} has {len(fields)} values, expected 8"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise CoinError(f"{path}: row {lineno}: {exc}") from None
        rows.append([complex(values[2 * c], values[2 * c + 1]) for c in range(4)])
    return CoinOperator(rows, name=str(path))


def random_coin(rng=None) -> CoinOperator:
    """A Haar-random 4x4 unitary coin (QR of a complex Ginibre matrix)."""
    rng = rng or np.random.default_rng()
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return CoinOperator(q, name="random")


def apply_coin(state: PositionState, coin: CoinOperator) -> PositionState:
    """Left-multiply every occupied site's 4-vector by the coin matrix."""
    if state.n_sites == 0:
        return state
    return PositionState._from_sorted(state._keys, state._amps @ coin.matrix.T)


class _Window(NamedTuple):
    """Amplitudes ``grid[c, m - m0, n - n0]`` on a box of the lattice."""

    m0: int
    n0: int
    grid: np.ndarray  # (4, H, W) complex, component-major


def _groups(m, n, gap):
    """Index arrays of the sites, split at every coordinate gap wider than ``gap``.

    A group is split along m or along n and its parts are split again,
    until no group has such a gap along either axis.
    """
    pending = [np.arange(m.size)] if m.size else []
    while pending:
        group = pending.pop()
        for coord in (m[group], n[group]):
            order = np.argsort(coord, kind="stable")
            cuts = np.flatnonzero(np.diff(coord[order]) > gap) + 1
            if cuts.size:
                pending.extend(np.split(group[order], cuts))
                break
        else:
            yield group


def _to_windows(state: PositionState, steps: int) -> list[_Window]:
    """``state`` as windows, one per group of sites that ``steps`` steps cannot join."""
    m, n = _decode(state._keys)
    windows = []
    for group in _groups(m, n, 2 * steps + 1):
        gm, gn = m[group], n[group]
        m0, n0 = int(gm.min()), int(gn.min())
        grid = np.zeros((4, int(gm.max()) - m0 + 1, int(gn.max()) - n0 + 1), dtype=complex)
        grid[:, gm - m0, gn - n0] = state._amps[group].T
        windows.append(_Window(m0, n0, grid))
    return windows


def _grid_sites(m0, n0, grid):
    """Sorted keys and amplitudes of the occupied sites of ``grid[c, m - m0, n - n0]``.

    Zero components come out as +0.  Raises ValueError if an occupied site
    lies past the coordinate limit.
    """
    width = grid.shape[2]
    flat = grid.reshape(4, -1).T
    keep = np.flatnonzero(flat.any(axis=1))
    amps = flat[keep]
    amps[amps == 0] = 0
    m = keep // width + m0
    n = keep % width + n0
    _check_coords(m, n)
    # box indices ascend lexicographically, so the keys are already sorted
    return m * _KEY_BASE + n, amps


def _to_state(windows: list[_Window]) -> PositionState:
    """The state the windows hold together (their supports are disjoint)."""
    if not windows:
        return PositionState()
    keys, amps = zip(*(_grid_sites(*window) for window in windows))
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    return PositionState._from_sorted(keys[order], np.concatenate(amps)[order])


def _trim(m0: int, n0: int, grid: np.ndarray) -> list[_Window]:
    """The window at (m0, n0) cut to the bounding box of its occupied sites.

    Returns a list of one window, or of none if no amplitude is left.
    Raises ValueError if an occupied site lies past the coordinate limit.
    """
    top, bottom, left, right = 0, grid.shape[1], 0, grid.shape[2]
    while top < bottom and not grid[:, top].any():
        top += 1
    while bottom > top and not grid[:, bottom - 1].any():
        bottom -= 1
    if top == bottom:
        return []
    while not grid[:, top:bottom, left].any():
        left += 1
    while not grid[:, top:bottom, right - 1].any():
        right -= 1
    m0, n0 = m0 + top, n0 + left
    # the trimmed box's corners bound every occupied site
    _check_coords((m0, m0 + bottom - top - 1), (n0, n0 + right - left - 1))
    return [_Window(m0, n0, grid[:, top:bottom, left:right])]


def _shift_into(out: np.ndarray, rows: np.ndarray) -> None:
    """Move each component of ``rows`` (..., 4, H, W) one site into ``out``.

    ``out`` (..., 4, H+2, W+2) is the box padded by one site on each side;
    leading axes are a batch.  This is the package's one copy of the shift.
    """
    out[..., 0, 2:, 1:-1] = rows[..., 0, :, :]  # R: m + 1
    out[..., 1, :-2, 1:-1] = rows[..., 1, :, :]  # L: m - 1
    out[..., 2, 1:-1, 2:] = rows[..., 2, :, :]  # U: n + 1
    out[..., 3, 1:-1, :-2] = rows[..., 3, :, :]  # D: n - 1


def _step_windows(windows: list[_Window], coin: CoinOperator) -> list[_Window]:
    """One walk step of every window: ``C @ grid``, then the shift, then the trim.

    The coin multiply runs over bands of rows that fit in cache, and each
    band is shifted into place as soon as it is done.  A band is a whole
    number of 8-row blocks, so every band but the last holds a multiple of
    8 sites and BLAS rounds each site as in one product over the window.
    """
    stepped = []
    for m0, n0, grid in windows:
        _, height, width = grid.shape
        out = np.zeros((4, height + 2, width + 2), dtype=complex)
        band = 8 * max(1, _BAND_SITES // width)
        for top in range(0, height, band):
            rows = coin.matrix @ grid[:, top : top + band].reshape(4, -1)
            rows = rows.reshape(4, -1, width)
            _shift_into(out[:, top : top + rows.shape[1] + 2], rows)
        stepped += _trim(m0 - 1, n0 - 1, out)
    return stepped


def _amplitudes(windows: list[_Window], points: np.ndarray) -> np.ndarray:
    """The (len(points), 4) amplitudes at the (m, n) rows of ``points``."""
    out = np.zeros((len(points), 4), dtype=complex)
    for m0, n0, grid in windows:
        i = points[:, 0] - m0
        j = points[:, 1] - n0
        inside = (i >= 0) & (i < grid.shape[1]) & (j >= 0) & (j < grid.shape[2])
        out[inside] = grid[:, i[inside], j[inside]].T
    return out


def _norm(windows: list[_Window]) -> float:
    """Euclidean norm over every window."""
    # one BLAS dot per component plane, a view unless columns were trimmed
    return math.sqrt(sum(np.vdot(g, g).real for _, _, grid in windows for g in grid))


_IDENTITY = CoinOperator(np.eye(4), name="identity")


def apply_shift(state: PositionState) -> PositionState:
    """Move each direction component one site along its direction.

    This is the walk step with the identity coin.  Raises ValueError if a
    site would leave the range of lattice coordinates that states can
    encode.
    """
    return step(state, _IDENTITY)


def step(state: PositionState, coin: CoinOperator) -> PositionState:
    """One walk step: coin flip followed by the conditional displacement."""
    return _to_state(_step_windows(_to_windows(state, 1), coin))


def _trajectory(state: PositionState, coin: CoinOperator, steps: int):
    """Yield the walked state, as windows, after 0, 1, ..., ``steps`` steps.

    Raises ValueError for a negative step count when iteration starts.
    ``_step_windows`` is called through the module global, so a wrapper
    installed on ``dynamics._step_windows`` sees every step.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    windows = _to_windows(state, int(steps))
    yield windows
    for _ in range(int(steps)):
        windows = _step_windows(windows, coin)
        yield windows


def evolve(state: PositionState, coin: CoinOperator, steps: int) -> PositionState:
    """Apply ``steps`` walk steps (0 returns an equal state)."""
    for windows in _trajectory(state, coin, steps):
        pass
    return _to_state(windows)


def _momentum_symbol(coin: CoinOperator, ks, ls) -> np.ndarray:
    """Step matrices Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C over ks x ls.

    Returns shape (len(ks), len(ls), 4, 4).  Every momentum-picture
    computation in the package builds its step matrices here, so there is
    one sign convention: the R component picks up e^{ik}.
    """
    x = np.exp(1j * np.asarray(ks, dtype=float))
    y = np.exp(1j * np.asarray(ls, dtype=float))
    diag = np.empty((x.size, y.size, 4), dtype=complex)
    diag[:, :, 0] = x[:, None]
    diag[:, :, 1] = x.conj()[:, None]
    diag[:, :, 2] = y[None, :]
    diag[:, :, 3] = y.conj()[None, :]
    return diag[..., :, None] * coin.matrix


def evolve_momentum(
    state: PositionState, coin: CoinOperator, steps: int, lattice_size: int
) -> PositionState:
    """Evolve on an N x N periodic box in the momentum picture.

    The state is placed in a box centered on its support, transformed with
    an FFT per coin component, multiplied at each momentum by the
    ``steps``-th power of the 4x4 step matrix, and transformed back.  The
    result matches :func:`evolve` to rounding provided the wavefront never
    wraps around the box, which holds exactly when ``span + 2*steps <=
    lattice_size`` for a support spanning ``span`` sites along its wider
    axis.  Resulting amplitudes below 1e-14 are dropped.

    Raises ValueError for a negative step count, an odd or nonpositive box
    size, a box too small for the wavefront, or a result with a site past
    the coordinate limit.
    """
    steps = int(steps)
    size = int(lattice_size)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if size <= 0 or size % 2:
        raise ValueError("lattice_size must be a positive even integer")
    if state.n_sites == 0:
        return state

    points = np.array(state.points, dtype=np.int64)
    low = points.min(axis=0)
    high = points.max(axis=0)
    span = int((high - low).max()) + 1
    if span + 2 * steps > size:
        raise ValueError(
            f"state support spans {span} sites and {steps} steps widen it by "
            f"{2 * steps}, exceeding the {size}-site periodic box"
        )
    origin = (low + high + 1) // 2 - size // 2

    grid = np.zeros((4, size, size), dtype=complex)
    grid[:, points[:, 0] - origin[0], points[:, 1] - origin[1]] = state._amps.T

    momentum = np.fft.fft2(grid, axes=(1, 2))
    # fft2 attaches e^{-2*pi*i*j*m/N} to site m: that is e^{ikm} at k = -2*pi*j/N
    ks = -2 * np.pi * np.arange(size) / size
    powered = np.linalg.matrix_power(_momentum_symbol(coin, ks, ks), steps)
    vectors = powered @ np.moveaxis(momentum, 0, -1)[..., None]
    grid = np.fft.ifft2(np.moveaxis(vectors[..., 0], -1, 0), axes=(1, 2))

    grid[np.abs(grid) < MOMENTUM_DROP_TOL] = 0
    keys, amps = _grid_sites(int(origin[0]), int(origin[1]), grid)
    return PositionState._from_sorted(keys, amps)
