"""Coin operators and the walk step: coin flip, then conditional displacement.

One step first multiplies every occupied site's amplitude 4-vector by the
coin matrix and then moves each direction component one site: R to
(m+1, n), L to (m-1, n), U to (m, n+1), D to (m, n-1).  The step is exactly
unitary, so norms are preserved up to rounding, and it raises ValueError
rather than move a site past the coordinate limit of the state encoding.

The step runs on dense windows: a window is an origin (m0, n0) and a
(4, 2, H, W) float64 array, each component's real and imaginary planes
over a box of sites, in one of two frames.  The (m, n) frame indexes the
box by m and n.  The rotated frame indexes it by u = m + n and v = m - n in
steps of 2, so it holds the sites of one parity class of u, and every step
moves the whole class to the other one: after t steps from one site, the
(t + 1)^2 sites it can reach fill the box, where an (m, n) box spans
(2t + 1)^2 sites, three quarters of them empty.
``_step_box``, the only code that applies the step, does one real product
for every coin, its 8x8 plane matrix times the box's 8 planes, and four
slice copies into a zeroed box one step larger, read off ``_MOVES``, the
one table of the R/L/U/D moves; :mod:`qwalk2d.revival` builds its box
eigen-equation with it too.  No product is one column wide, as BLAS's gemv
path rounds a cell apart: every box keeps at least two columns.  The walk
trims border rows and columns that are all zero, so a stationary or
localized state keeps a small window.
:class:`PositionState` stays the input and output type; states are
converted to windows and back only at the boundaries, the only places
complex arrays are built: ``_to_windows``
reads a state through ``PositionState._sites`` and ``_to_state`` builds one
through ``PositionState._from_sites``, which checks it.  Before a walk of t
steps the support is split, along m, n, u and v, at every gap wider than
2t + 1: sites on either side of such a gap can never meet, so each group
walks in its own windows and their union is exact.  Each group takes the
frame whose boxes hold fewer cells after t steps, so a single site or a
compact cluster walks rotated, and sites strung along an axis keep a thin
(m, n) box while sites strung along a diagonal keep a thin rotated one.

``_trajectory`` is the package's only time-stepping loop: :func:`evolve`
and the revival scans in :mod:`qwalk2d.revival` all consume the windows it
yields, so each of them walks the lattice once, and :func:`step` is
:func:`evolve` for one step.  There is no separate coin or shift entry: a
step with the identity coin is the bare shift.  A caller that reads only a
few sites passes them to the loop, which cuts every window after each step
to the cells that can still reach one of them in the steps left, their
backward light cone (``_crop``): in the rotated frame that is an exact
rectangle of rows and columns, in the (m, n) frame a square around it.  The
return-probability scan reads the origin alone, so over T steps it steps
about T^3/12 cells instead of T^3/3, for every coin, with the same
amplitudes at the origin to the bit (see ``_step_box``).  :func:`evolve`
and the period scan read the whole state and walk it whole.

The same step can be run in the momentum picture on an even-sized periodic
box, where it acts at momentum (k, l) as the 4x4 unitary
Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C.  That symbol, in that one sign
convention, is built only by ``_momentum_symbol``, its phases read off
``_MOVES``, component-major as (4, 4, K, L) like the windows, so its
readers index it in place.  :func:`evolve_momentum` powers it via FFTs and
reproduces the direct path exactly.  Its ``lattice_size`` is the periodic
box the wavefront must fit: it raises unless ``span + 2*steps <=
lattice_size``.  It computes on the smallest even box per axis that holds
the wavefront and has no prime factor above 7, which can be a few cells
wider than ``lattice_size``: any box that holds the wavefront is the same
walk.  Every move changes the parity of m + n, so U(k + pi, l + pi) =
-U(k, l): on the even box the symbol is powered over half the k axis only,
and each power is applied straight to the Fourier vectors.
"""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .states import PositionState, _COORD_LIMIT, _check_coords, _integer

__all__ = [
    "BUILTIN_COIN_NAMES",
    "CoinError",
    "CoinOperator",
    "UNITARITY_TOL",
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

_HADAMARD2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_BUILTIN_COINS = {
    "grover": 0.5 * np.ones((4, 4)) - np.eye(4),
    "hadamard4": np.kron(_HADAMARD2, _HADAMARD2),
    # powers of i taken from an exact table, entries i^(jk) / 2
    "dft4": np.array([1.0, 1.0j, -1.0, -1.0j])[np.outer(np.arange(4), np.arange(4)) % 4] / 2.0,
    "swap": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
}
BUILTIN_COIN_NAMES = tuple(_BUILTIN_COINS)

# a band of the window step's one real coin product is 8 * (_BAND_SITES // width)
# rows, at least 8, of a box at least two columns wide, so never one cell: up to
# 8 * _BAND_SITES = 32,768 sites, 2 MiB of float64 planes per product
_BAND_SITES = 4096


class CoinError(Exception):
    """A coin matrix failed validation (parse error or non-unitarity)."""


class CoinOperator:
    """A validated 4x4 unitary acting on the direction basis (R, L, U, D).

    Construction rejects matrices with non-finite entries or whose
    deviation from unitarity exceeds 1e-12 entrywise.  The matrix is
    stored read-only.
    """

    __slots__ = ("matrix", "name", "_planes")

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
        # C = A + iB as the real 8x8 matrix A (x) I + B (x) [[0, -1], [1, 0]] on the
        # (component, part) rows of a window: one real product for every coin
        self._planes = np.kron(matrix.real, np.eye(2)) + np.kron(matrix.imag, [[0, -1], [1, 0]])

    def __repr__(self):
        label = self.name or "custom"
        return f"<CoinOperator {label}>"


def builtin_coin(name: str) -> CoinOperator:
    """The coin named ``name``, one of ``BUILTIN_COIN_NAMES``."""
    if name not in BUILTIN_COIN_NAMES:
        raise ValueError(
            f"unknown built-in coin {name!r}; choose from {', '.join(BUILTIN_COIN_NAMES)}"
        )
    return CoinOperator(_BUILTIN_COINS[name], name=name)


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
    """A Haar-random 4x4 unitary coin; ``rng`` is a seed, a Generator or None (fresh)."""
    rng = np.random.default_rng(rng)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return CoinOperator(q, name="random")


class _Window(NamedTuple):
    """Amplitudes on a box of the lattice, in one of two frames.

    In the (m, n) frame ``grid[c, i, j]`` sits at site (m0 + i, n0 + j).  In
    the rotated frame it sits at (m0 + i + j, n0 + i - j): rows step
    u = m + n and columns step v = m - n by 2, so the box holds one parity
    class of u and no site it cannot reach.
    """

    m0: int
    n0: int
    grid: np.ndarray  # (4, 2, H, W) float64: component, then real and imaginary plane
    rotated: bool


# (row, column) offsets of the R, L, U and D moves in the box a step pads
# by 2 rows and columns in the (m, n) frame, by 1 in the rotated frame
_MOVES = {
    False: ((2, 1), (0, 1), (1, 2), (1, 0)),
    True: ((1, 1), (0, 0), (1, 0), (0, 1)),
}


def _sites(m0, n0, i, j, rotated):
    """The (m, n) coordinates of box indices (i, j) of a window at (m0, n0)."""
    if rotated:
        return m0 + i + j, n0 + i - j
    return m0 + i, n0 + j


def _groups(m, n, gap):
    """Index arrays of the sites, split at every coordinate gap wider than ``gap``.

    A group is split along m, n, m + n or m - n and its parts are split
    again, until no group has such a gap along any of them.
    """
    coords = (m, n, m + n, m - n)
    pending = [np.arange(m.size)] if m.size else []
    while pending:
        group = pending.pop()
        for coord in coords:
            values = coord[group]
            order = np.argsort(values, kind="stable")
            cuts = np.flatnonzero(np.diff(values[order]) > gap) + 1
            if cuts.size:
                pending.extend(np.split(group[order], cuts))
                break
        else:
            yield group


def _planes(z: np.ndarray) -> np.ndarray:
    """The complex box ``z`` (..., 4, H, W) as a (..., 4, 2, H, W) float64 view."""
    return np.moveaxis(z[..., None].view(float), -1, -3)


def _complex(planes: np.ndarray) -> np.ndarray:
    """The planes (..., 4, 2, H, W) as a complex box (..., 4, H, W), part for part."""
    return np.moveaxis(planes, -3, -1).copy().view(complex)[..., 0]


def _box(i, j, amps):
    """The origin-free box (4, 2, H, W), 2 columns wide or more, of ``amps`` at (i, j) >= 0."""
    grid = np.zeros((4, 2, int(i.max()) + 1, max(int(j.max()) + 1, 2)))
    grid[..., i, j] = np.moveaxis(amps.view(float).reshape(-1, 4, 2), 0, -1)
    return grid


def _to_windows(state: PositionState, steps: int) -> list[_Window]:
    """``state`` as windows, one per group of sites that ``steps`` steps cannot join.

    Each group walks in the frame whose boxes hold fewer cells after
    ``steps`` steps, the rotated one on a tie: one box of (H + 2t)(W + 2t)
    cells, or one (A + t)(B + t) box per parity class of m + n.
    """
    m, n, state_amps = state._sites()
    windows = []
    for group in _groups(m, n, 2 * steps + 1):
        gm, gn, amps = m[group], n[group], state_amps[group]
        # rotated box indices: u = m + n = 2r + p and v = m - n = 2c + p
        u, v = gm + gn, gm - gn
        r, c, parity = u >> 1, v >> 1, u & 1
        classes = [parity == p for p in (0, 1) if (parity == p).any()]
        spans = [(int(np.ptp(r[k])) + 1, int(np.ptp(c[k])) + 1) for k in classes]
        rotated_cells = sum((a + steps) * (b + steps) for a, b in spans)
        mn_cells = (int(np.ptp(gm)) + 1 + 2 * steps) * (int(np.ptp(gn)) + 1 + 2 * steps)
        if rotated_cells > mn_cells:
            m0, n0 = int(gm.min()), int(gn.min())
            windows.append(_Window(m0, n0, _box(gm - m0, gn - n0, amps), False))
            continue
        for k in classes:
            r0, c0 = int(r[k].min()), int(c[k].min())
            m0, n0 = r0 + c0 + int(parity[k][0]), r0 - c0
            windows.append(_Window(m0, n0, _box(r[k] - r0, c[k] - c0, amps[k]), True))
    return windows


def _grid_sites(m0, n0, grid, rotated=False):
    """Coordinates m, n and amplitudes of the occupied sites of a window's box.

    ``grid`` is (4, 2, H, W), a complex box through ``_planes``.  The sites
    come in box order; zero components come out as +0 as a whole entry.
    ``PositionState._from_sites`` takes the three arrays as they are.
    """
    flat = grid.reshape(4, 2, -1)
    # one axis at a time, which is fast on a strided view too
    keep = np.flatnonzero(flat.any(axis=0).any(axis=0))
    amps = np.take(flat, keep, axis=2).reshape(8, -1).T.copy().view(complex)
    amps[amps == 0] = 0
    return (*_sites(m0, n0, *np.divmod(keep, grid.shape[-1]), rotated), amps)


def _to_state(windows: list[_Window]) -> PositionState:
    """The state the windows hold together (their supports are disjoint)."""
    if not windows:
        return PositionState()
    # unpacked first, so the per-window arrays are freed before the state is built
    m, n, amps = (np.concatenate(a) for a in zip(*(_grid_sites(*w) for w in windows)))
    return PositionState._from_sites(m, n, amps)


def _trim(m0: int, n0: int, grid: np.ndarray, rotated: bool) -> list[_Window]:
    """The window at (m0, n0) cut to the bounding box of its occupied cells.

    Returns a list of one window, at least two columns wide (``_step_box``),
    or of none if no amplitude is left.  Raises ValueError if an occupied
    site lies past the coordinate limit.
    """
    top, bottom, left, right = 0, grid.shape[-2], 0, grid.shape[-1]
    while top < bottom and not grid[..., top, :].any():
        top += 1
    while bottom > top and not grid[..., bottom - 1, :].any():
        bottom -= 1
    if top == bottom:
        return []
    while not grid[..., top:bottom, left].any():
        left += 1
    while not grid[..., top:bottom, right - 1].any():
        right -= 1
    left = min(left, grid.shape[-1] - 2)
    right = max(right, left + 2)
    m0, n0 = _sites(m0, n0, top, left, rotated)
    grid = grid[..., top:bottom, left:right]
    # the box's corners bound every site, a fast pre-test; when one is past
    # the limit, the occupied sites decide
    height, width = bottom - top, right - left
    rows, cols = np.array([0, 0, height - 1, height - 1]), np.array([0, width - 1] * 2)
    if np.abs(_sites(m0, n0, rows, cols, rotated)).max() >= _COORD_LIMIT:
        _check_coords(*_sites(m0, n0, *np.nonzero(grid.any(axis=(0, 1))), rotated))
    return [_Window(m0, n0, grid, rotated)]


def _crop(windows: list[_Window], points: np.ndarray, reach: int) -> list[_Window]:
    """The windows cut to the cells within L1 distance ``reach`` of ``points``.

    A rotated window keeps the rows |u - u_p| <= ``reach`` and the columns
    |v - v_p| <= ``reach`` over the range of the points' u = m + n and
    v = m - n: for one point, exactly the cells in reach.  An (m, n) window
    keeps |m - m_p|, |n - n_p| <= ``reach``, the square around that
    diamond.  Either keeps a second column where one is left (``_step_box``);
    one with no cell left is dropped.  A cut window is a view; ``_step_box``
    copies it as it needs.
    """
    m, n = points[:, 0], points[:, 1]
    axes = {False: (m, n), True: (m + n, m - n)}
    cropped = []
    for m0, n0, grid, rotated in windows:
        # box index i sits at start + spacing * i along either axis
        spacing = 2 if rotated else 1
        starts = (m0 + n0, m0 - n0) if rotated else (m0, n0)
        (top, bottom), (left, right) = (
            (max(0, -((start + reach - int(coord.min())) // spacing)),
             min(size, (int(coord.max()) + reach - start) // spacing + 1))
            for coord, start, size in zip(axes[rotated], starts, grid.shape[-2:])
        )
        if top < bottom and left < right:
            left = min(left, grid.shape[-1] - 2)
            right = max(right, left + 2)
            m0, n0 = _sites(m0, n0, top, left, rotated)
            cropped.append(_Window(m0, n0, grid[..., top:bottom, left:right], rotated))
    return cropped


def _step_box(grid: np.ndarray, coin: CoinOperator, rotated: bool = False) -> np.ndarray:
    """One walk step of the box ``grid`` (..., 4, 2, H, W): the coin, then the shift.

    Returns the box padded for one step, (..., 4, 2, H+2, W+2) in the (m, n)
    frame and (..., 4, 2, H+1, W+1) in the rotated frame; leading axes are a
    batch.  The coin multiply is one real product for every coin, its 8x8
    plane matrix (``CoinOperator._planes``) times the box's 8 planes, over
    bands of 8 * (_BAND_SITES // W) rows: 16,392 to 32,768 sites, up to
    2 MiB per product, in a box at most 4,096 sites wide, and 8 rows in a
    wider one.  Each band is shifted into place, read off ``_MOVES``, as
    soon as it is done.  BLAS rounds a column of a real product alike
    wherever it sits, unless the product is one column, which takes its gemv
    path.  A walk's boxes are all at least two columns wide, so a cell
    rounds as in one product over the box, cut to a light cone or not.
    """
    *batch, _, _, height, width = grid.shape
    pad = 1 if rotated else 2
    out = np.zeros((*batch, 4, 2, height + pad, width + pad))
    band = 8 * max(1, _BAND_SITES // width)
    for top in range(0, height, band):
        block = grid[..., top : top + band, :]
        rows = (coin._planes @ block.reshape(*batch, 8, -1)).reshape(block.shape)
        for c, (i, j) in enumerate(_MOVES[rotated]):
            out[..., c, :, top + i : top + i + rows.shape[-2], j : j + width] = rows[..., c, :, :, :]
    return out


def _step_windows(windows: list[_Window], coin: CoinOperator) -> list[_Window]:
    """One walk step of every window: ``_step_box``, then the trim.

    A step moves the origin of an (m, n) box by (-1, -1) and that of a
    rotated box by (-1, 0), since every move changes m + n by one.
    """
    stepped = []
    for m0, n0, grid, rotated in windows:
        out = _step_box(grid, coin, rotated)
        stepped += _trim(m0 - 1, n0 if rotated else n0 - 1, out, rotated)
    return stepped


def _amplitudes(windows: list[_Window], points: np.ndarray) -> np.ndarray:
    """The (len(points), 4) amplitudes at the (m, n) rows of ``points``."""
    out = np.zeros((len(points), 4, 2))
    for m0, n0, grid, rotated in windows:
        i, j = (points - (m0, n0)).T
        on_class = True
        if rotated:
            # invert (i, j) -> (i + j, i - j); the other parity class is off the box
            on_class = (i + j) % 2 == 0
            i, j = (i + j) >> 1, (i - j) >> 1
        inside = on_class & (i >= 0) & (i < grid.shape[-2]) & (j >= 0) & (j < grid.shape[-1])
        # boxes may overlap, but the windows' supports are disjoint
        out[inside] += grid[..., i[inside], j[inside]].transpose(2, 0, 1)
    return out.view(complex)[..., 0]


def _norm(windows: list[_Window]) -> float:
    """Euclidean norm over every window."""
    # one BLAS dot per component's two planes, a view unless columns were trimmed
    return math.sqrt(sum(np.vdot(g, g) for window in windows for g in window.grid))


def _trajectory(state: PositionState, coin: CoinOperator, steps: int, points=None):
    """Yield the walked state, as windows, after 0, 1, ..., ``steps`` steps.

    ``steps`` is an int of at least 0 that the caller has checked; nothing
    here raises for it.  ``_step_windows`` is called through the module
    global, so a wrapper installed on ``dynamics._step_windows`` sees every
    step.

    ``points``, an (N, 2) int64 array of (m, n) rows, are the only sites
    the caller reads, if it reads no other.  The windows yielded after t
    steps are then cut to the cells within L1 distance ``steps - t`` of
    them (``_crop``), and only those are stepped: a cell farther away
    cannot reach a point in the steps left.  Every kept cell is computed by
    the same operations as in the whole walk, so for every coin the
    amplitudes at the points are the same to the bit: the real product
    rounds a cell alike wherever it sits in a product at least two columns
    wide, and no box, cut or whole, is narrower (``_step_box``).  A cut walk
    never sees the sites far away, so it is cut only when no site can reach
    the coordinate limit, max(|m|, |n|) + ``steps`` < 2^30 over the start's
    support; otherwise it walks whole and raises where :func:`evolve` does.
    """
    if points is not None:
        m, n, _ = state._sites()
        if max(np.abs(m).max(), np.abs(n).max()) + steps >= _COORD_LIMIT:
            points = None
    windows = _to_windows(state, steps)
    for t in range(steps + 1):
        if t:
            windows = _step_windows(windows, coin)
        if points is not None:
            windows = _crop(windows, points, steps - t)
        yield windows


def evolve(state: PositionState, coin: CoinOperator, steps: int) -> PositionState:
    """Apply ``steps`` walk steps (0 returns an equal state).

    Raises ValueError for a step count that is not an integer of at least 0.
    """
    for windows in _trajectory(state, coin, _integer(steps, "step count", 0)):
        pass
    return _to_state(windows)


def step(state: PositionState, coin: CoinOperator) -> PositionState:
    """One walk step: coin flip followed by the conditional displacement."""
    return evolve(state, coin, 1)


def _momentum_symbol(coin: CoinOperator, ks, ls) -> np.ndarray:
    """Step matrices Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C over ks x ls.

    Returns a C-contiguous (4, 4, len(ks), len(ls)) array, component-major
    like the windows.  Every momentum-picture computation builds its step
    matrices here, in one sign convention: R picks up e^{ik}, per ``_MOVES``.
    """
    dm, dn = np.array(_MOVES[False]).T - 1
    # k + 0.0, 1j * d and np.where give e^{-ik} at k = 0 as 1 - 0j, the conjugate
    # of e^{ik}; a product with e^{0i} = 1 + 0j would give 1 + 0j
    x = np.exp(np.multiply.outer(1j * dm, np.asarray(ks, dtype=float) + 0.0))
    y = np.exp(np.multiply.outer(1j * dn, np.asarray(ls, dtype=float) + 0.0))
    phases = np.where((dm != 0)[:, None, None], x[:, :, None], y[:, None, :])
    return phases[:, None] * coin.matrix[:, :, None, None]


def _fft_size(n: int) -> int:
    """The smallest even integer >= n with no prime factor above 7."""
    size = n + n % 2
    # exactly such a size divides 210^e = (2*3*5*7)^e once 2^e > size
    while pow(210, size.bit_length(), size):
        size += 2
    return size


def evolve_momentum(
    state: PositionState, coin: CoinOperator, steps: int, lattice_size: int
) -> PositionState:
    """Evolve in the momentum picture, as on a periodic box of side ``lattice_size``.

    The state is placed in a box centered on its support, transformed with
    an FFT per coin component, multiplied at each momentum by the
    ``steps``-th power of the 4x4 step matrix, and transformed back.  Since
    U(k + pi, l + pi) = -U(k, l), the power is taken over the upper half of
    the k axis only and serves the lower half, rolled by half the l axis,
    with the sign (-1)^steps; it is taken by repeated squaring, each square
    that a set bit of ``steps`` selects multiplying the vectors directly.  The
    result matches :func:`evolve` to rounding provided the wavefront never
    wraps around the box, which holds exactly when ``span + 2*steps <=
    lattice_size`` for a support spanning ``span`` sites along its wider
    axis; ``lattice_size`` is the box the wavefront must fit, not the box
    computed on.  The walk on every even box at least that wide is the same,
    so the computation runs, per axis, on the smallest even box holding the
    support's extent along it plus ``2*steps`` whose prime factors are at
    most 7 (fast FFT lengths).  Resulting amplitudes below 1e-14 are
    dropped.

    Raises ValueError for a step count that is not an integer of at least
    0, a box size that is not an even integer of at least 2, a box too
    small for the wavefront, or a result with a site past the coordinate
    limit.
    """
    steps = _integer(steps, "step count", 0)
    size = _integer(lattice_size, "lattice_size", 2)
    if size % 2:
        raise ValueError(f"lattice_size must be even, got {size}")
    if state.n_sites == 0:
        return state

    m, n, amps = state._sites()
    span = max(int(np.ptp(m)), int(np.ptp(n))) + 1
    if span + 2 * steps > size:
        raise ValueError(
            f"state support spans {span} sites and {steps} steps widen it by "
            f"{2 * steps}, exceeding the {size}-site periodic box"
        )
    shape = [_fft_size(int(np.ptp(c)) + 1 + 2 * steps) for c in (m, n)]
    m0, n0 = ((int(c.min()) + int(c.max()) + 1) // 2 - s // 2 for c, s in zip((m, n), shape))

    grid = np.zeros((4, *shape), dtype=complex)
    grid[:, m - m0, n - n0] = amps.T

    momentum = np.fft.fft2(grid, axes=(1, 2))
    # fft2 attaches e^{-2*pi*i*j*m/N} to site m: that is e^{ikm} at k = -2*pi*j/N
    ks, ls = (-2 * np.pi * np.arange(s) / s for s in shape)
    # both axes are even, so row j + rows is k - pi, and U(k - pi, l) = -U(k, l + pi):
    # the lower rows, rolled by half a row, share the upper rows' symbol
    rows, cols = shape[0] // 2, shape[1] // 2
    power = _momentum_symbol(coin, ks[:rows], ls)
    # a view of the Fourier vectors, whose axis 1 picks the upper or the lower rows
    vectors = momentum.reshape(4, 2, rows, -1)
    vectors[:, 1] = np.roll(vectors[:, 1], -cols, axis=2)
    # binary powering, each set bit of steps applied straight to the vectors
    for bit in range(steps.bit_length()):
        if bit:
            power = np.einsum("ij...,jk...->ik...", power, power)
        if steps >> bit & 1:
            vectors = np.einsum("ij...,js...->is...", power, vectors)
    lower = vectors[:, 1]
    vectors[:, 1] = np.roll(-lower if steps % 2 else lower, cols, axis=2)
    grid = np.fft.ifft2(vectors.reshape(momentum.shape), axes=(1, 2))

    grid[np.abs(grid) < MOMENTUM_DROP_TOL] = 0
    return PositionState._from_sites(*_grid_sites(m0, n0, _planes(grid)))
