"""Coin operators and the walk step: coin flip, then conditional displacement.

One step first multiplies every occupied site's amplitude 4-vector by the
coin matrix and then moves each direction component one site: R to
(m+1, n), L to (m-1, n), U to (m, n+1), D to (m, n-1).  The step is exactly
unitary, so norms are preserved up to rounding, and it raises ValueError
rather than move a site past the coordinate limit of the state encoding.

``_trajectory`` is the package's only time-stepping loop: :func:`evolve`
and the revival scans in :mod:`qwalk2d.revival` all consume the states it
yields, so each of them walks the lattice once.

The same step can be run in the momentum picture on an even-sized periodic
box, where it acts at momentum (k, l) as the 4x4 unitary
Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C.  That symbol, in that one sign
convention, is built only by ``_momentum_symbol``.  :func:`evolve_momentum`
powers it via FFTs and reproduces the direct path exactly; it raises
unless ``span + 2*steps <= lattice_size``, so the wavefront cannot wrap
around the box.
"""

from pathlib import Path

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

# key increments realizing the displacement of each component (R, L, U, D)
_SHIFT_KEYS = np.array([_KEY_BASE, -_KEY_BASE, 1, -1], dtype=np.int64)

BUILTIN_COIN_NAMES = ("grover", "hadamard4", "dft4", "swap")


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


def apply_shift(state: PositionState) -> PositionState:
    """Move each direction component one site along its direction.

    Raises ValueError if a site would leave the range of lattice
    coordinates that states can encode.
    """
    if state.n_sites == 0:
        return state
    shifted_keys = []
    shifted_vals = []
    for c in range(4):
        col = state._amps[:, c]
        mask = col != 0
        shifted_keys.append(state._keys[mask] + _SHIFT_KEYS[c])
        shifted_vals.append(col[mask])
    out_keys = np.unique(np.concatenate(shifted_keys))
    _check_coords(*_decode(out_keys))
    out = np.zeros((out_keys.size, 4), dtype=complex)
    for c in range(4):
        # within one component the displacement is injective, so plain
        # assignment is enough
        out[np.searchsorted(out_keys, shifted_keys[c]), c] = shifted_vals[c]
    return PositionState._from_sorted(out_keys, out)


def step(state: PositionState, coin: CoinOperator) -> PositionState:
    """One walk step: coin flip followed by the conditional displacement."""
    return apply_shift(apply_coin(state, coin))


def _trajectory(state: PositionState, coin: CoinOperator, steps: int):
    """Yield the state after 0, 1, ..., ``steps`` walk steps.

    Raises ValueError for a negative step count when iteration starts.
    ``step`` is called through the module global, so a wrapper installed
    on ``dynamics.step`` sees every step.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    yield state
    for _ in range(int(steps)):
        state = step(state, coin)
        yield state


def evolve(state: PositionState, coin: CoinOperator, steps: int) -> PositionState:
    """Apply ``steps`` walk steps (0 returns the input unchanged)."""
    for state in _trajectory(state, coin, steps):
        pass
    return state


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
    size, or a box too small for the wavefront.
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

    flat = grid.reshape(4, -1).T
    flat = np.where(np.abs(flat) < MOMENTUM_DROP_TOL, 0, flat)
    keep = np.flatnonzero(np.any(flat != 0, axis=1))
    m = keep // size + origin[0]
    n = keep % size + origin[1]
    # box indices ascend lexicographically, so the keys are already sorted
    return PositionState._from_sorted(m * _KEY_BASE + n, flat[keep])
