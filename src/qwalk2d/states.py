"""Sparse walker states on the 2-D integer lattice with a four-direction coin.

A state assigns a 4-component complex amplitude vector, ordered
(R, L, U, D), to each occupied lattice point (m, n).  Every state, however
it is built, holds one invariant: integer |m|, |n| < 2^30, finite
amplitudes, and only points with a nonzero component (exact zeros are
pruned).  Breaking it raises ValueError, as do ``amplitude`` at a point
past the limit and :func:`superpose` on a non-finite result.  States are
immutable: every operation returns a new state and the backing arrays are
flagged read-only, so instances can be shared freely across workers.

The on-disk format is a UTF-8 CSV with header
``m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D``, one row per occupied
point in lexicographic (m, n) order, floats written with 17 significant
digits so that load(save(state)) is exact.
"""

import operator
from enum import IntEnum
from itertools import chain, compress, repeat

import numpy as np

__all__ = [
    "CoinComponent",
    "LatticePoint",
    "PositionState",
    "STATE_CSV_HEADER",
    "fidelity",
    "inner_product",
    "load_state",
    "make_basis_state",
    "save_state",
    "superpose",
]

LatticePoint = tuple[int, int]

NORMALIZATION_TOL = 1e-9

STATE_CSV_HEADER = "m,n,re_R,im_R,re_L,im_L,re_U,im_U,re_D,im_D"


class CoinComponent(IntEnum):
    """Direction basis of the coin space, in fixed storage order."""

    R = 0
    L = 1
    U = 2
    D = 3


# Occupied points are keyed by m * 2^32 + n, which orders exactly like the
# lexicographic order on (m, n) while |n| < 2^31.  Coordinates are capped
# at 2^30 to keep a wide safety margin for shifts.
_KEY_BASE = 1 << 32
_COORD_LIMIT = 1 << 30


def _encode(m, n):
    return m * _KEY_BASE + n


def _decode(keys):
    m = (keys + (_KEY_BASE >> 1)) >> 32
    return m, keys - m * _KEY_BASE


def _check_coords(m, n):
    m = np.asarray(m)
    n = np.asarray(n)
    # bounds, not np.abs: abs(-2^63) wraps to -2^63 and would pass
    if m.size and (
        min(m.min(), n.min()) <= -_COORD_LIMIT or max(m.max(), n.max()) >= _COORD_LIMIT
    ):
        raise ValueError(f"lattice coordinates must satisfy |m|, |n| < {_COORD_LIMIT}")


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is an integer (numpy's included,
    bool not) of at least ``minimum``, when one is given."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


class PositionState:
    """Sparse map from occupied lattice points to 4-vectors of amplitudes.

    Internally the map is a pair of parallel arrays (sorted integer point
    keys, (n, 4) complex amplitudes), which keeps whole-state operations
    vectorized.  Construct from a mapping::

        PositionState({(0, 0): (1, 0, 0, 0)})

    or through :func:`make_basis_state` / :func:`superpose`.  Construction
    rejects non-finite amplitudes and coordinates that are not integers or
    lie past the limit.
    """

    __slots__ = ("_keys", "_amps")

    def __init__(self, amplitudes=None):
        amplitudes = dict(amplitudes or {})
        points = np.array([*amplitudes] or np.empty((0, 2), dtype=np.int64))
        if points.ndim != 2 or points.shape[1] != 2 or points.dtype.kind not in "iu":
            raise ValueError("lattice points must be (m, n) integer pairs")
        # np.array turns (True, 0) into int64 (1, 0), which passes the dtype check
        bools = map(isinstance, chain.from_iterable(amplitudes), repeat((bool, np.bool_)))
        for coordinate in compress(chain.from_iterable(amplitudes), bools):
            raise ValueError(f"a lattice coordinate must be an integer, got {coordinate}")
        amps = np.array([*amplitudes.values()] or np.empty((0, 4)), dtype=complex)
        if amps.shape != (len(points), 4):
            raise ValueError("each amplitude entry must have exactly 4 components")
        state = PositionState._from_sites(points[:, 0], points[:, 1], amps)
        self._keys, self._amps = state._keys, state._amps

    @classmethod
    def _from_sites(cls, m, n, amps):
        """The state with ``amps[k]`` at the distinct points (m[k], n[k]).

        Every state is built here.  Raises ValueError for a point past the
        coordinate limit or a non-finite amplitude.
        """
        _check_coords(m, n)
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        rows = np.flatnonzero(amps.any(axis=1))
        keys = _encode(np.asarray(m, dtype=np.int64)[rows], np.asarray(n, dtype=np.int64)[rows])
        order = np.argsort(keys, kind="stable")
        state = cls.__new__(cls)
        state._keys, state._amps = keys[order], amps[rows[order]]
        state._keys.flags.writeable = state._amps.flags.writeable = False
        return state

    def _sites(self):
        """Arrays m, n and (n, 4) amplitudes of the occupied points, in (m, n) order."""
        m, n = _decode(self._keys)
        return m, n, self._amps

    @property
    def n_sites(self) -> int:
        return self._keys.size

    @property
    def points(self) -> list[LatticePoint]:
        """Occupied lattice points in lexicographic (m, n) order."""
        m, n = _decode(self._keys)
        return list(zip(m.tolist(), n.tolist()))

    def amplitude(self, point: LatticePoint) -> np.ndarray:
        """The 4-vector at the integer ``point`` (zeros if it is unoccupied)."""
        m, n = (_integer(c, "lattice coordinate") for c in point)
        _check_coords(m, n)
        key = _encode(m, n)
        i = np.searchsorted(self._keys, key)
        if i < self._keys.size and self._keys[i] == key:
            return self._amps[i].copy()
        return np.zeros(4, dtype=complex)

    def items(self):
        """Iterate over (point, 4-vector) pairs in lexicographic order."""
        for point, row in zip(self.points, self._amps):
            yield point, row.copy()

    def to_dict(self) -> dict[LatticePoint, np.ndarray]:
        return dict(self.items())

    def norm(self) -> float:
        """Euclidean norm over all stored amplitudes (0 for the empty state)."""
        return float(np.linalg.norm(self._amps))

    def translate(self, offset: LatticePoint) -> "PositionState":
        """Move every occupied point by the integer ``offset``, amplitudes untouched."""
        # an offset past twice the limit moves every point past it: clamped
        # there, the int64 sums cannot overflow before the check
        span = 2 * _COORD_LIMIT
        dm, dn = (max(-span, min(_integer(d, "offset coordinate"), span)) for d in offset)
        if (dm == 0 and dn == 0) or not self.n_sites:
            return self
        m, n, amps = self._sites()
        return PositionState._from_sites(m + dm, n + dn, amps)

    def distribution(self) -> dict[LatticePoint, float]:
        """Probability of each occupied point (coin components traced out).

        Requires a normalized state; the returned values sum to 1 up to
        rounding.
        """
        _require_normalized(self, "distribution")
        probs = np.einsum("ij,ij->i", self._amps.conj(), self._amps).real
        return dict(zip(self.points, probs.tolist()))

    def __eq__(self, other):
        if not isinstance(other, PositionState):
            return NotImplemented
        return np.array_equal(self._keys, other._keys) and np.array_equal(
            self._amps, other._amps
        )

    __hash__ = None

    def __repr__(self):
        return f"<PositionState sites={self.n_sites} norm={self.norm():.6g}>"


def _require_normalized(state, what):
    _check_norm(state.norm(), what)


def _check_norm(norm, what):
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{what} requires a normalized state (norm={norm!r})")


def make_basis_state(point: LatticePoint, component) -> PositionState:
    """Unit state with a single amplitude at (point, component): R, L, U, D or an index."""
    if isinstance(component, str):
        if component not in CoinComponent.__members__:
            raise ValueError(f"unknown coin component {component!r}; choose from R, L, U, D")
        component = CoinComponent[component]
    vec = np.zeros(4, dtype=complex)
    vec[CoinComponent(_integer(component, "coin component"))] = 1.0
    return PositionState({tuple(point): vec})


def superpose(terms) -> PositionState:
    """Pointwise linear combination ``sum_i coeff_i * state_i``.

    The result is not renormalized; points whose combined 4-vector is
    exactly zero are pruned, and a non-finite result raises ValueError.
    ``terms`` is a non-empty sequence of (coefficient, state) pairs.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one (coefficient, state) term")
    keys = np.concatenate([state._keys for _, state in terms])
    out_keys, inverse = np.unique(keys, return_inverse=True)
    out = np.zeros((out_keys.size, 4), dtype=complex)
    # a non-finite result is rejected by the constructor, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.concatenate([complex(c) * state._amps for c, state in terms])
        np.add.at(out, inverse, amps)
    return PositionState._from_sites(*_decode(out_keys), out)


def inner_product(a: PositionState, b: PositionState) -> complex:
    """Sesquilinear overlap <a|b>, conjugating the first argument."""
    common, ia, ib = np.intersect1d(
        a._keys, b._keys, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return 0j
    return complex(np.sum(a._amps[ia].conj() * b._amps[ib]))


def fidelity(a: PositionState, b: PositionState) -> float:
    """Squared-modulus overlap |<a|b>|^2 of two normalized states.

    Phase-insensitive, symmetric in its arguments, and clipped to [0, 1].
    Raises ValueError if either state's norm deviates from 1 by more than
    1e-9.
    """
    _require_normalized(a, "fidelity")
    _require_normalized(b, "fidelity")
    return min(1.0, abs(inner_product(a, b)) ** 2)


def save_state(state: PositionState, path) -> None:
    """Write a state to CSV (see the module docstring for the format)."""
    m, n, amps = state._sites()
    # per row: re_R, im_R, re_L, im_L, re_U, im_U, re_D, im_D (rows are C-contiguous)
    parts = amps.view(float)
    _write_csv(STATE_CSV_HEADER, (m.tolist(), n.tolist()), parts.T.tolist(), path)


def _write_csv(header: str, int_columns, float_columns, path) -> None:
    """Write ``header`` to ``path``, then rows of the integer and float columns (17 digits)."""
    row = ",".join(["%d"] * len(int_columns) + ["%.17g"] * len(float_columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(row % fields for fields in zip(*int_columns, *float_columns))


def load_state(path) -> PositionState:
    """Read a state written by :func:`save_state`.

    Raises ValueError for a file that cannot be read or is malformed.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from None
    if not lines or lines[0] != STATE_CSV_HEADER:
        raise ValueError(f"{path}: missing or malformed state CSV header")
    amplitudes = {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 10:
            raise ValueError(f"{path}:{lineno}: expected 10 fields, got {len(fields)}")
        try:
            point = (int(fields[0]), int(fields[1]))
            values = [float(f) for f in fields[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if point in amplitudes:
            raise ValueError(f"{path}:{lineno}: duplicate lattice point {point}")
        amplitudes[point] = [complex(values[2 * c], values[2 * c + 1]) for c in range(4)]
    return PositionState(amplitudes)
