"""Spectrum of the per-momentum step matrix of a four-state lattice walk.

For a coin C the walk step acts at momentum (k, l) as the 4x4 unitary

    Diag(e^{ik}, e^{-ik}, e^{il}, e^{-il}) @ C,

which ``dynamics._momentum_symbol`` builds, in this one sign convention,
for this module and for the momentum-picture evolution alike.

Eigenvalues of this matrix that stay put across *all* momenta give the
position-space step a point spectrum, which is what makes finite
non-spreading eigenstates and exact revivals possible.  This module
samples the spectrum over momentum grids, detects such constant
eigenvalues, and profiles the characteristic-polynomial coefficients
(elementary symmetric functions of the eigenvalues) whose structure forces
constant eigenvalues to come in {+lambda, -lambda} pairs.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import CoinOperator, _momentum_symbol

__all__ = [
    "CharPolyProfile",
    "ConstantEigenvalue",
    "SpectrumReport",
    "char_poly_profile",
    "detect_constant_eigenvalues",
    "eigensystem",
    "grover_constant_eigenvectors",
    "momentum_propagator",
]

EIGENSYSTEM_UNITARITY_TOL = 1e-10

# variance of the lambda^2 coefficient below which it counts as
# momentum-independent
C_ZERO_VARIANCE_TOL = 1e-10

# the candidate-extraction cell sits at pi*(1.0, 1.7)/M: off the momentum
# grid, off the k=0 and l=0 symmetry axes, and with an irrational-feeling
# k:l ratio so degeneracies there are not systematic
_SEED_FRACTIONS = (1.0, 1.7)

# accepted decision tolerances, for this scan and for revival detection
_TOLERANCE_RANGE = (1e-12, 1e-4)


def _check_tolerance(tolerance: float) -> None:
    lo, hi = _TOLERANCE_RANGE
    if not lo <= tolerance <= hi:
        raise ValueError(f"tolerance must lie in [{lo:g}, {hi:g}]")


def momentum_propagator(coin: CoinOperator, momentum) -> np.ndarray:
    """The 4x4 step matrix at one momentum pair (k, l)."""
    k, l = momentum
    return _momentum_symbol(coin, [k], [l])[0, 0]


def eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of a 4x4 unitary matrix.

    Returns ``(values, vectors)`` with ``vectors[:, i]`` belonging to
    ``values[i]``, ordered by increasing phase angle on [0, 2*pi).  Raises
    ValueError if the matrix deviates from unitarity by more than 1e-10.
    """
    matrix = np.asarray(matrix, dtype=complex)
    deviation = np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))).max()
    if deviation > EIGENSYSTEM_UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary: max |A^dag A - I| = {deviation:.6e}")
    values, vectors = np.linalg.eig(matrix)
    angles = np.angle(values)
    angles[angles < 0] += 2 * np.pi
    order = np.argsort(angles, kind="stable")
    return values[order], vectors[:, order]


def _grid_momenta(grid_size: int) -> np.ndarray:
    return 2 * np.pi * np.arange(grid_size) / grid_size


def _cluster_by_value(values, tolerance):
    """Group near-coincident complex values; returns (mean, count) pairs."""
    order = np.argsort(np.mod(np.angle(values), 2 * np.pi), kind="stable")
    clusters = []
    for value in values[order]:
        for members in clusters:
            if abs(value - np.mean(members)) <= tolerance:
                members.append(value)
                break
        else:
            clusters.append([value])
    return [(complex(np.mean(members)), len(members)) for members in clusters]


@dataclass(frozen=True)
class ConstantEigenvalue:
    """One momentum-independent eigenvalue found by the grid scan."""

    value: complex
    max_residual: float
    multiplicity: int


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a constant-eigenvalue scan over an M x M momentum grid.

    ``pairing_ok`` records whether every detected value has its negative
    detected too; ``four_constant`` flags coins whose entire spectrum is
    momentum-independent (possible when the coin has zero diagonal, e.g.
    the swap coin).
    """

    constants: tuple[ConstantEigenvalue, ...]
    grid_size: int
    tolerance: float
    pairing_ok: bool
    four_constant: bool

    def values(self) -> list[complex]:
        return [c.value for c in self.constants]

    def to_json_dict(self) -> dict:
        return {
            "constants": [
                {
                    "re": c.value.real,
                    "im": c.value.imag,
                    "max_residual": c.max_residual,
                    "multiplicity": c.multiplicity,
                }
                for c in self.constants
            ],
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "pairing_ok": self.pairing_ok,
            "four_constant": self.four_constant,
        }


def detect_constant_eigenvalues(
    coin: CoinOperator, grid_size: int = 64, tolerance: float = 1e-8
) -> SpectrumReport:
    """Find eigenvalues of the momentum step matrix that never move.

    Candidates are read off at a single generic seed cell and confirmed
    against every cell of the M x M momentum grid: a candidate survives if
    at each cell some eigenvalue lies within ``tolerance`` of it.  The
    survivors' worst-case distances are reported as residuals.  For a true
    constant eigenvalue the residual sits at rounding level, while for a
    generic coin the candidates miss by O(1) a few cells away, so the
    margin is enormous.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    _check_tolerance(tolerance)

    seed = (np.pi * _SEED_FRACTIONS[0] / grid_size, np.pi * _SEED_FRACTIONS[1] / grid_size)
    seed_values = np.linalg.eigvals(momentum_propagator(coin, seed))
    candidates = _cluster_by_value(seed_values, tolerance)

    momenta = _grid_momenta(grid_size)
    # cheap pre-pass on a sub-grid: a candidate that already misses there
    # cannot survive the full grid
    coarse = momenta[:: max(1, grid_size // 8)]
    coarse_values = np.linalg.eigvals(_momentum_symbol(coin, coarse, coarse))
    candidates = [
        (value, count)
        for value, count in candidates
        if np.abs(coarse_values - value).min(axis=-1).max() <= tolerance
    ]

    constants = []
    if candidates:
        grid_values = np.linalg.eigvals(_momentum_symbol(coin, momenta, momenta))
        for value, count in candidates:
            residual = float(np.abs(grid_values - value).min(axis=-1).max())
            if residual <= tolerance:
                constants.append(ConstantEigenvalue(value, residual, count))

    constants.sort(key=lambda c: np.mod(np.angle(c.value), 2 * np.pi))
    values = [c.value for c in constants]
    pairing_ok = all(
        any(abs(v + other) <= tolerance for other in values) for v in values
    )
    return SpectrumReport(
        constants=tuple(constants),
        grid_size=grid_size,
        tolerance=tolerance,
        pairing_ok=pairing_ok,
        four_constant=sum(c.multiplicity for c in constants) == 4,
    )


@dataclass(frozen=True)
class CharPolyProfile:
    """Characteristic-polynomial coefficients sampled over a momentum grid.

    ``e1`` .. ``e4`` hold the elementary symmetric functions of the four
    eigenvalues per grid cell (trace, lambda^2 coefficient, lambda
    coefficient, determinant).  ``e3`` and ``e4`` are closed form:
    ``e3 = det C * conj(e1)`` and ``e4`` is the coin determinant at every
    cell.  ``c_zero`` reports whether the lambda^2 coefficient is
    momentum-independent, the condition under which constant eigenvalues
    can exist at all.
    """

    grid_size: int
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    det_coin: complex

    @property
    def variances(self) -> dict[str, float]:
        return {
            name: _complex_variance(getattr(self, name))
            for name in ("e1", "e2", "e3", "e4")
        }

    @property
    def e2_variance(self) -> float:
        return _complex_variance(self.e2)

    @property
    def c_zero(self) -> bool:
        return self.e2_variance <= C_ZERO_VARIANCE_TOL

    def to_json_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "c_zero": self.c_zero,
            "e2_variance": self.e2_variance,
            "coefficient_variances": self.variances,
            "det_coin": {"re": self.det_coin.real, "im": self.det_coin.imag},
        }


def _complex_variance(values) -> float:
    centered = values - values.mean()
    return float(np.mean(centered.real**2 + centered.imag**2))


def char_poly_profile(coin: CoinOperator, grid_size: int = 32) -> CharPolyProfile:
    """Sample the characteristic polynomial of the step matrix over a grid.

    The polynomial is lambda^4 - e1 lambda^3 + e2 lambda^2 - e3 lambda + e4
    at each of the grid_size^2 momentum cells, computed from traces of the
    step matrix U without an eigensolve: e1 = tr U and
    e2 = (e1^2 - tr U^2) / 2.  Because det U = det C and U is unitary,
    e3 = det C * conj(e1) and e4 = det C exactly.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    momenta = _grid_momenta(grid_size)
    symbol = _momentum_symbol(coin, momenta, momenta)
    det_coin = complex(np.linalg.det(coin.matrix))
    e1 = np.trace(symbol, axis1=-2, axis2=-1)
    e2 = (e1**2 - np.einsum("...ij,...ji->...", symbol, symbol)) / 2
    e3 = det_coin * e1.conj()
    e4 = np.full(e1.shape, det_coin)
    for arr in (e1, e2, e3, e4):
        arr.flags.writeable = False
    return CharPolyProfile(
        grid_size=grid_size,
        e1=e1,
        e2=e2,
        e3=e3,
        e4=e4,
        det_coin=det_coin,
    )


def grover_constant_eigenvectors(momentum) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvectors of the Grover-coin step matrix at (k, l).

    Returns the non-normalized pair ``(v_plus, v_minus)``: the step fixes
    ``v_plus`` and negates ``v_minus`` at every momentum.  Each degenerates
    to the zero vector where its branch closes (k = l = pi for the first,
    k = l = 0 for the second).
    """
    k, l = momentum
    x, y = np.exp(1j * k), np.exp(1j * l)
    v_plus = np.array([x * (1 + y), 1 + y, y * (1 + x), 1 + x])
    v_minus = np.array([x * (1 - y), -1 + y, y * (1 - x), -1 + x])
    return v_plus, v_minus
