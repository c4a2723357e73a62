"""Spectrum of the per-momentum step matrix of a four-state lattice walk.

For a coin C the walk step acts at momentum (k, l) as the 4x4 unitary
U = Diag(x, 1/x, y, 1/y) @ C with x = e^{ik}, y = e^{il}, which
``dynamics._momentum_symbol`` builds, in this one sign convention, for
this module and for the momentum-picture evolution alike.

An eigenvalue that stays put across *all* momenta gives the
position-space step a point spectrum, which is what makes finite
non-spreading eigenstates and exact revivals possible.  The
characteristic polynomial p(lambda) = det(lambda - U) has the nine
frequencies {-1, 0, 1}^2, with coefficients closed form in C:
lambda^4 + e2_0 lambda^2 + det C at 1 (e2_0 = minor(R, L) + minor(U, D));
-lambda (C_RR lambda^2 + det C conj(C_LL)) at x, R and L swapped at 1/x,
U and D in their place at y and 1/y; lambda^2 (C_ii C_jj - C_ij C_ji),
i in {R, L}, j in {U, D}, at x^a y^b.  A constant eigenvalue makes all
nine vanish, through mu = lambda^2 only: constants come in +- pairs, at
most two.  This module finds them with no eigensolve and profiles the
coefficients e1 and e2 of p over momentum grids.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import CoinOperator, _momentum_symbol
from .states import _integer

__all__ = [
    "CharPolyProfile",
    "ConstantEigenvalue",
    "SpectrumReport",
    "char_poly_profile",
    "detect_constant_eigenvalues",
    "momentum_propagator",
]

# variance of the lambda^2 coefficient below which it counts as
# momentum-independent
C_ZERO_VARIANCE_TOL = 1e-10


def momentum_propagator(coin: CoinOperator, momentum) -> np.ndarray:
    """The 4x4 step matrix at one momentum pair (k, l)."""
    values = np.asarray(momentum)
    if values.shape != (2,) or values.dtype.kind not in "iuf" or not np.isfinite(values).all():
        raise ValueError("momentum must be two finite reals")
    k, l = values
    return _momentum_symbol(coin, [k], [l])[:, :, 0, 0]


@dataclass(frozen=True)
class ConstantEigenvalue:
    """One momentum-independent eigenvalue of the step matrix.

    ``max_residual`` is the largest |p(value)| of the characteristic
    polynomial over the momentum grid; ``multiplicity`` is the value's
    multiplicity as an eigenvalue at a generic momentum.
    """

    value: complex
    max_residual: float
    multiplicity: int


@dataclass(frozen=True)
class CharPolyProfile:
    """Characteristic-polynomial coefficients sampled over a momentum grid.

    ``e1`` and ``e2`` are the trace and the lambda^2 coefficient per grid
    cell.  The other two coefficients follow from unitarity: with
    det U = det C they are ``det C * conj(e1)`` and ``det C``, so only
    ``e1``, ``e2`` and the coin determinant are held.  ``c_zero`` reports
    whether the lambda^2 coefficient is momentum-independent, the
    condition under which constant eigenvalues can exist at all.
    """

    grid_size: int
    e1: np.ndarray
    e2: np.ndarray
    det_coin: complex

    @cached_property
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
            "det_coin": {"re": self.det_coin.real, "im": self.det_coin.imag},
        }


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of a constant-eigenvalue scan over an M x M momentum grid.

    ``profile`` is the characteristic-polynomial profile the candidates
    were checked on, and ``to_json_dict`` includes its fields.
    ``pairing_ok`` records whether every detected value has its negative
    detected too; ``four_constant`` flags coins whose entire spectrum is
    momentum-independent.  That happens exactly when the coin has zero
    diagonal and C_RU C_UR = C_RD C_DR = C_LU C_UL = C_LD C_DL = 0, as for
    the swap coin.
    """

    constants: tuple[ConstantEigenvalue, ...]
    profile: CharPolyProfile
    tolerance: float
    pairing_ok: bool
    four_constant: bool

    def values(self) -> list[complex]:
        return [c.value for c in self.constants]

    def to_json_dict(self) -> dict:
        return {
            **self.profile.to_json_dict(),
            "constants": [
                {
                    "re": c.value.real,
                    "im": c.value.imag,
                    "max_residual": c.max_residual,
                    "multiplicity": c.multiplicity,
                }
                for c in self.constants
            ],
            "tolerance": self.tolerance,
            "pairing_ok": self.pairing_ok,
            "four_constant": self.four_constant,
        }


def detect_constant_eigenvalues(
    coin: CoinOperator, grid_size: int = 64, tolerance: float = 1e-8
) -> SpectrumReport:
    """Find eigenvalues of the momentum step matrix that never move.

    A diagonal entry C_ii above ``tolerance`` fixes one simple pair
    +-sqrt(mu), mu = -det C conj(C_i'i') / C_ii with i' the partner of i;
    with a zero diagonal the candidates are the square roots of the
    eigenvalues of C^2, pairs within ``tolerance`` merging into a double
    pair.  A candidate is kept if its ``max_residual``, the worst |p| on
    the M x M grid of :func:`char_poly_profile`, is within ``tolerance``:
    the grid sees every frequency, so it lies between p's largest
    coefficient and 9x it.  The profile is built once and returned as the
    report's ``profile``.  Raises ValueError for a grid size that is not
    an integer of at least 8, then for a tolerance that is not a real
    number in [1e-12, 1e-4].
    """
    profile = char_poly_profile(coin, grid_size)
    if not (isinstance(tolerance, numbers.Real) and 1e-12 <= tolerance <= 1e-4):
        raise ValueError("tolerance must be a real number in [1e-12, 0.0001]")
    tolerance = float(tolerance)
    c = coin.matrix
    diagonal = np.abs(np.diag(c))
    if diagonal.max() > tolerance:
        # the x_i coefficient -lambda (C_ii mu + det C conj(C_i'i')) is linear in mu
        i = int(diagonal.argmax())
        roots, multiplicity = [-profile.det_coin * np.conj(c[i ^ 1, i ^ 1]) / c[i, i]], 1
    else:
        # a constant p is det(lambda - C), so C^2 - mean has the eigenvalues
        # +-(mu1 - mu2)/2, the pairs' distance on the unit circle; its square gives
        # them to full precision, where the discriminant loses half the digits
        c2 = c @ c
        mean = np.trace(c2) / 4
        centered = c2 - mean * np.eye(4)
        half_split = np.sqrt(np.trace(centered @ centered) / 4)
        if abs(half_split) <= tolerance:
            roots, multiplicity = [mean], 2
        else:
            roots, multiplicity = [mean + half_split, mean - half_split], 1

    constants = []
    for mu in roots:
        for value in (np.sqrt(mu), -np.sqrt(mu)):
            # Horner's rule in place, with e3 and e4 read off det C and e1
            p = value - profile.e1
            p *= value
            p += profile.e2
            p *= value
            p -= profile.det_coin * profile.e1.conj()
            p *= value
            p += profile.det_coin
            residual = float(np.abs(p).max())
            if residual <= tolerance:
                constants.append(ConstantEigenvalue(complex(value), residual, multiplicity))

    constants.sort(key=lambda c: np.mod(np.angle(c.value), 2 * np.pi))
    values = [c.value for c in constants]
    pairing_ok = all(any(abs(v + w) <= tolerance for w in values) for v in values)
    return SpectrumReport(
        constants=tuple(constants),
        profile=profile,
        tolerance=tolerance,
        pairing_ok=pairing_ok,
        four_constant=sum(c.multiplicity for c in constants) == 4,
    )


def _complex_variance(values) -> float:
    centered = values - values.mean()
    return float(np.mean(centered.real**2 + centered.imag**2))


def char_poly_profile(coin: CoinOperator, grid_size: int) -> CharPolyProfile:
    """Sample the characteristic polynomial of the step matrix over a grid.

    The polynomial is lambda^4 - e1 lambda^3 + e2 lambda^2 - e3 lambda + e4
    at each of the grid_size^2 momentum cells, computed from traces of the
    step matrix U without an eigensolve: e1 = tr U and
    e2 = (e1^2 - tr U^2) / 2.  Because det U = det C and U is unitary,
    e3 = det C * conj(e1) and e4 = det C exactly.  Raises ValueError for a
    grid size that is not an integer of at least 8.
    """
    grid_size = _integer(grid_size, "grid_size", 8)
    momenta = 2 * np.pi * np.arange(grid_size) / grid_size
    symbol = _momentum_symbol(coin, momenta, momenta)
    det_coin = complex(np.linalg.det(coin.matrix))
    e1 = np.trace(symbol)
    e2 = (e1**2 - np.einsum("ij...,ji...->...", symbol, symbol)) / 2
    for arr in (e1, e2):
        arr.flags.writeable = False
    return CharPolyProfile(grid_size=grid_size, e1=e1, e2=e2, det_coin=det_coin)
