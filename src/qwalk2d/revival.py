"""Finite-support eigenstates, exact state revivals, and return probability.

The Grover coin gives the walk step two eigenvalues, +1 and -1, whose
eigenvectors can be chosen with finite support; superposing one of each
yields a state that the step swaps back and forth between two disjoint
configurations, an exact two-step revival.  This module constructs those
states in closed form, searches for finite-support eigenstates of arbitrary
coins by solving a box-restricted eigenproblem, and reads two observables
off one walk: the fidelity to the initial state, whose first return to 1 is
the revival period, and the return probability.  The search steps a basis
of real and imaginary planes with the walk's own step, coin and shift
(``dynamics._step_box``), forms a complex system from it only for the SVD,
and reads each null vector back as a box, as the walk does.  Every move
flips the parity of m + n, so the step maps the box's odd-parity cells onto
even ones and back; the search solves for the odd half of an eigenstate
alone, one column per component of an odd cell, and the step gives the even
half.  That system involves the eigenvalue squared only, so +lambda and
-lambda share it, the same parity structure that pairs the constant
eigenvalues.  For a real coin (Grover, swap) at lambda in {+-1, +-i} the
system is real, and the search runs a real SVD on it, about half the cost
of the complex one: the odd halves come out real, so the states at +-1 are
real and those at +-i have an imaginary even half.  It searches the box
[0, s)^2; :meth:`PositionState.translate` moves what it finds.

The return probability after t steps is the probability of finding the
walker at the lattice origin (0, 0), coin components traced out, for any
normalized initial state; a walker that starts away from the origin
starts with return probability 0.  :func:`detect_period` records it
alongside the fidelity in a single pass over
:func:`qwalk2d.dynamics._trajectory`.  :func:`return_probability_series`
reads the origin alone, so for every coin it walks only the origin's
backward light cone: after t of T steps, the cells within L1 distance
T - t of the origin, about T^3/12 cells in all against the T^3/3 of the
whole walk.  Its series is the period scan's to the bit: the walk's one
real product, never one column wide, rounds a cell alike wherever it sits.

A revival period of at most 2 holds when the point spectrum is a single
{+lambda, -lambda} pair, as it is for Grover: a state in those eigenspaces
has U^2 = lambda^2 on it.  It is not universal.  A coin with four constant
eigenvalues {+-sqrt(mu1), +-sqrt(mu2)} revives with a period set by the
order of mu1/mu2: 4 for the 4-cycle coin R->U->L->D->R, 6 for (R + U)/sqrt(2)
under a swap coin with C_DU = e^{2 pi i/3}, and never for an irrational phase.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import CoinOperator, _amplitudes, _complex, _grid_sites, _norm, _planes
from .dynamics import _step_box, _trajectory
from .states import PositionState, _check_norm, _integer, _require_normalized

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

# a fidelity at or above 1 minus this counts as a full revival
REVIVAL_TOL = 1e-10


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
    """Orthonormal finite-support eigenstates found inside a search box.

    ``largest_null`` and ``smallest_kept`` are the search's margins on
    either side of its cutoff, as ratios sigma / sigma_max of the singular
    values of its eigen-equation: the largest one counted as a null
    direction and the smallest one kept.  The ratios lie in [0, 1], so an
    empty side reads as the end farthest from the cutoff: 0.0 when no
    direction is null, 1.0 when none is kept.
    """

    eigenvalue: complex
    states: tuple[PositionState, ...]
    largest_null: float
    smallest_kept: float

    def __len__(self):
        return len(self.states)


def find_local_stationary_states(
    coin: CoinOperator, eigenvalue: complex, box_size: int
) -> StationaryStateSet:
    """Eigenstates of the walk step supported inside the s x s box [0, s)^2.

    Every move flips the parity of m + n, so a box state psi = psi0 + psi1,
    with psi0 on the cells where m + n is odd and psi1 on the even ones,
    solves step(psi) = eigenvalue * psi exactly when three things hold:
    step(psi0) vanishes outside the box, psi1 = step(psi0) / eigenvalue,
    and step(step(psi0)) = eigenvalue^2 * psi0 on the box padded by one
    site.  The search solves for psi0 alone: 4 * floor(s^2 / 2) unknowns
    and 4 * (floor(s^2 / 2) + 4s + 4) rows, the padded ring's even cells
    and the padded box's odd ones: 272 x 128 at s = 8, where the whole
    box's equation is 400 x 256.  Its null space, computed by SVD with
    singular values thresholded at 1e-10 of the largest, gives the
    orthonormal states (psi0 + psi1) / sqrt(2).  When the system's
    imaginary parts are all exactly 0, as for a real coin and a real
    eigenvalue^2, the SVD is a real one, so psi0 is real: the states at
    eigenvalue +-1 are real, and at +-i psi1 is imaginary.  The system
    depends on eigenvalue^2 only, so -eigenvalue has the same psi0 and its
    states are the parity flips psi0 - psi1.  An empty list means no such eigenstate
    exists; a 1 x 1 box has no odd cell, so it never holds one.  The
    eigenvalue must have unit modulus (within 1e-10) and
    ``box_size`` must be a positive integer.  The step commutes with
    translations, so ``state.translate(offset)`` gives the eigenstates of
    a box anywhere else.
    """
    eigenvalue = complex(eigenvalue)
    if not abs(abs(eigenvalue) - 1.0) <= 1e-10:
        raise ValueError(f"eigenvalue must have unit modulus, got |{eigenvalue}|")
    s = _integer(box_size, "box_size", 1)

    # padded cell (i, j) is box cell (i - 1, j - 1), of the same parity
    odd = np.indices((s + 2, s + 2)).sum(axis=0) % 2 == 1
    ring = ~odd
    ring[1:-1, 1:-1] = False
    cells = np.flatnonzero(odd[1:-1, 1:-1])
    if not cells.size:
        return StationaryStateSet(eigenvalue, (), largest_null=0.0, smallest_kept=1.0)
    # column (c, k): a unit amplitude in component c of odd cell k, as planes
    c, k = np.arange(4)[:, None], np.arange(cells.size)
    basis = np.zeros((4, cells.size, 4, 2, s * s))
    basis[c, k, c, 0, cells] = 1
    basis = basis.reshape(-1, 4, 2, s, s)
    once = _step_box(basis, coin)
    twice = _complex(_step_box(once[..., 1:-1, 1:-1], coin))
    once, basis = _complex(once), _complex(basis)
    twice[..., 1:-1, 1:-1] -= eigenvalue**2 * basis
    system = np.concatenate([once[..., ring], twice[..., odd]], axis=-1)

    # system[b] is column b of the eigen-equation, so its transpose is a view
    system = system.reshape(len(basis), -1).T
    if not system.imag.any():
        # a real coin with a real eigenvalue^2: the same matrix, a real SVD
        system = system.real
    _, singular, vh = np.linalg.svd(system, full_matrices=False)
    ratio = singular / singular[0]
    null = ratio <= NULL_SPACE_RTOL
    boxes = vh[null].conj() @ (basis + once[..., 1:-1, 1:-1] / eigenvalue).reshape(len(basis), -1)
    states = tuple(
        PositionState._from_sites(*_grid_sites(0, 0, _planes(box)))
        for box in boxes.reshape(-1, 4, s, s) / np.sqrt(2.0)
    )
    return StationaryStateSet(
        eigenvalue,
        states,
        largest_null=float(ratio[null].max(initial=0.0)),
        smallest_kept=float(ratio[~null].min(initial=1.0)),
    )


@dataclass(frozen=True)
class RevivalReport:
    """Fidelity-to-initial and return-probability series of one walk.

    ``period`` is the first step count at which the fidelity reaches
    1 - ``REVIVAL_TOL`` (1e-10), or None if that never happens within the
    scanned range;
    ``phase`` is then the recovered global phase <initial|state(period)>.
    ``fidelity_series[t - 1]`` holds the fidelity after t steps and
    ``return_probability[t]`` the probability at the origin after t steps,
    for t = 0..t_max.
    """

    period: int | None
    fidelity_series: tuple[float, ...]
    phase: complex | None
    return_probability: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "tolerance": REVIVAL_TOL,
            "fidelity_series": list(self.fidelity_series),
            "phase": None
            if self.phase is None
            else {"re": self.phase.real, "im": self.phase.imag},
        }


_ORIGIN = np.zeros((1, 2), dtype=np.int64)


def _probability(vec) -> float:
    return float(np.sum(np.abs(vec) ** 2))


def detect_period(initial: PositionState, coin: CoinOperator, t_max: int) -> RevivalReport:
    """Scan up to ``t_max`` steps for a full revival of ``initial``.

    The criterion is fidelity >= 1 - ``REVIVAL_TOL`` (1e-10), which is
    insensitive to a global phase; the recovered phase is reported
    separately.  Both series are always recorded out to ``t_max``, even past
    a detected revival, so a caller who needs another threshold scans
    ``fidelity_series``.  Raises ValueError for an unnormalized start, a
    ``t_max`` that is not an integer of at least 1, and, as
    :func:`qwalk2d.fidelity` would, if the walked state drifts off norm 1 by
    more than 1e-9.
    """
    _require_normalized(initial, "detect_period")
    t_max = _integer(t_max, "t_max", 1)
    # the origin rides along as the last row: one window read per step
    m, n, amps = initial._sites()
    points = np.vstack([np.column_stack((m, n)), _ORIGIN])
    returns = []
    series = []
    period = None
    phase = None
    for t, windows in enumerate(_trajectory(initial, coin, t_max)):
        here = _amplitudes(windows, points)
        returns.append(_probability(here[-1]))
        if t == 0:
            continue  # the start, whose fidelity is 1
        here = here[:-1]
        # states are immutable, so ``initial`` keeps the norm checked above
        _check_norm(_norm(windows), "fidelity")
        # <initial|state> over the sites both occupy, as inner_product sums it
        both = here.any(axis=1)
        overlap = complex(np.sum(amps[both].conj() * here[both]))
        fidelity = min(1.0, abs(overlap) ** 2)
        series.append(fidelity)
        if period is None and fidelity >= 1.0 - REVIVAL_TOL:
            period = t
            phase = overlap
    return RevivalReport(
        period=period,
        fidelity_series=tuple(series),
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

    Only the origin is read, so for every coin the walk keeps after t steps
    only the cells that can still reach it, those within L1 distance
    ``t_max - t``: about ``t_max**3 / 12`` cells are stepped in all, a
    quarter of the whole walk, and the series is the whole walk's to the
    bit.  Raises ValueError for an unnormalized start, a
    ``t_max`` that is not an integer of at least 0, and a walk that moves
    a site past the coordinate limit, at exactly the inputs where
    :func:`qwalk2d.evolve` raises: a start that could reach the limit in
    ``t_max`` steps walks whole.
    """
    _require_normalized(initial, "return_probability_series")
    return [
        _probability(_amplitudes(windows, _ORIGIN)[0])
        for windows in _trajectory(initial, coin, _integer(t_max, "t_max", 0), _ORIGIN)
    ]
