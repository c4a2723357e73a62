"""Four-state discrete-time quantum walks on the 2-D integer lattice.

Sparse unitary simulation of a walker with a four-direction coin,
momentum-space spectral analysis of arbitrary coins, finite-support
stationary-state search, and detection of exact state revivals and
localization.
"""

from .dynamics import (
    BUILTIN_COIN_NAMES,
    CoinError,
    CoinOperator,
    builtin_coin,
    evolve,
    evolve_momentum,
    load_coin,
    random_coin,
    step,
)
from .revival import (
    RevivalReport,
    StationaryStateSet,
    detect_period,
    find_local_stationary_states,
    grover_stationary_states,
    return_probability_series,
    revival_state,
)
from .spectral import (
    CharPolyProfile,
    ConstantEigenvalue,
    SpectrumReport,
    char_poly_profile,
    detect_constant_eigenvalues,
    momentum_propagator,
)
from .states import (
    CoinComponent,
    LatticePoint,
    PositionState,
    fidelity,
    inner_product,
    load_state,
    make_basis_state,
    save_state,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_COIN_NAMES",
    "CharPolyProfile",
    "CoinComponent",
    "CoinError",
    "CoinOperator",
    "ConstantEigenvalue",
    "LatticePoint",
    "PositionState",
    "RevivalReport",
    "SpectrumReport",
    "StationaryStateSet",
    "builtin_coin",
    "char_poly_profile",
    "detect_constant_eigenvalues",
    "detect_period",
    "evolve",
    "evolve_momentum",
    "fidelity",
    "find_local_stationary_states",
    "grover_stationary_states",
    "inner_product",
    "load_coin",
    "load_state",
    "make_basis_state",
    "momentum_propagator",
    "random_coin",
    "return_probability_series",
    "revival_state",
    "save_state",
    "step",
    "superpose",
]
