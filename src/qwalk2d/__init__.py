"""Four-state discrete-time quantum walks on the 2-D integer lattice.

Sparse unitary simulation of a walker with a four-direction coin,
momentum-space spectral analysis of arbitrary coins, finite-support
stationary-state search, and detection of exact state revivals and
localization.  Every name in the library modules' ``__all__`` is
exported here.
"""

from . import dynamics, revival, spectral, states
from .dynamics import *
from .revival import *
from .spectral import *
from .states import *

__version__ = "0.1.0"

__all__ = []
__all__ += dynamics.__all__
__all__ += revival.__all__
__all__ += spectral.__all__
__all__ += states.__all__
