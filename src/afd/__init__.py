"""Adaptive Fourier decompositions on the unit circle.

Greedy Takenaka-Malmquist approximation (Core-AFD), unwinding series
(UWA and UWAFD), cyclic n-best Blaschke forms, pre-orthogonal AFD in
reproducing-kernel coefficient spaces, and Dirac-type time-frequency
distributions with the extra-strong uncertainty bounds.  See the
module docstrings for the mathematics; the `afd` console script wraps
the common workflows.
"""

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AFDError,
    DegenerateGram,
    DegenerateModulus,
    InputError,
    NearZeroModulus,
    NonFiniteEnergy,
    NonRealInput,
    NonUniformGrid,
    NumericalDegeneracy,
    ParamOutOfDisc,
    ParseError,
    PhaseUnresolved,
    TailEnergy,
    ZeroResidual,
    ZeroSignal,
)
# each listing module's __all__ is its export list (cli_io is the afd script's)
from .signal_core import *
from .hardy_atoms import *
from .core_afd import *
from .unwinding import *
from .cyclic_afd import *
from .poafd import *
from .tfd_uncertainty import *

__version__ = "0.1.0"
