"""Adaptive Fourier decompositions on the unit circle.

Greedy Takenaka-Malmquist approximation (Core-AFD), unwinding series
(UWA and UWAFD), cyclic n-best Blaschke forms, pre-orthogonal AFD in
reproducing-kernel coefficient spaces, and Dirac-type time-frequency
distributions with the extra-strong uncertainty bounds.  See the
module docstrings for the mathematics; the `afd` console script wraps
the common workflows.
"""

from .config import DEFAULT_SEARCH, DEFAULT_TOL, SearchConfig, Tolerances
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
from .signal_core import (
    CircularSignal,
    HardyFunction,
    analytic_signal,
    bedrosian_check,
    circle_grid,
    hilbert_transform,
    phase_amplitude,
    phase_derivative,
    to_hardy,
)
from .hardy_atoms import (
    MonocompReport,
    mobius,
    monocomp_check,
    szego_kernel,
    tm_sweep,
    tm_system_boundary,
    validate_param,
)
from .core_afd import (
    Component,
    Decomposition,
    coefficient,
    coefficient_cross_check,
    core_afd_decompose,
    maximal_selection,
    objective,
    reconstruct,
    sift,
)
from .unwinding import (
    Factorization,
    factorize,
    front_loading_defect,
    inner_factor,
    outer_factor,
    unwinding_reconstruct,
    uwa_decompose,
    uwafd_decompose,
)
from .cyclic_afd import (
    CyclicTrace,
    cmp_check,
    coordinate_optimize,
    cyclic_afd,
    cyclic_decomposition,
    n_blaschke_objective,
)
from .poafd import (
    KernelSpace,
    OrthoSystem,
    bergman_space,
    gram_schmidt,
    hardy_space,
    kernel,
    multiplicity_limit_check,
    poafd_decompose,
    poafd_select,
)
from .tfd_uncertainty import (
    ComponentTFD,
    TFDAtom,
    UncertaintyReport,
    dirac_tfd,
    uncertainty_report,
    unwinding_tfd,
)

__version__ = "0.1.0"
