"""Central numerical tolerances and search-grid configuration.

Every tolerance used by more than one function lives here, so tests and
the command line tool agree on what "close enough" means.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numerical thresholds.

    Attributes
    ----------
    grid_uniform : float
        Max deviation of sample times from the uniform grid before it
        is rejected: absolute on the circle grid 2*pi*j/N, relative to
        the step on a real-line grid.
    realness : float
        Largest imaginary part, relative to the signal's peak modulus,
        that a real signal may carry.
    near_zero : float
        Modulus floor, relative to the peak modulus on the same circle,
        below which a phase is considered undefined.
    param_boundary : float
        Pole parameters must satisfy abs(a) <= 1 - param_boundary.
    energy_total : float
        Relative slack for the full decomposition energy identity.
    trace_slack : float
        Largest rise of a residual energy trace, relative to the source
        energy, taken as rounding: Decomposition.validate refuses a
        larger one, and cyclic_afd clamps a smaller one.
    residual_floor : float
        Relative residual energy below which iteration stops cleanly.
    zero_residual : float
        Relative residual norm below which selection refuses to run.
    log_clamp : float
        Boundary modulus is clamped at log_clamp * max before taking
        logs in the outer-factor computation.
    coincidence : float
        Two pole parameters closer than this are treated as equal
        (kernel multiplicities).
    gram : float
        The span floor: a kernel whose norm after projection onto the
        orthonormal rows is below this fraction of its norm lies in
        their span.  Gram-Schmidt refuses it as degenerate, and POAFD
        selection scores it 0 (the same test on squared norms), so
        selection does not pick a kernel that Gram-Schmidt refuses.
    cmp_rel : float
        Relative single-coordinate improvement below which a cyclic
        search is accepted as conditionally optimal.
    chain_slack : float
        Absolute slack for uncertainty-product chain comparisons.
    """

    grid_uniform: float = 1e-9
    realness: float = 1e-12
    near_zero: float = 1e-12
    param_boundary: float = 1e-9
    energy_total: float = 1e-8
    trace_slack: float = 1e-12
    residual_floor: float = 1e-14
    zero_residual: float = 1e-12
    log_clamp: float = 1e-8
    coincidence: float = 1e-9
    gram: float = 1e-6
    cmp_rel: float = 1e-8
    chain_slack: float = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    """The search grid of the argmax over the open unit disc.

    The package's own grid, not an option: no public function takes
    one.  maximal_selection scans DEFAULT_SEARCH and poafd_select
    poafd.CAPPED_SEARCH, the same grid capped at 0.95.  The search
    first scans a polar grid (Chebyshev-spaced radii so the crowded
    region near the boundary is resolved), then always polishes the
    best cell by projected Newton ascent on the closed-form gradient
    and Hessian of the selection objective.  The polish accepts only
    steps that raise the objective, so the returned point is never
    worse than the best grid point.  A config is frozen and hashable:
    it is the key of the cached tables built for its grid.

    Attributes
    ----------
    n_angles, n_radii : int
        Polar grid resolution.
    r_max : float
        Radius cap for candidate parameters.  Residual truncation error
        of a sift grows like abs(a)**(2M), so the cap keeps selections
        where the fixed truncation order is trustworthy.  Polish steps
        that leave the cap are projected back onto it.
    """

    n_angles: int = 64
    n_radii: int = 32
    r_max: float = 1.0 - 1e-3


DEFAULT_TOL = Tolerances()
DEFAULT_SEARCH = SearchConfig()
