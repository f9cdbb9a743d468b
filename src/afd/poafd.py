"""Pre-orthogonal AFD over reproducing-kernel coefficient spaces.

Everything lives on truncated coefficient sequences with a weighted
inner product <f, g> = sum_k w_k f_k conj(g_k).  The name of a space
KernelSpace("hardy" | "bergman", order) fixes its weights and kernel:

    Hardy    w_k = 1,        k_a has coefficients conj(a)^k,
    Bergman  w_k = 1/(k+1),  k_a has coefficients (k+1) conj(a)^k,

and both satisfy <f, k_a> = f(a), so every inner product against a
kernel collapses to a point evaluation.  No quadrature anywhere.

The selection maximizes the normalized extension objective

    |<f, B_n^a>|^2 = |r(a)|^2 / (||k_a||^2 - sum_j |B_j(a)|^2)

(r the current residual sequence), which degrades toward the boundary;
the search radius is capped at 0.95.  The denominator is the squared
norm of k_a after projection onto the rows, and one floor, DEFAULT_TOL.gram,
says when it vanishes: selection scores 0 where it is not above gram**2
||k_a||^2, and Gram-Schmidt (_extend) refuses a kernel below gram of its
norm.  So selection does not pick a kernel that Gram-Schmidt refuses,
also where picks cluster around a pole of higher multiplicity.
Selection takes ||k_a||^2 in closed form for the untruncated kernel.
In the Bergman space that exceeds the squared norm of the truncated row
that _extend measures by a share s^(M+1) ((M+2) - (M+1) s), s = |a|^2
(2.7e-5 at |a| = 0.95 and order M = 127), so the two tests part only
near the cap at low order.

In the Hardy space Gram-Schmidt on Szego kernels gives the TM system,
and sum_j |B_j(a)|^2 is the model-space kernel (1 - |Phi(a)|^2)/(1 -
|a|^2), Phi the Blaschke product of the parameters (Beurling-Lax).  The
objective is then (1 - |a|^2)|r(a)/Phi(a)|^2, core AFD's objective on
the sifted remainder, and Hardy POAFD runs core AFD's sift chain with
the radius capped: no rows are built or scanned.

In the Bergman space no such identity holds, and the decomposition
carries orthonormal rows.  Parameter multiplicity is handled with
derivative kernels: the m-th repeat of a contributes (d/d conj(a))^(m-1)
k_a, whose pairing with f reproduces f^(m-1)(a).  The system grows one
row per parameter: a new row never changes the earlier ones.  Since
rows never change, poafd_decompose carries sum_j |B_j|^2 on its search
grid through the run, so every row is scanned once and a selection
scans the residual and the row grown since the last one; poafd_select
scans the rows of the system it is given.  The public
gram_schmidt builds the same rows in the Hardy space too, each turned
onto the phase of its TM function (see _grow), so they can be compared
with the TM system.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .errors import DegenerateGram, InputError, ZeroResidual
from .core_afd import (
    Component,
    Decomposition,
    _greedy,
    _grid_values,
    _hardy_norm2,
    _reduced_without,
    _select,
    core_afd_decompose,
    maximal_selection,
)
from .hardy_atoms import _multiplicity, validate_param
from .signal_core import HardyFunction

__all__ = [
    "KernelSpace",
    "OrthoSystem",
    "hardy_space",
    "bergman_space",
    "kernel",
    "gram_schmidt",
    "poafd_select",
    "multiplicity_limit_check",
    "poafd_decompose",
]

# boundary vanishing makes |<f, B_n^a>| -> 0 as |a| -> 1, so the
# profitable region is compact; documented cap on the selection radius
SELECTION_CAP = 0.95
# the default grid with its radius capped: every POAFD selection scans it
CAPPED_SEARCH = replace(DEFAULT_SEARCH, r_max=SELECTION_CAP)


def _bergman_norm2(s):
    """||k_a||^2 = 1/(1 - s)^2 of the Bergman kernel, s = |a|^2, with d/ds and d2/ds2."""
    u = 1.0 / (1.0 - s)
    return u * u, 2.0 * u**3, 6.0 * u**4


# name -> (kernel coefficient profile base[k] of k, closed-form norm2 rule)
_SPACES = {
    "hardy": (np.ones_like, _hardy_norm2),
    "bergman": (lambda k: k + 1.0, _bergman_norm2),
}


@dataclass(frozen=True, eq=False)
class KernelSpace:
    """The Hardy or Bergman coefficient space of an order, set by its name.

    k_a has coefficients base[k] * conj(a)^k and the weights 1/base[k]
    make <f, k_a> = f(a) hold.  Other names, and an order that is not an
    integer >= 0, are refused (InputError).
    """

    name: str
    order: int
    base: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)
    norm2_rule: object = field(init=False)  # s = |a|^2 -> (||k_a||^2, d/ds, d2/ds2), closed form

    def __post_init__(self):
        if self.name not in _SPACES:
            raise InputError(f"kernel space {self.name!r} is not one of {', '.join(_SPACES)}")
        if isinstance(self.order, bool) or not (isinstance(self.order, (int, np.integer)) and self.order >= 0):
            raise InputError(f"kernel space order wants an integer >= 0, got {self.order!r}")
        profile, rule = _SPACES[self.name]
        object.__setattr__(self, "base", profile(np.arange(self.order + 1, dtype=float)))
        object.__setattr__(self, "weights", 1.0 / self.base)
        object.__setattr__(self, "norm2_rule", rule)

    def inner(self, f, g):
        return complex(np.sum(self.weights * f * np.conj(g)))

    def norm(self, f):
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2)))


@dataclass
class OrthoSystem:
    """Orthonormal rows spanning the kernels of a parameter tuple in space."""

    space: KernelSpace
    params: tuple
    vectors: np.ndarray  # (n, M+1)

    def __len__(self):
        return len(self.params)

    def gram_defect(self):
        """Largest deviation of the Gram matrix in the system's space from the identity."""
        g = (self.vectors * self.space.weights) @ np.conj(self.vectors.T)
        return float(np.max(np.abs(g - np.eye(len(self))), initial=0.0))


def hardy_space(m=511) -> KernelSpace:
    """Hardy coefficient space: flat weights, Szego kernels."""
    return KernelSpace("hardy", m)


def bergman_space(m=511) -> KernelSpace:
    """Weighted Bergman coefficient space: w_k = 1/(k+1)."""
    return KernelSpace("bergman", m)


def _capped(a):
    """a as complex; InputError beyond the radius of CAPPED_SEARCH."""
    a = complex(a)
    if abs(a) > CAPPED_SEARCH.r_max + 1e-12:
        raise InputError(f"kernel parameter |a|={abs(a):.4f} beyond the {CAPPED_SEARCH.r_max} cap")
    return a


def kernel(space: KernelSpace, a, l=1) -> np.ndarray:
    """Reproducing kernel at a, differentiated l-1 times in conj(a).

    Returns the coefficient array base[k] * k(k-1)...(k-l+2) *
    conj(a)^(k-l+1); the pairing <f, kernel(a, l)> reproduces
    f^(l-1)(a).  Derivative kernels grow fast near the boundary, hence
    the 0.95 cap.
    """
    a = _capped(a)
    if l < 1:
        raise InputError("multiplicity order must be >= 1")
    m = space.order
    p = l - 1
    k = np.arange(m + 1, dtype=float)
    seq = np.zeros(m + 1, dtype=complex)
    kk = k[p:]  # empty for l > m + 1, whose kernel is the zero sequence
    falling = np.ones(kk.size)
    for j in range(p):
        falling = falling * (kk - j)
    seq[p:] = space.base[p:] * falling * np.conj(a) ** (kk - p)
    return seq


def _extend(system, raw):
    """Orthogonal complement of raw against the rows of system, in its space.

    Returns the unit vector; DegenerateGram when the normalized residual
    drops below DEFAULT_TOL.gram (numerically dependent set).  Each
    classical Gram-Schmidt pass is one weighted mat-vec pair; the second
    pass keeps the Gram defect at rounding.
    """
    space, vectors = system.space, system.vectors
    u = raw.astype(complex)
    scale = space.norm(u)
    if scale <= 0.0:
        raise DegenerateGram("zero kernel vector")
    wv = np.conj(vectors) * space.weights
    for _ in range(2):
        u = u - (wv @ u) @ vectors
    nrm = space.norm(u)
    if nrm / scale < DEFAULT_TOL.gram:
        raise DegenerateGram(
            f"normalized Gram-Schmidt residual {nrm / scale:.2e} below {DEFAULT_TOL.gram:.0e}"
        )
    return u / nrm


def _grow(system, a):
    """system with one orthonormal row appended for the parameter a.

    The row is the multiplicity-aware kernel at a, orthogonalized
    against the existing rows and normalized.  In the Hardy space it is
    then turned onto the TM function B_n of the parameters: with a of
    multiplicity l, <B_n, row> = B_n^(l-1)(a) / ||u|| (u the row before
    normalizing), a positive multiple of prod (a - b)/(1 - conj(b) a)
    over the earlier parameters b not coincident with a, so the turn is
    that product's unit phase, formed from unit factors so it cannot
    underflow.  Earlier rows are left as they are.  a must already be
    validated.
    """
    space = system.space
    v = _extend(system, kernel(space, a, _multiplicity(system.params, a)))
    if space.name == "hardy":
        turn = 1.0
        for b in system.params:
            if abs(b - a) > DEFAULT_TOL.coincidence:
                w = (a - b) / (1.0 - b.conjugate() * a)
                turn *= w / abs(w)
        v *= turn
    return OrthoSystem(space, system.params + (a,), np.vstack([system.vectors, v]))


def gram_schmidt(space: KernelSpace, params) -> OrthoSystem:
    """Orthonormal system over the (multiplicity-aware) kernel family.

    Repeated parameters contribute derivative kernels of increasing
    order.  The system is grown one parameter at a time, each row
    orthogonalized against the rows before it, so gram_schmidt(params)
    extended by a equals gram_schmidt(params + (a,)).  These rows are
    what Bergman POAFD selects and extracts on.  In the Hardy space,
    where POAFD runs core AFD's sift chain instead, they are the TM
    system truncated to the space's order: each row is turned onto the
    phase of its TM function (see _grow); otherwise the row keeps the
    positive pairing with its kernel that normalization gives.
    """
    params = tuple(validate_param(a) for a in params)
    system = OrthoSystem(space, (), np.zeros((0, space.order + 1), dtype=complex))
    for a in params:
        system = _grow(system, a)
    return system


def poafd_select(f, system: OrthoSystem):
    """Parameter maximizing the next normalized extension coefficient.

    f is the coefficient sequence of the current signal (or its residual
    against the system) in system.space.  The search runs on
    CAPPED_SEARCH, the default grid with its radius capped at 0.95, and
    the pick never scores below the best point of that grid.

    In the Hardy space the objective |r(a)|^2 / (||k_a||^2 - sum_j
    |B_j(a)|^2) equals (1 - |a|^2)|r(a)/Phi(a)|^2, Phi the Blaschke
    product of system.params, since sum_j |B_j(a)|^2 is the model-space
    kernel (1 - |Phi(a)|^2)/(1 - |a|^2).  So f is sifted through the
    parameters with core AFD's step and the pick is maximal_selection's
    on that remainder, the pick of capped core AFD.  In the other spaces
    the residual against the rows is formed in one weighted mat-vec pair
    and scored on the stack [residual, system rows] by the engine greedy
    AFD uses (grid scan, tie-break, projected Newton polish); the scan
    covers the residual and every row of system.

    Raises
    ------
    ZeroResidual
        If the residual norm in the space is not above
        DEFAULT_TOL.zero_residual times the norm of f (an exact zero
        included), so the floor does not depend on the signal's scale.
    """
    space = system.space
    f = _as_sequence(space, f)
    if space.name == "hardy":
        source = HardyFunction(f)
        g = _reduced_without(source, system.params, None)
        return maximal_selection(g, CAPPED_SEARCH, source_norm=source.norm())
    return _select_on_rows(system, f, _scan_rows(system.vectors))


def _scan_rows(rows, total=0.0):
    """total plus sum_j |B_j|^2 over rows on CAPPED_SEARCH, added in row order.

    Rows are summed one at a time, so the sum does not depend on how
    they were split between calls.
    """
    if len(rows):
        for values in _grid_values(rows, CAPPED_SEARCH):
            total = total + np.abs(values) ** 2
    return total


def _select_on_rows(system, f, rows_sq):
    """Pick for f against the rows of system on CAPPED_SEARCH, rows_sq their _scan_rows.

    ZeroResidual unless the residual's space norm is above
    DEFAULT_TOL.zero_residual times the norm of f.
    """
    space, vectors = system.space, system.vectors
    resid = f - ((np.conj(vectors) * space.weights) @ f) @ vectors
    if not space.norm(resid) > DEFAULT_TOL.zero_residual * space.norm(f):
        raise ZeroResidual("residual norm below the selection floor")
    return _select(np.vstack([resid, vectors]), space.norm2_rule, CAPPED_SEARCH, rows_sq=rows_sq)


# the real offsets h that multiplicity_limit_check probes, in decreasing order
MULTIPLICITY_OFFSETS = 2.0 ** -np.arange(4, 11)


def multiplicity_limit_check(space: KernelSpace, params, a_n):
    """Errors ||B_n^(a_n + h) - B_n^(a_n)|| for h in MULTIPLICITY_OFFSETS.

    The offsets are the real h = 2^-m, m = 4..10.  The limit vector
    extends the system with the multiplicity-aware kernel at a_n; the
    probes use plain kernels at the offset points.  A decreasing
    sequence confirms the continuity of the extension through
    coincident parameters.
    """
    system = gram_schmidt(space, params)
    a_n = validate_param(a_n)
    l = _multiplicity(system.params, a_n)
    limit = _extend(system, kernel(space, a_n, l))
    errors = []
    for h in MULTIPLICITY_OFFSETS:
        probe = _extend(system, kernel(space, a_n + float(h), 1))
        errors.append(space.norm(probe - limit))
    return np.array(errors)


def _as_sequence(space, f):
    if isinstance(f, HardyFunction):
        f = f.coefficients
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1 or len(f) > space.order + 1:
        raise InputError(
            f"coefficient sequence of length {len(f)} does not fit order {space.order}"
        )
    if len(f) < space.order + 1:
        f = np.concatenate([f, np.zeros(space.order + 1 - len(f), dtype=complex)])
    return f


def poafd_decompose(
    space: KernelSpace,
    f,
    max_terms=50,
    energy_tol=1e-6,
    forced_params=None,
) -> Decomposition:
    """Greedy kernel decomposition f = sum_n <f, B_n> B_n + remainder.

    In the Hardy space B_n is the TM system of the parameters and the
    selection objective is core AFD's on the sifted remainder (see
    poafd_select), so the run is core_afd_decompose on f with
    CAPPED_SEARCH, the default grid capped at 0.95: picks, coefficients
    and residual trace are capped core AFD's, bit for bit, and
    reconstruct(d) sums the exact TM functions they belong to.  Forced
    parameters beyond the cap are refused before the run (InputError),
    with kernel's message.  No caller picks the grid.

    In the other spaces each selection grows the orthonormal system by
    one row (see gram_schmidt), so the multiplicity rule holds no matter
    how the parameters arrived, and earlier rows and coefficients stay
    as they were.  Only the new coefficient <f, B_n> is computed, and
    the remainder sequence loses its rank-one term.  Selection is
    poafd_select's, with the rows' sum_j |B_j|^2 on the capped grid
    carried through the run, so each row is scanned once; it sees the
    source f, so its floor is relative to the signal.  Residual energies
    use the space norm of the explicit remainder sequence.

    The run stops by the rule of core_afd._greedy; meta records the
    space name and order.
    ZeroSignal for a zero f, NonFiniteEnergy if its energy overflows.
    """
    f = _as_sequence(space, f)
    if space.name == "hardy":
        if forced_params is not None:
            forced_params = [_capped(validate_param(a)) for a in forced_params]
        d = core_afd_decompose(HardyFunction(f), max_terms, energy_tol, CAPPED_SEARCH, forced_params)
    else:
        system = gram_schmidt(space, ())
        resid = f.copy()
        rows_sq = 0.0

        def step(a):
            nonlocal system, resid, rows_sq
            if a is None:
                # every step of a run selects or none does, so the row the
                # last step grew is the only one missing from the sum
                rows_sq = _scan_rows(system.vectors[-1:], rows_sq)
                a = _select_on_rows(system, f, rows_sq)
            system = _grow(system, a)
            v = system.vectors[-1]
            c = space.inner(f, v)
            resid -= c * v
            return Component(a=a, c=c), space.norm(resid) ** 2

        d, _ = _greedy(lambda: space.norm(f) ** 2, max_terms, energy_tol, step, forced_params)
    d.meta = {"space": space.name, "order": space.order}
    return d
