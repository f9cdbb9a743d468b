"""Pre-orthogonal AFD over reproducing-kernel coefficient spaces.

Everything lives on truncated coefficient sequences with a weighted
inner product <f, g> = sum_k w_k f_k conj(g_k).  A space is fixed by
its weights and its kernel rule; the two shipped instances are

    Hardy    w_k = 1,        k_a has coefficients conj(a)^k,
    Bergman  w_k = 1/(k+1),  k_a has coefficients (k+1) conj(a)^k,

and both satisfy <f, k_a> = f(a), so every inner product against a
kernel collapses to a point evaluation.  No quadrature anywhere.

Parameter multiplicity is handled with derivative kernels: the m-th
repeat of a contributes (d/d conj(a))^(m-1) k_a, whose pairing with f
reproduces f^(m-1)(a).  Gram-Schmidt over these spans the same space
a TM chain would, and in the Hardy instance the result is locked,
phase and all, to the classical TM system so that coefficients agree
with the one-by-one greedy machinery.  The system grows one row per
parameter: a new row never changes the earlier ones.

The maximal selection exploits that the normalized extension objective

    |<f, B_n^a>| = |r(a)| / sqrt(||k_a||^2 - sum_j |B_j(a)|^2)

(r the current residual sequence) degrades toward the boundary; the
search radius is capped at 0.95.  Since rows never change, the system
carries sum_j |B_j|^2 on each search grid it was scanned on, so every
row is scanned once and a selection scans the residual and any rows
appended since the last one.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .errors import DegenerateGram, InputError, ZeroResidual
from .core_afd import (
    Component,
    Decomposition,
    _ScanPlan,
    _greedy,
    _grid_values,
    _hardy_norm2,
    _select,
)
from .hardy_atoms import _multiplicity, tm_sweep, validate_param
from .signal_core import HardyFunction

__all__ = [
    "KernelSpace",
    "MultiplicityKernel",
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


@dataclass(frozen=True, eq=False)
class KernelSpace:
    """Weighted coefficient space with a reproducing kernel rule.

    base[k] is the kernel coefficient profile (k_a coefficients are
    base[k] * conj(a)^k) and weights[k] = 1/base[k] makes the
    reproducing identity <f, k_a> = f(a) hold.  reference, when set,
    pins the Gram-Schmidt phases to a conventional orthonormal system,
    one row at a time: reference(state, a, order) returns that system's
    row for a, appended to the parameters that state was carried
    through (None: none yet), and the state carried through a.
    """

    name: str
    weights: np.ndarray
    base: np.ndarray
    norm2_rule: object  # s = |a|^2 -> (||k_a||^2, d/ds, d2/ds2), closed form
    reference: object = None

    @property
    def order(self):
        return len(self.weights) - 1

    def inner(self, f, g):
        return complex(np.sum(self.weights * f * np.conj(g)))

    def norm(self, f):
        return float(np.sqrt(np.sum(self.weights * np.abs(f) ** 2)))


@dataclass(frozen=True)
class MultiplicityKernel:
    """Coefficient sequence of (d/d conj(a))^(order-1) k_a."""

    a: complex
    order: int
    sequence: np.ndarray


@dataclass
class OrthoSystem:
    """Orthonormal rows spanning the kernels of a parameter tuple.

    reference_state is what the space's reference rule carried through
    params (Hardy: the Blaschke prefix on the boundary); None without one.
    grid_sums maps each search grid the rows were scanned on, keyed by
    (n_angles, n_radii, r_max), to (rows covered, sum_j |B_j|^2 over
    them on that grid): one real value per grid point.  An entry is
    replaced, never written in place, so a system grown from this one
    may share its arrays.
    """

    params: tuple
    vectors: np.ndarray  # (n, M+1)
    reference_state: object = None
    grid_sums: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self):
        return len(self.params)

    def grid_sq(self, search):
        """sum_j |B_j|^2 on search's grid, scanning only the rows not yet covered.

        The rows are added in row order, so the sum is bit for bit
        np.sum(np.abs(values) ** 2, axis=0) over one scan of all rows.
        """
        key = (search.n_angles, search.n_radii, search.r_max)
        covered, total = self.grid_sums.get(key, (0, 0.0))
        if covered < len(self):
            for values in _grid_values(self.vectors[covered:], search):
                total = total + np.abs(values) ** 2
            self.grid_sums[key] = (len(self), total)
        return total

    def gram_defect(self, space):
        """Largest deviation of the Gram matrix from the identity."""
        if not len(self):
            return 0.0
        g = (self.vectors * space.weights) @ np.conj(self.vectors.T)
        return float(np.max(np.abs(g - np.eye(len(self)))))


def hardy_space(m=511) -> KernelSpace:
    """Hardy coefficient space: flat weights, Szego kernels."""
    base = np.ones(m + 1)
    return KernelSpace(
        name="hardy",
        weights=np.ones(m + 1),
        base=base,
        norm2_rule=_hardy_norm2,
        reference=_hardy_reference,
    )


def bergman_space(m=511) -> KernelSpace:
    """Weighted Bergman coefficient space: w_k = 1/(k+1)."""
    k = np.arange(m + 1, dtype=float)
    return KernelSpace(
        name="bergman",
        weights=1.0 / (k + 1.0),
        base=k + 1.0,
        norm2_rule=_bergman_norm2,
    )


def _bergman_norm2(s):
    """||k_a||^2 = 1/(1 - s)^2 of the Bergman kernel, s = |a|^2, with d/ds and d2/ds2."""
    u = 1.0 / (1.0 - s)
    return u * u, 2.0 * u**3, 6.0 * u**4


def _hardy_reference(prefix, a, m):
    """TM row of a after the Blaschke prefix, and the prefix times mobius(a).

    prefix holds boundary samples of the Blaschke product of the earlier
    parameters (None: there are none); one tm_sweep step advances a copy
    of it, so a system grown from another leaves the other's prefix as
    it was.  The row is projected to coefficients; its tail beyond order
    m is |a|^m and irrelevant at the phase-alignment accuracy.
    """
    n = 1 << max(4, int(np.ceil(np.log2(2 * (m + 1)))))
    prefix = np.ones(n, dtype=complex) if prefix is None else prefix.copy()
    row = next(tm_sweep((a,), _ScanPlan.circle(n), prefix))
    return (np.fft.fft(row) / n)[: m + 1], prefix


def kernel(space: KernelSpace, a, l=1) -> MultiplicityKernel:
    """Reproducing kernel at a, differentiated l-1 times in conj(a).

    The sequence is base[k] * k(k-1)...(k-l+2) * conj(a)^(k-l+1); the
    pairing <f, kernel(a, l)> reproduces f^(l-1)(a).  Derivative
    kernels grow fast near the boundary, hence the 0.95 cap.
    """
    a = complex(a)
    if abs(a) > SELECTION_CAP + 1e-12:
        raise InputError(f"kernel parameter |a|={abs(a):.4f} beyond the 0.95 cap")
    if l < 1:
        raise InputError("multiplicity order must be >= 1")
    m = space.order
    p = l - 1
    k = np.arange(m + 1, dtype=float)
    seq = np.zeros(m + 1, dtype=complex)
    falling = np.ones(m + 1 - p)
    kk = k[p:]
    for j in range(p):
        falling = falling * (kk - j)
    seq[p:] = space.base[p:] * falling * np.conj(a) ** (kk - p)
    return MultiplicityKernel(a=a, order=l, sequence=seq)


def _extend(space, vectors, raw):
    """Orthogonal complement of raw against the rows of vectors.

    Returns (unit vector, residual norm); DegenerateGram when the
    normalized residual drops below DEFAULT_TOL.gram (numerically
    dependent set).  Each classical Gram-Schmidt pass is one weighted
    mat-vec pair; the second pass keeps the Gram defect at rounding.
    """
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
    return u / nrm, nrm


def _grow(space, system, a):
    """system with one orthonormal row appended for the parameter a.

    The row is the multiplicity-aware kernel at a, orthogonalized
    against the existing rows and normalized; with a reference rule on
    file (Hardy) it is rotated by a unimodular factor onto the reference
    row, which the rule builds from the state carried in system.
    Earlier rows are left as they are, and the grid sums of system are
    carried over to cover them.  a must already be validated.
    """
    raw = kernel(space, a, _multiplicity(system.params, a)).sequence
    v, _ = _extend(space, system.vectors, raw)
    state = system.reference_state
    if space.reference is not None:
        ref, state = space.reference(state, a, space.order)
        rho = space.inner(ref, v)
        mag = abs(rho)
        if mag > 1e-12:
            v *= rho / mag
    return OrthoSystem(
        params=system.params + (a,),
        vectors=np.vstack([system.vectors, v]),
        reference_state=state,
        grid_sums=dict(system.grid_sums),
    )


def gram_schmidt(space: KernelSpace, params) -> OrthoSystem:
    """Orthonormal system over the (multiplicity-aware) kernel family.

    Repeated parameters contribute derivative kernels of increasing
    order.  The system is grown one parameter at a time, each row
    orthogonalized against the rows before it, so gram_schmidt(params)
    extended by a equals gram_schmidt(params + (a,)).  With a
    conventional reference system on file (Hardy), each row is rotated
    by a unimodular factor to match it; otherwise the usual
    positive-inner-product normalization is kept.
    """
    params = tuple(validate_param(a) for a in params)
    system = OrthoSystem(params=(), vectors=np.zeros((0, space.order + 1), dtype=complex))
    for a in params:
        system = _grow(space, system, a)
    return system


def poafd_select(space: KernelSpace, f, system: OrthoSystem, search=DEFAULT_SEARCH):
    """Parameter maximizing the next normalized extension coefficient.

    f is the coefficient sequence of the current signal; the residual
    against the system is formed internally, in one weighted mat-vec
    pair, so passing either f or its residual selects the same point.
    The selection engine is the one greedy AFD uses (grid scan,
    tie-break, projected Newton polish), run on the stack [residual,
    system rows] with the radius capped at min(search.r_max, 0.95); the
    pick never scores below the best point of that grid.  The grid scan
    covers the residual and the rows system has not yet summed on that
    grid (see OrthoSystem.grid_sq).

    Raises
    ------
    ZeroResidual
        If the residual norm in the space is not above
        DEFAULT_TOL.zero_residual times the norm of f (an exact zero
        included), so the floor does not depend on the signal's scale.
    """
    f = _as_sequence(space, f)
    vectors = system.vectors
    resid = f - ((np.conj(vectors) * space.weights) @ f) @ vectors
    if not space.norm(resid) > DEFAULT_TOL.zero_residual * space.norm(f):
        raise ZeroResidual("residual norm below the selection floor")
    capped = replace(search, r_max=min(search.r_max, SELECTION_CAP))
    return _select(
        np.vstack([resid, vectors]), space.norm2_rule, capped, grid_sq=system.grid_sq(capped)
    )


def multiplicity_limit_check(space: KernelSpace, params, a_n, h_seq=None):
    """Errors ||B_n^(a_n + h) - B_n^(a_n)|| along real offsets h.

    The limit vector extends the system with the multiplicity-aware
    kernel at a_n; the probes use plain kernels at the offset points.
    A decreasing sequence confirms the continuity of the extension
    through coincident parameters.
    """
    if h_seq is None:
        h_seq = 2.0 ** -np.arange(4, 11)
    system = gram_schmidt(space, params)
    a_n = validate_param(a_n)
    l = _multiplicity(system.params, a_n)
    limit, _ = _extend(space, system.vectors, kernel(space, a_n, l).sequence)
    errors = []
    for h in h_seq:
        probe, _ = _extend(
            space, system.vectors, kernel(space, a_n + float(h), 1).sequence
        )
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
    search=DEFAULT_SEARCH,
    forced_params=None,
) -> Decomposition:
    """Greedy kernel decomposition f = sum_n <f, B_n> B_n + remainder.

    Each selection grows the orthonormal system by one row (see
    gram_schmidt), so the multiplicity rule and the Hardy phase
    convention hold no matter how the parameters arrived, and earlier
    rows and coefficients stay as they were.  Only the new coefficient
    <f, B_n> is computed, and the remainder sequence loses its rank-one
    term.  Selection sees the source f, so its floor is relative to the
    signal.  Residual energies use the space norm of the explicit
    remainder sequence; the run stops by the rule of core_afd._greedy.
    kind of every component is "poafd"; meta records the space name.
    ZeroSignal for a zero f, NonFiniteEnergy if its energy overflows.
    """
    f = _as_sequence(space, f)
    system = gram_schmidt(space, ())
    resid = f.copy()

    def step(a):
        nonlocal system, resid
        if a is None:
            a = poafd_select(space, f, system, search)
        system = _grow(space, system, a)
        v = system.vectors[-1]
        c = space.inner(f, v)
        resid -= c * v
        return Component(a=a, c=c, kind="poafd"), space.norm(resid) ** 2

    d, _ = _greedy(lambda: space.norm(f) ** 2, max_terms, energy_tol, step, forced_params)
    d.meta = {"space": space.name, "order": space.order}
    return d
