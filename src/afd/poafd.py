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
with the one-by-one greedy machinery.

The maximal selection exploits that the normalized extension objective

    |<f, B_n^a>| = |r(a)| / sqrt(||k_a||^2 - sum_j |B_j(a)|^2)

(r the current residual sequence) degrades toward the boundary; the
search radius is capped at 0.95.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .errors import DegenerateGram, InputError, ZeroResidual
from .core_afd import Component, Decomposition, _hardy_norm2, _select, _selection_scores
from .hardy_atoms import multiplicities, tm_system_boundary, validate_param
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
    returns the conventional orthonormal system for a parameter tuple
    and pins the Gram-Schmidt phases to it.
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
    """Orthonormal rows spanning the kernels of a parameter tuple."""

    params: tuple
    vectors: np.ndarray  # (n, M+1)

    def __len__(self):
        return len(self.params)

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


def _hardy_reference(params, m):
    # classical TM system, projected to coefficients; the tail beyond
    # order m is |a|^m and irrelevant at the phase-alignment accuracy
    n = 1 << max(4, int(np.ceil(np.log2(2 * (m + 1)))))
    rows = tm_system_boundary(params, n)
    return (np.fft.fft(rows, axis=1) / n)[:, : m + 1]


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


def _extend(space, vectors, raw, normalize=True):
    """Orthogonal complement of raw against the rows of vectors.

    Returns (unit vector, residual norm); DegenerateGram when the
    normalized residual drops below 1e-6 (numerically dependent set).
    """
    u = raw.astype(complex).copy()
    scale = space.norm(u)
    if scale <= 0.0:
        raise DegenerateGram("zero kernel vector")
    for v in vectors:
        u -= space.inner(u, v) * v
    # one reorthogonalization pass keeps the Gram defect at rounding
    for v in vectors:
        u -= space.inner(u, v) * v
    nrm = space.norm(u)
    if nrm / scale < 1e-6:
        raise DegenerateGram(
            f"normalized Gram-Schmidt residual {nrm / scale:.2e} below 1e-6"
        )
    return (u / nrm if normalize else u), nrm


def gram_schmidt(space: KernelSpace, params) -> OrthoSystem:
    """Orthonormal system over the (multiplicity-aware) kernel family.

    Repeated parameters contribute derivative kernels of increasing
    order.  With a conventional reference system on file (Hardy), each
    vector is rotated by a unimodular factor to match it; otherwise
    the usual positive-inner-product normalization is kept.
    """
    params = tuple(validate_param(a) for a in params)
    mult = multiplicities(params)
    vectors = np.zeros((len(params), space.order + 1), dtype=complex)
    for i, (a, l) in enumerate(zip(params, mult)):
        raw = kernel(space, a, int(l)).sequence
        v, _ = _extend(space, vectors[:i], raw)
        vectors[i] = v
    if space.reference is not None and len(params):
        ref = space.reference(params, space.order)
        for i in range(len(params)):
            rho = space.inner(ref[i], vectors[i])
            mag = abs(rho)
            if mag > 1e-12:
                vectors[i] *= rho / mag
    return OrthoSystem(params=params, vectors=vectors)


def _selection_objective(space, pts, values):
    """|<r, B_n^a>|^2 at each probe; 0 where the extension degenerates.

    values[0] holds r(a) and values[1:] the system rows B_j(a) at the
    probes pts, i.e. the values of np.vstack([r, system.vectors]).
    """
    return _selection_scores(space.norm2_rule, pts, values)


def poafd_select(space: KernelSpace, f, system: OrthoSystem, search=DEFAULT_SEARCH):
    """Parameter maximizing the next normalized extension coefficient.

    f is the coefficient sequence of the current signal; the residual
    against the system is formed internally, so passing either f or
    its residual selects the same point.  The selection engine is the
    one greedy AFD uses (grid scan, tie-break, projected Newton
    polish), run on the stack [residual, system rows] with the radius
    capped at min(search.r_max, 0.95); the pick never scores below the
    best point of that grid.

    Raises
    ------
    ZeroResidual
        If the residual norm in the space is below 1e-12.
    """
    f = _as_sequence(space, f)
    resid = f.copy()
    for v in system.vectors:
        resid -= space.inner(f, v) * v
    if space.norm(resid) < 1e-12:
        raise ZeroResidual("norm below selection floor")
    capped = replace(search, r_max=min(search.r_max, SELECTION_CAP))
    return _select(np.vstack([resid, system.vectors]), space.norm2_rule, capped)


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
    l = int(multiplicities(tuple(params) + (a_n,))[-1])
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

    After each selection the whole system is rebuilt by Gram-Schmidt
    (cheap at these orders) so the multiplicity rule and the Hardy
    phase convention hold no matter how the parameters arrived.
    Residual energies use the space norm of the explicit remainder
    sequence.  kind of every component is "poafd"; meta records the
    space name.
    """
    f = _as_sequence(space, f)
    source = space.norm(f) ** 2
    if source <= 0.0:
        raise ZeroResidual("zero signal")
    params = []
    components = []
    residuals = [source]
    system = OrthoSystem(params=(), vectors=np.zeros((0, space.order + 1), complex))
    resid = f.copy()
    for k in range(max_terms):
        if residuals[-1] / source < max(energy_tol, DEFAULT_TOL.residual_floor):
            break
        if forced_params is not None:
            if k >= len(forced_params):
                break
            a = validate_param(forced_params[k])
        else:
            try:
                a = poafd_select(space, resid, system, search)
            except ZeroResidual:
                break
        params.append(a)
        system = gram_schmidt(space, tuple(params))
        coeffs = np.array([space.inner(f, v) for v in system.vectors])
        resid = f - coeffs.T @ system.vectors
        components = [
            Component(a=p, c=complex(c), kind="poafd")
            for p, c in zip(params, coeffs)
        ]
        residuals.append(space.norm(resid) ** 2)
    return Decomposition(
        components=components,
        residual_energy=np.array(residuals),
        source_energy=source,
        meta={"space": space.name, "order": space.order},
    )
