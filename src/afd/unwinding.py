"""Numerical inner/outer factorization and the unwinding expansions.

A Hardy function factors as f = I * O with I unimodular on the
boundary (inner) and O zero-free in the disc (outer).  The outer
factor is recovered from boundary data alone:

    O = exp(u + iHu),   u = log|f|,

since the modulus of an outer function determines it up to the
canonical positive value at the origin.  The inner factor is then the
boundary quotient f/O; no zeros or singular measures are ever located.

Unwinding expansions peel inner factors before extracting energy.
UWA is the pure recursion: factor f_k = phi_k * psi_k, take the mean
c_k = psi_k(0), and recurse on psi_k - c_k, which vanishes at 0, so
every later inner factor does too; the terms c_k phi_1...phi_k come
out mutually orthogonal.  UWAFD interleaves one maximal sifting step
on each outer factor instead, giving terms (prod I_l) c_k B_k over a
growing TM chain.

Both are one step of the greedy driver core_afd._greedy, built by
_unwind, and differ only in how the step extracts a term from each
outer factor.  Both return the Decomposition record of every
algorithm; each component carries the samples of its cumulative inner
factor in Component.inner.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import DegenerateModulus
from .core_afd import Component, Decomposition, _afd_step, _greedy, reconstruct
from .signal_core import CircularSignal, HardyFunction, _conjugate_real, _padded_n

__all__ = [
    "Factorization",
    "factorize",
    "uwa_decompose",
    "uwafd_decompose",
    "unwinding_reconstruct",
    "front_loading_defect",
]


@dataclass(frozen=True)
class Factorization:
    """Inner boundary samples and outer coefficients with f = I*O.

    consistency is the relative |f|-weighted RMS of |I| - 1 on the
    boundary.  I = f/O holds I*O = f by construction, so the one defect
    left is an inner factor off the circle.  With w = |f|/max|f| it is
    sqrt(mean((w(|I| - 1))^2) / mean(w^2)): the weight keeps near-zero
    samples of f from dominating, and dividing by the peak keeps it
    from underflowing on tiny signals.
    """

    inner: CircularSignal
    outer: HardyFunction
    consistency: float


def _outer_factor(f_boundary: CircularSignal) -> HardyFunction:
    """Outer factor from boundary moduli, normalized with O(0) > 0.

    Clamps |f| below at 1e-8 * max|f| before taking logs; boundary
    zeros have measure zero and do not affect the outer integral in
    exact arithmetic, but the discrete log must not blow up.  Every
    floor is relative to max|f|, so scaling f scales O and nothing
    else.

    Raises
    ------
    DegenerateModulus
        If max|f| is zero or not finite, or more than 1% of samples
        sit below the clamp floor (the log integral is then dominated
        by the regularization, not the data).
    """
    mod = np.abs(f_boundary.samples)
    peak = float(mod.max())
    if not (np.isfinite(peak) and peak > 0.0):
        raise DegenerateModulus("signal is numerically zero")
    floor = DEFAULT_TOL.log_clamp * peak
    clamped = np.maximum(mod, floor)
    if np.count_nonzero(mod < floor) > 0.01 * mod.size:
        raise DegenerateModulus("modulus below floor on more than 1% of samples")
    # on the circle O = exp(u + iHu) = |f| e^{iHu}: the clamped modulus
    # times cos and sin of Hu, so the log is never exponentiated back
    hu = _conjugate_real(np.log(clamped))
    boundary = np.empty(mod.size, dtype=complex)
    np.multiply(clamped, np.cos(hu), out=boundary.real)
    np.multiply(clamped, np.sin(hu), out=boundary.imag)
    # O has no negative frequencies; their bins are alias noise
    return HardyFunction(np.fft.fft(boundary, norm="forward")[: mod.size // 2])


def _inner_factor(f_boundary: CircularSignal, outer: HardyFunction) -> CircularSignal:
    """Boundary quotient I = f / O; unimodular where the data is honest.

    Raises DegenerateModulus where |O| drops below near_zero times its
    own peak on the grid.
    """
    o = outer.boundary(f_boundary.n).samples
    mod = np.abs(o)
    peak = mod.max()
    if not peak > 0.0 or (mod < DEFAULT_TOL.near_zero * peak).any():
        raise DegenerateModulus("outer factor vanishes on the boundary grid")
    return CircularSignal(f_boundary.samples / o)


def factorize(f_boundary: CircularSignal) -> Factorization:
    """Inner/outer split of boundary data; see _outer_factor for errors.

    _outer_factor refuses a boundary without a positive finite peak, so
    the weight w of Factorization.consistency peaks at exactly 1.
    """
    outer = _outer_factor(f_boundary)
    inner = _inner_factor(f_boundary, outer)
    w = np.abs(f_boundary.samples)
    w /= w.max()
    defect = np.abs(inner.samples)
    defect -= 1.0
    defect *= w
    return Factorization(inner, outer, float(np.sqrt(np.mean(defect**2) / np.mean(w**2))))


def front_loading_defect(f: HardyFunction, outer: HardyFunction):
    """Worst tail-energy excess of the outer factor over the signal.

    Minimum-phase energy front loading says every coefficient tail of
    the outer factor is no heavier than the same tail of f:
    sum_{k>=n} |d_k|^2 <= sum_{k>=n} |c_k|^2 for all n >= 1.  Returns
    max_n (outer tail - f tail); at or below rounding scale when the
    property holds.  The n = 0 tails are whole norms and compare
    factorization accuracy rather than front loading, so they are
    skipped; a constant f has no other tail, and its defect is 0.
    """
    if f.order == 0:
        return 0.0
    c = f.coefficients
    d = outer.truncated(f.order).coefficients
    tail_c = np.cumsum(np.abs(c[::-1]) ** 2)[::-1]
    tail_d = np.cumsum(np.abs(d[::-1]) ** 2)[::-1]
    return float(np.max(tail_d[1:] - tail_c[1:]))


def _unwind(f: HardyFunction, max_terms, energy_tol, extract) -> Decomposition:
    """The unwinding recursion shared by UWA and UWAFD, run by _greedy.

    Each step factors f_k = I_k O_k and hands extract the outer factor
    truncated to f's order; extract selects its own parameter and
    returns (a, c, f_{k+1}).  The term is recorded as a Component
    whose inner holds the samples of I_1...I_k.
    Besides the shared stopping rule, the recursion ends, naming the
    reason in meta["stopped"], when a remainder cannot be factored.
    """
    # log|f| is not band limited even for polynomial f; sampling f on _padded_n is exact
    n = _padded_n(f.coefficients.size)
    meta = {"n": n, "factor_consistency": [], "front_loading": []}
    f_k = f
    cumulative = np.ones(n, dtype=complex)

    def step(_a):
        nonlocal f_k, cumulative
        fac = factorize(f_k.boundary(n))
        # the outer factor of an order-M polynomial free of boundary
        # zeros is again order M; truncation only sheds alias noise
        outer = fac.outer.truncated(f.order)
        a, c, f_next = extract(outer)
        meta["factor_consistency"].append(fac.consistency)
        meta["front_loading"].append(front_loading_defect(f_k, outer))
        # a new array each step, so no stored inner is written again
        cumulative = cumulative * fac.inner.samples
        f_k = f_next
        return Component(a=a, c=c, inner=cumulative), f_k.energy()

    d, meta["stopped"] = _greedy(f.energy, max_terms, energy_tol, step)
    d.meta = meta
    return d


def uwa_decompose(f: HardyFunction, max_terms) -> Decomposition:
    """Pure unwinding recursion, up to max_terms factorization steps.

    Step k: factor f_k = phi_k psi_k, record c_k = psi_k(0), the
    constant coefficient of psi_k, and recurse on psi_k - c_k.  The
    partial sums sum c_k phi_1...phi_k are orthogonal because every
    inner factor after the first vanishes at 0, so the residual energy
    equals ||f||^2 - sum |c_k|^2 up to factorization error.

    Stops early once the residual falls below the residual floor, or
    with a diagnostic if a residual becomes degenerate (numerically zero
    or massively clamped).  Components have a = None.  ZeroSignal for
    a zero f, NonFiniteEnergy if its energy overflows.
    """

    def extract(psi):
        c = complex(psi.coefficients[0])
        rest = psi.coefficients.copy()
        rest[0] -= c
        return None, c, HardyFunction(rest)

    return _unwind(f, max_terms, 0.0, extract)


def uwafd_decompose(f: HardyFunction, max_terms=50, energy_tol=1e-6) -> Decomposition:
    """Unwinding interleaved with maximal sifting.

    Step k: factor f_k = I_k O_k, select a_k maximally on O_k, extract
    c_k = <O_k, e_{a_k}>, and recurse on the reduced remainder of O_k:
    the core AFD step, whose maximal_selection scans the package's grid.
    The k-th term is (prod_{l<=k} I_l) c_k B_k with B_k the TM chain
    over a_1..a_k; the residual norm equals the remainder norm because
    all the accumulated factors are unimodular.

    Stops by the residual floor of core_afd._greedy, as core AFD does,
    or, naming the reason in meta["stopped"], when a remainder cannot
    be factored.  ZeroSignal for a zero f, NonFiniteEnergy if its
    energy overflows.
    """
    return _unwind(f, max_terms, energy_tol, lambda outer: _afd_step(outer, None))


def unwinding_reconstruct(u: Decomposition) -> CircularSignal:
    """reconstruct(u, n) on the meta["n"] grid of the inner factors, the only n it takes."""
    return reconstruct(u, u.meta["n"])
