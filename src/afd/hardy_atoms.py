"""Szego kernels, Mobius factors, and Takenaka-Malmquist systems.

The TM system generated by parameters a_1, a_2, ... inside the disc is

    B_k(z) = sqrt(1 - |a_k|^2)/(1 - conj(a_k) z) * prod_{l<k} (z - a_l)/(1 - conj(a_l) z),

orthonormal in H^2 even when parameters repeat.  With all parameters
zero it degenerates to the monomials z^{k-1}, so everything built on
it contains ordinary Fourier series as the special case.

Boundary evaluation always uses the closed-form product; quadrature
never enters these formulas.  tm_sweep holds them, together with the
Poisson form of the boundary phase derivative, and every consumer of
the system (synthesis, the coefficient cross-check, the
time-frequency lines) reads B_k from it.  POAFD needs no boundary
samples: its Hardy rows take the TM phase from the Blaschke product of
the earlier parameters at the new one (poafd._grow).
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import ParamOutOfDisc
from .signal_core import (
    CircularSignal,
    _check_count,
    _check_finite,
    analytic_signal,
    circle_grid,
    phase_derivative,
    to_hardy,
)

__all__ = [
    "validate_param",
    "szego_kernel",
    "mobius",
    "tm_sweep",
    "tm_system_boundary",
    "MonocompReport",
    "monocomp_check",
]


def validate_param(a):
    """Require a strictly inside the disc; returns a as complex.

    Raises ParamOutOfDisc unless |a| <= 1 - DEFAULT_TOL.param_boundary,
    so also for a NaN part.
    """
    a = complex(a)
    if not abs(a) <= 1.0 - DEFAULT_TOL.param_boundary:
        raise ParamOutOfDisc(
            f"|a| = {abs(a):.12f} is not inside the disc |a| <= 1 - {DEFAULT_TOL.param_boundary:g}"
        )
    return a


def _coincident(a, b):
    """The one coincidence rule of pole parameters: |b - a| <= DEFAULT_TOL.coincidence."""
    return abs(b - a) <= DEFAULT_TOL.coincidence


def _multiplicity(params, a):
    """Occurrence count of a appended to params: 1 + its _coincident entries there."""
    return 1 + sum(1 for b in params if _coincident(a, b))


def _kernel_and_mobius(a, z):
    """(e_a(z), mobius(a, z)) for a validated a and an array z.

    Both are quotients over the one denominator 1 - conj(a) z, formed
    once; szego_kernel, mobius and the sift read them from here.
    """
    den = 1.0 - np.conj(a) * z
    return np.sqrt(1.0 - abs(a) ** 2) / den, (z - a) / den


def szego_kernel(a, z):
    """Normalized Szego kernel e_a(z) = sqrt(1-|a|^2)/(1 - conj(a) z)."""
    val, _ = _kernel_and_mobius(validate_param(a), np.asarray(z, dtype=complex))
    return val if val.ndim else complex(val)


def mobius(a, z):
    """Disc automorphism (z - a)/(1 - conj(a) z); unimodular for |z| = 1."""
    _, val = _kernel_and_mobius(validate_param(a), np.asarray(z, dtype=complex))
    return val if val.ndim else complex(val)


def tm_sweep(params, z, phase=False):
    """Walk the TM system of params at the points z, one parameter a step.

    Step k yields B_k(z) = e_{a_k}(z) * prefix and then carries the
    Blaschke prefix on as prefix * mobius(a_k, z), each factor formed
    by the operations of _kernel_and_mobius in their order, so the
    values match those products bit for bit.  With phase=True,
    z = e^{it} on the circle, step k yields (B_k, theta_k') with the
    boundary phase derivative of B_k in its Poisson form

        theta_k'(t) = sum_{l<k} P_{a_l}(t) + (P_{a_k}(t) - 1)/2,
        P_a(t) = (1 - |a|^2) / |1 - conj(a) e^{it}|^2,

    the Szego factor contributing (P_a - 1)/2 and each Mobius factor
    P_a; each P_a is positive with mean 1, and exactly 1 at a = 0.

    The yielded B_k is a work array that the next step overwrites, so
    the sweep holds only the prefix and two arrays of z's shape: copy
    B_k to keep it.
    """
    z = np.asarray(z, dtype=complex)
    prefix = np.ones(z.shape, dtype=complex)
    b = np.empty(z.shape, dtype=complex)
    m = np.empty(z.shape, dtype=complex)
    poisson_sum = 0.0
    for a in params:
        a = validate_param(a)
        s = abs(a) ** 2
        np.subtract(1.0, np.multiply(np.conj(a), z, out=b), out=b)
        np.divide(np.subtract(z, a, out=m), b, out=m)  # mobius(a, z)
        if phase:
            p = (1.0 - s) / (b.real**2 + b.imag**2)
            theta = poisson_sum + (p - 1.0) / 2.0
            poisson_sum = poisson_sum + p
        np.divide(np.sqrt(1.0 - s), b, out=b)  # szego_kernel(a, z)
        b *= prefix
        prefix *= m
        yield (b, theta) if phase else b


def tm_system_boundary(params, n):
    """Boundary samples of B_1..B_len(params) on the n-point grid.

    Returns an array of shape (len(params), n), one tm_sweep step a row.
    """
    _check_count("n", n)
    out = np.empty((len(params), n), dtype=complex)
    for row, b in zip(out, tm_sweep(params, np.exp(1j * circle_grid(n)))):
        row[:] = b
    return out


@dataclass(frozen=True)
class MonocompReport:
    """Phase-derivative screening of a real signal across radii.

    min_phase_derivative and fraction_negative refer to the largest
    radius probed; min_per_radius records the whole sweep so the
    approach to the boundary can be inspected.
    """

    radii: np.ndarray
    min_per_radius: np.ndarray
    min_phase_derivative: float
    fraction_negative: float

    @property
    def passed(self):
        return self.fraction_negative == 0.0


# the circles monocomp_check probes, approaching the boundary in increasing order
MONOCOMP_RADII = 1.0 - 2.0 ** (-np.arange(4, 13))


def monocomp_check(s: CircularSignal) -> MonocompReport:
    """Probe whether s behaves like a mono-component.

    Evaluates the phase derivative of the analytic signal of s on
    circles approaching the boundary (MONOCOMP_RADII: radii 1 - 2^{-m},
    m = 4..12) and reports the minimum on the outermost circle plus
    the fraction of samples below -1e-6 there.  A mono-component has
    fraction zero; an outer-type signal shows genuinely negative
    values whose integral cancels.  Complex samples (a Blaschke
    product on the boundary, say) are projected onto their Hardy part
    instead of going through the analytic-signal map.  NonFiniteEnergy
    if a sample is nan or infinite.
    """
    _check_finite(s.samples, "monocomp_check")
    if s.is_real():
        f = analytic_signal(s)
    else:
        f, _ = to_hardy(s)
    mins = np.empty(MONOCOMP_RADII.size)
    for i, r in enumerate(MONOCOMP_RADII):
        # the loop ends on the outermost circle, whose values are reported
        outer = phase_derivative(f, r, s.n)
        mins[i] = float(np.min(outer))
    frac = float(np.mean(outer < -1e-6))
    return MonocompReport(
        radii=MONOCOMP_RADII.copy(),
        min_per_radius=mins,
        min_phase_derivative=float(outer.min()),
        fraction_negative=frac,
    )
