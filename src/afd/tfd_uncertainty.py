"""Dirac-type time-frequency distributions and the uncertainty bounds.

A decomposition f = sum_k c_k B_k carries a natural time-frequency
picture: each component contributes the weighted delta line

    P_k(t, omega) = rho_k^2(t) * delta(omega - theta_k'(t)),

with rho_k = |c_k B_k(e^{it})| and theta_k' the boundary phase
derivative of B_k.  Nothing is windowed and nothing interferes; the
distribution is a bunch of weighted curves, one per component.  The
phase derivative Re{ z B_k'(z) / B_k(z) }, z = e^{it}, is taken in its
Poisson form

    theta_k'(t) = sum_{l<k} P_{a_l}(t) + (P_{a_k}(t) - 1)/2,

P_a the Poisson kernel of a, which tm_sweep (hardy_atoms) yields
alongside B_k; finite differences of unwrapped phase appear only in
tests.  Each sum term is positive, so theta_k' > -1/2 everywhere.  An
unwinding term adds the phase derivative of its inner factor, known
by samples and differentiated spectrally.

The real-line half computes both sides of the extra-strong
uncertainty inequality

    sigma_t^2 sigma_omega^2 >= 1/4 + ( int |t - <t>| |phi - <omega>| f^2 dt )^2

and Cohen's weaker variant with the absolute value outside the
integral, using the phase derivative phi of the discrete analytic
signal.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .core_afd import _circle_terms
from .errors import InputError, NonRealInput, NonUniformGrid, TailEnergy, ZeroSignal
from .signal_core import _check_finite

__all__ = [
    "ComponentTFD",
    "UncertaintyReport",
    "dirac_tfd",
    "unwinding_tfd",
    "uncertainty_report",
]


@dataclass(frozen=True)
class ComponentTFD:
    """The delta line of one component, sampled along the time grid.

    Scanning over t, the component contributes the atom
    (t, omega(t), weight(t)).
    """

    index: int
    a: object  # component parameter, None for pure unwinding terms
    c: complex
    t: np.ndarray
    omega: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class UncertaintyReport:
    sigma_t2: float
    sigma_w2: float
    mean_t: float
    mean_w: float
    extra_bound: float
    cohen_bound: float

    @property
    def product(self):
        return self.sigma_t2 * self.sigma_w2

    @property
    def chain_ok(self):
        """product >= extra >= cohen >= 1/4, with discretization slack.

        The top link gets 2% relative slack: near-minimizers (the
        Gaussian) sit at equality and the discrete analytic-signal
        phase of a non-oscillatory pulse wobbles at that scale.  The
        lower links are quadrature-exact and get absolute floors only.
        """
        slack = DEFAULT_TOL.chain_slack
        return (
            self.product >= 0.98 * self.extra_bound - slack
            and self.extra_bound >= self.cohen_bound - 1e-9
            and self.cohen_bound >= 0.25 - slack
        )


def dirac_tfd(d, grid=512):
    """Per-component delta lines of a decomposition.

    grid is either a sample count >= 1 (uniform on [0, 2pi); a 0-d
    array too) or an explicit array of times; the closed forms hold
    pointwise, so any grid works.  A term with a parameter has weight
    |c_k B_k|^2 and frequency theta_k', both from one tm_sweep.  A term with an inner
    factor (unwinding) adds the spectral phase derivative of its
    samples and takes the factor as unimodular in its weight (|c_k|^2
    for a UWA term).  Records are read by core_afd._circle_terms and
    refused (InputError) by its rule.
    """
    t, terms = _circle_terms(d, grid, phase=True)
    out = []
    for k, (comp, term) in enumerate(zip(d.components, terms), start=1):
        if term is None:
            omega = _spectral_phase_derivative(comp.inner)
            weight = np.full(len(t), abs(comp.c) ** 2)
        else:
            b_k, omega = term
            weight = np.abs(comp.c * b_k) ** 2
            if comp.inner is not None:
                omega = _spectral_phase_derivative(comp.inner) + omega
        out.append(ComponentTFD(index=k, a=comp.a, c=comp.c, t=t, omega=omega, weight=weight))
    return out


def _spectral_phase_derivative(samples):
    # theta' = Im(conj(I) dI/dt) for unimodular samples, by FFT derivative
    n = len(samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    dI = np.fft.ifft(1j * k * np.fft.fft(samples))
    return np.imag(np.conj(samples) * dI)


def unwinding_tfd(u):
    """dirac_tfd(u) on the meta["n"] grid of the inner factors."""
    return dirac_tfd(u, grid=u.meta["n"])


def uncertainty_report(s, t) -> UncertaintyReport:
    """Both uncertainty bounds for a real signal on a uniform time grid.

    The signal is normalized to unit energy internally.  phi is the
    instantaneous frequency of the discrete analytic signal (one-sided
    spectrum); the frequency variance integrates |f'|^2 spectrally.
    Quadrature is the plain Riemann sum the uniform grid affords.

    Raises
    ------
    InputError    unless s and t are 1-d, alike and hold two samples;
    NonUniformGrid  unless the times step uniformly upward;
    NonFiniteEnergy  if a sample is nan or infinite;
    NonRealInput  if s has imaginary content above DEFAULT_TOL.realness
                  of its peak;
    TailEnergy    if the outer sixteenth of the grid on either end
                  holds at least 1e-6 of the energy (the derivative
                  and analytic signal assume the support is inside);
    ZeroSignal    for an identically zero signal.
    """
    s = np.asarray(s)
    t = np.asarray(t, dtype=float)
    if s.shape != t.shape or s.ndim != 1 or len(t) < 2:
        raise InputError("signal and grid must be 1-d arrays of equal length, two at least")
    _check_finite(s, "uncertainty_report")
    if np.max(np.abs(np.imag(s))) > DEFAULT_TOL.realness * max(np.max(np.abs(s)), 1e-300):
        raise NonRealInput("uncertainty bounds are stated for real signals")
    s = np.real(s).astype(float)
    dt = t[1] - t[0]
    if not dt > 0 or np.max(np.abs(np.diff(t) - dt)) > DEFAULT_TOL.grid_uniform * dt:
        raise NonUniformGrid("time grid must be uniform and increasing")
    energy = float(np.sum(s**2) * dt)
    if energy <= 0.0:
        raise ZeroSignal("zero signal")
    f = s / np.sqrt(energy)
    n = len(f)
    edge = max(n // 16, 1)
    w2 = f**2 * dt
    tail = float(np.sum(w2[:edge]) + np.sum(w2[-edge:]))
    if tail >= 1e-6:
        raise TailEnergy(f"boundary energy {tail:.2e} outside the trusted window")

    mean_t = float(np.sum(t * w2))
    sigma_t2 = float(np.sum((t - mean_t) ** 2 * w2))

    freq = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    fhat = np.fft.fft(f)
    df = np.real(np.fft.ifft(1j * freq * fhat))
    sigma_w2 = float(np.sum(df**2) * dt)

    # analytic signal on the line: one-sided spectrum, DC kept once
    mask = np.zeros(n)
    mask[0] = 1.0
    mask[1 : (n + 1) // 2] = 2.0
    if n % 2 == 0:
        mask[n // 2] = 1.0
    zsig = np.fft.ifft(mask * fhat)
    dz = np.fft.ifft(1j * freq * mask * fhat)
    mod2 = np.abs(zsig) ** 2
    phi = np.zeros(n)
    ok = mod2 > 1e-12 * mod2.max()
    phi[ok] = np.imag(np.conj(zsig[ok]) * dz[ok]) / mod2[ok]

    mean_w = float(np.sum(phi * w2))
    dev_t = np.abs(t - mean_t)
    dev_w = phi - mean_w
    extra = 0.25 + float(np.sum(dev_t * np.abs(dev_w) * w2)) ** 2
    cohen = 0.25 + abs(float(np.sum((t - mean_t) * dev_w * w2))) ** 2
    return UncertaintyReport(
        sigma_t2=sigma_t2,
        sigma_w2=sigma_w2,
        mean_t=mean_t,
        mean_w=mean_w,
        extra_bound=extra,
        cohen_bound=cohen,
    )
