"""Sampled signals on the unit circle and their basic transforms.

A signal lives on the uniform grid t_j = 2*pi*j/N, any N >= 8.
Discrete Fourier analysis uses the 1/N convention (numpy's
norm="forward"; the scaling is exact on power-of-two grids and
rounding-level elsewhere), so the coefficient array of a signal
matches the integral coefficients c_k = (1/2pi) int s(t) e^{-ikt} dt
and the squared circle norm is the plain mean of |s|^2.

The circular Hilbert transform is the Fourier multiplier -i*sgn(k) with
sgn(0) = 0.  That convention makes the transform blind to means, so the
Bedrosian residual is computed modulo the mean of rho*sin(theta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    InputError,
    NearZeroModulus,
    NonFiniteEnergy,
    NonRealInput,
    ParamOutOfDisc,
    PhaseUnresolved,
)

__all__ = [
    "CircularSignal",
    "HardyFunction",
    "circle_grid",
    "hilbert_transform",
    "analytic_signal",
    "to_hardy",
    "phase_amplitude",
    "phase_derivative",
    "bedrosian_check",
]


def _check_count(name, n, least=0):
    """InputError naming name unless n is a Python or numpy integer >= least, not a bool.

    The one rule for every count, grid size and order of the package and
    the afd command line; a plain int passes at the first comparison.
    """
    if type(n) is int and n >= least:
        return
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise InputError(f"{name} wants an integer >= {least}, got {n!r}")


def _check_tolerance(name, tol):
    """InputError naming name unless tol is a finite Python or numpy real >= 0, not a bool."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)) or not 0 <= tol < math.inf:
        raise InputError(f"{name} wants a finite value >= 0, got {tol!r}")


_LEAST_SAMPLES = 8  # the fewest samples a CircularSignal holds


def circle_grid(n):
    """Uniform angles t_j = 2*pi*j/n, j = 0..n-1; n is a count >= 0."""
    _check_count("n", n)
    return 2.0 * np.pi * np.arange(n) / n


# power-table entries per block of series_values: 2**14 complex128 = 256 KB
_SERIES_BLOCK = 1 << 14


def _power_table(z, m1):
    """The (m1, len(z)) table of z^0, z^1, ..., z^(m1-1) at the points z, a running product."""
    powers = np.empty((m1, len(z)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = z
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    return powers


def series_values(coeffs, z):
    """Values of sum_k c_k z^k at every point of z, in power form.

    coeffs holds one series (M+1,) or a stack of series (R, M+1); the
    result has shape z.shape or (R,) + z.shape.  The coefficient matrix
    multiplies the _power_table of a block of points at a time, so its
    memory stays bounded.
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    pts = z.ravel()
    m1 = c.shape[-1]
    out = np.empty(c.shape[:-1] + pts.shape, dtype=complex)
    step = max(1, _SERIES_BLOCK // m1)
    for lo in range(0, pts.size, step):
        out[..., lo : lo + step] = c @ _power_table(pts[lo : lo + step], m1)
    return out.reshape(c.shape[:-1] + z.shape)


def _boundary_n(m1):
    """HardyFunction.boundary's default grid for m1 coefficients: the smallest power of two >= max(2*m1, 8)."""
    return 1 << max(3, int(np.ceil(np.log2(2 * m1))))


def _padded_n(m1):
    """The grid for products of m1-coefficient signals that are not band limited."""
    return max(4 * _boundary_n(m1), 4096)


def _hardy_bins(n):
    """ceil(n/2): bins 0..ceil(n/2)-1 are the nonnegative frequencies of an n-point grid (no Nyquist bin)."""
    return (n + 1) // 2


def _check_finite(samples, caller):
    """NonFiniteEnergy naming caller unless every sample is finite.

    Entry points that take samples from outside call it; the signals
    the decompositions build for themselves skip it.
    """
    if not np.isfinite(samples).all():
        raise NonFiniteEnergy(f"{caller} expects finite samples")


@dataclass(frozen=True)
class CircularSignal:
    """Complex samples on the uniform circular grid.

    Parameters
    ----------
    samples : array_like
        Values s(t_j) at t_j = 2*pi*j/N, any N >= 8.  Stored as
        complex128.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        _check_count("sample count", arr.size, _LEAST_SAMPLES)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self):
        return self.samples.size

    def energy(self):
        """Squared circle norm, (1/N) sum |s_j|^2; inf, without warning, beyond the double range."""
        with np.errstate(over="ignore"):
            return float(np.mean(np.abs(self.samples) ** 2))

    def norm(self):
        return float(np.sqrt(self.energy()))

    def is_real(self):
        """max|Im s| <= DEFAULT_TOL.realness max|s|.

        The test is relative to the signal's own peak, so it does not
        depend on the signal's scale.
        """
        peak = float(np.max(np.abs(self.samples)))
        return float(np.max(np.abs(self.samples.imag))) <= DEFAULT_TOL.realness * peak


class HardyFunction:
    """Truncated power series sum_{k=0}^{M} c_k z^k on the unit disc.

    Represents a Hardy-space function by its Taylor coefficients; all
    negative-frequency content is zero by construction.  Interior
    values come from power-form evaluation (series_values) at every
    |z| <= 1 - DEFAULT_TOL.param_boundary, the bound validate_param
    puts on pole parameters; beyond it f(z) and circle raise
    ParamOutOfDisc.
    Boundary values come from FFT synthesis.

    Parameters
    ----------
    coefficients : array_like
        Taylor coefficients c_0 .. c_M.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        if not self.coefficients.size:
            raise InputError("a Hardy function needs at least one coefficient")

    @property
    def order(self):
        """Truncation order M."""
        return self.coefficients.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if not (np.abs(z) <= 1.0 - DEFAULT_TOL.param_boundary).all():
            raise ParamOutOfDisc("f(z) probed too close to the circle; use boundary()")
        out = series_values(self.coefficients, z)
        return out if out.ndim else complex(out)

    def derivative(self):
        """Coefficientwise derivative series."""
        c = self.coefficients
        if c.size == 1:
            return HardyFunction(np.zeros(1))
        k = np.arange(1, c.size)
        return HardyFunction(k * c[1:])

    def boundary(self, n=None):
        """Synthesize boundary samples on an n-point circular grid.

        n defaults to the smallest power of two >= 2*(M+1).  Else it is a
        count of at least M+1, so no coefficient is discarded, and 8.
        """
        m1 = self.coefficients.size
        if n is None:
            n = _boundary_n(m1)
        else:
            _check_count("n", n, max(m1, _LEAST_SAMPLES))
        return CircularSignal(np.fft.ifft(self.coefficients, n, norm="forward"))

    def circle(self, r, n=None):
        """Samples of f(r e^{it}) on an n-point grid, r <= 1 - DEFAULT_TOL.param_boundary."""
        if not r <= 1.0 - DEFAULT_TOL.param_boundary:
            raise ParamOutOfDisc(f"radius {r} too close to the circle; use boundary()")
        damped = self.coefficients * (r ** np.arange(self.coefficients.size))
        return HardyFunction(damped).boundary(n).samples

    def energy(self):
        """sum |c_k|^2; inf, without numpy's overflow warning, beyond the double range."""
        with np.errstate(over="ignore"):
            return float(np.sum(np.abs(self.coefficients) ** 2))

    def norm(self):
        return float(np.sqrt(self.energy()))

    def truncated(self, m):
        """Copy with exactly m+1 coefficients (pad or cut); m is a count >= 0."""
        _check_count("m", m)
        c = np.zeros(m + 1, dtype=complex)
        take = min(m + 1, self.coefficients.size)
        c[:take] = self.coefficients[:take]
        return HardyFunction(c)

    def __mul__(self, scalar):
        return HardyFunction(self.coefficients * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"HardyFunction(order={self.order})"


def hilbert_transform(s: CircularSignal) -> CircularSignal:
    """Circular Hilbert transform, the Fourier multiplier -i*sgn(k).

    sgn(0) = 0, so constants map to zero and H*H = -(id - mean).
    For a real signal without Nyquist content the output is real up to
    rounding.
    """
    c = np.fft.fft(s.samples)
    k = np.fft.fftfreq(s.n, d=1.0 / s.n)
    c *= -1j * np.sign(k)
    return CircularSignal(np.fft.ifft(c))


def _conjugate_real(u):
    """Real part of hilbert_transform for real samples u, by real FFT.

    The multiplier -i*sgn(k) on the half spectrum, with the mean and
    Nyquist bins dropped: the Nyquist bin of a real signal maps to an
    imaginary line, which the real part discards.
    """
    c = np.fft.rfft(u)
    c[0] = 0.0
    c[-1] = 0.0
    c[1:-1] *= -1j
    return np.fft.irfft(c, u.size)


def analytic_signal(s: CircularSignal) -> HardyFunction:
    """Hardy projection s+ = (s + iHs + c_0)/2 of a real signal.

    On coefficients: keeps c_0 and c_k for 1 <= k < N/2, zeroes the rest
    (including, at even N, the unpaired Nyquist bin, which the formula
    cancels; an odd N has no Nyquist bin).  For s = cos(nt) this gives
    e^{int}/2; the identity s = 2 Re(s+) - c_0 then recovers the signal
    whenever s has no Nyquist-bin content, so always at odd N.

    Raises
    ------
    NonFiniteEnergy
        If a sample is nan or infinite.
    NonRealInput
        If imaginary parts exceed DEFAULT_TOL.realness relative to the
        signal's peak (see CircularSignal.is_real).
    """
    _check_finite(s.samples, "analytic_signal")
    if not s.is_real():
        raise NonRealInput("analytic_signal expects a real-valued signal")
    c = np.fft.fft(s.samples.real, norm="forward")
    coeffs = c[: _hardy_bins(s.n)].copy()
    return HardyFunction(coeffs)


def to_hardy(s: CircularSignal, m=None):
    """Project boundary samples onto nonnegative frequencies.

    Returns (HardyFunction, leak) where leak is the norm of the
    discarded negative-frequency part, the Nyquist bin of an even N
    included.  For samples of an actual Hardy function the leak is
    rounding noise; a sizable leak means the samples were not Hardy to
    begin with.  A leak whose squares overflow is summed again scaled by
    its largest bin, so a finite leak comes back finite, without warning.
    """
    c = np.fft.fft(s.samples, norm="forward")
    half = _hardy_bins(s.n)
    pos = c[:half]
    neg = c[half:]
    with np.errstate(over="ignore"):
        leak = float(np.sqrt(np.sum(np.abs(neg) ** 2)))
        if leak == math.inf:
            mag = np.abs(neg)
            peak = float(mag.max())
            if peak < math.inf:
                leak = peak * math.sqrt(float(np.sum((mag / peak) ** 2)))
    if m is not None:
        return HardyFunction(pos).truncated(m), leak
    return HardyFunction(pos), leak


def _nonvanishing_circle(f, r, n):
    """(f, |f|) on the circle of radius r; NearZeroModulus if min |f| <= DEFAULT_TOL.near_zero max |f|."""
    values = f.circle(r, n)
    mod = np.abs(values)
    if mod.min() <= DEFAULT_TOL.near_zero * mod.max():
        raise NearZeroModulus(f"f vanishes on the circle r={r}")
    return values, mod


def phase_amplitude(f: HardyFunction, r, n=None):
    """Polar form of f on the circle of radius r.

    Returns (rho, theta): moduli and the unwrapped continuous phase
    with theta[0] in (-pi, pi].

    Raises
    ------
    NearZeroModulus
        If min |f| <= DEFAULT_TOL.near_zero times max |f| on the circle
        (phase undefined), so the floor follows the scale of f.
    PhaseUnresolved
        If the phase moves by >= pi between adjacent samples, so the
        unwrapping is not trustworthy.
    """
    values, rho = _nonvanishing_circle(f, r, n)
    theta = np.unwrap(np.angle(values))
    if np.max(np.abs(np.diff(theta))) >= np.pi * (1 - 1e-9):
        raise PhaseUnresolved("phase step of size >= pi; refine the grid")
    return rho, theta


def phase_derivative(f: HardyFunction, r, n=None):
    """Instantaneous frequency Re{ r e^{it} f'(r e^{it}) / f(r e^{it}) }.

    Uses the coefficientwise derivative series; no phase unwrapping is
    involved.  Requires f nonvanishing on the circle of radius r:
    NearZeroModulus if min |f| there is at most DEFAULT_TOL.near_zero
    times max |f|.
    """
    values, _ = _nonvanishing_circle(f, r, n)
    dvalues = f.derivative().circle(r, n)
    if n is None:
        n = values.size
    z = r * np.exp(1j * circle_grid(n))
    return np.real(z * dvalues / values)


def bedrosian_check(rho, theta):
    """Residual of the Bedrosian identity for an amplitude-phase pair.

    Computes ||H(rho cos theta) - (rho sin theta - mean)|| / ||rho||
    on the common grid.  The mean of rho*sin(theta) is removed before
    comparing: it is the imaginary part of the analytic mean, which
    the mean-blind discrete H cannot reproduce.  A residual at
    rounding level certifies that rho * e^{i theta} extends to a Hardy
    function, the working form of the Bedrosian condition.  The
    residual is relative, so only rho = 0 is refused (InputError).
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if rho.shape != theta.shape:
        raise InputError("rho and theta grids differ")
    s = CircularSignal(rho * np.cos(theta))
    h = hilbert_transform(s).samples
    target = rho * np.sin(theta)
    target = target - np.mean(target)
    resid = np.sqrt(np.mean(np.abs(h - target) ** 2))
    rho_norm = np.sqrt(np.mean(rho**2))
    if rho_norm == 0.0:
        raise InputError("rho is zero")
    return float(resid / rho_norm)
