"""Boundary sampling, Hilbert transform, analytic signals."""

import warnings

import numpy as np
import pytest

from afd import (
    CircularSignal,
    HardyFunction,
    analytic_signal,
    bedrosian_check,
    bergman_space,
    circle_grid,
    hardy_space,
    hilbert_transform,
    monocomp_check,
    phase_amplitude,
    phase_derivative,
    to_hardy,
    uncertainty_report,
)
from afd.errors import InputError, NearZeroModulus, NonFiniteEnergy, NonRealInput, PhaseUnresolved
from afd.config import DEFAULT_TOL
from afd.signal_core import _conjugate_real, series_values

from conftest import (
    analytic_signal_reference,
    band_limited_real,
    boundary_reference,
    horner,
    random_hardy,
    series_bound,
    to_hardy_reference,
)

POWERS_OF_TWO = [1 << p for p in range(3, 15)]
# sample counts of both parities that are not powers of two
OTHER_COUNTS = [12, 100, 1000, 1001]


def test_circle_grid_values():
    t = circle_grid(8)
    assert t.shape == (8,)
    np.testing.assert_allclose(t, 2.0 * np.pi * np.arange(8) / 8)


@pytest.mark.parametrize("n", [7, 4, 0])
def test_signal_rejects_bad_lengths(n):
    with pytest.raises(InputError, match=f"sample count wants an integer >= 8, got {n}$"):
        CircularSignal(np.zeros(n))


@pytest.mark.parametrize("n", [8, 9, 12, 100, 1000, 1001])
def test_signal_accepts_any_length_of_at_least_8(n):
    assert CircularSignal(np.zeros(n)).n == n


def test_signal_basic_properties():
    t = circle_grid(64)
    s = CircularSignal(2.0 + np.cos(3 * t))
    assert s.n == 64
    assert s.is_real()
    assert s.energy() == pytest.approx(4.5)  # 4 + 1/2
    assert s.norm() == pytest.approx(np.sqrt(4.5))


def test_hilbert_on_lines():
    t = circle_grid(128)
    h = hilbert_transform(CircularSignal(np.cos(4 * t)))
    np.testing.assert_allclose(h.samples, np.sin(4 * t), atol=1e-12)
    h = hilbert_transform(CircularSignal(np.sin(4 * t)))
    np.testing.assert_allclose(h.samples, -np.cos(4 * t), atol=1e-12)
    h = hilbert_transform(CircularSignal(np.full(128, 3.0)))
    np.testing.assert_allclose(h.samples, 0.0, atol=1e-14)


def test_hilbert_squares_to_mean_removal():
    rng = np.random.default_rng(4)
    for _ in range(5):
        s = band_limited_real(rng, n=512)
        hh = hilbert_transform(hilbert_transform(s))
        np.testing.assert_allclose(
            hh.samples, -(s.samples - np.mean(s.samples.real)), atol=1e-10
        )


@pytest.mark.parametrize("n", POWERS_OF_TWO)
def test_real_conjugate_matches_hilbert_transform(n):
    # a mean and a Nyquist line are both present; the helper drops the
    # first, as sgn(0) = 0 does, and the second, whose image is imaginary
    rng = np.random.default_rng(n)
    t = circle_grid(n)
    u = rng.standard_normal(n) + 3.0 + 2.0 * np.cos(n // 2 * t)
    want = hilbert_transform(CircularSignal(u)).samples.real
    got = _conjugate_real(u)
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.sqrt(np.mean(u**2))


def test_analytic_signal_of_cosines():
    t = circle_grid(128)
    f = analytic_signal(CircularSignal(np.cos(2 * t) + np.cos(3 * t)))
    c = np.zeros(4, dtype=complex)
    c[2] = c[3] = 0.5
    np.testing.assert_allclose(f.coefficients[:4], c, atol=1e-12)
    assert np.abs(f.coefficients[4:]).max() < 1e-12
    # constants pass through unchanged
    g = analytic_signal(CircularSignal(np.full(128, 2.5)))
    assert g.coefficients[0] == pytest.approx(2.5)
    assert np.abs(g.coefficients[1:]).max() < 1e-12


def test_analytic_signal_identity():
    # s = 2 Re(s+) - c0 pointwise, and energy splits as |c0|^2 + 2 sum_{k>0}
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = band_limited_real(rng, n=512)
        f = analytic_signal(s)
        back = 2.0 * f.boundary(s.n).samples.real - f.coefficients[0].real
        np.testing.assert_allclose(back, s.samples, atol=1e-10)


def test_analytic_signal_rejects_complex():
    s = CircularSignal(np.exp(1j * circle_grid(64)))
    with pytest.raises(NonRealInput):
        analytic_signal(s)


# the entry points that take samples from outside, each called on (x, t)
SAMPLE_ENTRIES = {
    "analytic_signal": lambda x, t: analytic_signal(CircularSignal(x)),
    "monocomp_check": lambda x, t: monocomp_check(CircularSignal(x)),
    "uncertainty_report": uncertainty_report,
}


@pytest.mark.parametrize("entry", sorted(SAMPLE_ENTRIES))
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_refused_by_name(entry, kind, bad):
    t = circle_grid(64)
    x = np.cos(3 * t) if kind == "real" else np.exp(3j * t)
    x[17] = bad
    with pytest.raises(NonFiniteEnergy, match=f"{entry} expects finite samples"):
        SAMPLE_ENTRIES[entry](x, t)


@pytest.mark.parametrize("scale", [1e-20, 1e150])
def test_realness_is_relative_to_the_peak(scale):
    # an imaginary part 1e6 times the real one is not dropped at any scale
    real = scale * np.cos(3 * circle_grid(64))
    assert CircularSignal(real).is_real()
    mixed = CircularSignal(real + 1e6j * real)
    assert not mixed.is_real()
    with pytest.raises(NonRealInput):
        analytic_signal(mixed)


def test_to_hardy_leak_needs_enough_samples():
    # Szego kernel boundary values: at n = 64 the 0.6^32 tail aliases
    # into negative bins and leaks 8.0e-8 of ||s||; a finer grid pushes
    # the wraparound below rounding (1.9e-16 at n = 256)
    a = 0.6
    for n, lo, hi in ((64, 1e-8, 1e-6), (256, 0.0, 1e-14)):
        t = circle_grid(n)
        s = CircularSignal(np.sqrt(1 - a**2) / (1 - a * np.exp(1j * t)))
        _, leak = to_hardy(s)
        assert lo <= leak / s.norm() < hi


def test_to_hardy_projection_and_leak():
    t = circle_grid(64)
    s = CircularSignal(np.exp(2j * t) + 0.25 * np.exp(-1j * t))
    f, leak = to_hardy(s)
    assert leak == pytest.approx(0.25)
    assert f.coefficients[2] == pytest.approx(1.0)
    f2, leak2 = to_hardy(CircularSignal(np.exp(2j * t)))
    assert leak2 == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(f2.boundary(64).samples, np.exp(2j * t), atol=1e-12)


def test_to_hardy_returns_a_finite_leak_whose_squares_overflow():
    # the leak of 1e200 e^{-3it} is 1e200, a double, though its square is
    # not; a leak whose squares do not overflow is the plain sum, bit for bit
    t = circle_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, leak = to_hardy(CircularSignal(1e200 * np.exp(-3j * t)))
        assert leak == pytest.approx(1e200, rel=1e-14)
        assert np.abs(f.coefficients).max() <= 1e-14 * 1e200
        for scale in (1.0, 1e150):
            s = CircularSignal(scale * (np.exp(2j * t) + 0.25 * np.exp(-1j * t) + 0.1 * np.exp(-5j * t)))
            assert to_hardy(s)[1] == to_hardy_reference(s.samples)[1]


def test_energies_beyond_the_double_range_are_inf_without_warning():
    # squares of 1e200 overflow: energy and norm are inf, with no numpy
    # RuntimeWarning; in range they are the plain sums, bit for bit
    t = circle_grid(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = CircularSignal(1e200 * np.exp(-3j * t) + 1e200 * np.exp(2j * t))
        f = to_hardy(s)[0]
        assert s.energy() == s.norm() == f.energy() == f.norm() == np.inf
        for space in (hardy_space(f.order), bergman_space(f.order)):
            assert space.norm(f.coefficients) == np.inf
        g = CircularSignal(s.samples * 1e-200)
        h = to_hardy(g)[0]
        assert g.energy() == float(np.mean(np.abs(g.samples) ** 2))
        assert h.energy() == float(np.sum(np.abs(h.coefficients) ** 2))
        space = bergman_space(h.order)
        assert space.norm(h.coefficients) == float(np.sqrt(np.sum(space.weights * np.abs(h.coefficients) ** 2)))


def test_hardy_function_evaluation():
    f = HardyFunction(np.array([1.0, -0.5, 0.25], dtype=complex))
    z = 0.3 + 0.4j
    assert f(z) == pytest.approx(1.0 - 0.5 * z + 0.25 * z * z)
    assert f(0.0) == pytest.approx(1.0)
    with pytest.raises(InputError):
        f(1.2)  # outside the closure radius


@pytest.mark.parametrize("m", [0, 1, 2, 127, 2047])
def test_power_form_matches_horner_reference(m):
    rng = np.random.default_rng(500 + m)
    f = random_hardy(rng, m=m)
    c = f.coefficients
    outer = 1.0 - DEFAULT_TOL.param_boundary
    radii = outer * np.sqrt(rng.uniform(size=(5, 7)))
    z = radii * np.exp(2j * np.pi * rng.uniform(size=(5, 7)))
    z[0, 0] = outer
    for probe in (z, z[0], np.asarray(z[0, 0]), complex(z[1, 1])):
        got = f(probe)
        assert np.shape(got) == np.shape(probe)
        assert isinstance(got, np.ndarray) == bool(np.ndim(probe))
        assert np.all(np.abs(got - horner(c, probe)) <= series_bound(c, probe))
    # a stack of series evaluates row by row at the same points
    stack = np.stack([c, 1j * c[::-1], rng.standard_normal(m + 1)])
    got = series_values(stack, z)
    assert got.shape == (3,) + z.shape
    for row, vals in zip(stack, got):
        assert np.all(np.abs(vals - horner(row, z)) <= series_bound(row, z))


def test_hardy_function_energy_truncate_derivative():
    f = HardyFunction(np.array([1.0, 0.5, 0.25], dtype=complex))
    assert f.order == 2
    assert f.energy() == pytest.approx(1.3125)
    g = f.truncated(1)
    np.testing.assert_allclose(g.coefficients, [1.0, 0.5])
    d = f.derivative()
    np.testing.assert_allclose(d.coefficients, [0.5, 0.5])
    np.testing.assert_array_equal(HardyFunction([2.0 + 1.0j]).derivative().coefficients, [0.0])


def test_boundary_padding_is_exact():
    rng = np.random.default_rng(6)
    f = random_hardy(rng, m=31)
    b1 = f.boundary()
    b2 = f.boundary(4 * b1.n)
    # padded samples agree with a direct polynomial evaluation
    z = np.exp(1j * circle_grid(4 * b1.n))
    direct = np.polyval(f.coefficients[::-1], z)
    np.testing.assert_allclose(b2.samples, direct, atol=1e-12)


def _check_forward_normalization(n, same):
    """Boundary synthesis on grids of >= M+1 points, to_hardy and analytic_signal against the references."""
    rng = np.random.default_rng(n)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for m1 in (1, n // 2, n - 1, n):
        c = rng.standard_normal(m1) + 1j * rng.standard_normal(m1)
        same(HardyFunction(c).boundary(n).samples, boundary_reference(c, n))
    pos, leak = to_hardy_reference(s)
    f, got_leak = to_hardy(CircularSignal(s))
    assert f.coefficients.shape == ((n + 1) // 2,)
    same(f.coefficients, pos)
    same(got_leak, leak)
    real = rng.standard_normal(n)
    same(analytic_signal(CircularSignal(real)).coefficients, analytic_signal_reference(real))


@pytest.mark.parametrize("n", POWERS_OF_TWO)
def test_forward_normalization_is_bit_identical(n):
    # scaling by 1/n is exact on power-of-two grids, so norm="forward"
    # gives the explicit zero pad, / n and * n formulas bit for bit
    _check_forward_normalization(n, np.testing.assert_array_equal)


@pytest.mark.parametrize("n", OTHER_COUNTS)
def test_forward_normalization_is_rounding_level_at_other_counts(n):
    # at other n, multiplying by the rounded 1/n errs by rounding
    def same(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(float).eps * np.max(np.abs(want)))

    _check_forward_normalization(n, same)


@pytest.mark.parametrize("n", [8, 9, 100, 101, 1000, 1001])
def test_to_hardy_counts_the_nyquist_bin_as_leak_only_at_even_n(n):
    # the top bin n//2 is the Nyquist bin at even n and is leak; at odd n
    # it is the frequency (n-1)/2, kept with all the nonnegative ones;
    # the tone's angles are reduced mod 2 pi, so they carry no rounding
    # that grows with the frequency
    top = n // 2
    tone = np.exp(1j * circle_grid(n)[top * np.arange(n) % n])
    f, leak = to_hardy(CircularSignal(tone + 0.5))
    if n % 2:
        assert f.coefficients.size == top + 1
        assert f.coefficients[top] == pytest.approx(1.0) and leak <= 1e-14
    else:
        assert f.coefficients.size == top
        assert leak == pytest.approx(1.0, rel=1e-14)
    assert f.coefficients[0] == pytest.approx(0.5)
    assert np.abs(f.coefficients[1:top]).max() <= 1e-14


def test_phase_amplitude_of_z():
    f = HardyFunction(np.array([0.0, 1.0], dtype=complex))
    rho, theta = phase_amplitude(f, 0.9, 64)
    np.testing.assert_allclose(rho, 0.9, atol=1e-12)
    np.testing.assert_allclose(theta, circle_grid(64), atol=1e-12)
    assert -np.pi < theta[0] <= np.pi


def test_phase_amplitude_near_zero_raises():
    # z - 0.9 vanishes on the circle of radius 0.9
    f = HardyFunction(np.array([-0.9, 1.0], dtype=complex))
    with pytest.raises(NearZeroModulus):
        phase_amplitude(f, 0.9, 256)


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-100, 1e100])
def test_near_zero_screens_follow_the_signal_scale(scale):
    # each screen gives its scale-1 verdict at every scale, including
    # 1e-13 and 1e-100, which lie below near_zero = 1e-12 in absolute terms
    n = 64
    t = circle_grid(n)
    r = 1.0 - 2.0**-12
    assert monocomp_check(CircularSignal(scale * np.cos(6 * t))).passed
    am = (1.0 + 0.5 * np.cos(t)) * np.cos(6 * t)
    rho, theta = phase_amplitude(analytic_signal(CircularSignal(scale * am)), r)
    rho1, theta1 = phase_amplitude(analytic_signal(CircularSignal(am)), r)
    np.testing.assert_allclose(rho / scale, rho1, rtol=1e-12)
    np.testing.assert_allclose(theta, theta1, rtol=0, atol=1e-12)
    assert bedrosian_check(scale * np.ones(n), 6 * t) < 1e-12


def test_phase_derivative_of_monomials():
    f = HardyFunction(np.array([0.0, 0.0, 0.0, 1.0], dtype=complex))
    np.testing.assert_allclose(phase_derivative(f, 0.5, 64), 3.0, atol=1e-10)


def test_phase_derivative_matches_finite_difference():
    rng = np.random.default_rng(7)
    f = random_hardy(rng, m=15)
    f = HardyFunction(f.coefficients + np.array([3.0] + [0.0] * 15))  # keep zero-free
    n = 2048
    t = circle_grid(n)
    _, theta = phase_amplitude(f, 0.7, n)
    fd = np.gradient(np.unwrap(theta), t, edge_order=2)
    np.testing.assert_allclose(phase_derivative(f, 0.7, n), fd, atol=1e-5)


def test_bedrosian_split_cases():
    t = circle_grid(256)
    # low-pass amplitude against the fundamental phase separates cleanly
    assert bedrosian_check(1.0 + 0.5 * np.cos(t), t) < 1e-12
    assert bedrosian_check(np.ones(256), 3 * t) < 1e-12
    # overlapping spectra leave a real obstruction
    assert bedrosian_check(1.0 + 0.5 * np.cos(3 * t), t) > 1e-2


def test_bedrosian_check_refuses_mismatched_grids_and_a_zero_rho():
    t = circle_grid(256)
    with pytest.raises(InputError, match="grids differ"):
        bedrosian_check(np.ones(128), t)
    with pytest.raises(InputError, match="rho is zero"):
        bedrosian_check(np.zeros(256), t)


def test_boundary_refuses_a_grid_below_the_coefficient_count():
    f = HardyFunction(np.ones(16))
    assert f.boundary(16).n == 16
    with pytest.raises(InputError, match="n wants an integer >= 16, got 8"):
        f.boundary(8)
    # a grid that carries every coefficient still holds at least 8 samples
    with pytest.raises(InputError, match="n wants an integer >= 8, got 4"):
        HardyFunction(np.ones(3)).boundary(4)


def test_hardy_function_refuses_an_empty_coefficient_array():
    # with no coefficient there is no order: f(z) would divide by zero
    # and boundary() would take the log of 0
    with pytest.raises(InputError, match="at least one coefficient"):
        HardyFunction([])


def test_phase_derivative_refuses_a_zero_on_the_circle_and_has_a_default_grid():
    f = HardyFunction([-0.5, 1.0])  # z - 0.5 vanishes at z = 0.5, t = 0
    with pytest.raises(NearZeroModulus):
        phase_derivative(f, 0.5, 8)
    # the default grid is boundary()'s: 8 points for two coefficients
    np.testing.assert_array_equal(phase_derivative(f, 0.3), phase_derivative(f, 0.3, 8))


def test_phase_amplitude_refuses_a_step_of_pi():
    # z^4 on 8 points turns by 4 * 2pi/8 = pi between samples
    with pytest.raises(PhaseUnresolved):
        phase_amplitude(HardyFunction([0.0, 0.0, 0.0, 0.0, 1.0]), 0.9, 8)
