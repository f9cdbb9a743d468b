"""Instantaneous-frequency lines, Dirac-type distributions, uncertainty bounds."""

import numpy as np
import pytest

from afd import (
    HardyFunction,
    KernelSpace,
    circle_grid,
    coefficient_cross_check,
    core_afd_decompose,
    dirac_tfd,
    poafd_decompose,
    reconstruct,
    uncertainty_report,
    unwinding_tfd,
    uwa_decompose,
)
from afd.errors import InputError, NonRealInput, NonUniformGrid, TailEnergy, ZeroSignal

from conftest import (
    band_limited_real,
    random_hardy,
    random_params,
    tm_lines,
    tm_phase_derivative_rational,
)


def test_phase_derivative_fourier_lines_are_exact_integers():
    t = circle_grid(256)
    for k, (_, w) in enumerate(tm_lines((0,) * 4, t), start=1):
        assert np.all(w == float(k - 1))


def test_phase_derivative_matches_finite_difference():
    rng = np.random.default_rng(81)
    n = 4096
    t = circle_grid(n)
    dt = t[1] - t[0]
    params = random_params(rng, 4, r=0.8)
    for b, w in tm_lines(params, t):
        theta = np.unwrap(np.angle(b))
        # fourth-order central stencil; second order is not accurate enough
        fd = (
            -np.roll(theta, -2) + 8 * np.roll(theta, -1)
            - 8 * np.roll(theta, 1) + np.roll(theta, 2)
        ) / (12 * dt)
        interior = slice(2, n - 2)
        assert np.abs(w[interior] - fd[interior]).max() < 1e-6


def test_phase_derivative_against_poisson_sums():
    # theta_k' = sum_{l<k} P_{a_l} + (P_{a_k} - 1)/2, each Poisson kernel
    # P_a(t) = (1 - |a|^2)/|1 - conj(a) e^{it}|^2 written out, and the
    # rational form Re{z B_k'/B_k} summed factor by factor
    rng = np.random.default_rng(82)
    t = circle_grid(512)
    z = np.exp(1j * t)
    for _ in range(5):
        m = int(rng.integers(1, 5))
        params = random_params(rng, m, r=0.85)
        k = int(rng.integers(1, m + 1))
        _, w = tm_lines(params, t)[k - 1]
        poisson = [(1 - abs(a) ** 2) / np.abs(1 - np.conj(a) * z) ** 2 for a in params[:k]]
        ref = sum(poisson[:-1]) + 0.5 * (poisson[-1] - 1.0)
        assert np.abs(w - ref).max() < 1e-8
        assert np.abs(w - tm_phase_derivative_rational(params, k, t)).max() < 1e-8


def test_dirac_tfd_fourier_case():
    c = np.array([0.0, 0.5, 0.0, 0.25j], dtype=complex)
    d = core_afd_decompose(HardyFunction(c), forced_params=(0,) * 4, energy_tol=0.0)
    comps = dirac_tfd(d, grid=64)
    assert len(comps) == 4
    for k, comp in enumerate(comps):
        assert comp.index == k + 1
        assert np.all(comp.omega == float(k))
        np.testing.assert_allclose(comp.weight, abs(c[k]) ** 2, atol=1e-14)


def test_dirac_tfd_weight_time_average():
    rng = np.random.default_rng(83)
    f = random_hardy(rng, m=31)
    d = core_afd_decompose(f, max_terms=4, energy_tol=0.0)
    comps = dirac_tfd(d, grid=512)
    avg = sum(np.mean(comp.weight) for comp in comps)
    assert avg == pytest.approx(np.sum(np.abs(d.coefficients) ** 2), abs=1e-8)


def test_dirac_tfd_accepts_explicit_grid():
    f = HardyFunction(np.array([0.0, 1.0], dtype=complex))
    d = core_afd_decompose(f, max_terms=1, energy_tol=0.0)
    t = circle_grid(128)
    comps = dirac_tfd(d, grid=t)
    np.testing.assert_allclose(comps[0].t, t)
    # a numpy integer is a count; any count that is not a positive integer is refused
    np.testing.assert_array_equal(dirac_tfd(d, grid=np.int64(128))[0].t, t)
    for read, count in (
        (dirac_tfd, 0), (dirac_tfd, -5), (dirac_tfd, 2.5), (reconstruct, -5), (reconstruct, 8.0),
    ):
        with pytest.raises(InputError, match="positive integer"):
            read(d, count)


def test_dirac_tfd_atoms_are_scalars():
    f = HardyFunction(np.array([0.0, 1.0], dtype=complex))
    d = core_afd_decompose(f, max_terms=1, energy_tol=0.0)
    comp = dirac_tfd(d, grid=16)[0]
    atoms = list(zip(comp.t, comp.omega, comp.weight))
    assert len(atoms) == 16
    assert all(np.isscalar(t) and np.isscalar(omega) and np.isscalar(w) for t, omega, w in atoms)


def test_dirac_tfd_refuses_bergman_components():
    # Bergman rows have no boundary values: the three readers of terms on
    # the circle refuse the record
    k = np.arange(16)
    f = HardyFunction((k + 1.0) * 0.5**k)
    d = poafd_decompose(KernelSpace("bergman", 15), f.coefficients, max_terms=1)
    for read in (
        lambda: dirac_tfd(d, grid=64),
        lambda: reconstruct(d, 64),
        lambda: coefficient_cross_check(f, d),
    ):
        with pytest.raises(InputError, match="bergman"):
            read()


def test_unwinding_tfd_hand_case():
    f = HardyFunction(np.array([0.0, 1.0, 0.5], dtype=complex))
    u = uwa_decompose(f, 3)
    comps = unwinding_tfd(u)
    assert len(comps) == 2
    np.testing.assert_allclose(comps[0].omega, 1.0, atol=1e-8)
    np.testing.assert_allclose(comps[0].weight, 1.0, atol=1e-8)
    np.testing.assert_allclose(comps[1].omega, 2.0, atol=1e-8)
    np.testing.assert_allclose(comps[1].weight, 0.25, atol=1e-8)


def _gauss(t, sigma=0.4, carrier=0):
    env = np.exp(-((t - np.pi) ** 2) / (2 * sigma**2))
    if carrier:
        env = env * np.cos(carrier * t)
    return env


def test_uncertainty_gaussian_saturates_quarter():
    n = 1024
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    rep = uncertainty_report(_gauss(t), t)
    assert rep.sigma_t2 * rep.sigma_w2 == pytest.approx(0.25, rel=0.02)
    assert rep.extra_bound == pytest.approx(0.25, rel=0.02)
    assert rep.cohen_bound == pytest.approx(0.25, rel=0.02)
    assert rep.chain_ok


def test_uncertainty_modulated_gaussian():
    n = 1024
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    rep = uncertainty_report(_gauss(t, carrier=6), t)
    assert rep.mean_w == pytest.approx(6.0, abs=0.05)
    assert rep.mean_t == pytest.approx(np.pi, abs=1e-6)
    assert rep.chain_ok


@pytest.mark.parametrize("n", [511, 512])
def test_uncertainty_odd_and_even_grids(n):
    # an odd grid has no Nyquist bin for the one-sided mask to halve; on
    # either parity the Riemann sums of e^{-t^2/2} cos 3t give the closed
    # form (0.5 - 8.5q)(9.5 + 0.5q)/(1 + q)^2, q = e^{-9}
    t = np.linspace(-20, 20, n, endpoint=False)
    rep = uncertainty_report(np.exp(-(t**2) / 2) * np.cos(3 * t), t)
    q = np.exp(-9.0)
    assert rep.sigma_t2 == pytest.approx((0.5 - 8.5 * q) / (1 + q), rel=1e-12)
    assert rep.sigma_w2 == pytest.approx((9.5 + 0.5 * q) / (1 + q), rel=1e-12)
    assert rep.product == pytest.approx(4.73889572148517, rel=1e-12)
    assert rep.mean_w == pytest.approx(2.9998, abs=1e-6)
    assert rep.chain_ok


def test_uncertainty_chirp_separates_bounds():
    n = 2048
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    s = np.exp(-((t - np.pi) ** 2) / (2 * 0.5**2)) * np.cos(4 * t + 3 * (t - np.pi) ** 2)
    rep = uncertainty_report(s, t)
    # covariance-free bound strictly exceeds the covariance form here
    assert rep.extra_bound > rep.cohen_bound + 1e-4
    assert rep.product >= rep.extra_bound - 1e-6
    assert rep.chain_ok


def test_uncertainty_chain_on_random_envelopes():
    rng = np.random.default_rng(84)
    n = 1024
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    env = np.exp(-((t - np.pi) ** 2) / (2 * 0.6**2))
    for _ in range(10):
        s = env * band_limited_real(rng, n=n, kmax=24).samples
        if np.mean(s**2) < 1e-12:
            continue
        rep = uncertainty_report(s, t)
        assert rep.product >= rep.extra_bound - 1e-6
        assert rep.extra_bound >= rep.cohen_bound - 1e-9
        assert rep.cohen_bound >= 0.25 - 1e-6
        assert rep.chain_ok


def test_uncertainty_input_guards():
    n = 512
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    with pytest.raises(TailEnergy):
        uncertainty_report(np.cos(t), t)  # no decay at the window edges
    with pytest.raises(NonRealInput):
        uncertainty_report(np.exp(1j * t), t)
    with pytest.raises(ZeroSignal):
        uncertainty_report(np.zeros(n), t)
    with pytest.raises(InputError, match="equal length"):
        uncertainty_report(_gauss(t), t[:-1])
    bad = t.copy()
    bad[10] += 1e-3
    with pytest.raises(NonUniformGrid):
        uncertainty_report(_gauss(bad), bad)
    # as read_line_csv does for the CLI: two samples at least, and times
    # that step upward (a reversed or constant grid read as a zero signal)
    for m in (0, 1):
        with pytest.raises(InputError, match="two at least"):
            uncertainty_report(np.ones(m), np.arange(m, dtype=float))
    for times in (t[::-1], np.zeros(n)):
        with pytest.raises(NonUniformGrid, match="increasing"):
            uncertainty_report(_gauss(t), times)
