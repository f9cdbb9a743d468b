"""Szego kernels, Mobius factors, TM systems, phase positivity."""

import numpy as np
import pytest

from afd import (
    CircularSignal,
    blaschke_phase_derivative,
    circle_grid,
    mobius,
    monocomp_check,
    multiplicities,
    szego_kernel,
    tm_eval,
    tm_system_boundary,
    validate_param,
)
from afd.errors import InputError, ParamOutOfDisc

from conftest import random_params


def test_validate_param():
    assert validate_param(0.3 + 0.4j) == 0.3 + 0.4j
    assert validate_param(0) == 0.0 + 0.0j
    with pytest.raises(ParamOutOfDisc):
        validate_param(1.0)
    with pytest.raises(ParamOutOfDisc):
        validate_param(0.8 + 0.8j)
    with pytest.raises(ParamOutOfDisc):
        validate_param(1.0 - 1e-12)  # too close to the boundary


def test_multiplicities():
    np.testing.assert_array_equal(multiplicities((0.5, 0.5, 0.3)), [1, 2, 1])
    np.testing.assert_array_equal(multiplicities((0.5, 0.3, 0.5, 0.5)), [1, 1, 2, 3])
    # near-coincident parameters count as repeats
    np.testing.assert_array_equal(multiplicities((0.5, 0.5 + 1e-12)), [1, 2])
    np.testing.assert_array_equal(multiplicities((0.5, 0.5 + 1e-6)), [1, 1])


def test_szego_and_mobius_values():
    a = 0.3 - 0.4j
    assert szego_kernel(a, a) == pytest.approx(1.0 / np.sqrt(1 - abs(a) ** 2))
    assert szego_kernel(0.0, 0.7j) == pytest.approx(1.0)
    assert mobius(a, a) == pytest.approx(0.0)
    assert mobius(0.0, 0.25j) == pytest.approx(0.25j)
    z = np.exp(1j * circle_grid(64))
    np.testing.assert_allclose(np.abs(mobius(a, z)), 1.0, atol=1e-12)


def test_szego_and_mobius_share_one_denominator_bit_for_bit():
    # both read the one denominator 1 - conj(a) z; each value is the closed
    # form written out, on arrays and on scalars
    rng = np.random.default_rng(31)
    z = np.concatenate([np.exp(1j * circle_grid(64)), 0.9 * np.exp(2j * np.pi * rng.uniform(size=8))])
    for a in (0.0, 0.3 - 0.4j, 0.999j, *random_params(rng, 4, r=0.95)):
        a = complex(a)
        kern = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
        quotient = (z - a) / (1.0 - np.conj(a) * z)
        assert np.array_equal(szego_kernel(a, z), kern)
        assert np.array_equal(mobius(a, z), quotient)
        assert szego_kernel(a, complex(z[3])) == complex(kern[3])
        assert mobius(a, complex(z[3])) == complex(quotient[3])


def test_szego_kernel_is_normalized():
    # boundary quadrature of |e_a|^2 equals 1
    z = np.exp(1j * circle_grid(512))
    for a in (0.0, 0.5, -0.2 + 0.6j):
        e = szego_kernel(a, z)
        assert np.mean(np.abs(e) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_tm_system_first_element_and_fourier_case():
    params = (0.4 + 0.1j, -0.2j, 0.6)
    n = 512
    rows = tm_system_boundary(params, n)
    z = np.exp(1j * circle_grid(n))
    np.testing.assert_allclose(rows[0], szego_kernel(params[0], z), atol=1e-12)
    # all-zero parameters give the Fourier basis
    rows0 = tm_system_boundary((0, 0, 0, 0), n)
    for k in range(4):
        np.testing.assert_allclose(rows0[k], z**k, atol=1e-12)


def test_tm_gram_identity():
    rng = np.random.default_rng(21)
    n = 1024
    for _ in range(10):
        length = int(rng.integers(1, 6))
        params = random_params(rng, length, r=0.8, repeat_frac=0.3)
        rows = tm_system_boundary(params, n)
        gram = rows @ rows.conj().T / n
        np.testing.assert_allclose(gram, np.eye(length), atol=1e-9)


def test_tm_eval_matches_boundary_rows():
    params = (0.5, 0.5, -0.3 + 0.2j)
    n = 256
    z = np.exp(1j * circle_grid(n))
    rows = tm_system_boundary(params, n)
    for k in range(1, 4):
        np.testing.assert_allclose(tm_eval(params, k, z), rows[k - 1], atol=1e-12)
    with pytest.raises(InputError):
        tm_eval(params, 0, z)
    with pytest.raises(InputError):
        tm_eval(params, 4, z)


def test_tm_repeated_parameters_stay_orthonormal():
    # a triple zero at one point exercises the multiplicity ladder
    params = (0.5, 0.5, 0.5)
    n = 1024
    rows = tm_system_boundary(params, n)
    gram = rows @ rows.conj().T / n
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)


def test_blaschke_phase_derivative_positive_with_unit_masses():
    t = circle_grid(2048)
    rng = np.random.default_rng(22)
    for _ in range(5):
        params = random_params(rng, int(rng.integers(1, 5)), r=0.85)
        w = blaschke_phase_derivative(params, t)
        assert w.min() > 0.0
        # each factor contributes winding one
        assert np.mean(w) == pytest.approx(len(params), abs=1e-9)
    np.testing.assert_allclose(blaschke_phase_derivative((0,), t), 1.0, atol=1e-14)
    # P_0 = (1 - 0)/|1 - 0 z|^2 is 1 in floating point too
    assert np.all(blaschke_phase_derivative((0, 0, 0), t) == 3.0)


def test_blaschke_phase_derivative_rejects_empty():
    with pytest.raises(InputError):
        blaschke_phase_derivative((), circle_grid(64))


def test_monocomp_check_blaschke_passes():
    t = circle_grid(1024)
    z = np.exp(1j * t)
    b = mobius(0.5, z) * mobius(-0.3 + 0.2j, z) * mobius(0.7j, z)
    rep = monocomp_check(CircularSignal(b))
    assert rep.passed
    assert rep.fraction_negative == 0.0
    assert rep.min_phase_derivative > 0.0
    assert rep.radii[-1] == pytest.approx(1.0 - 2.0**-12)


def test_monocomp_check_real_cosine_passes():
    rep = monocomp_check(CircularSignal(np.cos(3 * circle_grid(256))))
    assert rep.passed
    assert rep.fraction_negative == 0.0


def test_monocomp_check_outer_signal_fails():
    # analytic signal 1 - z/1.05 has a zero just outside the disc, so
    # its boundary phase dips; the dips integrate to zero winding
    t = circle_grid(1024)
    rep = monocomp_check(CircularSignal(1.0 - (2.0 / 1.05) * np.cos(t)))
    assert not rep.passed
    assert rep.fraction_negative > 0.05
    assert rep.min_phase_derivative < -1.0
