"""Inner-outer factorization and the unwinding recursions."""

import numpy as np
import pytest

from afd import (
    CircularSignal,
    HardyFunction,
    analytic_signal,
    circle_grid,
    coefficient_cross_check,
    dirac_tfd,
    factorize,
    front_loading_defect,
    mobius,
    reconstruct,
    unwinding_reconstruct,
    uwa_decompose,
    uwafd_decompose,
)
from afd import unwinding
from afd.config import DEFAULT_TOL
from afd.errors import DegenerateModulus, InputError
from afd.unwinding import _inner_factor, _outer_factor

from conftest import (
    check_outer_factor_against_reference,
    kernel_sum,
    random_hardy,
    scaled_am_fm,
    unwinding_reconstruct_reference,
    unwinding_tfd_reference,
)


def _boundary(coeffs, n=1024):
    return HardyFunction(np.asarray(coeffs, dtype=complex)).boundary(n)


def test_outer_factor_of_outer_function():
    # (2 + z)/2 is already outer with positive mean
    o = _outer_factor(_boundary([1.0, 0.5]))
    np.testing.assert_allclose(o.coefficients[:2], [1.0, 0.5], atol=1e-10)
    assert np.abs(o.coefficients[2:]).max() < 1e-10
    assert o.coefficients[0].imag == pytest.approx(0.0, abs=1e-12)
    assert o.coefficients[0].real > 0.0


def test_factorize_monomial():
    n = 1024
    t = circle_grid(n)
    for m in (1, 3, 7):
        fac = factorize(CircularSignal(np.exp(1j * m * t)))
        np.testing.assert_allclose(fac.inner.samples, np.exp(1j * m * t), atol=1e-8)
        assert fac.outer.coefficients[0] == pytest.approx(1.0, abs=1e-8)
        assert fac.consistency < 1e-10


def test_factorize_blaschke_times_outer():
    n = 2048
    z = np.exp(1j * circle_grid(n))
    inner_true = z * mobius(0.5, z) * mobius(-0.3 + 0.2j, z)
    outer_true = 1.0 + 0.4 * z  # zero at -2.5, safely outside
    s = CircularSignal(inner_true * outer_true)
    fac = factorize(s)
    np.testing.assert_allclose(np.abs(fac.inner.samples), 1.0, atol=1e-6)
    # outer factor is positive at the origin, matching outer_true(0) = 1
    np.testing.assert_allclose(fac.outer.coefficients[:2], [1.0, 0.4], atol=1e-6)
    assert fac.consistency < 1e-8


def test_inner_factor_unimodular():
    n = 1024
    f, _, _ = kernel_sum(np.random.default_rng(51), terms=2, r=0.6)
    # shift to keep the boundary modulus away from zero
    c = f.coefficients.copy()
    c[0] += 5.0
    s = HardyFunction(c).boundary(n)
    i = _inner_factor(s, _outer_factor(s))
    np.testing.assert_allclose(np.abs(i.samples), 1.0, atol=1e-8)


def test_clamped_outer_factor_matches_the_complex_hilbert_reference():
    # 10 of 1024 samples (under the 1% limit) zeroed: the clamp raises
    # them to the floor before the log, in both formulas alike
    n = 1024
    f, _, _ = kernel_sum(np.random.default_rng(58), terms=2, r=0.6)
    c = f.coefficients.copy()
    c[0] += 5.0
    s = HardyFunction(c).boundary(n).samples.copy()
    s[::103] = 0.0
    s = CircularSignal(s)
    assert np.count_nonzero(np.abs(s.samples) < DEFAULT_TOL.log_clamp * np.abs(s.samples).max()) == 10
    check_outer_factor_against_reference(s)


def test_factorize_rejects_vanishing_modulus():
    with pytest.raises(DegenerateModulus):
        factorize(CircularSignal(np.zeros(64, dtype=complex)))
    # more than one percent of samples numerically zero
    s = np.exp(1j * circle_grid(1024))
    s[:100] = 0.0
    with pytest.raises(DegenerateModulus):
        factorize(CircularSignal(s))


def test_uwa_hand_computed_example():
    # f = z(2 + z)/2 peels as 1*z + (1/2)*z^2 with nothing left
    f = HardyFunction(np.array([0.0, 1.0, 0.5], dtype=complex))
    u = uwa_decompose(f, 3)
    np.testing.assert_allclose(u.coefficients, [1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(u.residual_energy, [1.25, 0.25, 0.0], atol=1e-12)
    t = circle_grid(u.components[0].inner.size)
    np.testing.assert_allclose(u.components[0].inner, np.exp(1j * t), atol=1e-8)
    np.testing.assert_allclose(u.components[1].inner, np.exp(2j * t), atol=1e-8)
    u.validate()


def test_uwa_cumulative_inners_are_unimodular_and_nested():
    rng = np.random.default_rng(52)
    f = random_hardy(rng, m=31)
    u = uwa_decompose(f, 3)
    prev = np.ones_like(u.components[0].inner)
    for k, term in enumerate(u.components):
        phi = term.inner
        np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-8)
        step = phi / prev
        if k >= 1:
            # every inner factor after the first vanishes at the origin
            assert abs(np.mean(step)) < 1e-8
        prev = phi


def test_uwa_energy_identity_and_meta():
    rng = np.random.default_rng(53)
    for _ in range(3):
        f = random_hardy(rng, m=63)
        u = uwa_decompose(f, 3)
        u.validate()
        drop = -np.diff(u.residual_energy)
        np.testing.assert_allclose(
            drop, np.abs(u.coefficients) ** 2, atol=1e-12 * f.energy()
        )
        assert max(u.meta["factor_consistency"]) < 1e-6
        assert max(u.meta["front_loading"]) <= 1e-10 * f.energy()


def test_uwa_reconstruct():
    rng = np.random.default_rng(55)
    f = random_hardy(rng, m=63)
    u = uwa_decompose(f, 3)
    rec = unwinding_reconstruct(u)
    err = rec.samples - f.boundary(rec.n).samples
    assert np.mean(np.abs(err) ** 2) == pytest.approx(
        u.residual_energy[-1], abs=1e-10 * f.energy()
    )


def _product_defect(fac, boundary):
    """||I*O - f|| / ||f|| with O synthesized afresh on the boundary grid."""
    prod = fac.inner.samples * fac.outer.boundary(boundary.n).samples
    return np.sqrt(np.mean(np.abs(prod - boundary.samples) ** 2)) / boundary.norm()


def _recording_factorize(monkeypatch):
    """Record (boundary, Factorization) of every unwinding step."""
    seen = []

    def recording(boundary):
        fac = factorize(boundary)
        seen.append((boundary, fac))
        return fac

    monkeypatch.setattr(unwinding, "factorize", recording)
    return seen


def test_uwa_late_terms_degrade_gracefully(monkeypatch):
    # remainders eventually develop zeros close to the boundary; the
    # log-modulus spikes then exceed the work grid and the identities
    # loosen from machine precision to roughly the grid resolution,
    # while the factorization product itself stays exact.  The inner
    # factor drifts off the circle, and factor_consistency shows it
    seen = _recording_factorize(monkeypatch)
    rng = np.random.default_rng(53)
    f = random_hardy(rng, m=63)
    u = uwa_decompose(f, 5)
    u.validate()  # built-in 1e-8 relative gate still holds
    assert max(_product_defect(fac, boundary) for boundary, fac in seen) < 1e-10
    cons = u.meta["factor_consistency"]
    assert cons[0] <= 1e-12
    assert cons[-1] >= 1e-6
    rec = unwinding_reconstruct(u)
    err = rec.samples - f.boundary(rec.n).samples
    defect = abs(np.mean(np.abs(err) ** 2) - u.residual_energy[-1])
    assert defect < 1e-4 * f.energy()


def test_uwafd_peels_inner_then_selects():
    # z^2 e_{0.3}: unwinding removes z^2, the selection then lands on 0.3
    k = np.arange(64)
    c = np.zeros(66, dtype=complex)
    c[2:] = np.sqrt(1 - 0.09) * 0.3**k
    f = HardyFunction(c)
    u = uwafd_decompose(f, max_terms=5)
    assert len(u.components) == 1
    assert abs(u.components[0].a - 0.3) < 1e-6
    assert abs(u.components[0].c - 1.0) < 1e-6
    assert u.residual_energy[-1] < 1e-10
    u.validate()


def test_uwafd_single_line():
    # analytic signal of cos(3t) is (1/2) z^3: one unwinding term, done
    c = np.zeros(4, dtype=complex)
    c[3] = 0.5
    u = uwafd_decompose(HardyFunction(c), max_terms=4)
    assert len(u.components) == 1
    assert abs(u.components[0].c - 0.5) < 1e-12
    assert u.residual_energy[-1] < 1e-20


def test_uwafd_random_signals():
    rng = np.random.default_rng(55)
    f = random_hardy(rng, m=63)
    u = uwafd_decompose(f, max_terms=5, energy_tol=0.0)
    u.validate()
    assert np.all(np.diff(u.residual_energy) <= 1e-12 * f.energy())
    # |I| defect 4.6e-6 at step 2; the reconstruction still holds below
    assert max(u.meta["factor_consistency"]) <= 1e-5
    rec = unwinding_reconstruct(u)
    err = rec.samples - f.boundary(rec.n).samples
    assert np.mean(np.abs(err) ** 2) == pytest.approx(
        u.residual_energy[-1], abs=1e-8 * f.energy()
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: step 4's inner factor is off the circle by 9.85, "
    "so the reconstruction misses the recorded residual by 3.0e-7 of the source",
)
def test_uwafd_reconstructs_to_its_residual_on_the_seed_1784_am_fm():
    # the benchmark's greedy op #5 at seed 1784: 6-term UWAFD on the
    # analytic signal of an AM-FM input at N = 256; validate passes
    t = circle_grid(256)
    p1, p2, p3 = 3.7331896538086102, 3.0162811056028067, 5.995713453904674
    x = (1.0 + 0.6 * np.cos(t + p1)) * np.cos(6 * t + np.sin(t + p2)) + 0.15 * np.cos(11 * t + p3)
    f = analytic_signal(CircularSignal(x))
    d = uwafd_decompose(f, max_terms=6, energy_tol=0.0)
    d.validate()
    n = d.meta["n"]
    resid = np.mean(np.abs(f.boundary(n).samples - reconstruct(d, n).samples) ** 2)
    assert abs(resid - d.residual_energy[-1]) <= DEFAULT_TOL.energy_total * d.source_energy


@pytest.mark.parametrize("algo", [uwa_decompose, uwafd_decompose])
def test_factor_consistency_matches_a_fresh_recomputation(algo, monkeypatch):
    # each entry is the |f|-weighted RMS of |I| - 1, relative to the
    # weight's own RMS, recomputed here from the recorded factorization;
    # the product I*O reproduces f to rounding, which is why the figure
    # measures unimodularity instead
    seen = _recording_factorize(monkeypatch)
    u = algo(random_hardy(np.random.default_rng(57), m=63), 4)
    entries = u.meta["factor_consistency"]
    assert len(entries) == len(u.components) == 4
    for value, (boundary, fac) in zip(entries, seen):
        w = np.abs(boundary.samples) / np.abs(boundary.samples).max()
        defect = w * (np.abs(fac.inner.samples) - 1.0)
        assert value == np.sqrt(np.mean(defect**2) / np.mean(w**2))
        assert _product_defect(fac, boundary) < 1e-14


@pytest.mark.parametrize("lam", [1e-150, 1.0, 1e150])
def test_factor_consistency_flags_the_seed_1784_inner_factor(lam):
    # the input of the strict xfail above: step 4's inner factor is off
    # the circle, and only that step's figure says so, at every scale
    t = circle_grid(256)
    p1, p2, p3 = 3.7331896538086102, 3.0162811056028067, 5.995713453904674
    x = (1.0 + 0.6 * np.cos(t + p1)) * np.cos(6 * t + np.sin(t + p2)) + 0.15 * np.cos(11 * t + p3)
    d = uwafd_decompose(analytic_signal(CircularSignal(lam * x)), max_terms=6, energy_tol=0.0)
    cons = d.meta["factor_consistency"]
    assert len(cons) == 6
    assert cons[3] > 1e-6
    assert max(cons[:3] + cons[4:]) <= 1e-12


SCALES = [1e-150, 1e-20, 1e-8, 1.0, 1e20, 1e150]


def test_uwa_is_scale_invariant():
    # every factorization floor is relative to the boundary's own peak and
    # UWAFD's selection scores its outer factor at unit norm, so scaling the
    # signal changes no step: no scale ends a run early or moves a pole
    for algo, depth in ((uwa_decompose, 1e-5), (uwafd_decompose, 1e-4)):
        runs = []
        for lam in SCALES:
            u = algo(scaled_am_fm(lam), 4)
            assert len(u.components) == 4 and u.meta["stopped"] is None
            u.validate()
            runs.append(u)
        unit = runs[SCALES.index(1.0)]
        rel = unit.residual_energy[-1] / unit.source_energy
        assert rel < depth
        for u in runs:
            assert u.residual_energy[-1] / u.source_energy == pytest.approx(rel, rel=1e-9)
            if algo is uwafd_decompose:
                np.testing.assert_allclose(u.params, unit.params, rtol=0, atol=1e-12)


def test_front_loading_defect_hand_case():
    f = HardyFunction(np.array([0.0, 1.0, 0.5], dtype=complex))
    outer = HardyFunction(np.array([1.0, 0.5], dtype=complex))
    # outer tail mass sits strictly below the source tail mass
    assert front_loading_defect(f, outer) == pytest.approx(-0.25)
    # a constant has no tail beyond the whole norm
    constant = HardyFunction(np.array([2.0], dtype=complex))
    assert front_loading_defect(constant, constant) == 0.0


def test_front_loading_on_factorizations():
    rng = np.random.default_rng(56)
    for _ in range(3):
        f = random_hardy(rng, m=31)
        c = f.coefficients.copy()
        c[0] += 4.0  # keep the modulus bounded away from zero
        f = HardyFunction(c)
        fac = factorize(f.boundary(1024))
        assert front_loading_defect(f, fac.outer) <= 1e-10 * f.energy()


@pytest.mark.parametrize("algo", [uwa_decompose, uwafd_decompose])
def test_unwinding_records_synthesize_and_distribute_on_their_grid(algo):
    # reconstruct and dirac_tfd read unwinding records through the one TM
    # sweep, on the meta["n"] grid of the inner samples; the references are
    # the unwinding-only loops with their own Mobius prefix and rational
    # phase.  UWA has no TM part, so its lines match bit for bit.
    f = scaled_am_fm(1.0)
    u = algo(f, 4)
    n = u.meta["n"]
    assert len(u) == 4 and all(comp.inner is not None for comp in u.components)
    np.testing.assert_array_equal(reconstruct(u, n).samples, unwinding_reconstruct_reference(u))
    exact = algo is uwa_decompose
    for got, want in zip(dirac_tfd(u, n), unwinding_tfd_reference(u), strict=True):
        assert (got.index, got.a, got.c) == (want.index, want.a, want.c)
        np.testing.assert_array_equal(got.t, want.t)
        for field in ("omega", "weight"):
            g, w = getattr(got, field), getattr(want, field)
            if exact:
                np.testing.assert_array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * np.abs(w).max())
    for call in (
        lambda: reconstruct(u, n // 2),
        lambda: dirac_tfd(u, 2 * n),
        lambda: dirac_tfd(u, circle_grid(n)),
        lambda: dirac_tfd(u),
    ):
        with pytest.raises(InputError, match="inner factors"):
            call()
    # the cross-check compares c_k with <f, B_k>, which ignores the inner factors
    with pytest.raises(InputError, match="inner factors"):
        coefficient_cross_check(f, u)


def test_params_refused_for_parameterless_terms():
    u = uwa_decompose(scaled_am_fm(1.0), 2)
    with pytest.raises(InputError, match="no kernel parameter"):
        u.params


def test_inner_factor_refuses_an_outer_factor_that_vanishes_on_the_grid():
    # 1 + z vanishes at t = pi, the fifth of 8 grid points
    with pytest.raises(DegenerateModulus, match="vanishes"):
        _inner_factor(CircularSignal(np.ones(8)), HardyFunction([1.0, 1.0]))
