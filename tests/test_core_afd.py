"""Greedy one-at-a-time decomposition: selection, sifting, energy bookkeeping."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import afd
from afd import (
    Component,
    Decomposition,
    HardyFunction,
    analytic_signal,
    circle_grid,
    coefficient,
    coefficient_cross_check,
    core_afd_decompose,
    maximal_selection,
    objective,
    reconstruct,
    sift,
    validate_param,
)
from afd.config import DEFAULT_SEARCH, DEFAULT_TOL, SearchConfig
from afd.core_afd import (
    _ScanPlan,
    _derivative_stack,
    _grid_pick,
    _grid_values,
    _hardy_norm2,
    _polish,
    _search_grid,
    _search_radii,
    _select,
    _selection_model,
    _selection_scores,
)
from afd.cyclic_afd import cyclic_afd
from afd.errors import AFDError, InputError, NonFiniteEnergy, ParamOutOfDisc, ZeroResidual, ZeroSignal
from afd.poafd import _bergman_norm2, bergman_space, gram_schmidt, hardy_space, poafd_decompose
from afd.signal_core import series_values
from afd.tfd_uncertainty import dirac_tfd
from afd.unwinding import uwa_decompose, uwafd_decompose

from conftest import (
    am_fm_real,
    band_limited_real,
    check_selection_derivatives,
    core_afd_reference,
    derivative_stack_reference,
    grid_argmax,
    grid_values,
    grid_values_per_ring,
    horner,
    kernel_sum,
    random_hardy,
    random_params,
    residual_at,
    scaled_am_fm,
    selection_model_reference,
    series_bound,
    sift_reference,
    underflow_slack,
)


def test_objective_and_coefficient_formulas():
    f = HardyFunction(np.array([1.0, -0.5, 0.25j], dtype=complex))
    a = 0.3 - 0.2j
    val = f(a)
    assert coefficient(f, a) == pytest.approx(np.sqrt(1 - abs(a) ** 2) * val)
    assert objective(f, a) == pytest.approx((1 - abs(a) ** 2) * abs(val) ** 2)
    # vectorized over parameter arrays
    pts = np.array([0.1, 0.2 + 0.3j, -0.5j])
    np.testing.assert_allclose(
        objective(f, pts), [objective(f, complex(p)) for p in pts]
    )


def test_coefficient_is_bit_identical_to_the_point_evaluation_form():
    # one power column read directly, as series_values reads it, up to
    # the parameter bound
    rng = np.random.default_rng(62)
    for m in (0, 7, 255, 2047):
        f = random_hardy(rng, m=m)
        for a in random_params(rng, 6, r=0.99) + (0j, 1.0 - 1e-7, 1j * (1.0 - 1e-9)):
            assert coefficient(f, a) == complex(np.sqrt(1.0 - abs(a) ** 2) * f(a))


@pytest.mark.parametrize("m", (0, 127, 2047))
def test_interior_evaluation_has_the_parameter_bound(m):
    # f(a), f.circle and objective take every |a| <= 1 - param_boundary,
    # as validate_param does, and refuse just beyond it
    f = random_hardy(np.random.default_rng(64), m=m)
    for a in (1.0 - 1e-7, 1j * (1.0 - 1e-9)):
        assert f(a) == series_values(f.coefficients, [a])[0]
        assert objective(f, a) == pytest.approx(abs(coefficient(f, a)) ** 2, rel=1e-12)
    assert np.isfinite(f.circle(1.0 - 1e-7)).all()
    beyond = np.nextafter(1.0 - DEFAULT_TOL.param_boundary, 2.0)
    for probe in (lambda: f(beyond), lambda: f(1j * beyond), lambda: f([0.5, beyond]),
                  lambda: objective(f, beyond), lambda: f.circle(beyond)):
        with pytest.raises(ParamOutOfDisc):
            probe()


def test_a_nan_pole_is_not_in_the_disc():
    # every comparison with NaN is false, so each bound is written to
    # hold only for a number inside it; a forced NaN pole is refused
    # before the first step computes anything
    f = random_hardy(np.random.default_rng(65), m=31)
    nan = float("nan")
    probes = [lambda a=a: validate_param(a) for a in (nan, complex(0.5, nan), complex(nan, 0.0))]
    probes += [lambda: f(nan), lambda: f([0.5, nan]), lambda: objective(f, nan), lambda: f.circle(nan)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in probes:
            with pytest.raises(ParamOutOfDisc):
                probe()
        with pytest.raises(ParamOutOfDisc):
            core_afd_decompose(f, forced_params=[nan, 0.1])
        with pytest.raises(ParamOutOfDisc):
            core_afd_decompose(f, forced_params=[0.1, complex(nan, 0.2)])


@pytest.mark.parametrize("m", (127, 2047))
def test_sift_and_forced_params_reach_the_parameter_bound(m):
    # sift and forced parameters take every |a| <= 1 - 1e-9 that
    # validate_param accepts.  The rounding of 1 - |a|^2 grows like
    # 1e-16 / (1 - |a|): the split holds to 1.8e-11 of ||f||^2 here over
    # 20 seeds, and to 2.3e-13 at 1 - 1e-6
    rng = np.random.default_rng(63)
    f = random_hardy(rng, m=m)
    energy = f.energy()
    for a in (1.0 - 1e-7, -(1.0 - 1e-9), 1j * (1.0 - 1e-9)):
        split = energy - abs(coefficient(f, a)) ** 2 - sift(f, a).energy()
        assert abs(split) <= 1e-10 * energy
    params = [1.0 - 1e-7, 0.5j, -(1.0 - 1e-9)]
    d = core_afd_decompose(f, forced_params=params, energy_tol=0.0)
    assert np.array_equal(d.params, params)
    d.validate()


def test_selection_recovers_kernel_parameter():
    rng = np.random.default_rng(31)
    f, params, _ = kernel_sum(rng, terms=1, r=0.7)
    a = maximal_selection(f)
    assert abs(a - params[0]) < 1e-6


def test_selection_on_monomial_hits_known_radius():
    # for f = z^m the objective is (1-r^2) r^(2m), maximized at sqrt(m/(m+1))
    for m in (1, 3, 6):
        c = np.zeros(m + 1, dtype=complex)
        c[m] = 1.0
        a = maximal_selection(HardyFunction(c))
        assert abs(a) == pytest.approx(np.sqrt(m / (m + 1.0)), abs=1e-5)


def test_selection_include_keeps_better_candidate():
    rng = np.random.default_rng(32)
    f, params, _ = kernel_sum(rng, terms=1, r=0.7)
    a = maximal_selection(f, include=(params[0],))
    assert abs(a - params[0]) < 1e-12


def test_selection_keeps_an_include_candidate_beyond_r_max_as_given():
    # the polish only climbs within r_max, so it leaves such a candidate as it is
    b = 0.9 + 0.1j
    f = HardyFunction(np.sqrt(1.0 - abs(b) ** 2) * np.conj(b) ** np.arange(256))
    search = replace(DEFAULT_SEARCH, r_max=0.5)
    assert _select(f.coefficients[None], _hardy_norm2, search, 0.0, (b,)) == b
    assert _select(f.coefficients[None], _hardy_norm2, search, 0.0) == pytest.approx(
        0.4969418673 + 0.0552157630j, abs=1e-9
    )


def test_selection_rejects_zero():
    with pytest.raises(ZeroResidual):
        maximal_selection(HardyFunction(np.zeros(4, dtype=complex)))


@pytest.mark.parametrize("angles,radii", [(64, 32), (7, 3), (1, 1), (200, 5)])
def test_grid_values_match_pointwise_values(angles, radii):
    # orders where n_angles divides M+1, does not, and exceeds it
    rng = np.random.default_rng(angles + radii)
    search = SearchConfig(n_angles=angles, n_radii=radii)
    grid = _search_grid(search)
    for m in (0, 5, 127):
        c = random_hardy(rng, m=m).coefficients
        vals = _grid_values(c, search)
        assert vals.shape == grid.shape
        assert np.all(np.abs(vals - horner(c, grid)) <= series_bound(c, grid))
    stack = np.stack([c, 1j * c[::-1]])
    got = _grid_values(stack, search)
    assert got.shape == (2, grid.size)
    for row, vals in zip(stack, got):
        assert np.all(np.abs(vals - horner(row, grid)) <= series_bound(row, grid))
    with pytest.raises(InputError):
        _grid_values(c, replace(search, r_max=3.0))


# fold lengths at, just off and far off a multiple of n_angles (64)
CACHED_ORDERS = (0, 1, 63, 64, 65, 127, 2047)


@pytest.mark.parametrize("m", CACHED_ORDERS)
def test_cached_scan_is_bit_identical_to_the_uncached_one(m):
    rng = np.random.default_rng(m)
    c = random_hardy(rng, m=m).coefficients
    stack = np.stack([c, 1j * c[::-1], random_hardy(rng, m=m).coefficients])
    for coeffs in (c, stack):
        for _ in range(2):  # a cold and a warm plan
            got = _grid_values(coeffs, DEFAULT_SEARCH)
            assert np.array_equal(got, grid_values(coeffs, DEFAULT_SEARCH))


def test_scan_plans_are_keyed_by_grid_and_order():
    # each search differs from the default in one field of the key; any
    # field left out of the key hands one of them another's table
    searches = [
        DEFAULT_SEARCH,
        replace(DEFAULT_SEARCH, r_max=0.95),
        replace(DEFAULT_SEARCH, n_radii=16),
        replace(DEFAULT_SEARCH, n_angles=48),
    ]
    rng = np.random.default_rng(50)
    series = {m: random_hardy(rng, m=m).coefficients for m in (63, 127)}
    for _ in range(2):
        for c in series.values():
            for search in searches:
                assert np.array_equal(_grid_values(c, search), grid_values(c, search))
                assert np.array_equal(_ScanPlan.build(search, len(c)).points, _search_grid(search))
    # the key is the config itself: equal configs share one plan and one norm table
    equal = SearchConfig(n_angles=48, n_radii=32, r_max=1.0 - 1e-3)
    assert equal == searches[3] and equal is not searches[3]
    assert _ScanPlan.build(equal, 128) is _ScanPlan.build(searches[3], 128)
    assert _ScanPlan.kernel_norm2(equal, _hardy_norm2) is _ScanPlan.kernel_norm2(
        searches[3], _hardy_norm2
    )


@pytest.mark.parametrize("m", (0, 1, 63, 64, 65, 127, 511, 2047))
def test_block_factored_scan_matches_the_per_ring_scan_and_horner(m):
    # at small radii the late blocks r^(A b) are 0 or subnormal: a series
    # whose first 1000 coefficients vanish keeps all its weight in them
    rng = np.random.default_rng(60 + m)
    grid = _search_grid(DEFAULT_SEARCH)
    series = [random_hardy(rng, m=m).coefficients]
    if m >= 1000:
        late = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        late[:1000] = 0.0
        series.append(late)
    for c in series:
        got = _grid_values(c, DEFAULT_SEARCH)
        bound = series_bound(c, grid) + underflow_slack(c)
        for want in (grid_values_per_ring(c, DEFAULT_SEARCH), horner(c, grid)):
            assert np.all(np.abs(got - want) <= bound)


def test_stacked_scan_is_bit_identical_to_single_row_scans():
    # Bergman POAFD sums rows scanned one at a time, poafd_select scans
    # all rows of a system at once: a row's values must not depend on its
    # stack, with one BLAS thread or the library's default
    src = os.path.dirname(os.path.dirname(afd.__file__))
    code = """
import numpy as np
from afd.config import DEFAULT_SEARCH, SearchConfig
from afd.core_afd import _grid_values
rng = np.random.default_rng(61)
bad = []
grids = (DEFAULT_SEARCH, SearchConfig(n_angles=1, n_radii=8), SearchConfig(n_angles=200, n_radii=5))
for search in grids:
    for m in (0, 63, 64, 511, 2047):
        stack = rng.standard_normal((4, m + 1)) + 1j * rng.standard_normal((4, m + 1))
        for k, vals in enumerate(_grid_values(stack, search)):
            if not np.array_equal(vals, _grid_values(stack[k], search)):
                bad.append((search.n_angles, m, k))
print(bad)
"""
    capped = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in capped}
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        env = dict(base, PYTHONPATH=src, **threads)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", threads


def test_scan_plan_holds_block_tables_only():
    # no n_radii x (M+1) table: B = 32 blocks and A = 64 within-block
    # powers per ring, the grid points the largest table
    search = DEFAULT_SEARCH
    plan = _ScanPlan.build(search, 2048)
    assert plan.blocks.shape == (search.n_radii, 2048 // search.n_angles)
    assert plan.within.shape == (search.n_radii, search.n_angles)
    assert sum(table.nbytes for table in plan) <= 64 * 1024


def test_scan_plan_is_read_only_and_the_grid_is_checked_every_call():
    plan = _ScanPlan.build(DEFAULT_SEARCH, 128)
    for table in plan:
        with pytest.raises(ValueError):
            table[0] = 0.0
    f = random_hardy(np.random.default_rng(51), m=127)
    outside = replace(DEFAULT_SEARCH, r_max=3.0)
    # the cache keeps no raised error: a refused grid is refused again
    for _ in range(2):
        with pytest.raises(InputError):
            _ScanPlan.build(outside, 128)
        with pytest.raises(InputError):
            _grid_values(f.coefficients, outside)


def test_cached_tables_are_read_only():
    # every table the selection and the sift share between calls refuses writes
    for search in (DEFAULT_SEARCH, SearchConfig(n_angles=48, n_radii=16, r_max=0.95)):
        for m1 in (8, 256):
            tables = list(_ScanPlan.build(search, m1))
            tables += [_ScanPlan.kernel_norm2(search, rule) for rule in (_hardy_norm2, _bergman_norm2)]
            for table in tables:
                with pytest.raises(ValueError):
                    table[0] = 0.0
    for n in (16, 512, 4096):
        z = _ScanPlan.circle(n)
        np.testing.assert_array_equal(z, np.exp(1j * circle_grid(n)))
        with pytest.raises(ValueError):
            z[0] = 0.0
        with pytest.raises(ValueError):
            z *= 1.0


def test_scores_from_cached_kernel_norms_equal_scores_from_recomputed_ones():
    # the cached kernel norms are the ones the scoring computed from |a|^2 of
    # the grid points on every call, and the scores are bit for bit the same
    rng = np.random.default_rng(52)
    for search in (DEFAULT_SEARCH, SearchConfig(n_angles=48, n_radii=16, r_max=0.95)):
        fresh_sq = np.abs(_search_grid(search)) ** 2
        for rule in (_hardy_norm2, _bergman_norm2):
            cached = _ScanPlan.kernel_norm2(search, rule)
            np.testing.assert_array_equal(cached, rule(fresh_sq)[0])
            # without rows, and with row sums reaching phi or past it (scored 0)
            norm2 = rule(fresh_sq)[0]
            near = norm2 * rng.uniform(0.0, 1.2, len(norm2))
            near[::7] = norm2[::7] * (1.0 - 1e-14)
            for rows_sq in (0.0, near):
                values = _grid_values(random_hardy(rng, m=127).coefficients, search)
                # the scoring before the masked divide
                ok = norm2 - rows_sq > DEFAULT_TOL.gram**2 * norm2
                want = np.zeros(len(values))
                want[ok] = np.abs(values[ok]) ** 2 / (norm2 - rows_sq)[ok]
                np.testing.assert_array_equal(_selection_scores(cached, values, rows_sq), want)


def test_sift_on_the_cached_circle_is_bit_identical():
    # the shared denominator and the cached circle change no bit of the sift
    rng = np.random.default_rng(53)
    for m in (7, 63, 255, 1023, 2047):
        f = random_hardy(rng, m=m)
        for radius in (0.0, 0.3, 0.9, 0.999):
            a = radius * np.exp(2j * np.pi * rng.uniform())
            got, want = sift(f, a), sift_reference(f, a)
            assert got.coefficients.shape == want.coefficients.shape
            assert np.array_equal(got.coefficients, want.coefficients)


def test_selection_model_matches_the_series_values_form_bit_for_bit():
    # the lean point model against one series_values call on the
    # [residual, rows] stack, with and without system rows
    rng = np.random.default_rng(54)
    hardy, bergman = hardy_space(m=63), bergman_space(m=63)
    f = random_hardy(rng, m=63)
    for space, rows in [
        (hardy, 0), (hardy, 1), (hardy, 3), (bergman, 2),
    ]:
        params = random_params(rng, rows, r=0.7)
        vectors = gram_schmidt(space, params).vectors
        resid = f.coefficients / np.linalg.norm(f.coefficients)
        full = np.vstack([resid, vectors])
        np.testing.assert_array_equal(_derivative_stack(full), derivative_stack_reference(full))
        stack = _derivative_stack(full)
        for a in random_params(rng, 8, r=0.95):
            want = selection_model_reference(derivative_stack_reference(full), space.norm2_rule, a)
            assert _selection_model(stack, space.norm2_rule, a) == want
    # at a system parameter the kernel lies in the span of the rows: no model
    params = (0.4 - 0.3j, -0.5j)
    vectors = gram_schmidt(hardy, params).vectors
    full = np.vstack([f.coefficients, vectors])
    for a in params:
        assert selection_model_reference(derivative_stack_reference(full), _hardy_norm2, a) is None
        assert _selection_model(_derivative_stack(full), _hardy_norm2, a) is None


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_energy_overflow_is_refused_by_every_algorithm(scale):
    # an energy beyond the double range is refused by name, before any
    # term, and without numpy's overflow warning
    f = scaled_am_fm(scale)
    runs = [
        lambda: core_afd_decompose(f),
        lambda: uwa_decompose(f, max_terms=4),
        lambda: uwafd_decompose(f, max_terms=4),
        lambda: cyclic_afd(f, 2),
        lambda: poafd_decompose(hardy_space(f.order), f.coefficients),
        lambda: poafd_decompose(bergman_space(f.order), f.coefficients),
    ]
    for run in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEnergy):
                run()
    assert issubclass(NonFiniteEnergy, InputError)


# (run on f and a 2-term record d of f, the text of the refusal): a
# count must be an int >= 0 (numpy's too, not a bool), a tolerance a
# finite real >= 0, for every algorithm, as the command line refuses
# --terms, --n and --tol
BAD_ARGUMENTS = {
    "core-negative-terms": (lambda f, d: core_afd_decompose(f, max_terms=-1), "max_terms wants an integer >= 0"),
    "core-fractional-terms": (lambda f, d: core_afd_decompose(f, max_terms=2.5), "max_terms wants an integer >= 0"),
    "core-nan-tol": (lambda f, d: core_afd_decompose(f, energy_tol=np.nan), "energy_tol wants a finite"),
    "uwa-bool-terms": (lambda f, d: uwa_decompose(f, True), "max_terms wants an integer >= 0"),
    "uwafd-negative-tol": (lambda f, d: uwafd_decompose(f, energy_tol=-1e-6), "energy_tol wants a finite"),
    "hardy-poafd-inf-tol": (
        lambda f, d: poafd_decompose(hardy_space(f.order), f.coefficients, energy_tol=np.inf),
        "energy_tol wants a finite",
    ),
    "bergman-poafd-float-terms": (
        lambda f, d: poafd_decompose(bergman_space(f.order), f.coefficients, max_terms=3.0),
        "max_terms wants an integer >= 0",
    ),
    "cyclic-fractional-n": (lambda f, d: cyclic_afd(f, 2.5), "n wants an integer >= 0"),
    "cyclic-bool-n": (lambda f, d: cyclic_afd(f, True), "n wants an integer >= 0"),
    "cyclic-negative-cycles": (lambda f, d: cyclic_afd(f, 2, max_cycles=-1), "max_cycles wants an integer >= 0"),
    "cyclic-nan-tol": (lambda f, d: cyclic_afd(f, 2, delta_tol=np.nan), "delta_tol wants a finite"),
    "dirac-tfd-bool-grid": (lambda f, d: dirac_tfd(d, grid=True), "grid wants an integer >= 1"),
    "reconstruct-bool-grid": (lambda f, d: reconstruct(d, True), "n wants an integer >= 1"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_counts_and_tolerances_are_refused_by_rule(case):
    f = analytic_signal(am_fm_real(np.random.default_rng(5), 64))
    d = core_afd_decompose(f, max_terms=2)
    run, why = BAD_ARGUMENTS[case]
    with pytest.raises(InputError, match=why):
        run(f, d)
    # numpy integers and floats are counts and tolerances like Python's
    assert len(core_afd_decompose(f, max_terms=np.int64(2), energy_tol=np.float64(0.0))) == 2


def test_grid_check_matches_the_largest_radius():
    # the check runs on the radii the plan is built from, so it agrees
    # with the grid itself right at the boundary
    limit = 1.0 - DEFAULT_TOL.param_boundary
    for n_radii in (1, 3, 32, 200):
        top = _search_radii(SearchConfig(n_radii=n_radii, r_max=1.0)).max()
        for k in range(-3, 4):
            search = SearchConfig(n_radii=n_radii, r_max=limit / top * (1.0 + k * 2.2e-16))
            outside = _search_radii(search).max() > limit
            try:
                _ScanPlan.build(search, 8)
            except InputError:
                assert outside
            else:
                assert not outside


def test_selection_ignores_the_signal_scale():
    # Q is homogeneous of degree 2 in the residual, which _grid_pick scales
    # to unit norm: at 1e150 nothing overflows and the picks are those at 1
    unit, large = scaled_am_fm(1.0), scaled_am_fm(1e150)
    space = hardy_space(unit.order)
    runs = [
        lambda f: core_afd_decompose(f, max_terms=6, energy_tol=0.0).params,
        lambda f: np.array([term.a for term in uwafd_decompose(f, max_terms=4).components]),
        lambda f: poafd_decompose(space, f.coefficients, max_terms=6, energy_tol=0.0).params,
    ]
    for run in runs:
        want, got = run(unit), run(large)
        assert len(got) == len(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("lam", [1e-20, 1e-30, 1e-150])
def test_selection_floor_is_relative_to_the_signal(lam):
    # the floor compares the remainder with the source, not with 1: tiny
    # signals get the poles of the unit one
    unit, tiny = scaled_am_fm(1.0), scaled_am_fm(lam)
    runs = [
        lambda f: core_afd_decompose(f, max_terms=4, energy_tol=0.0).params,
        lambda f: np.array([term.a for term in uwafd_decompose(f, max_terms=4).components]),
    ]
    for run in runs:
        want, got = run(unit), run(tiny)
        assert len(got) == len(want) == 4
        assert np.max(np.abs(got - want)) <= 1e-12


def test_selection_floor_refuses_relative_to_the_source():
    f = scaled_am_fm(1e-20)
    assert maximal_selection(f) == maximal_selection(f, source_norm=f.norm())
    with pytest.raises(ZeroResidual):
        maximal_selection(f, source_norm=scaled_am_fm(1e-7).norm())


def unpolished_pick(f, search):
    """maximal_selection's grid stage on f: scan and tie-break, no polish."""
    return _grid_pick(f.coefficients[None], _hardy_norm2, search)[0]


def test_unpolished_selection_is_pointwise_grid_argmax():
    # the scan's values must line up with _search_grid, ties included:
    # real coefficients tie conjugate points, z^3 ties a whole ring
    rng = np.random.default_rng(34)
    grid = _search_grid(DEFAULT_SEARCH)
    cases = [random_hardy(rng, m=m) for m in (7, 127, 511)]
    cases += [HardyFunction(random_hardy(rng, m=63).coefficients.real)]
    cases += [HardyFunction([0, 0, 0, 1]), HardyFunction([2.0])]
    for f in cases:
        assert unpolished_pick(f, DEFAULT_SEARCH) == grid_argmax(grid, objective(f, grid))


def test_selection_leaves_the_real_axis():
    # f = e_b: the grid winner sits on the negative real axis, the peak
    # b just off it; a polish confined to the axis loses 2e-3 of ||f||^2
    b = -0.75 + 0.02j
    k = np.arange(256)
    f = HardyFunction(np.sqrt(1.0 - abs(b) ** 2) * np.conj(b) ** k)
    grid = _search_grid(DEFAULT_SEARCH)
    start = grid[np.argmax(objective(f, grid))]
    assert abs(start.imag) < 1e-12 and start.real < 0.0
    a = maximal_selection(f)
    assert abs(a - b) < 1e-6
    assert objective(f, a) >= f.energy() * (1.0 - 1e-12)


def test_selection_matches_dense_scan_on_criterion_05_trial_2():
    # criterion 05's trial 2 (seed 7): at every greedy step the pick scores
    # at least the polish started from the maximum of a dense polar scan
    rng = np.random.default_rng(7)
    for trial in range(3):
        f, _, _ = kernel_sum(rng, terms=2 + trial % 4, m=255, r=0.8)
    dense = SearchConfig(n_angles=400, n_radii=200)
    grid = _search_grid(dense)
    energy = f.energy()
    d = core_afd_decompose(f, max_terms=10, energy_tol=0.0)
    assert len(d) == 10
    g = f
    for a in d.params:
        vals = (1.0 - np.abs(grid) ** 2) * np.abs(_grid_values(g.coefficients, dense)) ** 2
        start = complex(grid[np.argmax(vals)])
        ref = _polish(_derivative_stack(g.coefficients[None]), _hardy_norm2, start, DEFAULT_SEARCH)
        assert objective(g, a) >= objective(g, ref) - 1e-12 * energy
        g = sift(g, a)


def test_selection_derivatives_match_central_differences():
    rng = np.random.default_rng(42)
    for _ in range(3):
        f = random_hardy(rng, m=63)
        check_selection_derivatives(
            f.coefficients[None], _hardy_norm2, lambda a: objective(f, a), rng
        )


def test_selection_climbs_on_benchmark_like_signals():
    # every step: never below the best grid point, within the cap, and
    # where the polish moved off the grid start the objective rose
    rng = np.random.default_rng(43)
    grid = _search_grid(DEFAULT_SEARCH)
    moved = 0
    for signal in (am_fm_real(rng), am_fm_real(rng), band_limited_real(rng, 256)):
        f = analytic_signal(signal)
        d = core_afd_decompose(f, max_terms=10, energy_tol=0.0)
        g = f
        for a in d.params:
            assert abs(a) <= DEFAULT_SEARCH.r_max
            # the tie-break may start 1e-12 below the grid maximum
            assert objective(g, a) >= objective(g, grid).max() - 1e-12
            start = unpolished_pick(g, DEFAULT_SEARCH)
            if a != start:
                moved += 1
                assert objective(g, a) > objective(g, start)
            g = sift(g, a)
    assert moved > 0


def test_polish_never_lowers_the_grid_start(coarse_search):
    # from a coarse grid's start the first steps are long; a step is
    # taken only if it raises the objective
    rng = np.random.default_rng(47)
    for _ in range(100):
        f = random_hardy(rng, m=63, decay=rng.uniform(0.3, 1.5))
        a = _select(f.coefficients[None], _hardy_norm2, coarse_search, 0.0)
        start = unpolished_pick(f, coarse_search)
        assert a == start or objective(f, a) > objective(f, start)


@pytest.mark.parametrize(
    "a, model, search",
    [
        # on the cap circle r = 0.5 with an outward gradient and no curvature in the angle
        (0.5 + 0j, (1.0, 1.0, 2.0, 0j), SearchConfig(r_max=0.5)),
        # inside the disc with h = c = 0: no Newton step and no curvature to scale by
        (0.1 + 0.2j, (1.0, 1.0 + 1j, 0.0, 0j), DEFAULT_SEARCH),
    ],
    ids=["cap-q_tt-zero", "inside-flat"],
)
def test_polish_stops_on_a_flat_model(monkeypatch, a, model, search):
    # each case reaches one of the two breaks of the loop: the start comes
    # back after the one model evaluation, without a line search
    calls = []

    def flat(stack, norm2_rule, b):
        calls.append(b)
        return model

    monkeypatch.setattr("afd.core_afd._selection_model", flat)
    assert _polish(None, None, a, search) == a
    assert calls == [a]


def test_sift_warns_on_negative_frequency_leakage(monkeypatch):
    # the sift's one fault detector: a leak above 1e-9 ||f|| is reported,
    # and the remainder is the one computed without it
    f = random_hardy(np.random.default_rng(48), m=63)
    a = 0.3 - 0.4j
    want = sift(f, a)
    real = afd.core_afd.to_hardy

    def leaking(s, m=None):
        g, _leak = real(s, m)
        return g, 1e-6 * f.norm()

    monkeypatch.setattr("afd.core_afd.to_hardy", leaking)
    with pytest.warns(RuntimeWarning, match="negative-frequency leakage .* in sift"):
        got = sift(f, a)
    assert np.array_equal(got.coefficients, want.coefficients)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(afd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import afd, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_sift_energy_identity_is_exact():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f = random_hardy(rng, m=63)
        a = complex(rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        g = sift(f, a)
        c = coefficient(f, a)
        assert g.order <= f.order
        # one-step energy split holds to machine precision
        assert abs(f.energy() - abs(c) ** 2 - g.energy()) < 1e-13 * f.energy()


def test_sift_annihilates_its_own_kernel():
    rng = np.random.default_rng(34)
    f, params, _ = kernel_sum(rng, terms=1, r=0.8)
    g = sift(f, params[0])
    assert g.energy() < 1e-20 * f.energy()


def test_decompose_single_kernel():
    rng = np.random.default_rng(35)
    f, params, coeffs = kernel_sum(rng, terms=1, r=0.7)
    d = core_afd_decompose(f, max_terms=5)
    assert len(d.components) == 1
    assert abs(d.params[0] - params[0]) < 1e-6
    assert abs(d.coefficients[0] - coeffs[0]) < 1e-6
    assert residual_at(d, 1) < 1e-10 * f.energy()
    d.validate()


def test_decompose_forced_zeros_is_fourier():
    rng = np.random.default_rng(36)
    f = random_hardy(rng, m=15)
    d = core_afd_decompose(f, forced_params=(0,) * 8, energy_tol=0.0)
    np.testing.assert_allclose(d.coefficients, f.coefficients[:8], atol=1e-12)
    tail = np.cumsum(np.abs(f.coefficients) ** 2)
    np.testing.assert_allclose(
        d.residual_energy, f.energy() - np.concatenate([[0.0], tail[:8]]), atol=1e-12
    )


def test_decompose_energy_identity_and_monotone_trace():
    rng = np.random.default_rng(37)
    for _ in range(3):
        f = random_hardy(rng, m=127)
        d = core_afd_decompose(f, max_terms=6, energy_tol=0.0)
        d.validate()
        assert np.all(np.diff(d.residual_energy) <= 1e-12 * f.energy())
        total = np.sum(np.abs(d.coefficients) ** 2) + d.residual_energy[-1]
        assert total == pytest.approx(f.energy(), rel=1e-10)
        assert coefficient_cross_check(f, d) < 1e-10


@pytest.mark.parametrize("n", [256, 4096])
@pytest.mark.parametrize("family", [am_fm_real, band_limited_real])
def test_loop_without_the_audit_matches_the_audited_loop(family, n):
    # same poles, coefficients and trace bit for bit, and the on-demand
    # cross-check reads the figure the audited loop recorded
    f = analytic_signal(family(np.random.default_rng(n), n=n))
    d = core_afd_decompose(f, max_terms=10, energy_tol=0.0)
    ref = core_afd_reference(f, max_terms=10, energy_tol=0.0)
    assert len(d) == 10
    np.testing.assert_array_equal(d.params, ref.params)
    np.testing.assert_array_equal(d.coefficients, ref.coefficients)
    np.testing.assert_array_equal(d.residual_energy, ref.residual_energy)
    defect = coefficient_cross_check(f, d)
    assert defect == ref.meta["triple_defect"]
    assert defect < 1e-10 * f.norm()


def test_greedy_first_term_beats_fourier_first_term():
    rng = np.random.default_rng(38)
    for _ in range(10):
        f, _, _ = kernel_sum(rng, terms=3, r=0.8)
        greedy = core_afd_decompose(f, max_terms=1, energy_tol=0.0)
        fourier = core_afd_decompose(f, forced_params=(0,), energy_tol=0.0)
        assert residual_at(greedy, 1) <= residual_at(fourier, 1) + 1e-12 * f.energy()


def test_decompose_respects_stopping_rules():
    rng = np.random.default_rng(39)
    f = random_hardy(rng, m=63)
    d = core_afd_decompose(f, max_terms=3, energy_tol=0.0)
    assert len(d.components) == 3
    d2 = core_afd_decompose(f, max_terms=50, energy_tol=0.3)
    assert d2.residual_energy[-1] / f.energy() < 0.3
    assert len(d2.components) < 50


def test_decompose_rejects_zero_signal():
    zero = HardyFunction(np.zeros(8, dtype=complex))
    for decompose in (core_afd_decompose, uwafd_decompose, lambda f: uwa_decompose(f, 3)):
        with pytest.raises(ZeroSignal):
            decompose(zero)


def test_reconstruct_matches_partial_sums():
    rng = np.random.default_rng(40)
    f = random_hardy(rng, m=63)
    d = core_afd_decompose(f, max_terms=4, energy_tol=0.0)
    n = 512
    rec = reconstruct(d, n)
    err = f.boundary(n).samples - rec.samples
    assert np.mean(np.abs(err) ** 2) == pytest.approx(
        d.residual_energy[-1], rel=1e-8
    )


def test_forced_params_validation():
    rng = np.random.default_rng(41)
    f = random_hardy(rng, m=15)
    params = random_params(rng, 3, r=0.6)
    d = core_afd_decompose(f, forced_params=params, energy_tol=0.0)
    assert tuple(d.params) == params
    d.validate()


def test_components_compare_and_hash_without_their_inner_samples():
    # inner is excluded from comparison, so components stay hashable and
    # equal whatever inner samples they carry
    first = Component(a=None, c=0.5 + 0.25j, inner=np.ones(8, dtype=complex))
    second = replace(first, inner=np.exp(1j * np.arange(8.0)))
    assert first == second and hash(first) == hash(second)
    assert len({first, second, replace(first, inner=None)}) == 1


def test_validate_refuses_a_rising_trace_and_a_tampered_coefficient():
    f = random_hardy(np.random.default_rng(91), m=63)
    d = core_afd_decompose(f, max_terms=4, energy_tol=0.0)
    d.validate()
    rising = d.residual_energy.copy()
    rising[2] = rising[1] * 1.01
    with pytest.raises(AFDError, match="trace increased"):
        Decomposition(d.components, rising).validate()
    tampered = list(d.components)
    tampered[1] = replace(tampered[1], c=tampered[1].c * 1.01)
    with pytest.raises(AFDError, match="energy identity defect"):
        Decomposition(tampered, d.residual_energy).validate()
    # every comparison with a NaN is false, so non-finite records are refused by name
    first = d.components[:1]
    for trace in ([1.0, np.nan], [np.nan, np.nan], [1.0, np.inf]):
        with pytest.raises(AFDError, match="not finite"):
            Decomposition(first, np.array(trace)).validate()
    with pytest.raises(AFDError, match="not finite"):
        Decomposition([replace(first[0], c=complex(np.nan))], d.residual_energy[:2]).validate()
