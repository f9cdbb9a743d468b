"""Pre-orthogonalized greedy selection in reproducing-kernel spaces."""

import re
from dataclasses import replace

import numpy as np
import pytest

import afd.poafd
from afd import (
    HardyFunction,
    KernelSpace,
    analytic_signal,
    bergman_space,
    core_afd_decompose,
    gram_schmidt,
    kernel,
    maximal_selection,
    multiplicity_limit_check,
    poafd_decompose,
    poafd_select,
    reconstruct,
    tm_system_boundary,
)
from afd.errors import DegenerateGram, InputError, ZeroResidual, ZeroSignal
from afd import hardy_space
from afd.config import DEFAULT_SEARCH, DEFAULT_TOL
from afd.core_afd import _grid_pick, _grid_values, _hardy_norm2, _reduced_without, _search_grid
from afd.poafd import MULTIPLICITY_OFFSETS, SELECTION_CAP, _extend, _grow, _scan_rows
from afd.signal_core import series_values

from conftest import (
    am_fm_real,
    band_limited_real,
    check_selection_derivatives,
    gram_schmidt_reference,
    grid_argmax,
    horner,
    kernel_sum,
    poafd_reference,
    random_hardy,
    random_params,
    scaled_am_fm,
    selection_objective,
    series_bound,
)


def _spaces():
    return hardy_space(m=63), bergman_space(m=63)


def _residual_rows(space, rng, n_params):
    """Random f, a system of n_params poles, and np.vstack([resid, system.vectors])."""
    f = random_hardy(rng, m=space.order).coefficients
    system = gram_schmidt(space, random_params(rng, n_params))
    resid = f - sum(space.inner(f, v) * v for v in system.vectors)
    return f, system, np.vstack([resid, system.vectors])


def test_reproducing_property():
    rng = np.random.default_rng(71)
    f = random_hardy(rng, m=40).coefficients
    f = np.pad(f, (0, 23))
    for space in _spaces():
        for a in (0.0, 0.35, -0.2 + 0.5j):
            k = kernel(space, a, 1)
            lhs = space.inner(f, k)
            rhs = np.polyval(f[::-1], a)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_kernel_norms_closed_form():
    hardy, bergman = _spaces()
    for a in (0.0, 0.4, 0.6j):
        r2 = abs(a) ** 2
        assert hardy.norm(kernel(hardy, a, 1)) ** 2 == pytest.approx(
            1.0 / (1.0 - r2), rel=1e-10
        )
        assert bergman.norm(kernel(bergman, a, 1)) ** 2 == pytest.approx(
            1.0 / (1.0 - r2) ** 2, rel=1e-10
        )


def test_kernel_guards():
    hardy, _ = _spaces()
    beyond = re.escape("kernel parameter |a|=0.9600 beyond the 0.95 cap")
    with pytest.raises(InputError, match=beyond):
        kernel(hardy, 0.96, 1)  # beyond the selection cap
    # Hardy POAFD builds no kernels, yet refuses a forced parameter there alike
    f = scaled_am_fm(1.0, 128).coefficients
    with pytest.raises(InputError, match=beyond):
        poafd_decompose(hardy, f, forced_params=(0.96,))
    with pytest.raises(InputError):
        kernel(hardy, 0.3, 0)


def test_kernel_of_multiplicity_beyond_the_order_is_zero():
    # the (l-1)-th derivative of a degree-m polynomial vanishes for l > m + 1
    for space in _spaces():
        m = space.order
        assert np.any(kernel(space, 0.3, m + 1))
        for l in (m + 2, m + 3, m + 10):
            seq = kernel(space, 0.3, l)
            assert seq.shape == (m + 1,) and not np.any(seq)


def test_derivative_kernel_reproduces_derivatives():
    rng = np.random.default_rng(72)
    f = np.pad(random_hardy(rng, m=20).coefficients, (0, 43))
    fh = HardyFunction(f)
    for space in _spaces():
        for a in (0.3, -0.1 + 0.4j):
            k2 = kernel(space, a, 2)
            assert space.inner(f, k2) == pytest.approx(
                np.polyval(fh.derivative().coefficients[::-1], a), abs=1e-8
            )
    # hand value: d/dz z^2 at 0.3
    hardy, _ = _spaces()
    zsq = np.zeros(64, dtype=complex)
    zsq[2] = 1.0
    assert hardy.inner(zsq, kernel(hardy, 0.3, 2)) == pytest.approx(0.6)


def test_gram_schmidt_matches_tm_system_in_hardy_space():
    params = (0.4 + 0.1j, -0.3, 0.2 - 0.5j)
    space = hardy_space(m=255)
    system = gram_schmidt(space, params)
    n = 2048
    rows = tm_system_boundary(params, n)
    ref = (np.fft.fft(rows, axis=1) / n)[:, :256]
    np.testing.assert_allclose(system.vectors, ref, atol=1e-8)


@pytest.mark.parametrize("m", [63, 127, 511])
def test_hardy_rows_sit_on_tm_phase(m):
    # <P_m B_k, v_k> is real and positive; B_k is sampled on enough
    # points that its aliased tail, |a|^(2m) on 2(m+1) points, stays
    # below rounding at the 0.95 cap
    rng = np.random.default_rng(83)
    space = hardy_space(m)
    n = max(4096, 4 * (m + 1))
    for length in range(1, 7):
        a = rng.uniform(0.8, SELECTION_CAP, length) * np.exp(2j * np.pi * rng.uniform(size=length))
        params = [complex(v) for v in a]
        if length > 2:
            params[-1] = params[0]  # repeats: derivative rows
            params[-2] = params[0]
        vectors = gram_schmidt(space, params).vectors
        rows = (np.fft.fft(tm_system_boundary(params, n), axis=1) / n)[:, : m + 1]
        for row, v in zip(rows, vectors):
            assert abs(np.angle(space.inner(row, v))) <= 1e-13


def test_gram_schmidt_orthonormal_with_repeats():
    # the clustered triple needs the second Gram-Schmidt pass: one pass
    # leaves a defect of 6e-8 in the Hardy space
    for space in _spaces():
        assert gram_schmidt(space, ()).gram_defect() == 0.0
        for params in ((0.5, 0.5, -0.2j), (0.3, 0.3, 0.3), (0.4, 0.401, 0.402)):
            system = gram_schmidt(space, params)
            assert system.gram_defect() < 1e-9


def test_grown_system_matches_rebuilt_reference():
    # one row per step, classical passes and a closed-form TM phase
    # against the rebuild: sequential MGS, then phase alignment at the end
    rng = np.random.default_rng(80)
    cases = [(0.5, 0.5, -0.2j), (0.3, 0.3, 0.3)]
    cases += [random_params(rng, 5, repeat_frac=0.5) for _ in range(4)]
    for space in _spaces():
        for params in cases:
            got = gram_schmidt(space, params)
            want = gram_schmidt_reference(space, params)
            assert got.params == want.params
            np.testing.assert_allclose(got.vectors, want.vectors, rtol=0, atol=1e-12)
            # growing leaves the system it grew from as it was
            base = gram_schmidt(space, params[:-1])
            _grow(base, params[-1])
            np.testing.assert_array_equal(_grow(base, params[-1]).vectors, got.vectors)


def test_gram_schmidt_degenerate_pair():
    hardy, _ = _spaces()
    # separated by more than the coincidence width but numerically parallel
    with pytest.raises(DegenerateGram):
        gram_schmidt(hardy, (0.4, 0.4 + 1.5e-9))


def test_select_finds_kernel_parameter():
    for space in _spaces():
        b = 0.4 - 0.2j
        f = kernel(space, b, 1)
        system = gram_schmidt(space, ())
        a = poafd_select(f, system)
        assert abs(a - b) < 1e-5


def test_select_agrees_with_core_in_hardy_space():
    rng = np.random.default_rng(73)
    f, _, _ = kernel_sum(rng, terms=3, m=63, r=0.7)
    space = hardy_space(m=63)
    a_poafd = poafd_select(f.coefficients, gram_schmidt(space, ()))
    assert a_poafd == maximal_selection(f, replace(DEFAULT_SEARCH, r_max=SELECTION_CAP))


def test_hardy_select_lands_on_a_double_pole():
    # f = 1/(1 - conj(a) z)^2 with a taken: the remainder peaks at a again,
    # where the row objective's denominator vanishes (8.1e-7 away on rows)
    a = 0.6 + 0.3j
    space = hardy_space(511)
    k = np.arange(512)
    f = (k + 1) * np.conj(a) ** k
    assert abs(poafd_select(f, gram_schmidt(space, (a,))) - a) <= 1e-9


def test_select_dominates_random_probes():
    rng = np.random.default_rng(74)
    for space in _spaces():
        f, _, _ = kernel_sum(rng, terms=2, m=63, r=0.6)
        d_best = poafd_decompose(space, f, max_terms=1, energy_tol=0.0)
        best = d_best.residual_energy[-1]
        for _ in range(25):
            probe = random_params(rng, 1, r=0.9)
            d = poafd_decompose(
                space, f, max_terms=1, energy_tol=0.0, forced_params=probe
            )
            assert best <= d.residual_energy[-1] + 1e-10 * f.energy()


def test_selection_objective_scan_and_probes_match_horner():
    rng = np.random.default_rng(75)
    eps = np.finfo(float).eps
    search = replace(DEFAULT_SEARCH, r_max=SELECTION_CAP)
    grid = _search_grid(search)
    for space in _spaces():
        _f, _system, rows = _residual_rows(space, rng, 3)
        ref_vals = np.array([horner(row, grid) for row in rows])
        ref = selection_objective(space, grid, ref_vals)
        # the value bounds carried through |r|^2 / (||k_a||^2 - sum_j |B_j|^2)
        err = np.array([series_bound(row, grid) for row in rows])
        mag = np.abs(ref_vals)
        norm2 = space.norm2_rule(np.abs(grid) ** 2)[0]
        denom2 = norm2 - np.sum(mag[1:] ** 2, axis=0)
        d_num = 2 * mag[0] * err[0] + err[0] ** 2
        d_den = np.sum(2 * mag[1:] * err[1:] + err[1:] ** 2, axis=0) + 4 * eps * norm2
        assert np.all(denom2 - d_den > DEFAULT_TOL.gram**2 * norm2)
        bound = (d_num + ref * d_den) / (denom2 - d_den) + 4 * eps * ref
        for vals in (_grid_values(rows, search), series_values(rows, grid)):
            assert np.all(np.abs(selection_objective(space, grid, vals) - ref) <= bound)


def test_selection_objective_is_normalized_extension_coefficient():
    # |r(a)|^2 / (||k_a||^2 - sum_j |B_j(a)|^2) = |<r, B_n^a>|^2 with B_n^a
    # the unit Gram-Schmidt extension of the system by k_a
    rng = np.random.default_rng(77)
    for space in _spaces():
        _f, system, rows = _residual_rows(space, rng, 3)
        pts = np.array(random_params(rng, 6, r=0.8))
        got = selection_objective(space, pts, series_values(rows, pts))
        want = [
            abs(space.inner(rows[0], _extend(system, kernel(space, a)))) ** 2
            for a in pts
        ]
        np.testing.assert_allclose(got, want, rtol=1e-9)


def unpolished_select(space, f, system):
    """poafd_select's grid stage: the pick on the capped default grid before the polish."""
    capped = replace(DEFAULT_SEARCH, r_max=SELECTION_CAP)
    if space.name == "hardy":
        g = _reduced_without(HardyFunction(f), system.params, None)
        return _grid_pick(g.coefficients[None], _hardy_norm2, capped)[0]
    vectors = system.vectors
    resid = f - ((np.conj(vectors) * space.weights) @ f) @ vectors
    rows = np.vstack([resid, vectors])
    return _grid_pick(rows, space.norm2_rule, capped, rows_sq=_scan_rows(vectors))[0]


def test_unpolished_select_is_pointwise_grid_argmax():
    # the scan runs on the capped grid and lines up with its points
    rng = np.random.default_rng(76)
    grid = _search_grid(replace(DEFAULT_SEARCH, r_max=SELECTION_CAP))
    for space in _spaces():
        f, system, rows = _residual_rows(space, rng, 2)
        vals = selection_objective(space, grid, series_values(rows, grid))
        assert unpolished_select(space, f, system) == grid_argmax(grid, vals)


def test_selection_derivatives_match_central_differences():
    rng = np.random.default_rng(78)
    hardy, bergman = _spaces()
    for space, n_params in ((hardy, 3), (bergman, 2)):
        _f, _system, rows = _residual_rows(space, rng, n_params)

        def q(a, space=space, rows=rows):
            return float(selection_objective(space, [a], series_values(rows, [a]))[0])

        check_selection_derivatives(rows, space.norm2_rule, q, rng)


def test_select_climbs_along_the_cap():
    # three kernels with poles beyond the 0.95 cap: the pick sits on the
    # cap circle at the best angle, which the 1-D Newton step along the
    # circle finds and a projected plane step alone misses by 2e-3
    space = hardy_space(m=255)
    poles = np.array([0.974, 0.973, 0.959]) * np.exp(1j * np.array([-2.32, -2.53, -2.74]))
    weights = (0.8 + 0.8j, 0.9 - 1.1j, -0.1 + 0.2j)
    k = np.arange(256)
    f = sum(w * np.sqrt(1.0 - abs(b) ** 2) * np.conj(b) ** k for w, b in zip(weights, poles))
    rows = f[None]
    a = poafd_select(f, gram_schmidt(space, ()))
    assert abs(a) == pytest.approx(SELECTION_CAP, abs=1e-12)
    assert abs(a) <= SELECTION_CAP
    circle = SELECTION_CAP * np.exp(2j * np.pi * np.arange(4096) / 4096)
    scan = selection_objective(space, circle, series_values(rows, circle))
    assert selection_objective(space, [a], series_values(rows, [a]))[0] >= scan.max()


def test_select_climbs_on_benchmark_like_signals():
    # every step: never below the best capped grid point, within the cap,
    # and where the polish moved off the grid start the objective rose
    rng = np.random.default_rng(79)
    grid = _search_grid(replace(DEFAULT_SEARCH, r_max=SELECTION_CAP))
    moved = 0
    signals = (am_fm_real(rng), band_limited_real(rng, 256))
    for space in (hardy_space(m=127), bergman_space(m=127)):
        for signal in signals:
            f = analytic_signal(signal).coefficients
            d = poafd_decompose(space, f, max_terms=6, energy_tol=0.0)
            for k, a in enumerate(d.params):
                system = gram_schmidt(space, tuple(d.params[:k]))
                resid = f - sum(space.inner(f, v) * v for v in system.vectors)
                rows = np.vstack([resid, system.vectors])

                def q(pts, rows=rows):
                    return selection_objective(space, pts, series_values(rows, pts))

                assert abs(a) <= SELECTION_CAP
                # the tie-break may start 1e-12 below the grid maximum
                assert q([a])[0] >= q(grid).max() - 1e-12
                start = unpolished_select(space, f, system)
                if a != start:
                    moved += 1
                    assert q([a])[0] > q([start])[0]
    assert moved > 0


def test_multiplicity_limit_ratios():
    hardy, bergman = _spaces()
    for space, params, a_n in (
        (hardy, (0.4,), 0.4),
        (bergman, (0.3, 0.3), 0.3),
    ):
        errors = multiplicity_limit_check(space, params, a_n)
        ratios = errors[1:] / errors[:-1]
        # once h is small the probe vector converges linearly in h
        assert np.all(ratios[MULTIPLICITY_OFFSETS[:-1] < 1e-2] <= 0.6)
        assert errors[-1] < 1e-2


def test_poafd_decompose_bergman_kernel_signal():
    space = bergman_space(m=63)
    k = np.arange(64)
    f = (k + 1.0) * 0.7**k  # coefficients of 1/(1 - 0.7 z)^2
    d = poafd_decompose(space, f, max_terms=3)
    assert len(d.components) == 1
    assert abs(d.params[0] - 0.7) < 1e-6
    assert d.residual_energy[-1] < 1e-10 * d.source_energy
    assert d.meta["space"] == "bergman"
    d.validate()
    with pytest.raises(InputError):
        reconstruct(d, 256)


def test_poafd_matches_core_coefficients_on_shared_params():
    rng = np.random.default_rng(75)
    f, _, _ = kernel_sum(rng, terms=3, m=63, r=0.7)
    params = random_params(rng, 3, r=0.6)
    space = hardy_space(m=63)
    dp = poafd_decompose(space, f.coefficients, forced_params=params, energy_tol=0.0)
    dc = core_afd_decompose(f, forced_params=params, energy_tol=0.0)
    np.testing.assert_allclose(dp.coefficients, dc.coefficients, atol=1e-10)
    np.testing.assert_allclose(dp.residual_energy, dc.residual_energy, atol=1e-10)


def test_poafd_energy_identity():
    rng = np.random.default_rng(76)
    for space in _spaces():
        f = random_hardy(rng, m=63)
        d = poafd_decompose(space, f.coefficients, max_terms=4, energy_tol=0.0)
        d.validate()
        assert np.all(np.diff(d.residual_energy) <= 1e-10 * d.source_energy)
        total = np.sum(np.abs(d.coefficients) ** 2) + d.residual_energy[-1]
        assert total == pytest.approx(d.source_energy, rel=1e-8)


def test_poafd_decompose_matches_rebuild_every_step_reference():
    # Hardy POAFD is capped core AFD, bit for bit; Bergman grows its rows
    # as the reference rebuilds them
    rng = np.random.default_rng(81)
    capped = replace(DEFAULT_SEARCH, r_max=SELECTION_CAP)
    for signal in (am_fm_real(rng), band_limited_real(rng, 256)):
        f = analytic_signal(signal)
        d = poafd_decompose(hardy_space(m=127), f.coefficients, max_terms=6, energy_tol=0.0)
        want = core_afd_decompose(f, max_terms=6, energy_tol=0.0, search=capped)
        assert len(d) == 6
        assert np.array_equal(d.params, want.params)
        assert np.array_equal(d.coefficients, want.coefficients)
        assert np.array_equal(d.residual_energy, want.residual_energy)
        assert d.meta == {"space": "hardy", "order": 127}
    space = bergman_space(m=127)
    for signal in (am_fm_real(rng), band_limited_real(rng, 256)):
        f = analytic_signal(signal).coefficients
        d = poafd_decompose(space, f, max_terms=6, energy_tol=0.0)
        params, coeffs, residuals = poafd_reference(space, f, 6)
        np.testing.assert_allclose(d.params, params, rtol=0, atol=1e-10)
        scale = np.sqrt(d.source_energy)
        np.testing.assert_allclose(d.coefficients, coeffs, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(
            d.residual_energy, residuals, rtol=0, atol=1e-12 * d.source_energy
        )


def test_poafd_builds_one_kernel_per_term(monkeypatch):
    # the rebuild built k kernels at step k: 55 for 10 terms
    built = []

    def counting(space, a, l=1):
        built.append(a)
        return kernel(space, a, l)

    monkeypatch.setattr(afd.poafd, "kernel", counting)
    f = analytic_signal(am_fm_real(np.random.default_rng(82))).coefficients
    d = poafd_decompose(bergman_space(m=127), f, max_terms=10, energy_tol=0.0)
    assert len(d.components) == 10
    assert len(built) == 10
    # Hardy POAFD runs core's sift chain and builds no rows
    built.clear()
    d = poafd_decompose(hardy_space(m=127), f, max_terms=10, energy_tol=0.0)
    assert len(d.components) == 10
    assert built == []


@pytest.mark.parametrize("n", [64, 128, 256])
def test_hardy_poafd_reconstructs_to_its_residual(n):
    # reconstruct sums the exact TM functions; rows truncated at order
    # N/2 - 1 missed the recorded residual by 6.1e-3 of the source energy
    # at N = 64 and 6.7e-5 at N = 128
    for seed in range(5):
        f = analytic_signal(am_fm_real(np.random.default_rng(seed), n))
        d = poafd_decompose(hardy_space(f.order), f.coefficients, max_terms=10, energy_tol=0.0)
        assert len(d) == 10
        grid = 4 * n
        resid = np.mean(np.abs(f.boundary(grid).samples - reconstruct(d, grid).samples) ** 2)
        assert abs(resid - d.residual_energy[-1]) <= DEFAULT_TOL.energy_total * d.source_energy


def test_bergman_run_scans_each_row_once(monkeypatch):
    # k selections scan k - 1 single rows, each the row the step before
    # grew; the carried sum each selection scores with is a fresh scan of
    # all its rows
    scans, sums = [], []
    select = afd.poafd._select

    def counting(rows, search):
        scans.append(rows.shape)
        return _grid_values(rows, search)

    def recording(rows, norm2_rule, search, floor=0.0, include=(), rows_sq=0.0):
        sums.append((rows[1:], search, rows_sq))
        return select(rows, norm2_rule, search, floor, include, rows_sq)

    monkeypatch.setattr(afd.poafd, "_grid_values", counting)
    monkeypatch.setattr(afd.poafd, "_select", recording)
    space = bergman_space(m=127)
    f = analytic_signal(am_fm_real(np.random.default_rng(83))).coefficients
    d = poafd_decompose(space, f, max_terms=8, energy_tol=0.0)
    assert len(d) == 8
    assert scans == [(1, space.order + 1)] * 7
    assert len(sums) == 8 and not len(sums[0][0]) and sums[0][2] == 0.0
    for rows, search, total in sums[1:]:
        assert search.r_max == SELECTION_CAP
        assert np.array_equal(total, np.sum(np.abs(_grid_values(rows, search)) ** 2, axis=0))
    # poafd_select scans the rows of the system it is given, at once,
    # multiplicity kernels of repeated poles among them
    scans.clear()
    system = gram_schmidt(space, (0.5, 0.2 - 0.6j, 0.5, -0.7j, 0.5))
    poafd_select(f, system)
    assert scans == [(5, space.order + 1)]
    # forced parameters select nothing and scan nothing
    scans.clear()
    poafd_decompose(space, f, forced_params=system.params, energy_tol=0.0)
    assert scans == []


def test_carried_picks_equal_fresh_picks():
    # every pick of the loop, which carries its grid sum, is the pick on
    # a system rebuilt for that step and scanned in full
    rng = np.random.default_rng(84)
    signals = (am_fm_real(rng), band_limited_real(rng, 256))
    for space in (hardy_space(m=127), bergman_space(m=127)):
        for signal in signals:
            f = analytic_signal(signal).coefficients
            d = poafd_decompose(space, f, max_terms=6, energy_tol=0.0)
            assert len(d.params) == 6
            for k, a in enumerate(d.params):
                fresh = gram_schmidt(space, tuple(d.params[:k]))
                assert a == poafd_select(f, fresh)


def test_poafd_floor_is_relative_to_the_signal():
    # an absolute norm floor returned 0 terms at 1e-20 and below
    unit = scaled_am_fm(1.0)
    for space in (hardy_space(unit.order), bergman_space(unit.order)):
        want = poafd_decompose(space, unit.coefficients, max_terms=4).params
        for lam in (1e-30, 1e-20, 1e20, 1e30):
            got = poafd_decompose(space, scaled_am_fm(lam).coefficients, max_terms=4).params
            assert len(got) == len(want) == 4
            assert np.max(np.abs(got - want)) <= 1e-12
        # an exact zero, and a signal inside the span at any scale, still refuse
        system = gram_schmidt(space, (0.3,))
        for f in (np.zeros(space.order + 1), 1e-30 * system.vectors[0]):
            with pytest.raises(ZeroResidual):
                poafd_select(f, system)


def test_a_space_is_hardy_or_bergman():
    # the name alone sets the weights and the kernel rule
    for name, weights in (("hardy", np.ones(8)), ("bergman", 1.0 / np.arange(1, 9))):
        space = KernelSpace(name, 7)
        assert space.order == 7
        np.testing.assert_array_equal(space.weights, weights)
    with pytest.raises(InputError, match="'weighted-bergman' is not one of hardy, bergman"):
        KernelSpace("weighted-bergman", 7)


@pytest.mark.parametrize(
    "name, order",
    [("hardy", 2.5), ("bergman", -3), ("hardy", True), ("hardy", "7"), ("bergman", np.int64(7))],
)
def test_a_space_order_is_an_integer_at_least_zero(name, order):
    # numpy integers pass; a float, a negative count, a bool or a string does not
    if isinstance(order, np.integer):
        assert KernelSpace(name, order).weights.size == order + 1
    else:
        with pytest.raises(InputError, match="order wants an integer >= 0"):
            KernelSpace(name, order)


def test_select_reads_the_space_its_system_was_built_in():
    # the same coefficients and parameters pick apart in the two spaces, each
    # as the three-argument call picked with the space given twice
    rng = np.random.default_rng(0)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for space, want in (
        (hardy_space(63), 0.43974382994040667 - 0.8159679418467018j),
        (bergman_space(63), 0.15907946038760434 - 0.7314668692961988j),
    ):
        system = gram_schmidt(space, (0.3, 0.5j))
        assert poafd_select(f, system) == want
        assert system.gram_defect() <= 1e-15


def test_gram_schmidt_refuses_a_zero_kernel_vector():
    # at order 1 the third repeat's kernel, the second derivative, is the zero sequence
    for space in (hardy_space(m=1), bergman_space(m=1)):
        with pytest.raises(DegenerateGram, match="zero kernel vector"):
            gram_schmidt(space, (0.3, 0.3, 0.3))


def test_poafd_rejects_zero():
    space = hardy_space(m=15)
    with pytest.raises(ZeroSignal):
        poafd_decompose(space, np.zeros(8, dtype=complex))


def test_as_sequence_refuses_a_sequence_longer_than_the_order():
    space = bergman_space(m=15)
    with pytest.raises(InputError, match="length 17 does not fit order 15"):
        poafd_decompose(space, np.ones(17, dtype=complex))


def _double_pole_plants(space, count):
    """(a, f) with f = w_1 k_2/||k_2|| + w_2 k_1/||k_1||, k_l = kernel(space, a, l).

    a is uniform in [-0.6, 0.6]^2 and w complex normal, drawn from
    default_rng(0); ||.|| is the coefficient 2-norm.  POAFD's picks on
    such a double pole cluster around a.
    """
    rng = np.random.default_rng(0)
    for _ in range(count):
        x, y = rng.uniform(-0.6, 0.6, 2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = complex(x, y)
        k1, k2 = kernel(space, a, 1), kernel(space, a, 2)
        yield a, w[0] * k2 / np.linalg.norm(k2) + w[1] * k1 / np.linalg.norm(k1)


@pytest.mark.parametrize("m", [63, 127, 255])
def test_bergman_poafd_runs_ten_terms_on_double_poles(m):
    # selection scored kernels as outside the span down to 1e-13 phi of
    # projected norm, Gram-Schmidt refused them below 1e-12 phi: picks in
    # between raised DegenerateGram on 5, 6 and 7 of these plants
    space = bergman_space(m)
    for _a, f in _double_pole_plants(space, 8):
        d = poafd_decompose(space, f, max_terms=10, energy_tol=0.0)
        assert len(d) == 10
        d.validate()


def test_bergman_select_never_picks_a_kernel_gram_schmidt_refuses():
    # plant 29 at order 255: the pick next to a once had a Gram-Schmidt
    # ratio of 9.48e-7, below DEFAULT_TOL.gram
    space = bergman_space(255)
    *_, (a, f) = _double_pole_plants(space, 30)
    pick = poafd_select(f, gram_schmidt(space, [a]))
    assert len(gram_schmidt(space, [a, pick])) == 2
