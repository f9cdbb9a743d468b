"""Property tests over random inputs, drawn by Hypothesis.

Runs are derandomized so the suite is the same on every run.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from afd import (
    CircularSignal,
    Component,
    Decomposition,
    HardyFunction,
    analytic_signal,
    bergman_space,
    circle_grid,
    coefficient,
    core_afd_decompose,
    cyclic_afd,
    cyclic_decomposition,
    gram_schmidt,
    hardy_space,
    kernel,
    n_blaschke_objective,
    poafd_decompose,
    sift,
    tm_system_boundary,
    uwa_decompose,
    uwafd_decompose,
)
from afd import cli_io
from afd.config import DEFAULT_SEARCH, DEFAULT_TOL, SearchConfig
from afd.cli_io import _float_text, load_result, save_result
from afd.core_afd import _ScanPlan, _grid_values, _hardy_norm2, _search_grid, _selection_scores, _sift
from afd.poafd import SELECTION_CAP, _bergman_norm2
from afd.signal_core import _padded_n, series_values

from conftest import (
    am_fm_real,
    band_limited_real,
    check_outer_factor_against_reference,
    horner,
    random_hardy,
    series_bound,
    tm_lines,
    underflow_slack,
)

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# order 511 puts the truncated tail of every TM row below 1e-12 for
# |a| <= 0.9, derivative rows of multiplicity 5 included
HARDY = hardy_space(m=511)
BERGMAN = bergman_space(m=511)


def lattice_poles(min_size, max_size):
    """Lists of distinct poles, |a| <= 0.9, on a polar lattice.

    The lattice has radius step 0.1 and 16 angles; radius 0 is one point
    at every angle.  So the poles stay well apart.
    """
    lattice = st.tuples(st.integers(0, 9), st.integers(0, 15))
    cells = st.lists(lattice, min_size=min_size, max_size=max_size, unique_by=lambda p: (p[0], p[0] and p[1]))
    return cells.map(lambda base: [complex(0.1 * i * np.exp(2j * np.pi * j / 16)) for i, j in base])


@st.composite
def repeated_poles(draw):
    """Tuple of 2-5 poles, |a| <= 0.9, in which some pole repeats.

    Distinct poles come from lattice_poles, so only the forced repeats
    are coincident.
    """
    poles = draw(lattice_poles(1, 3))
    # more entries than distinct poles: at least one repeat
    picks = draw(st.lists(st.integers(0, len(poles) - 1), min_size=len(poles) + 1, max_size=len(poles) + 2))
    return tuple(complex(poles[k]) for k in picks)


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.one_of(repeated_poles(), lattice_poles(1, 7).map(tuple)))
def test_hardy_rows_sum_to_the_model_space_kernel(seed, params):
    # sum_j |B_j(z)|^2 = (1 - |Phi(z)|^2)/(1 - |z|^2), the kernel of
    # H^2 minus Phi H^2 with Phi the Blaschke product of the parameters:
    # POAFD's Hardy objective is core AFD's on the sifted remainder
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    rows_sq = np.sum(np.abs(series_values(gram_schmidt(HARDY, params).vectors, z)) ** 2, axis=0)
    phi = 1.0 / (1.0 - np.abs(z) ** 2)
    blaschke = np.prod([(z - a) / (1.0 - np.conj(a) * z) for a in params], axis=0)
    assert np.all(np.abs(rows_sq - (1.0 - np.abs(blaschke) ** 2) * phi) <= 1e-12 * phi)


@PROPERTY_SETTINGS
@given(repeated_poles())
def test_tm_gram_identity_with_repeated_poles(params):
    # the grown Hardy rows are the TM system: coefficients of its boundary samples
    n = 4096
    tm = (np.fft.fft(tm_system_boundary(params, n), axis=1) / n)[:, : HARDY.order + 1]
    hardy = gram_schmidt(HARDY, params)
    np.testing.assert_allclose(hardy.vectors, tm, rtol=0, atol=1e-8)
    assert hardy.gram_defect() < 1e-9
    assert gram_schmidt(BERGMAN, params).gram_defect() < 1e-9


def _unit(v):
    return v / np.linalg.norm(v)


@st.composite
def bergman_stress(draw):
    """A Bergman space of order 63, 127 or 255 and a coefficient sequence on it.

    Three families, each drawn from a seeded Generator: a triple pole
    (unit kernels of multiplicity 1 to 3 at one a in [-0.6, 0.6]^2), a
    pair of double poles (one at |a| = 0.93, one in that square), and
    the analytic signal of an AM-FM input.  Complex weights are normal.
    """
    space = bergman_space(draw(st.sampled_from((63, 127, 255))))
    family = draw(st.sampled_from(("triple", "double pair", "am-fm")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "am-fm":
        t = circle_grid(2 * (space.order + 1))
        p = rng.uniform(0.0, 2.0 * np.pi, 3)
        x = (1.0 + 0.6 * np.cos(t + p[0])) * np.cos(6 * t + np.sin(t + p[1])) + 0.15 * np.cos(11 * t + p[2])
        return space, analytic_signal(CircularSignal(x)).coefficients
    if family == "triple":
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        poles = [(a, l) for l in (1, 2, 3)]
    else:
        a, b = 0.93 * np.exp(2j * np.pi * rng.uniform()), complex(*rng.uniform(-0.6, 0.6, 2))
        poles = [(p, l) for p in (a, b) for l in (1, 2)]
    w = rng.standard_normal(len(poles)) + 1j * rng.standard_normal(len(poles))
    return space, sum(wj * _unit(kernel(space, p, l)) for wj, (p, l) in zip(w, poles))


@PROPERTY_SETTINGS
@given(bergman_stress())
def test_bergman_poafd_never_refuses_its_own_pick(case):
    # selection and Gram-Schmidt read one span floor, so a 30-term run
    # ends only by the stopping rule, with a valid record
    space, f = case
    d = poafd_decompose(space, f, max_terms=30, energy_tol=0.0)
    d.validate()
    assert len(d) == 30 or d.residual_energy[-1] < DEFAULT_TOL.residual_floor * d.source_energy


@st.composite
def disc_poles(draw):
    """Tuple of 1-6 poles anywhere in |a| <= 0.95, entries often repeated."""
    poles = draw(st.lists(st.complex_numbers(max_magnitude=0.95, allow_nan=False), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(poles) - 1), min_size=1, max_size=6))
    return tuple(poles[k] for k in picks)


@PROPERTY_SETTINGS
@given(disc_poles())
def test_tm_phase_derivative_winds_k_minus_1_times_above_minus_half(params):
    # theta_k' = sum_{l<k} P_{a_l} + (P_{a_k} - 1)/2 with Poisson kernels P > 0
    # of mean 1; at |a| <= 0.95 the 1024-point grid resolves each P to 1e-22
    t = circle_grid(1024)
    for k, (_, theta) in enumerate(tm_lines(params, t), start=1):
        assert abs(theta.mean() - (k - 1)) < 1e-12
        assert theta.min() > -0.5


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(repeated_poles(), lattice_poles(2, 5).map(tuple)).flatmap(
        lambda p: st.tuples(st.just(p), st.permutations(p))
    ),
)
def test_objective_depends_only_on_the_span(seed, poles):
    # any order of a pole tuple, repeats included, spans the same space,
    # so the n-pole objective and the POAFD residual over the forced
    # tuple agree
    params, permuted = poles
    f = random_hardy(np.random.default_rng(seed), m=HARDY.order)
    energy = f.energy()
    want = n_blaschke_objective(f, params)
    assert abs(n_blaschke_objective(f, permuted) - want) <= 1e-12 * energy
    for space in (HARDY, BERGMAN):
        source = space.norm(f.coefficients) ** 2
        traces = [
            poafd_decompose(space, f.coefficients, energy_tol=0.0, forced_params=p).residual_energy
            for p in (params, permuted)
        ]
        assert len(traces[0]) == len(traces[1]) == len(params) + 1
        assert abs(traces[0][-1] - traces[1][-1]) <= 1e-12 * source


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(), max_size=64),
    st.lists(st.integers(0, 2**64 - 1), max_size=64),
)
def test_float_text_is_repr(floats, patterns):
    # every cell of the CSV formatter is repr of its float: drawn floats
    # (nan, infinities and subnormals included) and raw 64-bit patterns
    values = np.concatenate([np.array(floats, dtype=float), np.array(patterns, dtype=np.uint64).view(float)])
    text = [row.tobytes().rstrip(b"\0").decode("ascii") for row in _float_text(values)]
    assert text == [repr(v) for v in values.tolist()]


@PROPERTY_SETTINGS
@given(
    st.integers(7, 1023),
    st.integers(0, 2**32 - 1),
    st.floats(-30.0, 30.0),
    st.floats(0.0, 0.95),
    st.floats(0.0, 2.0 * np.pi),
)
def test_sift_splits_the_energy(order, seed, exponent, radius, angle):
    # ||f||^2 = |<f, e_a>|^2 + ||sift(f, a)||^2, at any scale and order
    f = random_hardy(np.random.default_rng(seed), m=order) * 10.0**exponent
    a = radius * complex(np.cos(angle), np.sin(angle))
    c = coefficient(f, a)
    g = sift(f, a)
    assert abs(f.energy() - abs(c) ** 2 - g.energy()) <= 1e-12 * f.energy()
    # the loops hand the coefficient they already hold to _sift
    np.testing.assert_array_equal(_sift(f, a, c).coefficients, g.coefficients)


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 48),
    st.floats(1.05, 4.0),
    st.sampled_from([256, 1024, 4096]),
)
def test_outer_factor_matches_the_complex_hilbert_reference(seed, order, margin, n):
    # |c_0| = margin * sum_{k>=1} |c_k| keeps |f| >= (1 - 1/margin)|c_0| on
    # the circle, so no sample is clamped and the quotient is well posed
    c = random_hardy(np.random.default_rng(seed), m=order).coefficients.copy()
    c[0] *= margin * np.abs(c[1:]).sum() / abs(c[0])
    check_outer_factor_against_reference(HardyFunction(c).boundary(n))


# every greedy algorithm, called as (f, max_terms, energy_tol); UWA has no
# energy tolerance, so it runs at 0 and stops on the residual floor alone
GREEDY = {
    "core": lambda f, n, tol: core_afd_decompose(f, max_terms=n, energy_tol=tol),
    "poafd-hardy": lambda f, n, tol: poafd_decompose(
        hardy_space(f.order), f.coefficients, max_terms=n, energy_tol=tol
    ),
    "uwafd": lambda f, n, tol: uwafd_decompose(f, max_terms=n, energy_tol=tol),
    "uwa": lambda f, n, _tol: uwa_decompose(f, max_terms=n),
}


# few examples: every UWAFD and UWA step factors on a grid of 4096 points
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(GREEDY)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 31]),
    st.integers(0, 8),
    st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
)
def test_greedy_algorithms_share_the_stopping_rule(algo, seed, order, max_terms, energy_tol):
    # a run continues while the relative residual is at or above the
    # threshold and ends short of max_terms only below it, or with the
    # reason an unwinding recursion gives in meta["stopped"]; a constant
    # is used up by one term, so it ends on the residual floor
    if algo == "uwa":
        energy_tol = 0.0
    f = random_hardy(np.random.default_rng(seed), m=order)
    d = GREEDY[algo](f, max_terms, energy_tol)
    threshold = max(energy_tol, DEFAULT_TOL.residual_floor)
    ratios = d.residual_energy / d.source_energy
    assert len(d) <= max_terms and len(ratios) == len(d) + 1
    assert np.all(ratios[:-1] >= threshold)
    if len(d) < max_terms:
        assert ratios[-1] < threshold or d.meta.get("stopped") is not None


@PROPERTY_SETTINGS
@given(st.integers(8, 2047), st.integers(0, 2**32 - 1))
def test_analytic_signal_inverts_at_any_sample_count(n, seed):
    # s = 2 Re F - c_0 on the grid, F the Hardy projection of s, for s
    # free of the Nyquist bin (which only an even count has); n and n + 1
    # run together, so every draw covers both parities
    rng = np.random.default_rng(seed)
    for size in (n, n + 1):
        s = rng.standard_normal(size)
        if size % 2 == 0:
            alternating = (-1.0) ** np.arange(size)
            s -= np.mean(s * alternating) * alternating
        f = analytic_signal(CircularSignal(s))
        back = 2.0 * f.boundary(size).samples.real - f.coefficients[0].real
        assert np.max(np.abs(back - s)) <= 1e-13 * CircularSignal(s).norm()


@PROPERTY_SETTINGS
@given(st.integers(8, 2047), st.sampled_from(["am-fm", "band-limited"]), st.integers(0, 2**32 - 1))
def test_every_algorithm_validates_at_any_sample_count(n, family, seed):
    # the energy identity and a monotone trace hold at counts of both
    # parities (n and n + 1).  UWA and UWAFD run on the AM-FM family only:
    # on band-limited input they fail validate at N = 2^k as well, the
    # unresolved-zeros defect that the strict seed-1784 xfail in
    # test_unwinding pins, so leaving that family out hides no new defect
    for size in (n, n + 1):
        rng = np.random.default_rng(seed)
        s = am_fm_real(rng, size) if family == "am-fm" else band_limited_real(rng, size)
        f = analytic_signal(s)
        algos = sorted(GREEDY) if family == "am-fm" else ["core", "poafd-hardy"]
        runs = [GREEDY[algo](f, 4, 0.0) for algo in algos] + [
            cyclic_decomposition(f, cyclic_afd(f, 2, max_cycles=2).params),
            poafd_decompose(bergman_space(f.order), f.coefficients, max_terms=4, energy_tol=0.0),
        ]
        for d in runs:
            d.validate()


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def records(draw):
    """A random result record of any algorithm, as cli_io._record builds it.

    0-6 components with a in the disc (None for uwa) and a complex c;
    unwinding components also carry unit-modulus inner samples on the
    unwinding grid of the ceil(n/2) coefficients of an input of any
    drawn count n >= 8, a drawn run of 1-16 phases repeated.  The
    residual trace is nonincreasing.
    """
    size = draw(st.integers(0, 6))
    algorithm = draw(st.sampled_from(cli_io.ALGORITHMS))
    unwinding = algorithm in cli_io.UNWINDING
    # at 1025 and 2049, n // 2 coefficients would unwind on half the grid
    n_input = draw(st.one_of(st.sampled_from([1025, 2049]), st.integers(8, 4096)))
    inner_n = _padded_n((n_input + 1) // 2)
    period = draw(st.integers(1, 16))
    components = []
    for _ in range(size):
        a = None
        if algorithm != "uwa":
            radius, angle = draw(st.floats(0.0, 0.99)), draw(st.floats(0.0, 2.0 * np.pi))
            a = radius * complex(np.cos(angle), np.sin(angle))
        c = complex(draw(finite), draw(finite))
        inner = None
        if unwinding:
            phases = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=period, max_size=period))
            inner = np.resize(np.exp(1j * np.array(phases)), inner_n)
        components.append(Component(a=a, c=c, inner=inner))
    trace = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=size + 1, max_size=size + 1)), reverse=True)
    meta = {}
    if unwinding:
        health = st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)
        meta = {
            "n": inner_n,
            "factor_consistency": draw(health),
            "front_loading": draw(health),
            "stopped": draw(st.sampled_from([None, "outer factor vanishes on the boundary grid"])),
        }
    d = Decomposition(
        components=components,
        residual_energy=np.array(trace),
        meta=meta,
    )
    # the decompose options at their CLI defaults, the drawn algorithm as --algo
    args = cli_io._PARSER.parse_args(["decompose", "signal.csv", "--algo", algorithm])
    return cli_io._record(args, n_input, d), d


@PROPERTY_SETTINGS
@given(records())
def test_result_files_round_trip(drawn):
    # save -> load gives back every a, c and inner sample bit for
    # bit, and save -> load -> save gives back the file byte for byte
    record, d = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        save_result(record, first)
        rec, got = load_result(first)
        save_result(rec, second)
        with open(first, "rb") as fh, open(second, "rb") as gh:
            assert fh.read() == gh.read()
    assert len(got) == len(d)
    for back, comp in zip(got.components, d.components):
        assert (back.a is None) == (comp.a is None)
        if comp.a is not None:
            assert np.array(back.a).tobytes() == np.array(comp.a).tobytes()
        assert np.array(back.c).tobytes() == np.array(comp.c).tobytes()
        if comp.inner is None:
            assert back.inner is None
        else:
            assert back.inner.tobytes() == comp.inner.tobytes()
    assert got.residual_energy.tobytes() == d.residual_energy.tobytes()
    # every algorithm's meta comes back as it was stored
    assert got.meta == d.meta


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2047),
    st.sampled_from([1, 7, 24, 64, 200]),
    st.integers(1, 8),
    st.integers(1, 4),
)
def test_grid_scan_matches_horner_row_by_row(seed, m, n_angles, n_radii, rows):
    # from one block (A > M) to 2048 (A = 1), A dividing M+1 or not: every
    # row of a stack scans to its own single-row values, within the
    # rounding of the pointwise sum
    rng = np.random.default_rng(seed)
    search = SearchConfig(n_angles=n_angles, n_radii=n_radii)
    grid = _search_grid(search)
    stack = rng.standard_normal((rows, m + 1)) + 1j * rng.standard_normal((rows, m + 1))
    got = _grid_values(stack, search)
    assert got.shape == (rows, grid.size)
    for row, vals in zip(stack, got):
        np.testing.assert_array_equal(vals, _grid_values(row, search))
        bound = series_bound(row, grid) + underflow_slack(row)
        assert np.all(np.abs(vals - horner(row, grid)) <= bound)


# the algorithms whose picks rotate and conjugate with the input, each
# with its selection's kernel norm rule and grid radius cap, run on f to
# (picks, residual trace); cyclic's trace is its objective after each
# coordinate step, and it runs all 5 cycles
SYMMETRIC = {
    "core": (_hardy_norm2, DEFAULT_SEARCH.r_max),
    "cyclic": (_hardy_norm2, DEFAULT_SEARCH.r_max),
    "poafd-hardy": (_hardy_norm2, SELECTION_CAP),
    "poafd-bergman": (_bergman_norm2, SELECTION_CAP),
}


def _picks_and_trace(algo, f):
    if algo == "cyclic":
        trace = cyclic_afd(f, 3, max_cycles=5, delta_tol=0.0)
        return np.array(trace.params), trace.d
    if algo == "core":
        d = core_afd_decompose(f, max_terms=8, energy_tol=0.0)
    else:
        space = (hardy_space if algo == "poafd-hardy" else bergman_space)(f.order)
        d = poafd_decompose(space, f.coefficients, max_terms=8, energy_tol=0.0)
    return d.params, d.residual_energy


def _grid_best_is_tied(algo, f):
    """Whether the two best scores of f's first selection grid tie to 1e-9."""
    rule, r_max = SYMMETRIC[algo]
    search = SearchConfig(r_max=r_max)
    scaled = f.coefficients / np.linalg.norm(f.coefficients)
    q = _selection_scores(_ScanPlan.kernel_norm2(search, rule), _grid_values(scaled, search), 0.0)
    second, best = np.sort(q)[-2:]
    return best - second <= 1e-9 * best


@pytest.mark.parametrize("algo", sorted(SYMMETRIC))
@PROPERTY_SETTINGS
@given(
    st.sampled_from([128, 256]),
    st.sampled_from(["am-fm", "band-limited"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, DEFAULT_SEARCH.n_angles - 1),
)
def test_picks_rotate_and_conjugate_with_the_input(algo, n, family, seed, turns):
    # shifting the input by turns * N/64 samples gives f(z e^{i tau}),
    # tau = 2 pi turns/64, and conjugating the coefficients conj(f(conj z)):
    # both map the search grid onto itself, so every pick a becomes
    # a e^{-i tau} or conj(a), and the residual trace stays.  The tie rule
    # (small |a|, then small angle) is not equivariant, and real
    # coefficients tie a with conj(a), so tied draws are skipped.  The
    # bounds are far above rounding on purpose: the polish's last step is
    # ~1e-8 long, and whether it is taken can rest on a rounding-level
    # difference in Q (0.11679907473044264 against ...275 on one input
    # at the 0.95 cap, ...299 against ...251 on its rotated twin), so picks
    # have been seen to move by up to 1.7e-8 and traces by 4.8e-9 of the
    # source energy
    rng = np.random.default_rng(seed)
    s = am_fm_real(rng, n) if family == "am-fm" else band_limited_real(rng, n)
    f = analytic_signal(s)
    assume(not _grid_best_is_tied(algo, f))
    tau = 2.0 * np.pi * turns / DEFAULT_SEARCH.n_angles
    shifted = analytic_signal(CircularSignal(np.roll(s.samples.real, -turns * n // DEFAULT_SEARCH.n_angles)))
    picks, trace = _picks_and_trace(algo, f)
    for g, image in ((shifted, picks * np.exp(-1j * tau)), (HardyFunction(np.conj(f.coefficients)), np.conj(picks))):
        got, got_trace = _picks_and_trace(algo, g)
        assert got.shape == picks.shape and np.max(np.abs(got - image), initial=0.0) <= 1e-6
        assert got_trace.shape == trace.shape and np.max(np.abs(got_trace - trace)) <= 1e-7 * f.energy()


@PROPERTY_SETTINGS
@given(
    st.lists(st.complex_numbers(max_magnitude=0.97, allow_nan=False), min_size=3, max_size=11),
    st.integers(0, 2**32 - 1),
)
def test_greedy_residual_decays_at_the_weak_greedy_rate(poles, seed):
    # core AFD gains at least what the orthogonal greedy algorithm gains
    # over the normalized Szego dictionary, so a planted f = sum_j w_j
    # e_{b_j} leaves ||r_n||^2 <= (sum_j |w_j|)^2 / (1 + rho^2 n) after n
    # terms.  rho is the weak-selection constant, which the engine does
    # not certify; rho^2 = 1/2 stands in for it (the largest ratio seen on
    # 40 plants was 0.64)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(len(poles)) + 1j * rng.standard_normal(len(poles))
    k = np.arange(512)
    f = HardyFunction(sum(wj * np.sqrt(1.0 - abs(b) ** 2) * np.conj(b) ** k for wj, b in zip(w, poles)))
    d = core_afd_decompose(f, max_terms=30, energy_tol=0.0)
    n = np.arange(len(d.residual_energy))
    assert np.all(d.residual_energy <= np.sum(np.abs(w)) ** 2 / (1.0 + n / 2.0))
