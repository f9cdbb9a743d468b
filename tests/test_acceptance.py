"""Acceptance gate: one test per shipped guarantee, strictest stated tolerance.

Run with `pytest -v` to get one pass/fail line per criterion.  Two
criteria check what greedy selection promises rather than more:
criterion 03 recovers a planted three-pole form by consuming its poles
and by the n-best cyclic search, and asks greedy only to converge on
it; criterion 05 holds greedy's step gain to the Fourier atom's and its
pick to the best search-grid point on every remainder.  Greedy's
interpolation limit (its first three poles are not the planted ones)
and its uniform-in-n limit (a later Fourier partial sum can beat it)
are measured and reported in the criterion 03 and 05 lines, not
asserted.
"""

import json

import numpy as np
import pytest

from afd import (
    CircularSignal,
    HardyFunction,
    analytic_signal,
    bergman_space,
    circle_grid,
    cmp_check,
    core_afd_decompose,
    cyclic_afd,
    cyclic_decomposition,
    factorize,
    front_loading_defect,
    gram_schmidt,
    hardy_space,
    hilbert_transform,
    kernel,
    mobius,
    monocomp_check,
    multiplicity_limit_check,
    n_blaschke_objective,
    phase_derivative,
    poafd_decompose,
    sift,
    tm_system_boundary,
    to_hardy,
    uncertainty_report,
    uwa_decompose,
    uwafd_decompose,
)
from afd.config import DEFAULT_SEARCH
from afd.core_afd import _search_grid, objective
from afd.poafd import MULTIPLICITY_OFFSETS
from afd.cli_io import EXIT_CHECK, EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main

from conftest import (
    band_limited_real,
    kernel_sum,
    planted_tm,
    random_hardy,
    random_params,
    residual_at,
    tm_lines,
    tm_phase_derivative_rational,
)

PLANTED3 = (0.5, 0.2 - 0.4j, -0.6j)
PLANTED3_C = (1.0, 0.5, 0.25)
PLANTED2 = (0.5, -0.3 + 0.2j)
PLANTED2_C = (1.0, 0.8 - 0.3j)


def _line(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    return ok


def test_criterion_01_spectral_exactness():
    n = 1024
    t = circle_grid(n)
    signals = [
        CircularSignal(np.cos(3 * t)),
        CircularSignal(np.sin(5 * t) + 2.0 * np.cos(t) + 1.0),
        CircularSignal(np.full(n, 2.0)),
    ]
    rng = np.random.default_rng(101)
    signals += [band_limited_real(rng, n=n) for _ in range(100)]
    # coefficients c_k in increasing-k order, k = -n/2 .. n/2-1
    k = np.arange(-n // 2, n // 2)

    def spectrum(x):
        return np.fft.fftshift(np.fft.fft(x.samples, norm="forward"))

    worst = 0.0
    for s in signals:
        spec = spectrum(s)
        h_spec = spectrum(hilbert_transform(s))
        worst = max(worst, np.abs(h_spec - -1j * np.sign(k) * spec).max())
        f = analytic_signal(s)
        back = 2.0 * f.boundary(n).samples.real - f.coefficients[0].real
        worst = max(worst, np.abs(back - s.samples).max())
        worst = max(worst, abs(np.sum(np.abs(spec) ** 2) - s.energy()))
    ok = worst < 1e-10
    assert _line(1, "spectral exactness", ok, f"worst defect {worst:.2e}")


def test_criterion_02_tm_gram_identity():
    rng = np.random.default_rng(102)
    n = 2048
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(1, 9))
        params = random_params(rng, length, r=0.85, repeat_frac=0.2)
        rows = tm_system_boundary(params, n)
        gram = rows @ rows.conj().T / n
        worst = max(worst, np.abs(gram - np.eye(length)).max())
    ok = worst < 1e-9
    assert _line(2, "TM Gram identity", ok, f"worst entry defect {worst:.2e}")


def test_criterion_03_planted_recovery():
    # single kernel: recovered in one term
    a, c = 0.4 - 0.2j, 1.3 + 0.5j
    k = np.arange(256)
    f1 = HardyFunction(c * np.sqrt(1 - abs(a) ** 2) * np.conj(a) ** k)
    d1 = core_afd_decompose(f1, max_terms=3)
    single_ok = (
        len(d1.components) == 1
        and abs(d1.params[0] - a) < 1e-3
        and residual_at(d1, 1) / f1.energy() < 1e-6
    )
    # planted three-term form
    f3 = planted_tm(PLANTED3, PLANTED3_C, m=127)
    e3 = f3.energy()
    want = np.sort_complex(np.array(PLANTED3))

    def pole_error(params):
        return np.abs(np.sort_complex(np.array(params)[:3]) - want).max()

    # consuming the planted poles returns the planted coefficients
    forced = core_afd_decompose(f3, forced_params=PLANTED3, energy_tol=0.0)
    coeff_err = np.abs(forced.coefficients - np.array(PLANTED3_C)).max()
    forced_resid = residual_at(forced, 3) / e3
    forced_ok = len(forced) == 3 and coeff_err < 1e-3 and forced_resid < 1e-4
    # greedy converges on the plant; at 3 terms it is not the plant
    greedy = core_afd_decompose(f3, max_terms=15, energy_tol=0.0)
    greedy_resid3 = residual_at(greedy, 3) / e3
    greedy_resid15 = residual_at(greedy, 15) / e3
    greedy_ok = greedy_resid15 < 1e-4
    # the n-best cyclic search recovers the plant from the greedy warm start
    tr = cyclic_afd(f3, 3)
    nbest_err = pole_error(tr.params)
    nbest_obj = tr.objective / e3
    nbest_ok = nbest_err < 1e-3 and nbest_obj < 1e-4
    ok = single_ok and forced_ok and greedy_ok and nbest_ok
    assert _line(
        3,
        "planted recovery",
        ok,
        f"single kernel {'ok' if single_ok else 'failed'}; planted poles give "
        f"coefficient error {coeff_err:.1e}, relative residual {forced_resid:.1e}; "
        f"greedy relative residual {greedy_resid15:.2e} at 15 terms; n-best "
        f"pole error {nbest_err:.2e}, relative objective {nbest_obj:.2e}; "
        f"measured limit, not asserted: greedy 3-term relative residual "
        f"{greedy_resid3:.3e}, pole error {pole_error(greedy.params):.3e}",
    )


def test_criterion_04_energy_identity_all_algorithms():
    rng = np.random.default_rng(104)
    worst = 0.0

    def audit(dec):
        nonlocal worst
        dec.validate()
        trace = np.asarray(dec.residual_energy, dtype=float)
        assert np.all(np.diff(trace) <= 1e-10 * dec.source_energy)
        total = np.sum(np.abs(np.asarray(dec.coefficients)) ** 2) + trace[-1]
        worst = max(worst, abs(total - dec.source_energy) / dec.source_energy)

    for _ in range(2):
        f = random_hardy(rng, m=127)
        audit(core_afd_decompose(f, max_terms=6, energy_tol=0.0))
        audit(uwa_decompose(f, 3))
        audit(uwafd_decompose(f, max_terms=3, energy_tol=0.0))
    f2 = planted_tm(PLANTED2, PLANTED2_C, m=255)
    tr = cyclic_afd(f2, 2, max_cycles=30)
    audit(cyclic_decomposition(f2, tr.params))
    g = random_hardy(rng, m=63)
    audit(poafd_decompose(hardy_space(m=63), g.coefficients, max_terms=4, energy_tol=0.0))
    audit(poafd_decompose(bergman_space(m=63), g.coefficients, max_terms=4, energy_tol=0.0))
    ok = worst < 1e-8
    assert _line(4, "energy identity, five algorithms", ok, f"worst relative defect {worst:.2e}")


def test_criterion_05_greedy_dominates_fourier():
    rng = np.random.default_rng(7)
    grid = _search_grid(DEFAULT_SEARCH)
    first_margin = worst_atom = worst_grid = np.inf
    worst = 0.0
    violations = 0
    depth = 10
    for trial in range(20):
        terms = 2 + trial % 4
        f, _, _ = kernel_sum(rng, terms=terms, m=255, r=0.8)
        energy = f.energy()
        greedy = core_afd_decompose(f, max_terms=10, energy_tol=0.0)
        fourier = core_afd_decompose(f, forced_params=(0,) * 10, energy_tol=0.0)
        depth = min(depth, len(greedy))
        margins = [
            (residual_at(fourier, n) - residual_at(greedy, n)) / energy
            for n in range(1, 11)
        ]
        first_margin = min(first_margin, margins[0])
        if min(margins) < -1e-10:
            violations += 1
        worst = min(worst, min(margins))
        # step n: greedy's pick against the Fourier atom (a = 0) and against
        # every search-grid point, on the same remainder f_{n-1}
        g = f
        for n, a in enumerate(greedy.params, start=1):
            gain = residual_at(greedy, n - 1) - residual_at(greedy, n)
            worst_atom = min(worst_atom, (gain - objective(g, 0.0)) / energy)
            worst_grid = min(
                worst_grid, (objective(g, a) - objective(g, grid).max()) / energy
            )
            g = sift(g, a)
    ok = (
        depth == 10
        and first_margin >= -1e-10
        and worst_atom >= -1e-10
        and worst_grid >= -1e-10
    )
    assert _line(
        5,
        "greedy step gain vs Fourier atom and search grid, n <= 10",
        ok,
        f"greedy depth {depth}, n = 1 margin over Fourier {first_margin:+.3e}, "
        f"step gain over "
        f"Fourier atom {worst_atom:+.3e}, pick over best grid point "
        f"{worst_grid:+.3e}; measured limit, not asserted: {violations}/20 "
        f"signals trail the Fourier n-term chain at some n, worst margin "
        f"{worst:+.3e}",
    )


def test_criterion_06_factorization_corpus():
    n = 2048
    t = circle_grid(n)
    z = np.exp(1j * t)
    corpus = [np.exp(1j * m * t) for m in (1, 3, 7)]
    corpus.append(mobius(0.5, z) * mobius(-0.3 + 0.2j, z) * (1.0 + 0.4 * z))
    corpus.append(mobius(0.6j, z) * (2.0 + z) / 2.0)
    corpus.append((2.0 + z) / 2.0)
    corpus.append(1.0 / (1.0 - 0.3 * z))
    worst_inner = worst_cons = worst_front = 0.0
    for samples in corpus:
        s = CircularSignal(samples)
        fac = factorize(s)
        worst_inner = max(worst_inner, np.abs(np.abs(fac.inner.samples) - 1.0).max())
        worst_cons = max(worst_cons, fac.consistency)
        f, _ = to_hardy(s)
        worst_front = max(
            worst_front, front_loading_defect(f, fac.outer) / max(f.energy(), 1e-300)
        )
    ok = worst_inner < 1e-6 and worst_cons < 1e-6 and worst_front <= 1e-9
    assert _line(
        6,
        "inner-outer factorization",
        ok,
        f"|I| defect {worst_inner:.2e}, consistency {worst_cons:.2e}, "
        f"front-loading defect {worst_front:+.2e}",
    )


def test_criterion_07_cyclic_planted_two_blaschke():
    f = planted_tm(PLANTED2, PLANTED2_C)
    tr = cyclic_afd(f, 2)
    got = sorted(tr.params, key=lambda v: v.real)
    want = sorted(PLANTED2, key=lambda v: v.real)
    param_err = max(abs(g - w) for g, w in zip(got, want))
    mono_ok = bool(np.all(np.diff(tr.d) <= 0.0))
    # random restarts keep the trace monotone as well
    rng = np.random.default_rng(107)
    for _ in range(20):
        init = random_params(rng, 2, r=0.9)
        tri = cyclic_afd(f, 2, init=init, max_cycles=6)
        mono_ok = mono_ok and bool(np.all(np.diff(tri.d) <= 0.0))
    # objective is blind to the tuple order
    perm_worst = 0.0
    for _ in range(10):
        g, _, _ = kernel_sum(rng, terms=3, m=127, r=0.8)
        params = random_params(rng, 3, r=0.85)
        perm = tuple(np.array(params)[rng.permutation(3)])
        perm_worst = max(
            perm_worst,
            abs(n_blaschke_objective(g, params) - n_blaschke_objective(g, perm))
            / g.energy(),
        )
    ok = (
        param_err < 1e-3
        and tr.objective < 1e-5
        and tr.converged
        and cmp_check(f, tr.params)
        and mono_ok
        and perm_worst < 1e-10
    )
    assert _line(
        7,
        "cyclic n-best search",
        ok,
        f"param error {param_err:.2e}, final objective {tr.objective:.2e}, "
        f"monotone {mono_ok}, permutation defect {perm_worst:.2e}",
    )


def test_criterion_08_poafd_guarantees():
    # multiplicity limit: probe error contracts once h is below 1e-2
    ratio_ok = True
    for space, params, a_n in (
        (hardy_space(m=63), (0.4,), 0.4),
        (bergman_space(m=63), (0.3, 0.3), 0.3),
    ):
        errors = multiplicity_limit_check(space, params, a_n)
        ratios = errors[1:] / errors[:-1]
        ratio_ok = ratio_ok and bool(np.all(ratios[MULTIPLICITY_OFFSETS[:-1] < 1e-2] <= 0.6))
    # Hardy instance reproduces the core algorithm on a planted signal
    f = planted_tm(PLANTED3, PLANTED3_C)
    dp = poafd_decompose(hardy_space(m=f.order), f.coefficients, max_terms=3, energy_tol=0.0)
    dc = core_afd_decompose(f, max_terms=3, energy_tol=0.0)
    coeff_err = np.abs(np.asarray(dp.coefficients) - np.asarray(dc.coefficients)).max()
    # Bergman space reproduces point values
    rng = np.random.default_rng(108)
    space = bergman_space(m=63)
    repro_worst = 0.0
    for _ in range(10):
        g = np.pad(random_hardy(rng, m=40).coefficients, (0, 23))
        a = complex(rng.uniform(0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
        lhs = space.inner(g, kernel(space, a, 1))
        rhs = np.polyval(g[::-1], a)
        repro_worst = max(repro_worst, abs(lhs - rhs))
    ok = ratio_ok and coeff_err < 1e-6 and repro_worst < 1e-8
    assert _line(
        8,
        "POAFD kernels and spaces",
        ok,
        f"limit ratios {'ok' if ratio_ok else 'failed'}, hardy-vs-core "
        f"coefficient error {coeff_err:.2e}, bergman reproducing defect {repro_worst:.2e}",
    )


def test_criterion_09_instantaneous_frequency_lines():
    rng = np.random.default_rng(109)
    n = 4096
    t = circle_grid(n)
    dt = t[1] - t[0]
    worst_fd = worst_rational = 0.0
    for _ in range(10):
        length = int(rng.integers(2, 5))
        params = random_params(rng, length, r=0.8)
        for k, (b, w) in enumerate(tm_lines(params, t), start=1):
            theta = np.unwrap(np.angle(b))
            fd = (
                -np.roll(theta, -2) + 8 * np.roll(theta, -1)
                - 8 * np.roll(theta, 1) + np.roll(theta, 2)
            ) / (12 * dt)
            worst_fd = max(worst_fd, np.abs(w - fd)[2 : n - 2].max())
            ref = tm_phase_derivative_rational(params, k, t)
            worst_rational = max(worst_rational, np.abs(w - ref).max())
    lines_exact = all(
        bool(np.all(w == float(k - 1))) for k, (_, w) in enumerate(tm_lines((0,) * 6, t), start=1)
    )
    ok = worst_fd < 1e-6 and worst_rational < 1e-8 and lines_exact
    assert _line(
        9,
        "instantaneous frequency lines",
        ok,
        f"finite-difference defect {worst_fd:.2e}, rational-form defect "
        f"{worst_rational:.2e}, integer lines exact {lines_exact}",
    )


def test_criterion_10_uncertainty_chain():
    n = 1024
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    env = np.exp(-((t - np.pi) ** 2) / (2 * 0.55**2))
    rng = np.random.default_rng(110)
    chain_ok = True
    worst_slack = np.inf
    checked = 0
    while checked < 100:
        s = env * band_limited_real(rng, n=n, kmax=int(rng.integers(8, 33))).samples
        if np.mean(s**2) < 1e-12:
            continue
        checked += 1
        rep = uncertainty_report(s, t)
        chain_ok = chain_ok and (
            rep.product >= rep.extra_bound - 1e-6
            and rep.extra_bound >= rep.cohen_bound - 1e-9
            and rep.cohen_bound >= 0.25 - 1e-6
        )
        worst_slack = min(worst_slack, rep.product - rep.extra_bound)
    gauss = uncertainty_report(env, t)
    gauss_ok = (
        abs(gauss.product - 0.25) < 0.02 * 0.25
        and abs(gauss.extra_bound - 0.25) < 0.02 * 0.25
        and abs(gauss.cohen_bound - 0.25) < 0.02 * 0.25
    )
    ok = chain_ok and gauss_ok
    assert _line(
        10,
        "uncertainty chain",
        ok,
        f"100 signals, min(product - extra) {worst_slack:+.3e}, gaussian "
        f"saturation {'ok' if gauss_ok else 'failed'}",
    )


def test_criterion_11_mono_components_and_outers():
    n = 1024
    z = np.exp(1j * circle_grid(n))
    rng = np.random.default_rng(111)
    frac_worst = 0.0
    for _ in range(3):
        params = random_params(rng, int(rng.integers(2, 5)), r=0.8)
        b = np.ones(n, dtype=complex)
        for a in params:
            b = b * mobius(a, z)
        rep = monocomp_check(CircularSignal(b))
        frac_worst = max(frac_worst, rep.fraction_negative)
    from math import factorial

    outers = [
        HardyFunction(np.array([1.0, 0.5], dtype=complex)),  # (2+z)/2
        HardyFunction(0.3 ** np.arange(64, dtype=float) + 0j),  # 1/(1-0.3z)
        HardyFunction(np.array([1.0, 1.0, 0.25], dtype=complex)),  # (1+z/2)^2
        HardyFunction(  # exp(0.3 z), zero free everywhere
            np.array([0.3**k / factorial(k) for k in range(16)], dtype=complex)
        ),
        HardyFunction(np.array([1.0, -1 / 6, -1 / 6], dtype=complex)),  # (3+z)(2-z)/6
    ]
    winding_worst = 0.0
    for f in outers:
        mean_w = float(np.mean(phase_derivative(f, 1.0 - 2.0**-10, 4096)))
        winding_worst = max(winding_worst, abs(mean_w))
    ok = frac_worst == 0.0 and winding_worst < 0.01
    assert _line(
        11,
        "mono-component positivity and outer winding",
        ok,
        f"blaschke negative fraction {frac_worst:.3f}, outer winding "
        f"defect {winding_worst:.2e} of a full turn",
    )


def test_criterion_12_cli_contract(tmp_path, capsys):
    t = circle_grid(128)
    sig = tmp_path / "s.csv"
    with open(sig, "w") as fh:
        fh.write("t,value\n")
        for tj, vj in zip(t, np.cos(3 * t) + 0.5 * np.cos(5 * t)):
            fh.write(f"{float(tj)!r},{float(vj)!r}\n")
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    rc1 = main(["decompose", str(sig), "--terms", "3", "--output", out1])
    rc2 = main(["decompose", str(sig), "--terms", "3", "--output", out2])
    identical = open(out1, "rb").read() == open(out2, "rb").read()
    # round trip: load and re-save reproduces the file
    from afd.cli_io import load_result, save_result

    rec, _ = load_result(out1)
    out3 = str(tmp_path / "c.json")
    save_result(rec, out3)
    roundtrip = open(out1, "rb").read() == open(out3, "rb").read()
    # documented exit codes, one failing fixture each
    rc_missing = main(["decompose", str(tmp_path / "missing.csv")])
    outer = tmp_path / "outer.csv"
    tt = circle_grid(256)
    with open(outer, "w") as fh:
        fh.write("t,value\n")
        for tj, vj in zip(tt, 1.0 - (2.0 / 1.05) * np.cos(tt)):
            fh.write(f"{float(tj)!r},{float(vj)!r}\n")
    rc_check = main(["check", str(outer), "--mode", "mono"])
    flat = tmp_path / "flat.csv"
    tl = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    with open(flat, "w") as fh:
        fh.write("t,value\n")
        for tj, vj in zip(tl, np.cos(tl)):
            fh.write(f"{float(tj)!r},{float(vj)!r}\n")
    rc_degen = main(["check", str(flat), "--mode", "uncertainty"])
    capsys.readouterr()
    ok = (
        rc1 == EXIT_OK
        and rc2 == EXIT_OK
        and identical
        and roundtrip
        and rc_missing == EXIT_INPUT
        and rc_check == EXIT_CHECK
        and rc_degen == EXIT_DEGENERATE
    )
    assert _line(
        12,
        "CLI determinism and exit codes",
        ok,
        f"byte-identical rerun {identical}, lossless round trip {roundtrip}, "
        f"exit codes {rc1}/{rc_missing}/{rc_check}/{rc_degen}",
    )
