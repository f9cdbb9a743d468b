"""Cyclic coordinate search for the best n-Blaschke approximation."""

import importlib

import numpy as np
import pytest

from afd import (
    CircularSignal,
    HardyFunction,
    circle_grid,
    cmp_check,
    coordinate_optimize,
    core_afd_decompose,
    cyclic_afd,
    cyclic_decomposition,
    n_blaschke_objective,
    szego_kernel,
    to_hardy,
)
from afd.errors import AFDError, InputError, ParamOutOfDisc, ZeroSignal

from conftest import (
    cyclic_reference,
    kernel_sum,
    planted_tm,
    random_params,
    residual_at,
    sift_chain_objective,
)

PLANTED = (0.5, -0.3 + 0.2j)
PLANTED_C = (1.0, 0.8 - 0.3j)


def _planted():
    return planted_tm(PLANTED, PLANTED_C)


def test_objective_vanishes_on_planted_form():
    f = _planted()
    assert n_blaschke_objective(f, PLANTED) < 1e-20 * f.energy()
    assert n_blaschke_objective(f, (0.5, 0.6j)) > 1e-3 * f.energy()


def test_cyclic_afd_is_scale_invariant():
    # at 1e-12 the remainders fall below 1e-12 in absolute terms; the
    # selection floor is relative to f, so every move still selects
    f = _planted()
    unit = cyclic_afd(f, 2)
    tiny = cyclic_afd(HardyFunction(1e-12 * f.coefficients), 2)
    assert tiny.cycles == unit.cycles
    assert tiny.objective / (1e-24 * f.energy()) == pytest.approx(unit.objective / f.energy(), rel=1e-3)
    # the objective is flat near its minimum: the picks agree to ~1e-9
    assert np.max(np.abs(np.array(tiny.params) - np.array(unit.params))) < 1e-7


def test_objective_closed_form_single_param():
    # for f = z the reduced remainder energy is 1 - (1-|a|^2)|a|^2
    f = HardyFunction(np.array([0.0, 1.0], dtype=complex))
    for a in (0.0, 0.3, 0.5 + 0.4j):
        expect = 1.0 - (1.0 - abs(a) ** 2) * abs(a) ** 2
        assert n_blaschke_objective(f, (a,)) == pytest.approx(expect, abs=1e-14)


def test_objective_is_the_sift_chain_bit_for_bit():
    rng = np.random.default_rng(62)
    f, _, _ = kernel_sum(rng, terms=3, r=0.8)
    a, b, c = random_params(rng, 3, r=0.85)
    for params in ((), (a,), (a, b, c), (a, b, a), (b, b, c)):
        assert n_blaschke_objective(f, params) == sift_chain_objective(f, params)
    with pytest.raises(ParamOutOfDisc):
        n_blaschke_objective(f, (a, 1.0, b))


def test_objective_permutation_invariance():
    rng = np.random.default_rng(61)
    for _ in range(5):
        f, _, _ = kernel_sum(rng, terms=3, r=0.8)
        params = random_params(rng, 3, r=0.85)
        perm = tuple(np.array(params)[rng.permutation(3)])
        base = n_blaschke_objective(f, params)
        other = n_blaschke_objective(f, perm)
        assert abs(base - other) < 1e-10 * f.energy()


def test_coordinate_optimize_repairs_wrong_entry():
    f = _planted()
    fixed, _objective = coordinate_optimize(f, (0.5, 0.6j), 2)
    assert abs(fixed[0] - 0.5) < 1e-12  # untouched coordinate
    assert abs(fixed[1] - PLANTED[1]) < 1e-3
    assert n_blaschke_objective(f, fixed) < 1e-6 * f.energy()


def test_coordinate_optimize_index_is_one_based():
    f = _planted()
    with pytest.raises(InputError):
        coordinate_optimize(f, PLANTED, 0)
    with pytest.raises(InputError):
        coordinate_optimize(f, PLANTED, 3)


def test_coordinate_optimize_keeps_a_free_coordinate():
    # e_a sifted through a leaves nothing to select from: the incumbent stays
    a = 0.5 - 0.2j
    f, _leak = to_hardy(CircularSignal(szego_kernel(a, np.exp(1j * circle_grid(256)))))
    params, objective = coordinate_optimize(f, (a, 0.3), 2)
    assert params == (a, 0.3)
    assert objective <= 1e-24 * f.energy()


def test_coordinate_steps_never_increase_objective():
    rng = np.random.default_rng(62)
    for _ in range(3):
        f, _, _ = kernel_sum(rng, terms=3, r=0.8)
        params = random_params(rng, 2, r=0.85)
        current = n_blaschke_objective(f, params)
        for step in range(6):
            index = 1 + step % 2
            params, objective = coordinate_optimize(f, params, index)
            new = n_blaschke_objective(f, params)
            assert abs(objective - new) <= 1e-12 * f.energy()
            assert new <= current + 1e-12 * f.energy()
            current = new


def test_cyclic_recovers_planted_parameters():
    f = _planted()
    tr = cyclic_afd(f, 2)
    assert tr.converged
    assert tr.objective < 1e-6 * f.energy()
    got = sorted(tr.params, key=lambda a: a.real)
    want = sorted(PLANTED, key=lambda a: a.real)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-3
    # the stored objective trace never moves up
    assert np.all(np.diff(tr.d) <= 0.0)
    assert tr.d[0] >= tr.objective


def test_cyclic_accepts_explicit_init():
    f = _planted()
    tr = cyclic_afd(f, 2, init=PLANTED, max_cycles=5)
    assert tr.converged
    assert tr.cycles <= 2
    assert tr.objective < 1e-10 * f.energy()
    with pytest.raises(InputError):
        cyclic_afd(f, 2, init=(0.5,))


def test_cyclic_rejects_negative_n():
    f = _planted()
    with pytest.raises(InputError, match="n wants a count >= 0"):
        cyclic_afd(f, -1)
    tr = cyclic_afd(f, 0)
    assert tr.tuples == [()]
    assert tr.objective == f.energy()


def _bits(tuples):
    return np.array(tuples, dtype=complex).tobytes()


def _assert_matches_reference(f, n, **kwargs):
    """Same tuples bit for bit as the sift-chain loop, d within rounding."""
    tr = cyclic_afd(f, n, **kwargs)
    tuples, d, converged, cycles = cyclic_reference(f, n, **kwargs)
    assert _bits(tr.tuples) == _bits(tuples)
    assert (tr.converged, tr.cycles) == (converged, cycles)
    source = f.energy()
    for params, val in zip(tr.tuples, tr.d):
        assert abs(val - n_blaschke_objective(f, params)) <= 1e-12 * source
    assert np.max(np.abs(tr.d - d)) <= 1e-12 * source
    assert np.all(np.diff(tr.d) <= 0.0)
    return tr


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [127, 255])
def test_cyclic_matches_sift_chain_reference(n, m):
    rng = np.random.default_rng(1000 * n + m)
    f, _, _ = kernel_sum(rng, terms=n, m=m)
    tr = _assert_matches_reference(f, n, max_cycles=5, delta_tol=0.0)
    # a full warm start has sifted f through init already: same chain, same bits
    warm = core_afd_decompose(f, max_terms=n, energy_tol=0.0)
    assert len(warm) == n
    assert tr.d[0] == warm.residual_energy[-1] == n_blaschke_objective(f, tr.tuples[0])


def test_cyclic_matches_reference_to_convergence():
    # the default delta_tol stopping rule sees the same steps
    tr = _assert_matches_reference(_planted(), 2)
    assert tr.converged


@pytest.mark.parametrize("n", [2, 3])
def test_cyclic_explicit_init_matches_reference(n):
    rng = np.random.default_rng(65 + n)
    f, _, _ = kernel_sum(rng, terms=n, m=127)
    init = random_params(rng, n, r=0.85)
    tr = _assert_matches_reference(f, n, init=init, max_cycles=5)
    assert tr.d[0] == n_blaschke_objective(f, init)


def test_cyclic_zero_padded_warm_start_matches_reference():
    # one planted kernel: greedy stops after one term, the init is padded
    f, _, _ = kernel_sum(np.random.default_rng(66), terms=1, m=127)
    warm = core_afd_decompose(f, max_terms=2, energy_tol=0.0)
    assert len(warm) == 1
    tr = _assert_matches_reference(f, 2, max_cycles=3)
    assert tr.tuples[0][1] == 0j
    assert tr.d[0] == n_blaschke_objective(f, tr.tuples[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cycle_costs_n_times_n_minus_one_sifts(n, monkeypatch):
    module = importlib.import_module("afd.core_afd")
    real_sift = module.sift
    calls = []

    def counting_sift(g, a):
        calls.append(a)
        return real_sift(g, a)

    monkeypatch.setattr(module, "sift", counting_sift)
    f, _, _ = kernel_sum(np.random.default_rng(67), terms=3, m=127)
    # the moves sift through core_afd._reduced_without; the warm start
    # calls _sift directly, and its final residual scores the init, so
    # only the moves count here
    tr = cyclic_afd(f, n, max_cycles=4, delta_tol=0.0)
    assert tr.cycles == 4
    assert len(calls) == n * (n - 1) * tr.cycles
    # an explicit init is scored by one sift chain of n
    calls.clear()
    tr = cyclic_afd(f, n, init=tr.params, max_cycles=4, delta_tol=0.0)
    assert len(calls) == n * (n - 1) * tr.cycles + n


def test_cyclic_refuses_a_move_that_raises_the_objective(monkeypatch):
    # the second coordinate's move keeps the tuple and reports a rise of 1e-6 ||f||^2
    module = importlib.import_module("afd.cyclic_afd")
    real = module.coordinate_optimize

    def rising(f, params, index, **kw):
        if index == 2:
            return params, n_blaschke_objective(f, params) + 1e-6 * f.energy()
        return real(f, params, index, **kw)

    monkeypatch.setattr(module, "coordinate_optimize", rising)
    with pytest.raises(AFDError, match="at coordinate 2"):
        cyclic_afd(_planted(), 2)


def test_cyclic_rejects_zero_signal():
    with pytest.raises(ZeroSignal):
        cyclic_afd(HardyFunction(np.zeros(4, dtype=complex)), 1)


def test_cyclic_beats_greedy_on_planted_form():
    # greedy pays for its first myopic pick; the cyclic search does not
    f = _planted()
    greedy = core_afd_decompose(f, max_terms=2, energy_tol=0.0)
    tr = cyclic_afd(f, 2)
    assert tr.objective <= residual_at(greedy, 2) + 1e-9
    assert residual_at(greedy, 2) > 1e-3 * f.energy()


def test_cmp_check_accepts_optimum_rejects_random():
    f = _planted()
    assert cmp_check(f, PLANTED)
    assert not cmp_check(f, (0.9j, -0.9j))


def test_cyclic_decomposition_matches_objective():
    f = _planted()
    d = cyclic_decomposition(f, PLANTED)
    assert d.residual_energy[-1] == pytest.approx(
        n_blaschke_objective(f, PLANTED), abs=1e-12 * f.energy()
    )
    d.validate()
