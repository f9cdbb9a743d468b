"""n-best Blaschke-form approximation by cyclic coordinate descent.

The n-Blaschke objective

    A(f; a_1, ..., a_n) = ||f||^2 - sum_k |<f, B_k>|^2

is the energy of f left outside the span of the TM system built on
the parameter tuple.  It depends only on the spanned subspace, hence
is invariant under permutations of the tuple, and the sifting chain
computes it directly as the energy of the n-fold reduced remainder.

A full n-best search over the polydisc is out of reach (and a good
starting point is itself hard to certify), so the solver cycles:
freeze all coordinates but one, sift through the frozen ones, and
replace the free coordinate by a maximal selection on the resulting
remainder.  The incumbent value is always among the candidates, so
the objective never increases; the iteration settles at a coordinate
minimum point (CMP), a tuple no single such move can improve.  The
limit depends on the initialization; callers who care run several
restarts and keep the best trace.

The same invariance makes each move score itself.  A move holds g, the
remainder of f sifted through the other n-1 coordinates; sifting g by
the new entry ends the chain of the new tuple in some order, so the
new objective is that remainder's energy, which the one-step energy
split gives without the sift:

    A(new tuple) = ||g||^2 - |<g, e_a>|^2.

That costs one point evaluation instead of n more sifts, so a cycle
takes n(n-1) sifts.  The split and the sift chain differ only by the
rounding of one energy sum, one point evaluation and the truncation of
the last sift, a few ulps of ||g||^2 <= ||f||^2 on planted inputs
(measured within 5e-16 ||f||^2), far below the floor at which the
order-swap rounding of the objective is tolerated, the trace slack
DEFAULT_TOL.trace_slack (1e-12) of ||f||^2.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import AFDError, InputError, ZeroResidual
from .core_afd import (
    _reduced_without,
    _source_energy,
    coefficient,
    core_afd_decompose,
    maximal_selection,
)
from .hardy_atoms import validate_param
from .signal_core import HardyFunction, _check_count, _check_tolerance

__all__ = [
    "CyclicTrace",
    "n_blaschke_objective",
    "coordinate_optimize",
    "cyclic_afd",
    "cmp_check",
    "cyclic_decomposition",
]


@dataclass
class CyclicTrace:
    """History of one cyclic run: tuple and objective after each step.

    tuples[0] is the initialization and d[0] its objective; every
    coordinate step appends one entry to each.  d is nonincreasing by
    construction (a genuine increase raises during the run).
    """

    tuples: list
    d: np.ndarray
    converged: bool
    cycles: int

    @property
    def params(self):
        return self.tuples[-1]

    @property
    def objective(self):
        return float(self.d[-1])


def n_blaschke_objective(f: HardyFunction, params) -> float:
    """Energy of f outside the span of the TM system on params.

    Forms the Gram-Schmidt chain implicitly by sifting through the
    parameters in order; each sift removes exactly the energy of one
    TM coefficient, so the final remainder energy equals
    ||f||^2 - sum |<f, B_k>|^2.  Repeated parameters are fine, the
    division handles multiplicity on its own.
    """
    params = tuple(validate_param(a) for a in params)
    return max(float(_reduced_without(f, params, None).energy()), 0.0)


def coordinate_optimize(f: HardyFunction, params, index):
    """One coordinate move: re-select entry `index` (1-based, a count <= len(params)) maximally.

    Sifts through the other n-1 parameters in tuple order, runs a
    maximal selection on the remainder g with the incumbent included in
    the candidate set, and returns (tuple with that entry replaced, its
    n-Blaschke objective).  Including the incumbent makes the objective
    nonincreasing by construction.  If the other parameters already
    span f to rounding depth, the coordinate is free and the incumbent
    is kept.  The selection scans the default grid, DEFAULT_SEARCH.

    The objective is ||g||^2 - |<g, e_a>|^2 for the new entry a, the
    energy split of the sift that would end the new tuple's chain (see
    the module docstring); it agrees with n_blaschke_objective of the
    returned tuple to rounding, well below the trace slack
    DEFAULT_TOL.trace_slack ||f||^2.  The selection floor is relative
    to ||f||.
    """
    params = tuple(validate_param(a) for a in params)
    _check_count("index", index, 1)
    if index > len(params):
        raise InputError(f"coordinate index {index} outside 1..{len(params)}")
    i = index - 1
    g = _reduced_without(f, params, i)
    energy = g.energy()
    try:
        a_new = maximal_selection(g, include=(params[i],), source_norm=f.norm())
    except ZeroResidual:
        a_new = params[i]
    objective = max(energy - abs(coefficient(g, a_new)) ** 2, 0.0)
    return params[:i] + (a_new,) + params[i + 1 :], objective


def cyclic_afd(
    f: HardyFunction,
    n,
    init=None,
    max_cycles=200,
    delta_tol=1e-10,
) -> CyclicTrace:
    """Round-robin coordinate descent on the n-Blaschke objective.

    Parameters
    ----------
    f : HardyFunction
    n : int
        Number of Blaschke parameters, >= 0.
    init : sequence of complex, optional
        Starting tuple.  Default is a warm start from the first n
        one-by-one greedy selections (zero-padded if the greedy run
        terminates early).
    max_cycles, delta_tol :
        The run stops once every step of a full cycle improves the
        objective by less than delta_tol * ||f||^2, or after
        max_cycles cycles.

    Returns
    -------
    CyclicTrace
        With d[0] the objective at init; `converged` records which
        stopping rule fired.

    Raises
    ------
    InputError
        If n or max_cycles is not an integer >= 0, delta_tol not a
        finite value >= 0 (_check_count, _check_tolerance), or init does
        not supply n parameters; NonFiniteEnergy
        (an InputError) if the energy of f overflows; ZeroSignal for a
        zero f.

    Notes
    -----
    The limit is a CMP, not a certified global n-best tuple; different
    inits may settle at different objective values.  The greedy warm
    start and every move select on the default grid, DEFAULT_SEARCH.
    Each recorded d is clamped to the previous one when the difference
    is below the order-swap rounding floor, the trace slack
    DEFAULT_TOL.trace_slack ||f||^2, so the stored trace is exactly
    nonincreasing; an increase beyond that floor raises AFDError.

    d[k] for k >= 1 is the objective coordinate_optimize returns, the
    energy split of its last sift, so a cycle costs n(n-1) sifts.  A
    greedy warm start that returns all n terms has already sifted f
    through init in order, so d[0] is its final residual energy, the
    same value n_blaschke_objective(f, init) gives bit for bit; an
    explicit or zero-padded init is scored by n_blaschke_objective.
    Either way d[k] stays within rounding of the sift-chain objective
    of tuples[k], far below that clamp floor.
    """
    _check_count("n", n)
    _check_count("max_cycles", max_cycles)
    _check_tolerance("delta_tol", delta_tol)
    source = _source_energy(f.energy)
    warm = None
    if init is None:
        warm = core_afd_decompose(f, max_terms=n, energy_tol=0.0)
        init = tuple(warm.params) + (0j,) * (n - len(warm))
    init = tuple(validate_param(a) for a in init)
    if len(init) != n:
        raise InputError(f"init supplies {len(init)} parameters, expected {n}")

    tuples = [init]
    if warm is not None and len(warm) == n:
        d = [float(warm.residual_energy[-1])]
    else:
        d = [n_blaschke_objective(f, init)]
    converged = False
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        worst_step = 0.0
        for index in range(1, n + 1):
            new, val = coordinate_optimize(f, tuples[-1], index)
            if val > d[-1]:
                if val - d[-1] > DEFAULT_TOL.trace_slack * source:
                    raise AFDError(
                        f"objective increased by {val - d[-1]:.3e} "
                        f"at coordinate {index}"
                    )
                val = d[-1]
            worst_step = max(worst_step, d[-1] - val)
            tuples.append(new)
            d.append(val)
        if worst_step < delta_tol * source:
            converged = True
            break
    return CyclicTrace(
        tuples=tuples,
        d=np.array(d),
        converged=converged,
        cycles=cycles,
    )


def cmp_check(f: HardyFunction, params) -> bool:
    """True when no single coordinate move improves A noticeably.

    The threshold is 1e-8 * ||f||^2, matching the convergence floor of
    the cyclic iteration rather than machine precision: selection-grid
    polish can always shave dust off the objective.  Each trial move
    is a coordinate_optimize, scored by the objective it returns, so it
    costs n-1 sifts; only the base value runs the full sift chain.
    """
    base = n_blaschke_objective(f, params)
    floor = DEFAULT_TOL.cmp_rel * max(f.energy(), 1e-300)
    for index in range(1, len(params) + 1):
        _new, val = coordinate_optimize(f, params, index)
        if base - val >= floor:
            return False
    return True


def cyclic_decomposition(f: HardyFunction, params):
    """Decomposition with the given tuple consumed in order.

    Coefficients come from the sifting chain, so the residual trace
    ends at the n-Blaschke objective of the tuple.
    """
    return core_afd_decompose(f, max_terms=len(params), energy_tol=0.0, forced_params=tuple(params))
