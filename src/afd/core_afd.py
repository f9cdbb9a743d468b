"""Greedy adaptive decomposition over Szego-kernel dictionaries.

One step extracts the projection onto a normalized Szego kernel e_a
and divides the remainder by the Mobius factor of a (the generalized
backward shift):

    f_{k+1} = (f_k - <f_k, e_{a_k}> e_{a_k}) / mobius_{a_k}.

The parameter a_k comes from maximizing (1 - |a|^2)|f_k(a)|^2, which
equals the extracted energy |<f_k, e_a>|^2.  Forcing all parameters
to zero turns the loop into a plain Taylor/Fourier expansion, which is
the baseline the adaptive selection is measured against.

A useful exactness fact drives the numerics: if f_k is a polynomial of
degree at most M, the reduced remainder equals

    (f_k(z)(1 - conj(a) z) - c sqrt(1 - |a|^2)) / (z - a),

a polynomial division with zero remainder, so f_{k+1} is again a
polynomial of degree at most M.  Sifting therefore never leaves the
truncated coefficient space and the one-step energy split holds to
rounding, for any a in the disc.
"""

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .errors import (
    AFDError,
    DegenerateModulus,
    InputError,
    NonFiniteEnergy,
    ZeroResidual,
    ZeroSignal,
)
from .hardy_atoms import _kernel_and_mobius, tm_sweep, validate_param
from .signal_core import (
    CircularSignal,
    HardyFunction,
    _padded_n,
    _power_table,
    circle_grid,
    series_values,
    to_hardy,
)

__all__ = [
    "Component",
    "Decomposition",
    "objective",
    "coefficient",
    "maximal_selection",
    "sift",
    "core_afd_decompose",
    "coefficient_cross_check",
    "reconstruct",
]


@dataclass(frozen=True)
class Component:
    """One extracted term: parameter a and coefficient c.

    Unwinding terms also carry inner, the samples of the cumulative
    inner factor phi_1...phi_k on the decomposition's meta["n"] grid;
    a is None for UWA terms, which involve no kernel parameter.  inner
    takes no part in comparison or hashing.
    """

    a: complex | None
    c: complex
    inner: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class Decomposition:
    """The result of every algorithm: ordered components plus the
    energy bookkeeping of the run.

    residual_energy[k] is the residual energy after k terms, so the
    trace starts at source_energy and must never increase.
    """

    components: list
    residual_energy: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def source_energy(self):
        """Energy of the decomposed signal, the first entry of the trace."""
        return float(self.residual_energy[0])

    @property
    def params(self):
        """Parameters a_k as a complex array; InputError if a term has none (UWA)."""
        if any(c.a is None for c in self.components):
            raise InputError("UWA components carry no kernel parameter")
        return np.array([c.a for c in self.components], dtype=complex)

    @property
    def coefficients(self):
        return np.array([c.c for c in self.components], dtype=complex)

    def __len__(self):
        return len(self.components)

    def validate(self):
        """Finite records, energy identity and monotone residual trace; raises on defect.

        Every trace entry and coefficient must be finite (a NaN passes
        every comparison below), and the identity holds to
        DEFAULT_TOL.energy_total of the source energy.
        """
        if not (np.isfinite(self.residual_energy).all() and np.isfinite(self.coefficients).all()):
            raise AFDError("residual energy trace or coefficient not finite")
        scale = max(self.source_energy, 1e-300)
        steps = np.diff(self.residual_energy)
        if steps.size and steps.max() > 1e-12 * scale:
            raise AFDError("residual energy trace increased")
        captured = float(np.sum(np.abs(self.coefficients) ** 2))
        defect = abs(self.source_energy - captured - self.residual_energy[-1])
        if defect > DEFAULT_TOL.energy_total * scale:
            raise AFDError(f"energy identity defect {defect/scale:.3e}")


def objective(f: HardyFunction, a):
    """Extracted energy (1 - |a|^2) |f(a)|^2 = |<f, e_a>|^2.

    a may be a scalar or an array of disc points; f(a) raises
    ParamOutOfDisc where validate_param would.
    """
    a = np.asarray(a, dtype=complex)
    val = (1.0 - np.abs(a) ** 2) * np.abs(f(a)) ** 2
    return val if val.ndim else float(val)


def coefficient(f: HardyFunction, a):
    """Projection <f, e_a> = sqrt(1 - |a|^2) f(a) (reproducing kernel).

    f(a) is read as series_values reads it, from the power column
    [1, a, a^2, ...], for any a that validate_param accepts.
    """
    a = validate_param(a)
    value = complex((f.coefficients @ _power_table((a,), f.coefficients.size))[0])
    return complex(np.sqrt(1.0 - abs(a) ** 2) * value)


def _search_radii(search):
    # Chebyshev nodes cluster radii at both 0 and r_max
    return search.r_max * 0.5 * (
        1.0 + np.cos(np.pi * (2 * np.arange(search.n_radii) + 1) / (2 * search.n_radii))
    )


def _search_grid(search):
    # the center point is appended explicitly so constants select a = 0 exactly
    phi = circle_grid(search.n_angles)
    grid = np.outer(_search_radii(search), np.exp(1j * phi)).ravel()
    return np.concatenate([grid, [0.0 + 0.0j]])


# a decomposition scans one order on one grid (POAFD on its capped grid), so
# a few plans cover runs of mixed orders; at order 2047 on the default grid a
# plan holds 56 KB, most of it the grid points
_SCAN_PLANS = 8


class _ScanPlan(NamedTuple):
    """Read-only tables for scanning series of one order on one grid.

    With A = n_angles and B = ceil((M+1)/A) fold blocks, a power splits
    as r^(A b + t) = r^(A b) r^t with t < A: blocks[i, b] =
    radii[i]**(A b) and within[i, t] = radii[i]**t.  points is
    _search_grid.
    """

    blocks: np.ndarray
    within: np.ndarray
    points: np.ndarray

    # the cache hangs off the class: a module-level lru_cache binding
    # carries __wrapped__, which the benchmark tracer's restore check
    # takes for one of its own wrappers
    @staticmethod
    @functools.lru_cache(maxsize=_SCAN_PLANS)
    def build(search, m1):
        """The plan for series of length m1 on the grid of search (a SearchConfig).

        InputError if the grid reaches outside the disc.  The cache
        keeps no raised error, so such a grid is refused on every call.
        """
        radii = _search_radii(search)
        if radii.max() > 1.0 - DEFAULT_TOL.param_boundary:
            raise InputError("search grid reaches outside the disc")
        radii = radii[:, None]
        blocks = radii ** (search.n_angles * np.arange(-(-m1 // search.n_angles)))
        plan = _ScanPlan(blocks, radii ** np.arange(search.n_angles), _search_grid(search))
        for table in plan:
            table.flags.writeable = False
        return plan

    @staticmethod
    @functools.lru_cache(maxsize=_SCAN_PLANS)
    def kernel_norm2(search, norm2_rule):
        """Read-only phi = norm2_rule(|a|^2)[0], the squared kernel norm, on _search_grid.

        It does not depend on the order, so one table per grid and rule
        serves every plan on that grid.
        """
        phi = norm2_rule(np.abs(_search_grid(search)) ** 2)[0]
        phi.flags.writeable = False
        return phi

    @staticmethod
    @functools.lru_cache(maxsize=_SCAN_PLANS)
    def circle(n):
        """Read-only e^{it_j} at the circle_grid(n) angles.

        A sift samples its function on the grid of HardyFunction.boundary,
        one power of two per order; at 4096 points (order 2047) a circle
        holds 64 KB.
        """
        z = np.exp(1j * circle_grid(n))
        z.flags.writeable = False
        return z


def _grid_values(coeffs, search):
    """Values of one series (M+1,) or a stack (R, M+1) on _search_grid.

    On the circle of radius r the n_angles samples are the unnormalized
    inverse FFT of the damped coefficients c_k r^k folded modulo
    n_angles (exact aliasing), so a scan costs one FFT per radius
    instead of one point evaluation per grid point.  With k = A b + t
    the fold is r^t sum_b r^(A b) c_{A b + t}: the plan's blocks times
    the zero-padded coefficients viewed as (B, 2A) doubles, one real
    matrix product, scaled in place by within.  A stack is one product
    per row by matmul broadcasting, so each row's values are those of
    its own scan.  Values come in _search_grid order, the center c_0
    last.
    """
    c = np.asarray(coeffs, dtype=complex)
    lead, m1 = c.shape[:-1], c.shape[-1]
    plan = _ScanPlan.build(search, m1)
    padded = np.zeros(lead + (plan.blocks.shape[-1], search.n_angles), dtype=complex)
    padded.reshape(lead + (-1,))[..., :m1] = c
    folded = (plan.blocks @ padded.view(float)).view(complex)
    folded *= plan.within
    rings = np.fft.ifft(folded, axis=-1, norm="forward")
    return np.concatenate([rings.reshape(lead + (-1,)), c[..., :1]], axis=-1)


def _hardy_norm2(s):
    """||k_a||^2 = 1/(1 - s) of the Szego kernel, s = |a|^2, with d/ds and d2/ds2."""
    u = 1.0 / (1.0 - s)
    return u, u * u, 2.0 * u**3


def _selection_scores(norm2, r_values, rows_sq):
    """Q = |r(a)|^2 / (phi(|a|^2) - sum_j |B_j(a)|^2) at each probe.

    norm2 holds the squared kernel norm phi at the probes (the first
    value of a norm2 rule), r_values the residual r there and rows_sq
    the sum of |B_j|^2 over the system rows there (0 without rows).
    With no system rows and phi = 1/(1 - |a|^2) this is the greedy
    objective (1 - |a|^2)|f(a)|^2.  Q is 0 where the kernel at a lies
    in the span of the rows: where phi - sum_j |B_j|^2, its squared
    norm after projection, is not above DEFAULT_TOL.gram**2 phi, the
    floor below which Gram-Schmidt refuses it.  phi > 0 never meets it
    without rows.
    """
    if np.isscalar(rows_sq) and rows_sq == 0.0:
        q = np.abs(r_values)
        np.square(q, out=q)
        return np.divide(q, norm2, out=q)
    denom2 = norm2 - rows_sq
    ok = denom2 > DEFAULT_TOL.gram**2 * norm2
    return np.divide(np.abs(r_values) ** 2, denom2, out=np.zeros(len(norm2)), where=ok)


def _derivative_stack(rows):
    """Coefficients of [rows, rows', rows''] stacked as (3R, M+1)."""
    n, m1 = rows.shape
    out = np.zeros((3 * n, m1), dtype=complex)
    out[:n] = rows
    k = np.arange(1, m1)
    np.multiply(rows[:, 1:], k, out=out[n : 2 * n, :-1])
    np.multiply(out[n : 2 * n, 1:], k, out=out[2 * n :, :-1])
    return out


def _selection_model(stack, norm2_rule, a):
    """Q and its Wirtinger derivatives at a, from one evaluation of stack.

    stack is the _derivative_stack of [r, B_1, ...]: the residual row
    and the system rows, if any.  Returns (Q, dQ/d conj(a),
    d2Q/da d conj(a), d2Q/d conj(a)^2), or None where Q is scored 0
    (D not above DEFAULT_TOL.gram**2 phi, as in _selection_scores).
    With N = |r|^2 and D = phi - sum_j |B_j|^2, Q = N / D and

        N_abar = r conj(r'),   N_a_abar = |r'|^2,   N_abar_abar = r conj(r''),
        D_abar = phi' a - sum_j B_j conj(B_j'),
        D_a_abar = phi' + phi'' s - sum_j |B_j'|^2,
        D_abar_abar = phi'' a^2 - sum_j B_j conj(B_j''),

    phi' and phi'' taken in s = |a|^2.  stack is evaluated on the power
    column [1, a, a^2, ...], as series_values evaluates it, and the row
    sums are skipped without system rows.
    """
    v = (stack @ _power_table((a,), stack.shape[-1]))[:, 0]
    n = len(v) // 3
    r, r1, r2 = complex(v[0]), complex(v[n]), complex(v[2 * n])
    s = abs(a) ** 2
    phi, phi1, phi2 = norm2_rule(s)
    den, den_g, den_h, den_c = phi, phi1 * a, phi1 + phi2 * s, phi2 * a * a
    if n > 1:
        b, b1, b2 = v[1:n], v[n + 1 : 2 * n], v[2 * n + 1 :]
        den -= float(np.vdot(b, b).real)
        den_g -= complex(np.vdot(b1, b))
        den_h -= float(np.vdot(b1, b1).real)
        den_c -= complex(np.vdot(b2, b))
    if not den > DEFAULT_TOL.gram**2 * phi:
        return None
    q = abs(r) ** 2 / den
    g = (r * r1.conjugate() - q * den_g) / den
    h = (abs(r1) ** 2 - q * den_h - 2.0 * (g * den_g.conjugate()).real) / den
    c = (r * r2.conjugate() - q * den_c - 2.0 * g * den_g) / den
    return q, g, h, c


# step-size stop and step cap of _polish; it has been seen to stop within 21 steps
_POLISH_XATOL = 1e-4
_POLISH_MAXITER = 200


def _polish(stack, norm2_rule, a, search):
    """Projected Newton ascent of Q from a, within |a| <= search.r_max.

    An iteration takes the Newton step where the Hessian is negative
    definite and elsewhere a gradient step scaled by the largest
    curvature.  A step leaving the cap is projected back onto it; on
    the cap circle with an outward gradient the step is the 1-D Newton
    step in the angle.  A backtracking line search accepts only steps
    that raise Q.  The ascent stops once an accepted step is shorter
    than _POLISH_XATOL, once the line search shrinks a step below it
    without a rise, or after _POLISH_MAXITER steps.
    """
    cap = search.r_max
    # projections aim a few roundings inside the cap, so none lands outside
    rim = cap * (1.0 - 4.0 * np.finfo(float).eps)
    model = _selection_model(stack, norm2_rule, a)
    if model is None or abs(a) > cap:
        return a
    for _ in range(_POLISH_MAXITER):
        q, g, h, c = model
        outward = (g * a.conjugate()).real
        if abs(a) >= rim * (1.0 - 1e-12) and outward > 0.0:
            q_t = 2.0 * (g * a.conjugate()).imag
            q_tt = 2.0 * (h * abs(a) ** 2 - (c * a.conjugate() ** 2).real) - 2.0 * outward
            if q_tt == 0.0:
                break
            # the Newton step where q_tt < 0, a curvature-scaled ascent step elsewhere
            turn = q_t / abs(q_tt)

            def move(t, a=a, turn=turn):
                b = a * cmath.exp(1j * t * turn)
                return b * (rim / abs(b))

        else:
            if h < -abs(c):
                step = (c * g.conjugate() - h * g) / (h * h - abs(c) ** 2)
            elif abs(h) + abs(c) > 0.0:
                step = g / (abs(h) + abs(c))
            else:
                break

            def move(t, a=a, step=step):
                b = a + t * step
                return b if abs(b) <= rim else b * (rim / abs(b))

        t = 1.0
        while True:
            b = move(t)
            trial = _selection_model(stack, norm2_rule, b)
            if trial is not None and trial[0] > q:
                break
            if abs(b - a) < _POLISH_XATOL:
                return a
            t *= 0.5
        stride = abs(b - a)
        a, model = b, trial
        if stride < _POLISH_XATOL:
            break
    return a


def _grid_pick(rows, norm2_rule, search, floor=0.0, include=(), rows_sq=0.0):
    """Best point of Q over the search grid and include, with the stack it scored.

    rows is the stack [residual, system rows] that Q is formed from and
    rows_sq the sum of |B_j|^2 over the system rows on search's grid (0
    without rows; Bergman POAFD carries it through its run), so the
    grid scan covers the residual row alone.  The include candidates
    evaluate every row at their points.
    Q is homogeneous of degree 2 in the residual, so it is scored on a
    copy of rows whose residual is scaled to unit coefficient norm: the
    pick does not depend on the signal's scale, nothing overflows for
    large signals, and Q is a fraction of the residual's squared
    coefficient norm (its Hardy energy).  Ties (within 1e-12 of that)
    go to small |a| and then to small nonnegative argument.  Returns
    (pick, scaled copy).

    Raises ZeroResidual unless that coefficient norm is above floor.
    """
    rows = np.array(rows, dtype=complex)  # a copy, so the residual scales in place
    norm = np.linalg.norm(rows[0])
    if not norm > floor:
        raise ZeroResidual("norm below selection floor")
    rows[0] /= norm
    candidates = _ScanPlan.build(search, rows.shape[-1]).points
    norm2 = _ScanPlan.kernel_norm2(search, norm2_rule)
    vals = _selection_scores(norm2, _grid_values(rows[0], search), rows_sq)
    if len(include):
        extra = np.asarray(include, dtype=complex)
        candidates = np.concatenate([candidates, extra])
        at = series_values(rows, extra)
        extra_sq = np.sum(np.abs(at[1:]) ** 2, axis=0)
        norm2 = norm2_rule(np.abs(extra) ** 2)[0]
        vals = np.concatenate([vals, _selection_scores(norm2, at[0], extra_sq)])
    ties = np.flatnonzero(vals >= vals.max() - 1e-12)
    if len(ties) > 1:
        pts = candidates[ties]
        ties = ties[np.lexsort((np.mod(np.angle(pts), 2.0 * np.pi), np.abs(pts)))]
    return complex(candidates[ties[0]]), rows


def _select(rows, norm2_rule, search, floor=0.0, include=(), rows_sq=0.0):
    """The _grid_pick point, polished by _polish on the stack it scored.

    The polish only ever raises Q and stays within search.r_max, so the
    pick never scores below the best grid point or include candidate.
    """
    best, rows = _grid_pick(rows, norm2_rule, search, floor, include, rows_sq)
    return _polish(_derivative_stack(rows), norm2_rule, best, search)


def maximal_selection(f: HardyFunction, search=DEFAULT_SEARCH, include=(), source_norm=None):
    """Polished grid maximum of the selection objective for one greedy step.

    Scans the polar grid for the largest (1 - |a|^2)|f(a)|^2, breaks
    ties toward small |a| and then small nonnegative argument, and
    polishes the winner by projected Newton ascent with closed-form
    derivatives, confined to |a| <= r_max (see SearchConfig).  The
    guarantee is that the returned point never scores below the best
    grid point (or `include` candidate); it is not certified as the
    global maximum over the disc, since the polish climbs the winning
    cell's peak and a higher peak between grid points can be missed.
    `include` adds extra candidates, e.g. an incumbent parameter that
    must not be lost; one beyond r_max is kept as given if it wins, not
    polished.  source_norm is the norm of the signal the caller's
    iteration started from (default ||f||, so only a zero f is
    refused); the selection floor is relative to it, as in poafd_select.
    search is DEFAULT_SEARCH for every caller in the package except
    Hardy POAFD, which passes the radius-capped poafd.CAPPED_SEARCH.

    Raises
    ------
    ZeroResidual
        If ||f|| is not above DEFAULT_TOL.zero_residual times source_norm
        (an exact zero included), so the floor does not depend on the
        signal's scale; the caller's iteration should have stopped.
    ParamOutOfDisc
        If an `include` candidate is not strictly inside the disc.
    """
    if source_norm is None:
        source_norm = f.norm()
    include = [validate_param(a) for a in include]
    floor = DEFAULT_TOL.zero_residual * source_norm
    return _select(f.coefficients[None], _hardy_norm2, search, floor, include)


def sift(f: HardyFunction, a):
    """Reduced remainder after extracting the e_a component.

    Returns f_next with the same truncation order.  The division by
    the Mobius factor happens on boundary samples where |mobius| = 1,
    so dividing is multiplying by the conjugate.
    """
    a = validate_param(a)
    return _sift(f, a, coefficient(f, a))


def _sift(f, a, c):
    """sift(f, a) for a validated a and its coefficient c = coefficient(f, a).

    e_a and mobius(a, .) come from one denominator on the cached circle;
    the leak check scales by ||f||.
    """
    boundary = f.boundary()
    kern, quotient = _kernel_and_mobius(a, _ScanPlan.circle(boundary.n))
    g = np.subtract(boundary.samples, np.multiply(c, kern, out=kern), out=kern)
    g *= np.conj(quotient, out=quotient)
    f_next, leak = to_hardy(CircularSignal(g), m=f.order)
    if leak > 1e-9 * max(f.norm(), 1e-300):
        warnings.warn(
            f"negative-frequency leakage {leak:.2e} in sift", RuntimeWarning
        )
    return f_next


def _reduced_without(f, params, skip):
    # remainder after sifting every coordinate except `skip` (None: all), in order
    for i, a in enumerate(params):
        if i != skip:
            f = sift(f, a)
    return f


def _source_energy(energy):
    """energy() of a signal to decompose, refused unless finite and positive.

    NonFiniteEnergy (an InputError) unless it is finite, ZeroSignal
    unless it is positive.  An energy beyond the double range overflows
    to inf, so it is computed with numpy's overflow warning off: the
    overflow is refused here by name instead.
    """
    with np.errstate(over="ignore"):
        source = energy()
    if not math.isfinite(source):
        raise NonFiniteEnergy(f"signal energy is {source}, not a finite double")
    if source <= 0.0:
        raise ZeroSignal("zero signal")
    return source


def _greedy(energy, max_terms, energy_tol, step, forced_params=None):
    """The one loop over terms, behind core AFD, POAFD, UWA and UWAFD.

    energy() is the energy of the signal to decompose, refused by
    _source_energy (ZeroSignal, NonFiniteEnergy) before any step.
    step(a) extracts one term and returns (Component, residual energy
    after it); a is the next of forced_params, validated, or None when
    the step selects its own.  The run ends after max_terms steps, once
    the relative residual energy is below max(energy_tol,
    residual_floor), once forced_params are used up, or when step
    raises ZeroResidual or DegenerateModulus.  That floor is positive,
    so it ends a run before any step sees a zero remainder.  Returns
    the Decomposition and the message that ended the run early (None
    otherwise).
    """
    source = _source_energy(energy)
    components = []
    residuals = [source]
    stopped = None
    for k in range(max_terms):
        if residuals[-1] / source < max(energy_tol, DEFAULT_TOL.residual_floor):
            break
        if forced_params is not None and k >= len(forced_params):
            break
        a = None if forced_params is None else validate_param(forced_params[k])
        try:
            comp, resid = step(a)
        except (ZeroResidual, DegenerateModulus) as exc:
            stopped = str(exc)
            break
        components.append(comp)
        residuals.append(resid)
    return Decomposition(components, np.array(residuals)), stopped


def _afd_step(f_k, a, search):
    """One maximal sifting step: (a, <f_k, e_a>, reduced remainder).

    A None a is selected by maximal_selection on f_k.
    """
    if a is None:
        a = maximal_selection(f_k, search)
    c = coefficient(f_k, a)
    return a, c, _sift(f_k, a, c)


def core_afd_decompose(
    f: HardyFunction, max_terms=50, energy_tol=1e-6, search=DEFAULT_SEARCH, forced_params=None
):
    """Greedy decomposition f = sum_k c_k B_k + remainder.

    Runs maximal_selection and sift until max_terms or until the
    relative residual energy drops below energy_tol (or the residual
    floor): the stopping rule of _greedy.  With forced_params the
    selection is skipped and the given parameters are consumed in order
    (all zeros reproduces the Taylor/Fourier expansion).  search is
    maximal_selection's: DEFAULT_SEARCH but for Hardy POAFD, which
    passes poafd.CAPPED_SEARCH.

    Each c_k = <f_k, e_{a_k}> comes from the reproducing kernel, once
    per step.  The sift is an exact polynomial division (see the module
    docstring), so c_k = <f, B_k> holds to rounding and is not checked
    in the loop; coefficient_cross_check(f, d) runs that audit on
    demand.

    Returns a Decomposition whose residual trace starts at ||f||^2;
    ZeroSignal for a zero f, NonFiniteEnergy if ||f||^2 overflows.
    """
    f_k = f

    def step(a):
        nonlocal f_k
        a, c, f_k = _afd_step(f_k, a, search)
        return Component(a=a, c=c), f_k.energy()

    return _greedy(f.energy, max_terms, energy_tol, step, forced_params)[0]


def _circle_terms(d, grid, phase=False):
    """(t, terms): the times of grid, a count or an array, and the terms of d there.

    terms walks one tm_sweep and yields per component B_k at e^{it}
    (its work array), (B_k, theta_k') with phase, or None for a UWA
    term.  The one rule: only Hardy-space terms have boundary values, so
    a meta["space"] other than "hardy" is refused (InputError); unwinding
    terms exist only on their meta["n"] grid, so any other grid is
    refused.  A count must be a positive integer (InputError).
    """
    space = d.meta.get("space", "hardy")
    if space != "hardy":
        raise InputError(f"components live in the {space!r} space; only Hardy-space terms have boundary values")
    if np.isscalar(grid) and not (isinstance(grid, (int, np.integer)) and grid > 0):
        raise InputError(f"sample count wants a positive integer, got {grid!r}")
    unwinding = any(comp.inner is not None for comp in d.components)
    if unwinding and not (np.isscalar(grid) and grid == d.meta["n"]):
        raise InputError(f"inner factors are stored on the {d.meta['n']}-point grid only")
    t = circle_grid(int(grid)) if np.isscalar(grid) else np.asarray(grid, dtype=float)
    sweep = tm_sweep([c.a for c in d.components if c.a is not None], np.exp(1j * t), phase)
    return t, (None if comp.a is None else next(sweep) for comp in d.components)


def coefficient_cross_check(f: HardyFunction, d: Decomposition):
    """Largest defect of the three coefficient forms of a decomposition of f.

    Each c_k of d is compared with <f, B_k> and with <g_k, B_k>, g_k =
    f - sum_{l<k} c_l B_l the orthogonal-projection remainder, both by
    quadrature on the padded grid _padded_n of max(4N, 4096) points.
    The product f conj(B_k) is not band limited, hence the padding;
    sampling f there is exact.  Returns max_k max(|c_k - <f, B_k>|,
    |c_k - <g_k, B_k>|), 0.0 for no terms; it sits at rounding level
    (relative to ||f||) when the sifts behind d were exact.  Refuses
    (InputError) what _circle_terms refuses, and unwinding records,
    whose inner factors the TM chain cannot reproduce (they are stored
    on this same _padded_n grid, which that rule lets through).
    """
    if any(comp.inner is not None for comp in d.components):
        raise InputError("unwinding components carry inner factors; compare reconstruct with f instead")
    n = _padded_n(f.coefficients.size)
    _, terms = _circle_terms(d, n)
    boundary = f.boundary(n)
    partial = np.zeros(n, dtype=complex)  # sum c_l B_l so far
    worst = 0.0
    for comp, b_k in zip(d.components, terms):
        c = comp.c
        c_direct = complex(np.mean(boundary.samples * np.conj(b_k)))
        c_remainder = complex(np.mean((boundary.samples - partial) * np.conj(b_k)))
        worst = max(worst, abs(c - c_direct), abs(c - c_remainder))
        partial = partial + c * b_k
    return worst


def reconstruct(d: Decomposition, n) -> CircularSignal:
    """Boundary samples of sum_k c_k I_k B_k on an n-point grid.

    I_k is the cumulative inner factor of an unwinding term (1 for the
    other algorithms) and B_k the TM function over the parameters so
    far (1 for a UWA term, which has none).  Records are read by
    _circle_terms and refused (InputError) by its rule.
    """
    _, terms = _circle_terms(d, n)
    out = np.zeros(n, dtype=complex)
    for comp, b_k in zip(d.components, terms):
        term = comp.c if comp.inner is None else comp.c * comp.inner
        if b_k is not None:
            term = term * b_k
        out += term
    return CircularSignal(out)
