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

from .config import DEFAULT_SEARCH, DEFAULT_TOL, SearchConfig
from .errors import (
    AFDError,
    DegenerateModulus,
    InputError,
    NonFiniteEnergy,
    ZeroResidual,
    ZeroSignal,
)
from .hardy_atoms import _kernel_and_mobius, tm_sweep, validate_param
from .signal_core import CircularSignal, HardyFunction, circle_grid, series_values, to_hardy

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
    """One extracted term: parameter a, coefficient c, and origin tag.

    kind names the algorithm that extracted the term.  Unwinding terms
    ("uwa", "uwafd") also carry inner, the samples of the cumulative
    inner factor phi_1...phi_k on the decomposition's meta["n"] grid;
    a is None for UWA terms, which involve no kernel parameter.  inner
    takes no part in comparison or hashing.
    """

    a: complex | None
    c: complex
    kind: str = "core"
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
    source_energy: float
    meta: dict = field(default_factory=dict)

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

    def validate(self, tol=None):
        """Energy identity and monotone residual trace; raises on defect."""
        if tol is None:
            tol = DEFAULT_TOL.energy_total
        scale = max(self.source_energy, 1e-300)
        steps = np.diff(self.residual_energy)
        if steps.size and steps.max() > 1e-12 * scale:
            raise AFDError("residual energy trace increased")
        captured = float(np.sum(np.abs(self.coefficients) ** 2))
        defect = abs(self.source_energy - captured - self.residual_energy[-1])
        if defect > tol * scale:
            raise AFDError(f"energy identity defect {defect/scale:.3e}")


def objective(f: HardyFunction, a):
    """Extracted energy (1 - |a|^2) |f(a)|^2 = |<f, e_a>|^2.

    a may be a scalar or an array of disc points.
    """
    a = np.asarray(a, dtype=complex)
    if np.any(np.abs(a) > 1.0 - DEFAULT_TOL.param_boundary):
        raise InputError("objective probed on or outside the circle")
    val = (1.0 - np.abs(a) ** 2) * np.abs(f(a)) ** 2
    return val if val.ndim else float(val)


def coefficient(f: HardyFunction, a):
    """Projection <f, e_a> = sqrt(1 - |a|^2) f(a) (reproducing kernel)."""
    a = validate_param(a)
    return complex(np.sqrt(1.0 - abs(a) ** 2) * f(a))


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
# plan holds 544 KB
_SCAN_PLANS = 8


class _ScanPlan(NamedTuple):
    """Read-only tables for scanning series of one order on one grid.

    powers[i, k] = radii[i]**k for k <= M, zero-padded to the fold
    length (a multiple of n_angles); points is _search_grid.
    """

    powers: np.ndarray
    points: np.ndarray

    # the cache hangs off the class: a module-level lru_cache binding
    # carries __wrapped__, which the benchmark tracer's restore check
    # takes for one of its own wrappers
    @staticmethod
    @functools.lru_cache(maxsize=_SCAN_PLANS)
    def build(n_angles, n_radii, r_max, m1):
        search = SearchConfig(n_angles=n_angles, n_radii=n_radii, r_max=r_max)
        powers = np.zeros((n_radii, -(-m1 // n_angles) * n_angles))
        powers[:, :m1] = _search_radii(search)[:, None] ** np.arange(m1)
        plan = _ScanPlan(powers, _search_grid(search))
        for table in plan:
            table.flags.writeable = False
        return plan

    @staticmethod
    @functools.lru_cache(maxsize=_SCAN_PLANS)
    def kernel_norm2(n_angles, n_radii, r_max, norm2_rule):
        """Read-only phi = norm2_rule(|a|^2)[0], the squared kernel norm, on _search_grid.

        It does not depend on the order, so one table per grid and rule
        serves every plan on that grid.
        """
        search = SearchConfig(n_angles=n_angles, n_radii=n_radii, r_max=r_max)
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


def _scan_plan(search, m1):
    """The cached _ScanPlan for series of length m1 on search's grid.

    The grid is checked on every call, ahead of the cache, so a grid
    reaching outside the disc always raises InputError.
    """
    # the largest of _search_radii, radii[0], in scalar arithmetic
    outer = search.r_max * 0.5 * (1.0 + math.cos(math.pi / (2 * search.n_radii)))
    if outer > 1.0 - DEFAULT_TOL.param_boundary:
        raise InputError("search grid reaches outside the disc")
    return _ScanPlan.build(search.n_angles, search.n_radii, search.r_max, m1)


def _grid_values(coeffs, search):
    """Values of one series (M+1,) or a stack (R, M+1) on _search_grid.

    On the circle of radius r the n_angles samples are n_angles * ifft
    of the damped coefficients c_k r^k folded modulo n_angles (exact
    aliasing), so a scan costs one FFT per radius instead of one point
    evaluation per grid point.  The powers r^k come from the cached
    _scan_plan.  Values come in _search_grid order, the center c_0 last.
    """
    c = np.asarray(coeffs, dtype=complex)
    m1 = c.shape[-1]
    powers = _scan_plan(search, m1).powers
    a = search.n_angles
    padded = np.zeros(c.shape[:-1] + (powers.shape[-1],), dtype=complex)
    padded[..., :m1] = c
    damped = padded[..., None, :] * powers
    folded = damped.reshape(damped.shape[:-1] + (-1, a)).sum(axis=-2)
    rings = np.fft.ifft(folded, axis=-1) * a
    return np.concatenate([rings.reshape(c.shape[:-1] + (-1,)), c[..., :1]], axis=-1)


def _hardy_norm2(s):
    """||k_a||^2 = 1/(1 - s) of the Szego kernel, s = |a|^2, with d/ds and d2/ds2."""
    u = 1.0 / (1.0 - s)
    return u, u * u, 2.0 * u**3


# Q is scored 0 where phi - sum_j |B_j|^2 is not above this fraction of
# phi: the kernel at a lies numerically in the span of the system rows
_DEGENERATE = 1e-13


def _selection_scores(norm2, r_values, rows_sq):
    """Q = |r(a)|^2 / (phi(|a|^2) - sum_j |B_j(a)|^2) at each probe.

    norm2 holds the squared kernel norm phi at the probes (the first
    value of a norm2 rule), r_values the residual r there and rows_sq
    the sum of |B_j|^2 over the system rows there (0 without rows).
    With no system rows and phi = 1/(1 - |a|^2) this is the greedy
    objective (1 - |a|^2)|f(a)|^2.  Q is 0 where the extension
    degenerates.
    """
    denom2 = norm2 - rows_sq
    ok = denom2 > _DEGENERATE * norm2
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
    d2Q/da d conj(a), d2Q/d conj(a)^2), or None where Q is scored 0.
    With N = |r|^2 and D = phi - sum_j |B_j|^2, Q = N / D and

        N_abar = r conj(r'),   N_a_abar = |r'|^2,   N_abar_abar = r conj(r''),
        D_abar = phi' a - sum_j B_j conj(B_j'),
        D_a_abar = phi' + phi'' s - sum_j |B_j'|^2,
        D_abar_abar = phi'' a^2 - sum_j B_j conj(B_j''),

    phi' and phi'' taken in s = |a|^2.  stack is evaluated on the power
    column [1, a, a^2, ...] that series_values would build for a, and
    the row sums are skipped without system rows.
    """
    powers = np.empty((stack.shape[-1], 1), dtype=complex)
    powers[0] = 1.0
    powers[1:] = a
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    v = (stack @ powers)[:, 0]
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
    if not den > _DEGENERATE * phi:
        return None
    q = abs(r) ** 2 / den
    g = (r * r1.conjugate() - q * den_g) / den
    h = (abs(r1) ** 2 - q * den_h - 2.0 * (g * den_g.conjugate()).real) / den
    c = (r * r2.conjugate() - q * den_c - 2.0 * g * den_g) / den
    return q, g, h, c


def _polish(stack, norm2_rule, a, search):
    """Projected Newton ascent of Q from a, within |a| <= search.r_max.

    An iteration takes the Newton step where the Hessian is negative
    definite and elsewhere a gradient step scaled by the largest
    curvature.  A step leaving the cap is projected back onto it; on
    the cap circle with an outward gradient the step is the 1-D Newton
    step in the angle.  A backtracking line search accepts only steps
    that raise Q.  The ascent stops once an accepted step is shorter
    than search.refine_xatol, once the line search shrinks a step below
    it without a rise, or after search.refine_maxiter steps.
    """
    cap = search.r_max
    # projections aim a few roundings inside the cap, so none lands outside
    rim = cap * (1.0 - 4.0 * np.finfo(float).eps)
    model = _selection_model(stack, norm2_rule, a)
    if model is None or abs(a) > cap:
        return a
    for _ in range(search.refine_maxiter):
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
            if abs(b - a) < search.refine_xatol:
                return a
            t *= 0.5
        stride = abs(b - a)
        a, model = b, trial
        if stride < search.refine_xatol:
            break
    return a


def _select(rows, norm2_rule, search, include=(), grid_sq=0.0):
    """Best point of Q over the search grid and include, then polished.

    rows is the stack [residual, system rows] that Q is formed from and
    grid_sq the sum of |B_j|^2 over the system rows on search's grid (0
    without rows; POAFD carries it with its system), so the grid scan
    covers the residual row alone.  The include candidates and the
    polish evaluate every row at their points.
    Q is homogeneous of degree 2 in the residual, so it is scaled to
    unit coefficient norm first: the pick does not depend on the
    signal's scale, nothing overflows for large signals, and Q is a
    fraction of the residual's squared coefficient norm (its Hardy
    energy).  Ties (within 1e-12 of that) go to small |a| and then to
    small nonnegative argument.
    The polish only ever raises Q and stays within search.r_max, so the
    pick never scores below the best grid point or include candidate.
    """
    rows = np.array(rows, dtype=complex)  # a copy, so the residual scales in place
    rows[0] /= np.linalg.norm(rows[0])
    candidates = _scan_plan(search, rows.shape[-1]).points
    norm2 = _ScanPlan.kernel_norm2(search.n_angles, search.n_radii, search.r_max, norm2_rule)
    vals = _selection_scores(norm2, _grid_values(rows[0], search), grid_sq)
    if len(include):
        extra = np.asarray(include, dtype=complex)
        candidates = np.concatenate([candidates, extra])
        at = series_values(rows, extra)
        rows_sq = np.sum(np.abs(at[1:]) ** 2, axis=0)
        norm2 = norm2_rule(np.abs(extra) ** 2)[0]
        vals = np.concatenate([vals, _selection_scores(norm2, at[0], rows_sq)])
    ties = np.flatnonzero(vals >= vals.max() - 1e-12)
    if len(ties) > 1:
        pts = candidates[ties]
        ties = ties[np.lexsort((np.mod(np.angle(pts), 2.0 * np.pi), np.abs(pts)))]
    best = complex(candidates[ties[0]])
    if search.refine:
        best = _polish(_derivative_stack(rows), norm2_rule, best, search)
    return best


def maximal_selection(f: HardyFunction, search=DEFAULT_SEARCH, include=(), source=None):
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
    must not be lost.  `source` is the signal the caller's iteration
    started from (default f itself); the selection floor is relative to
    its norm, as in poafd_select.

    Raises
    ------
    ZeroResidual
        If ||f|| is not above DEFAULT_TOL.zero_residual times ||source||
        (an exact zero included), so the floor does not depend on the
        signal's scale; the caller's iteration should have stopped.
    ParamOutOfDisc
        If an `include` candidate is not strictly inside the disc.
    """
    floor = DEFAULT_TOL.zero_residual * (f if source is None else source).norm()
    if not f.norm() > floor:
        raise ZeroResidual("norm below selection floor")
    include = [validate_param(a) for a in include]
    return _select(f.coefficients[None], _hardy_norm2, search, include)


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

    e_a and mobius(a, .) come from one denominator on the cached circle.
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

    energy() gives the source energy, checked by _source_energy.
    step(a) extracts one term and returns (Component, residual energy
    after it); a is the next of forced_params, validated, or None when
    the step selects its own.  The run ends after max_terms steps, once
    the relative residual energy is below max(energy_tol,
    residual_floor), once forced_params are used up, or when step
    raises ZeroResidual or DegenerateModulus.  Returns the
    Decomposition and the message that ended the run early (None
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
    return Decomposition(components, np.array(residuals), source), stopped


def _afd_step(f_k, a, search, source):
    """One maximal sifting step: (a, <f_k, e_a>, reduced remainder).

    a None is selected by maximal_selection, its floor relative to the
    signal source the run started from.
    """
    if a is None:
        a = maximal_selection(f_k, search, source=source)
    c = coefficient(f_k, a)
    return a, c, _sift(f_k, a, c)


def core_afd_decompose(
    f: HardyFunction,
    max_terms=50,
    energy_tol=1e-6,
    search=DEFAULT_SEARCH,
    forced_params=None,
    kind="core",
):
    """Greedy decomposition f = sum_k c_k B_k + remainder.

    Runs maximal_selection and sift until max_terms, until the
    relative residual energy drops below energy_tol (or the residual
    floor), or until the residual is numerically zero: the stopping
    rule of _greedy.  With forced_params the selection is skipped and
    the given parameters are consumed in order (all zeros reproduces
    the Taylor/Fourier expansion).

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
        a, c, f_k = _afd_step(f_k, a, search, f)
        return Component(a=a, c=c, kind=kind), f_k.energy()

    return _greedy(f.energy, max_terms, energy_tol, step, forced_params)[0]


def _check_boundary(d, n):
    """InputError unless d has boundary samples on the grid n, a count or times.

    Bergman components have no boundary trace, and unwinding components
    carry their inner factors only on the meta["n"] grid.
    """
    if d.meta.get("space") == "bergman":
        raise InputError(
            "components live in a Bergman coefficient space; "
            "boundary synthesis is undefined for them"
        )
    unwinding = any(comp.inner is not None for comp in d.components)
    if unwinding and not (np.isscalar(n) and n == d.meta["n"]):
        raise InputError(f"inner factors are stored on the {d.meta['n']}-point grid only")


def coefficient_cross_check(f: HardyFunction, d: Decomposition):
    """Largest defect of the three coefficient forms of a decomposition of f.

    Each c_k of d is compared with <f, B_k> and with <g_k, B_k>, g_k =
    f - sum_{l<k} c_l B_l the orthogonal-projection remainder, both by
    quadrature on a padded grid of max(4N, 4096) points.  The product
    f conj(B_k) is not band limited, hence the padding; sampling f
    there is exact.  Returns max_k max(|c_k - <f, B_k>|, |c_k - <g_k,
    B_k>|), 0.0 for no terms; it sits at rounding level (relative to
    ||f||) when the sifts behind d were exact.  Unwinding results are
    refused: their terms carry inner factors, and the TM chain alone
    does not reproduce them.
    """
    if any(comp.inner is not None for comp in d.components):
        raise InputError("unwinding components carry inner factors; compare reconstruct with f instead")
    n = max(4 * f.boundary().n, 4096)
    boundary = f.boundary(n)
    partial = np.zeros(n, dtype=complex)  # sum c_l B_l so far
    worst = 0.0
    for comp, b_k in zip(d.components, tm_sweep(d.params, np.exp(1j * circle_grid(n)))):
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
    far (1 for a UWA term, which has none).  Bergman results, and
    unwinding results at any n but their meta["n"], are refused
    (InputError).
    """
    _check_boundary(d, n)
    out = np.zeros(n, dtype=complex)
    sweep = tm_sweep([c.a for c in d.components if c.a is not None], np.exp(1j * circle_grid(n)))
    for comp in d.components:
        term = comp.c if comp.inner is None else comp.c * comp.inner
        if comp.a is not None:
            term = term * next(sweep)
        out += term
    return CircularSignal(out)
