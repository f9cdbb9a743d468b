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

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .errors import AFDError, InputError, ZeroResidual
from .hardy_atoms import mobius, szego_kernel, validate_param
from .signal_core import CircularSignal, HardyFunction, circle_grid, to_hardy

__all__ = [
    "Component",
    "Decomposition",
    "objective",
    "coefficient",
    "maximal_selection",
    "sift",
    "core_afd_decompose",
    "reconstruct",
]


@dataclass(frozen=True)
class Component:
    """One extracted term: parameter a, coefficient c, and origin tag."""

    a: complex
    c: complex
    kind: str = "core"


@dataclass
class Decomposition:
    """Ordered components plus the energy bookkeeping of the run.

    residual_energy[k] is the residual energy after k terms, so the
    trace starts at source_energy and must never increase.
    """

    components: list
    residual_energy: np.ndarray
    source_energy: float
    meta: dict = field(default_factory=dict)

    @property
    def params(self):
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


def _grid_values(coeffs, search):
    """Values of one series (M+1,) or a stack (R, M+1) on _search_grid.

    On the circle of radius r the n_angles samples are n_angles * ifft
    of the damped coefficients c_k r^k folded modulo n_angles (exact
    aliasing), so a scan costs one FFT per radius instead of one point
    evaluation per grid point.  Values come in _search_grid order, the
    center c_0 last.
    """
    radii = _search_radii(search)
    if radii.max() > 1.0 - DEFAULT_TOL.param_boundary:
        raise InputError("search grid reaches outside the disc")
    c = np.asarray(coeffs, dtype=complex)
    m1 = c.shape[-1]
    a = search.n_angles
    lead = c.shape[:-1] + (search.n_radii,)
    damped = np.zeros(lead + (-(-m1 // a) * a,), dtype=complex)
    powers = radii[:, None] ** np.arange(m1)
    np.multiply(c[..., None, :], powers, out=damped[..., :m1])
    folded = damped.reshape(lead + (-1, a)).sum(axis=-2)
    rings = np.fft.ifft(folded, axis=-1) * a
    return np.concatenate([rings.reshape(c.shape[:-1] + (-1,)), c[..., :1]], axis=-1)


def maximal_selection(f: HardyFunction, search=DEFAULT_SEARCH, include=()):
    """Polished grid maximum of the selection objective for one greedy step.

    Scans the polar grid, breaks ties toward small |a| and then small
    nonnegative argument, and polishes the winner with a Nelder-Mead
    simplex confined to |a| <= r_max.  The guarantee is that the
    returned point never scores below the best grid point (or
    `include` candidate); it is not certified as the global maximum
    over the disc, since the polish only climbs the winning cell's
    peak and a higher peak between grid points can be missed.
    `include` adds extra candidates, e.g. an incumbent parameter that
    must not be lost.

    Raises
    ------
    ZeroResidual
        If ||f|| < 1e-12; the caller's iteration should have stopped.
    """
    if f.norm() < 1e-12:
        raise ZeroResidual("norm below selection floor")
    candidates = _search_grid(search)
    vals = (1.0 - np.abs(candidates) ** 2) * np.abs(_grid_values(f.coefficients, search)) ** 2
    if len(include):
        extra = np.asarray(list(include), dtype=complex)
        candidates = np.concatenate([candidates, extra])
        vals = np.concatenate([vals, objective(f, extra)])
    vmax = float(vals.max())
    ties = np.flatnonzero(vals >= vmax - 1e-12)
    moduli = np.abs(candidates[ties])
    args = np.mod(np.angle(candidates[ties]), 2.0 * np.pi)
    best = candidates[ties[np.lexsort((args, moduli))[0]]]
    best_val = float(objective(f, best))

    if search.refine:
        r_cap = search.r_max

        def neg(x):
            a = complex(x[0], x[1])
            if abs(a) > r_cap:
                return abs(a)  # outside the cap; any positive value loses
            return -float((1.0 - abs(a) ** 2) * abs(f(a)) ** 2)

        res = minimize(
            neg,
            [best.real, best.imag],
            method="Nelder-Mead",
            options={
                "xatol": search.refine_xatol,
                "fatol": 1e-14,
                "maxiter": search.refine_maxiter,
            },
        )
        refined = complex(res.x[0], res.x[1])
        if abs(refined) <= r_cap and -res.fun > best_val:
            best = refined
    return complex(best)


def sift(f: HardyFunction, a):
    """Reduced remainder after extracting the e_a component.

    Returns f_next with the same truncation order.  The division by
    the Mobius factor happens on boundary samples where |mobius| = 1,
    so dividing is multiplying by the conjugate.
    """
    a = validate_param(a)
    c = coefficient(f, a)
    boundary = f.boundary()
    n = boundary.n
    z = np.exp(1j * circle_grid(n))
    g = (boundary.samples - c * szego_kernel(a, z)) * np.conj(mobius(a, z))
    f_next, leak = to_hardy(CircularSignal(g), m=f.order)
    if leak > 1e-9 * max(f.norm(), 1e-300):
        warnings.warn(
            f"negative-frequency leakage {leak:.2e} in sift", RuntimeWarning
        )
    return f_next


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
    relative residual energy drops below energy_tol, or until the
    residual is numerically zero.  With forced_params the selection is
    skipped and the given parameters are consumed in order (all zeros
    reproduces the Taylor/Fourier expansion).

    Each step cross-checks the three coefficient forms
    <f_k, e_{a_k}> = <f, B_k> = <g_k, B_k> (g_k the orthogonal-
    projection remainder); the largest defect lands in
    meta['triple_defect'] and a warning fires above 1e-8.

    Returns a Decomposition whose residual trace starts at ||f||^2.
    """
    source = f.energy()
    if source <= 0.0:
        raise ZeroResidual("zero signal")
    # the cross-check quadrature multiplies f by conj(B_k), which is not
    # band limited, so it runs on a padded grid; sampling f there is exact
    n = max(4 * f.boundary().n, 4096)
    boundary = f.boundary(n)
    z = np.exp(1j * circle_grid(n))

    components = []
    residuals = [source]
    f_k = f
    prefix = np.ones(n, dtype=complex)  # Blaschke product of consumed params
    partial = np.zeros(n, dtype=complex)  # sum c_l B_l so far
    triple_defect = 0.0

    for k in range(max_terms):
        resid = f_k.energy()
        if resid / source < energy_tol or resid / source < DEFAULT_TOL.residual_floor:
            break
        if forced_params is not None:
            if k >= len(forced_params):
                break
            a = validate_param(forced_params[k])
        else:
            try:
                a = maximal_selection(f_k, search)
            except ZeroResidual:
                break
        c = coefficient(f_k, a)

        b_k = szego_kernel(a, z) * prefix
        c_direct = complex(np.mean(boundary.samples * np.conj(b_k)))
        c_remainder = complex(np.mean((boundary.samples - partial) * np.conj(b_k)))
        defect = max(abs(c - c_direct), abs(c - c_remainder))
        triple_defect = max(triple_defect, defect)
        if defect > 1e-8 * max(1.0, np.sqrt(source)):
            warnings.warn(
                f"coefficient cross-check defect {defect:.2e} at term {k + 1}",
                RuntimeWarning,
            )

        f_k = sift(f_k, a)
        components.append(Component(a=a, c=c, kind=kind))
        residuals.append(f_k.energy())
        prefix = prefix * mobius(a, z)
        partial = partial + c * b_k

    return Decomposition(
        components=components,
        residual_energy=np.array(residuals),
        source_energy=source,
        meta={"n": n, "triple_defect": triple_defect},
    )


def reconstruct(d: Decomposition, n) -> CircularSignal:
    """Boundary samples of sum_k c_k B_k on an n-point grid."""
    if d.meta.get("space") == "bergman":
        raise InputError(
            "components live in a Bergman coefficient space; "
            "boundary synthesis is undefined for them"
        )
    z = np.exp(1j * circle_grid(n))
    out = np.zeros(n, dtype=complex)
    prefix = np.ones(n, dtype=complex)
    for comp in d.components:
        out += comp.c * szego_kernel(comp.a, z) * prefix
        prefix = prefix * mobius(comp.a, z)
    return CircularSignal(out)
