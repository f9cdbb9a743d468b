"""Shared generators for the test suite.

Everything random is seeded through numpy Generators so reruns are
bit-identical.  Signals come in three shapes: real band-limited
boundary samples, Hardy functions with decaying random coefficients,
and planted sums of Szego kernels or TM-system terms whose exact
decomposition is known in advance.  `horner` and `grid_argmax` are
the pointwise evaluation and selection the batched scan replaced,
kept as its reference; `grid_values` is the block-factored scan with
its tables built on every call, kept as the bit-level reference for the
cached plan, and `grid_values_per_ring` the scan by one power table
r^k per ring before the powers were factored into blocks, kept as its
reference within `series_bound`; `underflow_slack` is the absolute
error gradual underflow adds to any of these evaluations;
`central_differences` is the reference for the closed-form
derivatives of the selection polish; `selection_objective` scores the
POAFD objective from the values of a whole [residual, rows] stack;
`csv_writer_atoms` and `csv_writer_raster` are the row-by-row writers
and the per-atom binning loop behind `afd tfd` before its streamed
writer, kept as the reference for its bytes; `schema1_record` is the result writer before
schema 2, kept to build the old layout that `load_result` refuses;
`cyclic_reference` is the cyclic n-best loop that re-scored every move
by the full sift chain, kept as the reference for the moves that score
themselves; `gram_schmidt_reference` and `poafd_reference` are the
POAFD system rebuilt from scratch after every selection, kept as the
reference for the system that grows one row per step (`poafd_reference`
serves the Bergman space only: Hardy POAFD is capped core AFD, and is
checked against it bit for bit);
`core_afd_reference` is the greedy loop that cross-checked every
coefficient by quadrature in the loop, kept as the reference for the
loop without the audit and for `coefficient_cross_check`;
`tm_lines` is every TM function of a tuple with its phase derivative
from one `tm_sweep`, each copied out of the sweep's work array;
`tm_phase_derivative_rational`, `unwinding_reconstruct_reference` and
`unwinding_tfd_reference` are the rational phase derivative and the
unwinding-only synthesis and distribution loops that each formed their
own Mobius prefix, kept as the reference for the one TM sweep that
`reconstruct` and `dirac_tfd` read; `sift_reference`,
`derivative_stack_reference` and `selection_model_reference` are the
sift with the kernel and Mobius formulas written out on a freshly built
circle, the stacked derivative rows by `vstack` and the Newton point
model through `series_values`, before the sift read a cached circle
and the model its own power column, kept as their bit-level reference;
`sift_chain_objective` is the n-Blaschke objective by its own loop of
sift calls in tuple order, kept as the bit-level reference for the one
sift chain of `n_blaschke_objective` and the cyclic moves;
`outer_factor_reference` is the outer factor by the complex Hilbert
transform, `exp(u + iHu)` and `to_hardy`, kept as the reference for the
real-FFT conjugate function and `|f| e^{iHu}` (compared by
`check_outer_factor_against_reference`); `boundary_reference`,
`to_hardy_reference` and `analytic_signal_reference` are the transforms
with an explicit zero pad, `/ n` and `* n`, kept as the reference for
`norm="forward"` (bit-level at power-of-two n, rounding-level elsewhere).
"""

import copy
import csv
import io

import numpy as np
import pytest

from afd import (
    CircularSignal,
    HardyFunction,
    OrthoSystem,
    analytic_signal,
    circle_grid,
    coefficient,
    core_afd_decompose,
    hilbert_transform,
    kernel,
    maximal_selection,
    mobius,
    n_blaschke_objective,
    poafd_select,
    sift,
    szego_kernel,
    tm_sweep,
    tm_system_boundary,
    to_hardy,
)
from afd.config import DEFAULT_SEARCH, DEFAULT_TOL, SearchConfig
from afd.core_afd import (
    Component,
    Decomposition,
    _derivative_stack,
    _hardy_norm2,
    _search_radii,
    _select,
    _selection_model,
    _selection_scores,
)
from afd.errors import InputError, ZeroResidual
from afd.hardy_atoms import _multiplicity
from afd.signal_core import series_values
from afd.tfd_uncertainty import ComponentTFD, _spectral_phase_derivative
from afd.unwinding import _inner_factor, _outer_factor


def residual_at(d, n):
    """Residual energy of d after n terms (trace saturates at its end)."""
    trace = d.residual_energy
    return float(trace[min(n, len(trace) - 1)])


def horner(coeffs, z):
    """Reference values of sum_k c_k z^k by the Horner loop, shape z.shape."""
    out = np.zeros(np.shape(z), dtype=complex)
    for c in np.asarray(coeffs)[::-1]:
        out = out * z + c
    return out


def series_bound(coeffs, z):
    """Error bound 16 (M+1) eps sum_k |c_k| |z|^k, fixed by the float64 dtype.

    Power form, the FFT scan and Horner each stay within a few (M+1)
    roundings of the absolute series sum_k |c_k| |z|^k.
    """
    m1 = np.shape(coeffs)[-1]
    scale = horner(np.abs(coeffs), np.abs(z)).real
    return 16 * m1 * np.finfo(float).eps * scale


def underflow_slack(coeffs):
    """Error bound 16 (M+1) (1 + sum_k |c_k|) times the smallest subnormal.

    series_bound is relative to the absolute series; below the smallest
    normal double a rounding errs by up to half a subnormal step instead,
    so values near 1e-310 and below differ by a few such steps between
    any two evaluation orders (on a default-grid ring of radius 0.475 a
    series starting at z^1000 is there).
    """
    m1 = np.shape(coeffs)[-1]
    total = np.sum(np.abs(coeffs), axis=-1, keepdims=True)
    return 16 * m1 * np.finfo(float).smallest_subnormal * (1.0 + total)


def grid_values(coeffs, search):
    """Reference block-factored grid scan, its tables built on every call."""
    radii = _search_radii(search)
    if radii.max() > 1.0 - DEFAULT_TOL.param_boundary:
        raise InputError("search grid reaches outside the disc")
    c = np.asarray(coeffs, dtype=complex)
    m1 = c.shape[-1]
    a = search.n_angles
    lead = c.shape[:-1]
    blocks = radii[:, None] ** (a * np.arange(-(-m1 // a)))
    padded = np.zeros(lead + (blocks.shape[-1] * a,), dtype=complex)
    padded[..., :m1] = c
    folded = (blocks @ padded.reshape(lead + (-1, a)).view(float)).view(complex)
    folded *= radii[:, None] ** np.arange(a)
    rings = np.fft.ifft(folded, axis=-1, norm="forward")
    return np.concatenate([rings.reshape(lead + (-1,)), c[..., :1]], axis=-1)


def grid_values_per_ring(coeffs, search):
    """Reference FFT grid scan by the power table r^k of every ring, built on every call."""
    radii = _search_radii(search)
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


def selection_objective(space, pts, values):
    """|<r, B_n^a>|^2 at each probe; 0 where the extension degenerates.

    values[0] holds r(a) and values[1:] the system rows B_j(a) at the
    probes pts, i.e. the values of np.vstack([r, system.vectors]).
    """
    rows_sq = np.sum(np.abs(values[1:]) ** 2, axis=0)
    return _selection_scores(space.norm2_rule(np.abs(pts) ** 2)[0], values[0], rows_sq)


def sift_reference(f, a):
    """sift(f, a) from e_a and mobius(a, .), each written out, on a freshly built circle."""
    c = coefficient(f, a)
    boundary = f.boundary()
    z = np.exp(1j * circle_grid(boundary.n))
    kern = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
    quotient = (z - a) / (1.0 - np.conj(a) * z)
    g = (boundary.samples - c * kern) * np.conj(quotient)
    return to_hardy(CircularSignal(g), m=f.order)[0]


def derivative_stack_reference(rows):
    """Coefficients of [rows, rows', rows''] stacked as (3R, M+1), by vstack."""
    k = np.arange(1, rows.shape[-1])
    d1 = np.zeros_like(rows)
    d1[:, :-1] = rows[:, 1:] * k
    d2 = np.zeros_like(rows)
    d2[:, :-1] = d1[:, 1:] * k
    return np.vstack([rows, d1, d2])


def selection_model_reference(stack, norm2_rule, a):
    """The selection model from one series_values call on the whole stack.

    stack is derivative_stack_reference([residual, system rows]).
    """
    v = series_values(stack, [a])[:, 0]
    n = len(v) // 3
    r, r1, r2 = v[0], v[n], v[2 * n]
    b, b1, b2 = v[1:n], v[n + 1 : 2 * n], v[2 * n + 1 :]
    s = abs(a) ** 2
    phi, phi1, phi2 = norm2_rule(s)
    den = phi - float(np.vdot(b, b).real)
    if not den > DEFAULT_TOL.gram**2 * phi:
        return None
    q = abs(r) ** 2 / den
    den_g = phi1 * a - complex(np.vdot(b1, b))
    den_h = phi1 + phi2 * s - float(np.vdot(b1, b1).real)
    den_c = phi2 * a * a - complex(np.vdot(b2, b))
    g = complex(r * np.conj(r1) - q * den_g) / den
    h = float(abs(r1) ** 2 - q * den_h - 2.0 * (g * den_g.conjugate()).real) / den
    c = complex(r * np.conj(r2) - q * den_c - 2.0 * g * den_g) / den
    return float(q), g, h, c


def grid_argmax(points, vals):
    """Point of largest value, ties (1e-12) to small |a|, then small argument."""
    ties = np.flatnonzero(vals >= vals.max() - 1e-12)
    args = np.mod(np.angle(points[ties]), 2 * np.pi)
    return points[ties[np.lexsort((args, np.abs(points[ties])))[0]]]


def _csv_bytes(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def csv_writer_atoms(comps):
    """Reference atom CSV bytes: one csv.writer row per atom, repr per cell."""
    rows = [["k", "t", "omega", "weight"]]
    for comp in comps:
        for tj, oj, pj in zip(comp.t, comp.omega, comp.weight):
            rows.append([comp.index, repr(float(tj)), repr(float(oj)), repr(float(pj))])
    return _csv_bytes(rows)


def csv_writer_raster(comps, bins):
    """Reference raster CSV bytes: atoms binned one by one, csv.writer rows."""
    t = comps[0].t
    omegas = np.concatenate([c.omega for c in comps])
    lo, hi = float(omegas.min()), float(omegas.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    grid = np.zeros((len(t), bins))
    for comp in comps:
        idx = np.clip(np.searchsorted(edges, comp.omega, side="right") - 1, 0, bins - 1)
        for j, (b, wgt) in enumerate(zip(idx, comp.weight)):
            grid[j, b] += wgt
    rows = [["t"] + [repr(float(c)) for c in centers]]
    for tj, row in zip(t, grid):
        rows.append([repr(float(tj))] + [repr(float(x)) for x in row])
    return _csv_bytes(rows)


def schema1_record(record, decomposition):
    """Reference schema-1 twin of an unwinding record: inner samples as lists.

    Schema 1 stored each term's cumulative inner samples as a pair
    [real parts, imaginary parts] of float lists; everything else is as
    in schema 2.
    """
    old = copy.deepcopy(record)
    old["schema"] = 1
    old["meta"]["inner"] = [
        [term.inner.real.tolist(), term.inner.imag.tolist()]
        for term in decomposition.components
    ]
    return old


def sift_chain_objective(f, params):
    """Energy of f sifted through params in tuple order, clamped at 0."""
    g = f
    for a in params:
        g = sift(g, a)
    return max(float(g.energy()), 0.0)


def cyclic_reference(f, n, init=None, max_cycles=200, delta_tol=1e-10):
    """Reference cyclic run, every move re-scored by the full sift chain.

    Each move sifts f through the other n-1 entries, selects on that
    remainder with the incumbent included, and then scores the new
    tuple with n_blaschke_objective (n more sifts); d[0] is likewise the
    sift-chain objective of the init.  Steps are clamped to the previous
    value as in cyclic_afd.  Returns (tuples, d, converged, cycles).
    """
    if init is None:
        warm = core_afd_decompose(f, max_terms=n, energy_tol=0.0)
        init = tuple(warm.params) + (0j,) * (n - len(warm))
    tuples = [tuple(complex(a) for a in init)]
    d = [n_blaschke_objective(f, tuples[0])]
    converged = False
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        worst_step = 0.0
        for i in range(n):
            params = tuples[-1]
            g = f
            for j, a in enumerate(params):
                if j != i:
                    g = sift(g, a)
            try:
                a_new = maximal_selection(g, include=(params[i],))
            except ZeroResidual:
                a_new = params[i]
            new = params[:i] + (a_new,) + params[i + 1 :]
            val = min(n_blaschke_objective(f, new), d[-1])
            worst_step = max(worst_step, d[-1] - val)
            tuples.append(new)
            d.append(val)
        if worst_step < delta_tol * f.energy():
            converged = True
            break
    return tuples, np.array(d), converged, cycles


def core_afd_reference(f, max_terms=50, energy_tol=1e-6, search=DEFAULT_SEARCH):
    """Reference greedy loop that cross-checks every coefficient in the loop.

    Each pick is the selection engine's, core_afd._select, on the grid of
    search (maximal_selection's is DEFAULT_SEARCH, Hardy POAFD's
    poafd.CAPPED_SEARCH), with its floor relative to ||f||.

    Each step compares c_k = <f_k, e_{a_k}> with <f, B_k> and with
    <g_k, B_k> (g_k = f - sum_{l<k} c_l B_l) by quadrature on a padded
    grid of max(4N, 4096) points, B_k = e_{a_k} times the Blaschke
    product of the earlier parameters; the largest defect lands in
    meta["triple_defect"].
    """
    source = f.energy()
    if source <= 0.0:
        raise ZeroResidual("zero signal")
    n = max(4 * f.boundary().n, 4096)
    boundary = f.boundary(n)
    z = np.exp(1j * circle_grid(n))
    components = []
    residuals = [source]
    f_k = f
    prefix = np.ones(n, dtype=complex)
    partial = np.zeros(n, dtype=complex)
    triple_defect = 0.0
    for _ in range(max_terms):
        resid = f_k.energy()
        if resid / source < energy_tol or resid / source < DEFAULT_TOL.residual_floor:
            break
        try:
            floor = DEFAULT_TOL.zero_residual * f.norm()
            a = _select(f_k.coefficients[None], _hardy_norm2, search, floor)
        except ZeroResidual:
            break
        c = coefficient(f_k, a)
        b_k = szego_kernel(a, z) * prefix
        c_direct = complex(np.mean(boundary.samples * np.conj(b_k)))
        c_remainder = complex(np.mean((boundary.samples - partial) * np.conj(b_k)))
        triple_defect = max(triple_defect, max(abs(c - c_direct), abs(c - c_remainder)))
        f_k = sift(f_k, a)
        components.append(Component(a=a, c=c))
        residuals.append(f_k.energy())
        prefix = prefix * mobius(a, z)
        partial = partial + c * b_k
    return Decomposition(
        components=components,
        residual_energy=np.array(residuals),
        meta={"n": n, "triple_defect": triple_defect},
    )


def tm_lines(params, t):
    """[(B_k, theta_k')] of every TM function of params at the times t.

    One tm_sweep walk; each B_k is copied out of the work array that the
    sweep's next step overwrites.
    """
    z = np.exp(1j * np.asarray(t, dtype=float))
    return [(b.copy(), theta) for b, theta in tm_sweep(params, z, phase=True)]


def tm_phase_derivative_rational(params, k, t):
    """theta_k' = Re{z B_k'/B_k} summed factor by factor on |z| = 1.

    z e_a'/e_a = z conj(a)/(1 - conj(a) z) for the Szego factor and
    1/(1 - a conj(z)) + z conj(a)/(1 - conj(a) z) for a Mobius factor.
    """
    t = np.asarray(t, dtype=float)
    z = np.exp(1j * t)
    a_k = complex(params[k - 1])
    total = z * np.conj(a_k) / (1.0 - np.conj(a_k) * z)
    for a in params[: k - 1]:
        a = complex(a)
        total = total + 1.0 / (1.0 - a * np.conj(z)) + z * np.conj(a) / (1.0 - np.conj(a) * z)
    return total.real


def unwinding_reconstruct_reference(u):
    """Unwinding partial sum on the meta["n"] grid, its own Mobius chain."""
    n = u.meta["n"]
    z = np.exp(1j * circle_grid(n))
    out = np.zeros(n, dtype=complex)
    prefix = np.ones(n, dtype=complex)
    for comp in u.components:
        if comp.a is None:
            out = out + comp.c * comp.inner
        else:
            b = szego_kernel(comp.a, z) * prefix
            out = out + comp.c * comp.inner * b
            prefix = prefix * mobius(comp.a, z)
    return out


def unwinding_tfd_reference(u):
    """Delta lines of an unwinding record, its own prefix and rational phase."""
    n = u.meta["n"]
    t = circle_grid(n)
    z = np.exp(1j * t)
    params = tuple(comp.a for comp in u.components if comp.a is not None)
    out = []
    prefix = np.ones_like(z)
    for k, comp in enumerate(u.components, start=1):
        omega = _spectral_phase_derivative(comp.inner)
        weight = np.full(n, abs(comp.c) ** 2)
        if comp.a is not None:
            a = complex(comp.a)
            omega = omega + tm_phase_derivative_rational(params, k, t)
            e_a = np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)
            weight = np.abs(comp.c * e_a * prefix) ** 2
            prefix = prefix * (z - a) / (1.0 - np.conj(a) * z)
        out.append(ComponentTFD(index=k, a=comp.a, c=comp.c, t=t, omega=omega, weight=weight))
    return out


def outer_factor_reference(f_boundary):
    """Outer factor by the complex Hilbert transform, exp(u + iHu) and to_hardy."""
    mod = np.abs(f_boundary.samples)
    u = np.log(np.maximum(mod, DEFAULT_TOL.log_clamp * mod.max()))
    hu = hilbert_transform(CircularSignal(u)).samples.real
    out, _leak = to_hardy(CircularSignal(np.exp(u + 1j * hu)))
    return out


def check_outer_factor_against_reference(s):
    """_outer_factor's coefficients within 1e-13 ||O|| of the reference's,
    and its inner factor's max||I| - 1| within 1e-13 of the reference's."""
    want = outer_factor_reference(s)
    got = _outer_factor(s)
    assert np.abs(got.coefficients - want.coefficients).max() <= 1e-13 * want.norm()
    inner_got = np.abs(np.abs(_inner_factor(s, got).samples) - 1.0).max()
    inner_want = np.abs(np.abs(s.samples / want.boundary(s.n).samples) - 1.0).max()
    assert abs(inner_got - inner_want) <= 1e-13


def boundary_reference(coeffs, n):
    """n boundary samples of the series coeffs: zero pad, ifft, * n."""
    padded = np.zeros(n, dtype=complex)
    padded[: len(coeffs)] = coeffs
    return np.fft.ifft(padded) * n


def to_hardy_reference(samples):
    """The ceil(n/2) nonnegative-frequency coefficients and the leak norm, by fft / n."""
    c = np.fft.fft(samples) / samples.size
    half = (samples.size + 1) // 2
    return c[:half], float(np.sqrt(np.sum(np.abs(c[half:]) ** 2)))


def analytic_signal_reference(real_samples):
    """Hardy projection coefficients of real samples, the first ceil(n/2), by fft / n."""
    return (np.fft.fft(real_samples) / real_samples.size)[: (real_samples.size + 1) // 2]


def gram_schmidt_reference(space, params):
    """Reference system rebuilt from scratch for the whole tuple.

    Each multiplicity-aware kernel is orthogonalized against the rows
    before it by sequential (modified) Gram-Schmidt, one space.inner per
    row, with one reorthogonalization pass, then normalized.  In the
    Hardy space every row is afterwards rotated onto the TM system of
    the whole tuple, swept again by tm_system_boundary on at least 4096
    and 4(m+1) points, so the aliased tail of a TM row stays below
    rounding at the 0.95 radius cap.
    """
    params = tuple(complex(a) for a in params)
    vectors = np.zeros((len(params), space.order + 1), dtype=complex)
    for i, a in enumerate(params):
        u = kernel(space, a, _multiplicity(params[:i], a)).astype(complex)
        for _ in range(2):
            for v in vectors[:i]:
                u -= space.inner(u, v) * v
        vectors[i] = u / space.norm(u)
    if space.name == "hardy" and params:
        m = space.order
        n = max(4096, 4 * (m + 1))
        ref = (np.fft.fft(tm_system_boundary(params, n), axis=1) / n)[:, : m + 1]
        for i in range(len(params)):
            rho = space.inner(ref[i], vectors[i])
            if abs(rho) > 1e-12:
                vectors[i] *= rho / abs(rho)
    return OrthoSystem(space=space, params=params, vectors=vectors)


def poafd_reference(space, f, max_terms):
    """Reference POAFD loop that rebuilds the whole system every step.

    After each selection the system of all parameters so far comes from
    gram_schmidt_reference, every coefficient <f, B_j> is recomputed and
    the remainder is formed from scratch as f - sum_j c_j B_j; the next
    selection runs on that remainder.  f is a full-length coefficient
    sequence, and space a Bergman space: Hardy POAFD builds no rows.
    Returns (params, coefficients, residual energies).
    """
    f = np.asarray(f, dtype=complex)
    params = []
    coeffs = np.zeros(0, dtype=complex)
    system = gram_schmidt_reference(space, ())
    resid = f.copy()
    residuals = [space.norm(f) ** 2]
    for _ in range(max_terms):
        params.append(poafd_select(resid, system))
        system = gram_schmidt_reference(space, params)
        coeffs = np.array([space.inner(f, v) for v in system.vectors])
        resid = f - coeffs @ system.vectors
        residuals.append(space.norm(resid) ** 2)
    return np.array(params), coeffs, np.array(residuals)


def real_derivatives(g, h, c):
    """Real gradient and Hessian in (Re a, Im a) from Wirtinger derivatives."""
    grad = np.array([2.0 * g.real, 2.0 * g.imag])
    hess = 2.0 * np.array([[h + c.real, c.imag], [c.imag, h - c.real]])
    return grad, hess


def central_differences(q, a, step=1e-3):
    """Gradient and Hessian of a real function q of one complex point.

    Central differences at step and step/2, Richardson-extrapolated.
    """

    def stencil(h):
        e = (h, 1j * h)
        grad = np.array([(q(a + d) - q(a - d)) / (2.0 * h) for d in e])
        hess = np.empty((2, 2))
        for i, di in enumerate(e):
            for j, dj in enumerate(e):
                hess[i, j] = (
                    q(a + di + dj) - q(a + di - dj) - q(a - di + dj) + q(a - di - dj)
                ) / (4.0 * h**2)
        return grad, hess

    (g1, h1), (g2, h2) = stencil(step), stencil(step / 2.0)
    return (4.0 * g2 - g1) / 3.0, (4.0 * h2 - h1) / 3.0


def check_selection_derivatives(rows, norm2_rule, q, rng, count=6):
    """Closed-form gradient and Hessian of Q against central differences of q."""
    stack = _derivative_stack(rows)
    for a in random_params(rng, count, r=0.9):
        val, g, h, c = _selection_model(stack, norm2_rule, a)
        assert val == pytest.approx(q(a), rel=1e-12)
        grad, hess = real_derivatives(g, h, c)
        fd_grad, fd_hess = central_differences(q, a)
        assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))


def band_limited_real(rng, n=1024, kmax=None):
    """Random real signal with spectrum confined strictly below Nyquist."""
    if kmax is None:
        kmax = n // 4
    t = circle_grid(n)
    s = np.zeros(n)
    for k in range(1, kmax + 1):
        amp = rng.standard_normal() / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        s += amp * np.cos(k * t + phase)
    s += rng.standard_normal()
    return CircularSignal(s)


def am_fm_real(rng, n=256):
    """The README AM-FM signal with FM and a weak tone, at seeded phases."""
    t = circle_grid(n)
    p1, p2, p3 = rng.uniform(0.0, 2.0 * np.pi, 3)
    s = (1.0 + 0.6 * np.cos(t + p1)) * np.cos(6 * t + np.sin(t + p2))
    return CircularSignal(s + 0.15 * np.cos(11 * t + p3))


def scaled_am_fm(lam, n=256):
    """Analytic signal of lam (1 + 0.6 cos t) cos(6t + 0.4 sin 3t)."""
    t = circle_grid(n)
    s = (1.0 + 0.6 * np.cos(t)) * np.cos(6 * t + 0.4 * np.sin(3 * t))
    return analytic_signal(CircularSignal(lam * s))


def random_hardy(rng, m=255, decay=1.5):
    """Hardy function with random coefficients decaying like k^-decay."""
    k = np.arange(1, m + 2, dtype=float)
    c = (rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)) / k**decay
    return HardyFunction(c)


def random_params(rng, length, r=0.8, repeat_frac=0.0):
    """Tuple of disc parameters; repeat_frac of the lists get one repeat."""
    a = rng.uniform(0.05, r, size=length) * np.exp(
        2j * np.pi * rng.uniform(size=length)
    )
    a = list(a)
    if length > 1 and rng.uniform() < repeat_frac:
        a[rng.integers(1, length)] = a[0]
    return tuple(complex(v) for v in a)


def kernel_sum(rng, terms=3, m=255, r=0.8):
    """f = sum_j c_j e_{b_j} as a coefficient array; returns (f, params, coeffs).

    e_b has coefficients sqrt(1-|b|^2) conj(b)^k, so with |b| <= r the
    truncation at order m carries r^(2m+2) energy, far below test tolerances.
    """
    k = np.arange(m + 1)
    c = np.zeros(m + 1, dtype=complex)
    params = random_params(rng, terms, r=r)
    coeffs = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    for b, w in zip(params, coeffs):
        c += w * np.sqrt(1.0 - abs(b) ** 2) * np.conj(b) ** k
    return HardyFunction(c), params, coeffs


def planted_tm(params, coeffs, m=511, n=4096):
    """f = sum_k c_k B_k for the TM system of params, truncated at order m."""
    rows = tm_system_boundary(params, n)
    s = np.zeros(n, dtype=complex)
    for w, row in zip(coeffs, rows):
        s = s + w * row
    f, _leak = to_hardy(CircularSignal(s), m=m)
    return f


@pytest.fixture
def coarse_search():
    """Cheap grid for tests that only need qualitative selections."""
    return SearchConfig(n_angles=24, n_radii=12)
