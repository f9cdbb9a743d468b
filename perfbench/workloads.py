"""The benchmark's workloads: seeded inputs, the ops run on them, and checks.

A workload turns a seed into one round: a fixed list of ops, each bound
to its own generated input.  A run repeats whole rounds, so every run
measures the same mix.  An op's check recomputes what it can from
scratch and returns the failure messages (empty when all hold) and the
relative residual energy the op reached.

afd functions are looked up on their modules at call time, so a tracer
that patches the module bindings sees every call.  Only public names
the ROADMAP keeps are used.
"""

import contextlib
import hashlib
import importlib
import io
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

CORE_TERMS = 10
UWAFD_TERMS = 6
POAFD_TERMS = 10
UWA_TERMS = 6
# every cyclic op runs exactly this many cycles (delta_tol=0), so its cost
# does not hinge on how fast one plant happens to converge
CYCLIC_CYCLES = 5


def _mod(name):
    return importlib.import_module(f"afd.{name}")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # -> (failure messages, residual ratio)


# ------------------------------------------------------------------ inputs


# The seed draws only phases here; amplitudes and frequencies are fixed, so
# the work and the residual of an op vary little from seed to seed.


def am_fm(rng, n):
    """The README AM-FM signal with FM and a weak tone added, at seeded phases.

    The tone (0.15) stays below the envelope's minimum (0.4), so the
    analytic signal keeps clear of zero on the circle.  Unwinding runs
    only on this family: see UNWIND_FAMILIES.
    """
    t = _mod("signal_core").circle_grid(n)
    p1, p2, p3 = rng.uniform(0.0, 2.0 * np.pi, 3)
    s = (1.0 + 0.6 * np.cos(t + p1)) * np.cos(6 * t + np.sin(t + p2))
    return s + 0.15 * np.cos(11 * t + p3)


def band_limited(rng, n):
    """Mean 1 plus 1/k amplitudes at seeded phases for 1 <= k <= n/4."""
    t = _mod("signal_core").circle_grid(n)
    k = np.arange(1, n // 4 + 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
    return np.cos(np.outer(t, k) + phase) @ (1.0 / k) + 1.0


FAMILIES = {"amfm": am_fm, "band": band_limited}
# Unwinding needs log|f| resolved on its 4096-point grid.  Where the modulus
# of a signal or of a deeper remainder nears zero on the circle (band-limited
# signals from the second term on, AM-FM ones with a tone as strong as the
# envelope's minimum from the first) the inner factors drift off
# unimodularity, and 6-term UWA/UWAFD fail UnwindingDecomposition.validate by
# 1e-8 to 1e-6 of the source energy: the limit the afd README states.
UNWIND_FAMILIES = ("amfm",)


PLANT_MODULI = (0.6, 0.45, 0.7)
PLANT_WEIGHTS = (1.0, 0.8, 0.9)


def planted_kernels(rng, n_poles, m):
    """Boundary samples of a sum of n_poles Szego kernels, order m.

    Pole moduli and weight sizes are fixed.  The poles sit near evenly
    spaced angles, so the plant is well separated and greedy selection
    lands between poles rather than on them; the seed draws a common
    rotation, a jitter of up to 0.3 rad per pole and the weight phases.
    """
    atoms = _mod("hardy_atoms")
    angles = (
        rng.uniform(0.0, 2.0 * np.pi)
        + 2.0 * np.pi * np.arange(n_poles) / n_poles
        + rng.uniform(-0.3, 0.3, n_poles)
    )
    poles = np.array(PLANT_MODULI[:n_poles]) * np.exp(1j * angles)
    weights = np.array(PLANT_WEIGHTS[:n_poles]) * np.exp(2j * np.pi * rng.uniform(size=n_poles))
    z = np.exp(1j * _mod("signal_core").circle_grid(2 * (m + 1)))
    return sum(w * atoms.szego_kernel(b, z) for b, w in zip(poles, weights))


# ------------------------------------------------------------------ checks


ROUNDING = 8 * np.finfo(float).eps


def _ratio(final, source):
    # residuals below rounding level are equal for the metric's purpose
    return max(float(final) / float(source), 1e-16)


def _trace_checks(trace, source):
    """Monotone residual trace, recomputed from the stored numbers."""
    steps = np.diff(np.asarray(trace, dtype=float))
    if steps.size and steps.max() > ROUNDING * source:
        return [f"residual trace increased by {steps.max():.3e}"]
    return []


def _validate(obj):
    try:
        obj.validate()
    except _mod("errors").AFDError as exc:
        return [f"validate: {exc}"]
    return []


def _energy_match(label, boundary, recon, final, source, slack=0.0):
    """||f - reconstruction||^2 from samples against the recorded residual.

    `slack` widens the tolerance by a bound on a known, computed gap
    between the two (see _truncation_slack).
    """
    resid = float(np.mean(np.abs(boundary - recon) ** 2))
    tol = _mod("config").DEFAULT_TOL.energy_total * source + slack
    if abs(resid - final) > tol:
        return [f"{label}: |f - reconstruct|^2 = {resid:.6e}, residual {final:.6e}"]
    return []


def _recon_grid(f):
    return 4 * f.boundary().n


def _truncation_slack(space, d, final):
    """Bound on | ||f - sum c_k B_k||^2 - ||r||^2 | for Hardy POAFD.

    POAFD's orthonormal vectors v_k live on coefficients 0..m and its
    residual r = f - sum c_k v_k is orthogonal to them, while reconstruct()
    sums the exact Takenaka-Malmquist functions B_k.  With e = sum c_k
    (v_k - B_k), the gap is 2 Re<r, e> + ||e||^2; r has order m, so
    |<r, e>| <= ||r|| sum |c_k| ||v_k - P_m B_k|| (the head), and
    ||e|| <= sum |c_k| ||v_k - B_k|| (head plus the tail of B_k beyond m).
    """
    m = space.order
    system = _mod("poafd").gram_schmidt(space, d.params)
    n = max(4096, 4 * (m + 1))
    coeffs = np.fft.fft(_mod("hardy_atoms").tm_system_boundary(d.params, n), axis=1) / n
    head = np.sum(np.abs(system.vectors - coeffs[:, : m + 1]) ** 2, axis=1)
    tail = np.sum(np.abs(coeffs[:, m + 1:]) ** 2, axis=1)
    c = np.abs(d.coefficients)
    e_norm = np.sum(c * np.sqrt(head + tail))
    return float(2.0 * np.sqrt(max(final, 0.0)) * np.sum(c * np.sqrt(head)) + e_norm**2)


# ------------------------------------------------------------------ workloads


def _greedy_ops(rng, workdir):
    """Core-AFD and UWAFD on analytic signals of seeded real signals."""
    sc, core, unw = _mod("signal_core"), _mod("core_afd"), _mod("unwinding")
    # Each size takes a comparable share of the round's time.  Sorted by
    # time the ops form clusters: 4 UWAFD at 256, 4 core at 256, 4 UWAFD
    # at 1024, core at 4096.  Over four rounds the median op sits inside
    # the core-256 cluster and the tail (ten samples beyond) mid-way in the
    # UWAFD-1024 one, so neither jumps between clusters from run to run.
    # A core op comes first: it is the warm-up and the smoke-test op.
    plan = (
        [(256, "core", fam) for fam in FAMILIES for _ in range(2)]
        + [(256, "uwafd", fam) for fam in UNWIND_FAMILIES * 4]
        + [(1024, "uwafd", fam) for fam in UNWIND_FAMILIES * 4]
        + [(4096, "core", "amfm")]
    )
    ops = []
    for n, algo, fam in plan:
        signal = sc.CircularSignal(FAMILIES[fam](rng, n))

        def run(signal=signal, algo=algo):
            f = sc.analytic_signal(signal)
            if algo == "core":
                return f, core.core_afd_decompose(f, max_terms=CORE_TERMS, energy_tol=0.0)
            return f, unw.uwafd_decompose(f, max_terms=UWAFD_TERMS, energy_tol=0.0)

        def check(out, algo=algo):
            f, d = out
            fails = _validate(d) + _trace_checks(d.residual_energy, d.source_energy)
            final = float(d.residual_energy[-1])
            if algo == "core":
                n_grid = _recon_grid(f)
                recon = core.reconstruct(d, n_grid).samples
            else:
                n_grid = d.meta["n"]
                recon = unw.unwinding_reconstruct(d).samples
            boundary = f.boundary(n_grid).samples
            fails += _energy_match(algo, boundary, recon, final, d.source_energy)
            return fails, _ratio(final, d.source_energy)

        ops.append(Op(f"#{len(ops)} {algo} N={n} {fam}", run, check))
    return ops


def _kernel_ops(rng, workdir):
    """POAFD in the Hardy and the Bergman coefficient space."""
    sc, po, core = _mod("signal_core"), _mod("poafd"), _mod("core_afd")
    # POAFD takes ~1 s per op at N=512 and ~8 s at N=4096, so sizes stop at 512
    # sorted by time: 2 Bergman ops at 256, 3 Hardy ops at 256, Bergman at
    # 512; the median and the tail (ten samples beyond, four rounds) both
    # fall inside the Hardy-256 cluster
    plan = [(256, sp, fam) for sp in ("hardy", "bergman") for fam in FAMILIES]
    plan += [(256, "hardy", "amfm"), (512, "bergman", "amfm")]
    spaces = {}
    ops = []
    for n, space_name, fam in plan:
        signal = sc.CircularSignal(FAMILIES[fam](rng, n))
        key = (space_name, n // 2 - 1)
        if key not in spaces:
            make = po.hardy_space if space_name == "hardy" else po.bergman_space
            spaces[key] = make(key[1])
        space = spaces[key]

        def run(signal=signal, space=space):
            f = sc.analytic_signal(signal)
            return f, po.poafd_decompose(space, f.coefficients, max_terms=POAFD_TERMS, energy_tol=0.0)

        def check(out, space=space, space_name=space_name):
            f, d = out
            fails = _validate(d) + _trace_checks(d.residual_energy, d.source_energy)
            if space_name == "hardy":
                n_grid = _recon_grid(f)
                final = float(d.residual_energy[-1])
                fails += _energy_match(
                    "poafd",
                    f.boundary(n_grid).samples,
                    core.reconstruct(d, n_grid).samples,
                    final,
                    d.source_energy,
                    slack=_truncation_slack(space, d, final),
                )
            return fails, _ratio(d.residual_energy[-1], d.source_energy)

        ops.append(Op(f"#{len(ops)} poafd-{space_name} N={n} {fam}", run, check))
    return ops


def _nbest_ops(rng, workdir):
    """Cyclic n-best search on planted Szego-kernel sums, then its decomposition."""
    sc, cyc = _mod("signal_core"), _mod("cyclic_afd")
    # sorted by time the tail (ten samples beyond, four rounds) falls
    # inside the cluster of n=3 ops at order 255
    plan = [
        (m, n_poles)
        for m, reps in ((127, 2), (255, 2), (511, 1))
        for _ in range(reps)
        for n_poles in (2, 3)
    ]
    ops = []
    for m, n_poles in plan:
        signal = sc.CircularSignal(planted_kernels(rng, n_poles, m))

        def run(signal=signal, n_poles=n_poles):
            f, _leak = sc.to_hardy(signal)
            trace = cyc.cyclic_afd(f, n_poles, max_cycles=CYCLIC_CYCLES, delta_tol=0.0)
            return f, trace, cyc.cyclic_decomposition(f, trace.params)

        def check(out):
            f, trace, d = out
            source = f.energy()
            fails = []
            if np.any(np.diff(trace.d) > 0.0):
                fails.append("cyclic objective trace increased")
            if trace.objective > trace.d[0]:
                fails.append("cyclic objective ended above its initial value")
            fails += _validate(d)
            # the trace clamps steps below this floor, see cyclic_afd
            if abs(float(d.residual_energy[-1]) - trace.objective) > 1e-12 * source:
                fails.append(
                    f"decomposition residual {d.residual_energy[-1]:.6e} "
                    f"!= objective {trace.objective:.6e}"
                )
            return fails, _ratio(trace.objective, source)

        ops.append(Op(f"#{len(ops)} cyclic n={n_poles} m={m}", run, check))
    return ops


_ATOMS = re.compile(r"^(\d+) atoms over (\d+) components", re.M)


def _unwind_io_ops(rng, workdir):
    """`afd decompose --algo uwa` then `afd tfd`, in process, on seeded CSVs."""
    sc, cli = _mod("signal_core"), _mod("cli_io")
    plan = [(n, fam) for n, reps in ((1024, 8), (4096, 2)) for _ in range(reps) for fam in UNWIND_FAMILIES]
    # every op writes the same two files; a digest per CSV keeps the
    # byte-identity check across repeats
    result_path = workdir / "result.afd.json"
    tfd_path = workdir / "result.tfd.csv"
    first_digest = {}
    ops = []
    for i, (n, fam) in enumerate(plan):
        values = FAMILIES[fam](rng, n)
        csv_path = workdir / f"signal-{i}.csv"
        t = sc.circle_grid(n)
        with open(csv_path, "w") as fh:
            fh.write("t,value\n")
            fh.writelines(f"{tj!r},{vj!r}\n" for tj, vj in zip(t.tolist(), values.tolist()))

        def run(csv_path=csv_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code_d = cli.main(
                    ["decompose", str(csv_path), "--algo", "uwa",
                     "--terms", str(UWA_TERMS), "--output", str(result_path)]
                )
                code_t = cli.main(["tfd", str(result_path), "--output", str(tfd_path)])
            return code_d, code_t, out.getvalue()

        def check(out, i=i):
            code_d, code_t, text = out
            if code_d != 0 or code_t != 0:
                return [f"exit codes decompose={code_d} tfd={code_t}"], None
            rec, obj = cli.load_result(result_path)
            fails = _validate(obj)
            digest = hashlib.sha256(result_path.read_bytes()).hexdigest()
            if first_digest.setdefault(i, digest) != digest:
                fails.append("result file differs from the first op on this CSV")
            match = _ATOMS.search(text)
            expected = rec["meta"]["inner_n"] * len(rec["components"])
            if match is None or int(match.group(1)) != expected:
                fails.append(f"atom count {match and match.group(1)} != {expected}")
            return fails, _ratio(rec["residual_trace"][-1], rec["source_energy"])

        ops.append(Op(f"#{i} uwa-cli N={n} {fam}", run, check))
    return ops


WORKLOADS = {
    "greedy": _greedy_ops,
    "kernel": _kernel_ops,
    "nbest": _nbest_ops,
    "unwind-io": _unwind_io_ops,
}


def build(name, seed, workdir):
    """The ops of one round of workload `name`, inputs drawn from `seed`."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir)
