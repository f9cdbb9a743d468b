"""Rebuild the benchmark's greedy, kernel and nbest ops and record their outputs.

    PYTHONPATH=src python tests/make_reference.py

writes tests/data/reference_ops.json: for each of the 87 ops (29 per
seed at seeds 1, 2 and 1784) its poles, coefficients and residual
trace as float.hex strings, a sha256 of each UWAFD inner-sample array,
and for the cyclic ops every tuple of the run and its objective trace.
The record pins outputs, not correctness: the seed-1784 UWAFD op, whose
reconstruction misses its recorded residual (the strict xfail in
test_unwinding.py), is recorded as it runs.

The inputs are drawn as perfbench/workloads.py draws them, from
np.random.default_rng([seed, workload index]) in its plan order, with
its two signal families and its planted Szego sums copied here, so the
tests never import the benchmark.  test_reference.py recomputes every
op and compares: bit for bit where the environment matches the one
recorded, within BOUNDS elsewhere.  A change that means to move results
regenerates the record with this script.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from afd import (
    CircularSignal,
    analytic_signal,
    bergman_space,
    circle_grid,
    core_afd_decompose,
    cyclic_afd,
    cyclic_decomposition,
    hardy_space,
    poafd_decompose,
    szego_kernel,
    to_hardy,
    uwafd_decompose,
)

PATH = Path(__file__).parent / "data" / "reference_ops.json"
SEEDS = (1, 2, 1784)
# the benchmark's workload order, which keys each workload's generator
WORKLOADS = ("greedy", "kernel", "nbest")

CORE_TERMS = 10
UWAFD_TERMS = 6
POAFD_TERMS = 10
CYCLIC_CYCLES = 5

# Largest differences the bounded comparison accepts: poles absolute,
# coefficients relative to ||f||, residual and objective traces relative
# to the source energy.  Twelve draws of a relative perturbation of 1e-15
# on every input sample (numpy 2.4.6, x86-64) moved the 87 ops by at most
# 3.1e-7 in a pole or a cyclic tuple entry, 1.2e-7 of ||f|| in a
# coefficient and 1.2e-8 of the energy in a trace: the polish stops on a
# step-length test, so where it stops can jump with the last rounding.
# The bounds leave a factor of 30 to 80 over that.  No other numpy build
# was at hand to measure; a rounding difference that flips a tie on the
# search grid moves a pick by a grid cell and fails them.
BOUNDS = {"poles": 1e-5, "coefficients": 1e-5, "trace": 1e-6}


def environment():
    """What decides the bits: numpy's version, the machine and numpy's CPU features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


# ------------------------------------------------------------------ inputs


def am_fm(rng, n):
    """AM-FM with a weak tone, at three seeded phases."""
    t = circle_grid(n)
    p1, p2, p3 = rng.uniform(0.0, 2.0 * np.pi, 3)
    s = (1.0 + 0.6 * np.cos(t + p1)) * np.cos(6 * t + np.sin(t + p2))
    return s + 0.15 * np.cos(11 * t + p3)


def band_limited(rng, n):
    """Mean 1 plus 1/k amplitudes at seeded phases for 1 <= k <= n/4."""
    t = circle_grid(n)
    k = np.arange(1, n // 4 + 1)
    phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
    return np.cos(np.outer(t, k) + phase) @ (1.0 / k) + 1.0


FAMILIES = {"amfm": am_fm, "band": band_limited}


def planted_kernels(rng, n_poles, m):
    """Boundary samples of n_poles Szego kernels near evenly spaced angles, order m."""
    angles = (
        rng.uniform(0.0, 2.0 * np.pi)
        + 2.0 * np.pi * np.arange(n_poles) / n_poles
        + rng.uniform(-0.3, 0.3, n_poles)
    )
    poles = np.array((0.6, 0.45, 0.7)[:n_poles]) * np.exp(1j * angles)
    weights = np.array((1.0, 0.8, 0.9)[:n_poles]) * np.exp(2j * np.pi * rng.uniform(size=n_poles))
    z = np.exp(1j * circle_grid(2 * (m + 1)))
    return sum(w * szego_kernel(b, z) for b, w in zip(poles, weights))


# ------------------------------------------------------------------ ops


def _greedy_ops(rng):
    plan = (
        [(256, "core", fam) for fam in FAMILIES for _ in range(2)]
        + [(256, "uwafd", "amfm")] * 4
        + [(1024, "uwafd", "amfm")] * 4
        + [(4096, "core", "amfm")]
    )
    for i, (n, algo, fam) in enumerate(plan):
        signal = CircularSignal(FAMILIES[fam](rng, n))

        def run(signal=signal, algo=algo):
            f = analytic_signal(signal)
            if algo == "core":
                return {"d": core_afd_decompose(f, max_terms=CORE_TERMS, energy_tol=0.0)}
            return {"d": uwafd_decompose(f, max_terms=UWAFD_TERMS, energy_tol=0.0)}

        yield f"#{i} {algo} N={n} {fam}", run


def _kernel_ops(rng):
    plan = [(256, sp, fam) for sp in ("hardy", "bergman") for fam in FAMILIES]
    plan += [(256, "hardy", "amfm"), (512, "bergman", "amfm")]
    for i, (n, space_name, fam) in enumerate(plan):
        signal = CircularSignal(FAMILIES[fam](rng, n))
        space = (hardy_space if space_name == "hardy" else bergman_space)(n // 2 - 1)

        def run(signal=signal, space=space):
            f = analytic_signal(signal).coefficients
            return {"d": poafd_decompose(space, f, max_terms=POAFD_TERMS, energy_tol=0.0)}

        yield f"#{i} poafd-{space_name} N={n} {fam}", run


def _nbest_ops(rng):
    plan = [(m, n) for m, reps in ((127, 2), (255, 2), (511, 1)) for _ in range(reps) for n in (2, 3)]
    for i, (m, n_poles) in enumerate(plan):
        signal = CircularSignal(planted_kernels(rng, n_poles, m))

        def run(signal=signal, n_poles=n_poles):
            f, _leak = to_hardy(signal)
            trace = cyclic_afd(f, n_poles, max_cycles=CYCLIC_CYCLES, delta_tol=0.0)
            return {"d": cyclic_decomposition(f, trace.params), "trace": trace}

        yield f"#{i} cyclic n={n_poles} m={m}", run


OPS = {"greedy": _greedy_ops, "kernel": _kernel_ops, "nbest": _nbest_ops}


def ops():
    """(label, run) of every op, in seed and then workload order; inputs drawn lazily."""
    for seed in SEEDS:
        for index, name in enumerate(WORKLOADS):
            rng = np.random.default_rng([seed, index])
            for label, run in OPS[name](rng):
                yield f"seed {seed} {name} {label}", run


# ------------------------------------------------------------------ record


def _hex(values):
    """Real arrays as a list of float.hex, complex ones as [re, im] pairs."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return [[float(v.real).hex(), float(v.imag).hex()] for v in values.ravel()]
    return [float(v).hex() for v in values.ravel()]


def outputs(out):
    """The recorded outputs of one op's run() result, as JSON values."""
    d = out["d"]
    rec = {
        "poles": _hex([c.a for c in d.components]),
        "coefficients": _hex(d.coefficients),
        "trace": _hex(d.residual_energy),
    }
    if any(c.inner is not None for c in d.components):
        rec["inner_sha256"] = [
            hashlib.sha256(np.ascontiguousarray(c.inner, dtype=complex).tobytes()).hexdigest()
            for c in d.components
        ]
    if "trace" in out:
        rec["tuples"] = [_hex(np.asarray(t, dtype=complex)) for t in out["trace"].tuples]
        rec["objective"] = _hex(out["trace"].d)
    return rec


def main():
    rows = [json.dumps({"label": label, **outputs(run())}) for label, run in ops()]
    # one op per line, so a regenerated record diffs op by op
    text = '{"environment": %s,\n"ops": [\n%s\n]}\n' % (json.dumps(environment()), ",\n".join(rows))
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(text)
    print(f"{len(rows)} ops written to {PATH}")


if __name__ == "__main__":
    main()
