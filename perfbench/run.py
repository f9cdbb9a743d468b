#!/usr/bin/env python3
"""afd benchmark: closed-loop decomposition workloads with per-op checks.

Run from the root of a checkout that holds `src/afd`:

    python3 perfbench/run.py --workload greedy --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload nbest --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --smoke

One client runs one op at a time; the next op starts when the previous
one returns.  A run repeats whole rounds of the workload's mix; the
number of rounds is --seconds over the nominal round time, so every run
does the same work.  Every op's output is checked; a failed check or an
exception counts the op as failed.  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics (from traced
rounds that alternate with untraced ones) with --trace 1.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 3
# probes taken before each set-up and after the last; their median scales
# the set-up time to nominal host speed
SETUP_PROBES = 3
TAIL_BEYOND = 10
# A round of any workload takes 4 to 5.5 s on a calm 2-CPU x86 host and up
# to twice that on a busy one.  A run of S seconds is S // ROUND_SECONDS
# whole rounds, so every run does the same work and its percentiles cover
# the same number of samples.
ROUND_SECONDS = 5.5
# a run that has taken this many times --seconds starts no further round
OVERRUN = 1.5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# perfbench/probe.py, imported by main() once the thread caps are set
probe = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="greedy, kernel, nbest or unwind-io")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the first op of each workload once, traced, and report")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def cap_threads():
    """One process, at most nproc threads: cap BLAS/OpenMP pools before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def git_commit(root):
    """HEAD of a git checkout, read from the files; None outside git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "afd").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, src, nproc, seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "seed": seed,
    }


# ------------------------------------------------------------------ loop


class Phase:
    """Latencies, residuals and failures of one measured phase.

    `raw` holds wall times; `latencies` the same times scaled to nominal
    host speed by the probes taken between ops (see probe.py).
    """

    def __init__(self):
        self.raw = []
        self.latencies = []
        self.residuals = []
        self.failed = 0
        self.rounds = 0
        self.messages = []

    @property
    def attempted(self):
        return len(self.raw)

    def ops_per_s(self):
        """Median over rounds of ops per second of op time in that round.

        The host's speed drifts over seconds; the median round discards
        a slow stretch that a run-wide mean would keep.
        """
        per_round = len(self.latencies) // self.rounds
        return statistics.median(
            per_round / sum(self.latencies[r * per_round:(r + 1) * per_round])
            for r in range(self.rounds)
        )


def run_op(op, phase, tracer=None, op_id=0):
    """Time one op, then check it outside the timed region."""
    if tracer is not None:
        tracer.op = op_id
        tracer.active = True
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception:  # the program's failure is counted, not fatal
        out, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    phase.raw.append(elapsed)
    fails, ratio = ([f"raised: {error}"], None) if error else op.check(out)
    if fails:
        phase.failed += 1
        phase.messages.append(f"{op.label}: {'; '.join(fails)}")
    if ratio is not None:
        phase.residuals.append(ratio)


def run_round(ops, phase, tracer=None):
    probes = []
    for i, op in enumerate(ops):
        probes.append(probe.measure())
        run_op(op, phase, tracer, op_id=phase.rounds * len(ops) + i)
    probes.append(probe.measure())
    phase.latencies += probe.normalize(phase.raw[-len(ops):], probes)
    phase.rounds += 1


def round_slots(seconds, least=1):
    """Indices of the rounds a run of `seconds` makes; stops after an overrun."""
    start = time.perf_counter()
    for r in range(max(least, int(seconds // ROUND_SECONDS))):
        if r >= least and time.perf_counter() - start > OVERRUN * seconds:
            return
        yield r


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


# ------------------------------------------------------------------ setup


def measure_setup(workloads, name, seed, workdir, src):
    """Median over SETUP_REPEATS of: a fresh interpreter importing afd,
    plus building this process's inputs and spaces and one warm-up op,
    scaled to nominal host speed by the median probe around them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    probes = []
    ops = None
    for _ in range(SETUP_REPEATS):
        probes += [probe.measure() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import afd"], env=env, check=True)
        ops = workloads.build(name, seed, workdir)
        warm = Phase()
        run_op(ops[0], warm)
        times.append(time.perf_counter() - t0)
        if warm.failed:
            print(f"warm-up: {warm.messages[0]}", file=sys.stderr)
    probes += [probe.measure() for _ in range(SETUP_PROBES)]
    wall = statistics.median(times)
    return ops, wall * probe.NOMINAL_S / statistics.median(probes), wall


# ------------------------------------------------------------------ reports


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(phase, setup_s, setup_raw_s):
    lat = phase.latencies
    tail_s, pct, beyond = tail(lat)
    neglog = [-math.log10(r) for r in phase.residuals]
    metrics = {
        "ops_per_s": metric(phase.ops_per_s(), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "rel_residual_neglog10": metric(statistics.fmean(neglog) if neglog else 0.0, "decades"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    notes = {
        "op_p50_ms": f"wall {1e3 * statistics.median(phase.raw):.1f} ms",
        "op_tail_ms": f"p{pct:.2f}, {beyond} of {len(lat)} ops beyond",
        "setup_s": f"wall {setup_raw_s:.3f} s",
        "fail_frac": f"{phase.failed / len(lat)} ({phase.failed} of {len(lat)} ops)",
        "rounds": phase.rounds,
    }
    return metrics, notes


def print_report(metrics, notes):
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<56} {m['value']:.6g} {m['unit']}{extra}")
    for key in ("fail_frac", "rounds", "counts_repeat"):
        if key in notes:
            print(f"{key:<56} {notes[key]}")


def traced_metrics(tracer_mod, ops, seconds):
    """Untraced and traced rounds in turn; per-layer stats per traced round.

    Alternating keeps a drift in the host's speed out of the overhead.
    """
    untraced, traced = Phase(), Phase()
    tracer = tracer_mod.Tracer()
    for r in round_slots(seconds, least=2):
        if r % 2 == 0:
            run_round(ops, untraced)
            continue
        tracer.install()
        try:
            run_round(ops, traced, tracer)
        finally:
            tracer.uninstall()
    stats = tracer_mod.summarize(tracer.spans, tracer.scan_points, traced.rounds)
    metrics = {name: metric(value, unit) for name, (value, unit) in stats.items()}
    u_rate = untraced.ops_per_s()
    t_rate = traced.ops_per_s()
    metrics["trace.ops_per_s_untraced"] = metric(u_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = metric(t_rate, "1/s")
    metrics["trace.overhead_frac"] = metric(1.0 - t_rate / u_rate, "frac")
    metrics["trace.top_level_coverage"] = metric(
        tracer_mod.top_level_time(tracer.spans) / sum(traced.raw), "frac"
    )
    counts = tracer_mod.per_op_counts(tracer.spans)
    repeat = all(
        counts.get(r * len(ops) + i) == counts.get(i)
        for r in range(1, traced.rounds)
        for i in range(len(ops))
    )
    notes = {
        "rounds": f"untraced {untraced.rounds}, traced {traced.rounds}",
        "counts_repeat": repeat,
    }
    return metrics, notes, [untraced, traced]


def smoke(workloads, tracer_mod, seed, workdir, names):
    """First op of each workload once, traced; per-workload checks and counts."""
    report = {}
    for name in names:
        ops = workloads.build(name, seed, workdir)
        tracer = tracer_mod.Tracer()
        tracer.install()
        phase = Phase()
        try:
            run_op(ops[0], phase, tracer)
        finally:
            tracer.uninstall()
        stats = tracer_mod.summarize(tracer.spans, tracer.scan_points, 1)
        report[name] = {
            "op": ops[0].label,
            "failed": phase.failed,
            "messages": phase.messages,
            "counts": {k: v for k, (v, unit) in stats.items() if unit == "count"},
        }
    return report


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "afd" / "__init__.py").is_file():
        print(f"error: no afd package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(src))
    import afd
    import tracer as tracer_mod
    global probe
    import probe
    import workloads

    if Path(afd.__file__).resolve().parent != (src / "afd").resolve():
        print(f"error: imported afd from {afd.__file__}, not {src}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    try:
        env = environment(root, src, nproc, args.seed)
        print("env " + json.dumps(env, sort_keys=True))
        if args.smoke:
            names = [args.workload] if args.workload else list(workloads.WORKLOADS)
            report = smoke(workloads, tracer_mod, args.seed, workdir, names)
            failed = sum(r["failed"] for r in report.values())
            print(json.dumps({"correct": failed == 0, "workloads": report}, sort_keys=True))
            return 0

        ops, setup_s, setup_raw_s = measure_setup(workloads, args.workload, args.seed, workdir, src)
        print(f"workload {args.workload}: {len(ops)} ops per round, "
              f"closed loop, 1 client, seed {args.seed}")
        if args.trace:
            metrics, notes, phases = traced_metrics(tracer_mod, ops, args.seconds)
        else:
            phase = Phase()
            for _ in round_slots(args.seconds):
                run_round(ops, phase)
            metrics, notes = end_to_end(phase, setup_s, setup_raw_s)
            phases = [phase]
        print_report(metrics, notes)
        messages = [line for phase in phases for line in phase.messages]
        for line in sorted(set(messages)):
            print(f"check failed ({messages.count(line)}x): {line}", file=sys.stderr)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
