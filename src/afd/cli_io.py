"""Command line front end and the file formats behind it.

Subcommands
-----------
decompose   run one of the five algorithms on a CSV signal, write a
            JSON result record, print the per-step energy table
tfd         turn a saved result into (t, omega, weight) atom rows,
            optionally binned to a raster
check       mono-component / Bedrosian / uncertainty screening
info        defaults, formats and exit codes

Signals arrive as CSV with a header, either `t,value` (real) or
`t,re,im`; t must be the uniform circle grid 2*pi*j/N except for
`check --mode uncertainty`, which takes any uniform real-line grid.
Results are JSON with a `schema: 2` marker; complex numbers are
{re, im} pairs.  Unwinding results also carry each term's cumulative
inner factor on the `meta.inner_n` grid, in `meta.inner` as one base64
string per term: the little-endian complex128 bytes of its samples.
Schema 1 stored those samples as [real list, imaginary list] pairs and
is still read.  Wall time is printed, never stored, so reruns with the
same inputs produce byte-identical result files.

Exit codes: 0 ok, 2 input error, 3 check failed, 4 numerical
degeneracy.
"""

import argparse
import base64
import csv
import json
import sys
import time
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import DEFAULT_SEARCH
from .core_afd import Component, Decomposition, core_afd_decompose
from .cyclic_afd import cyclic_afd, cyclic_decomposition
from .errors import (
    AFDError,
    InputError,
    NonRealInput,
    NonUniformGrid,
    NumericalDegeneracy,
    ParseError,
    ZeroSignal,
)
from .hardy_atoms import monocomp_check
from .poafd import bergman_space, hardy_space, poafd_decompose
from .signal_core import (
    CircularSignal,
    analytic_signal,
    bedrosian_check,
    phase_amplitude,
    to_hardy,
)
from .tfd_uncertainty import dirac_tfd, uncertainty_report, unwinding_tfd
from .unwinding import (
    UnwindingDecomposition,
    UnwindingTerm,
    uwa_decompose,
    uwafd_decompose,
)

__all__ = [
    "main",
    "read_signal_csv",
    "read_line_csv",
    "load_result",
    "save_result",
]

SCHEMA = 2
# schemas load_result reads; they differ only in how meta.inner is stored
READ_SCHEMAS = (1, 2)
ALGORITHMS = ("core", "uwa", "uwafd", "cyclic", "poafd")
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
EXIT_DEGENERATE = 4


# ---------------------------------------------------------------- input

def read_signal_csv(path, allow_complex=False) -> CircularSignal:
    """CSV -> CircularSignal, validating grid and realness.

    Header `t,value` or `t,re,im`; times must equal 2*pi*j/N within
    1e-9.  Without allow_complex the imaginary column, if present,
    must be numerically zero.
    """
    t, cols = _read_csv(path, {"t,value": 2, "t,re,im": 3})
    n = len(t)
    expected = 2.0 * np.pi * np.arange(n) / n
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    if np.max(np.abs(t - expected)) > 1e-9:
        raise NonUniformGrid(
            f"{path}: time column is not the uniform circle grid 2*pi*j/{n}"
        )
    if len(cols) == 1:
        samples = cols[0].astype(complex)
    else:
        samples = cols[0] + 1j * cols[1]
        if not allow_complex and np.max(np.abs(cols[1])) > 1e-12 * max(
            1.0, np.max(np.abs(cols[0]))
        ):
            raise NonRealInput(
                f"{path}: imaginary column is nonzero; pass --complex to keep it"
            )
    return CircularSignal(samples)


def read_line_csv(path):
    """CSV `t,value` on any uniform real-line grid -> (t, values)."""
    t, cols = _read_csv(path, {"t,value": 2})
    if len(t) < 2:
        raise ParseError(f"{path}: need at least two samples")
    dt = t[1] - t[0]
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > 1e-9 * abs(dt):
        raise NonUniformGrid(f"{path}: time column is not uniform")
    return t, cols[0]


def _read_csv(path, headers):
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = ",".join(c.strip().lower() for c in rows[0])
    if header not in headers:
        raise ParseError(
            f"{path}: header '{header}' not one of {sorted(headers)}"
        )
    width = headers[header]
    data = rows[1:]
    if not data:
        raise ParseError(f"{path}: no data rows")
    try:
        arr = np.array([[float(c) for c in row] for row in data])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric cell ({exc})") from exc
    if arr.shape[1] != width:
        raise ParseError(f"{path}: expected {width} columns, found {arr.shape[1]}")
    return arr[:, 0], [arr[:, j] for j in range(1, width)]


def _ingest(args):
    s = read_signal_csv(args.input, allow_complex=args.complex)
    if args.complex:
        f, _leak = to_hardy(s)
    else:
        f = analytic_signal(s)
    if f.energy() <= 0.0:
        raise ZeroSignal(f"{args.input}: signal is identically zero")
    return s, f


# ---------------------------------------------------------------- records

def _c2j(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _j2c(d):
    return complex(d["re"], d["im"])


def _record(args, algorithm, n_input, result, extra_meta=None):
    components = []
    if isinstance(result, UnwindingDecomposition):
        for term in result.terms:
            components.append(
                {
                    "a": None if term.a is None else _c2j(term.a),
                    "c": _c2j(term.c),
                    "kind": result.kind,
                }
            )
        meta = {
            "inner_n": int(result.meta["n"]),
            "inner": [_encode_inner(term.cumulative_inner) for term in result.terms],
            "factor_consistency": [float(x) for x in result.meta["factor_consistency"]],
            "front_loading": [float(x) for x in result.meta["front_loading"]],
            "stopped": result.meta["stopped"],
        }
    else:
        for comp in result.components:
            components.append({"a": _c2j(comp.a), "c": _c2j(comp.c), "kind": comp.kind})
        meta = {k: v for k, v in result.meta.items() if _json_safe(v)}
    if extra_meta:
        meta.update(extra_meta)
    return {
        "schema": SCHEMA,
        "algorithm": algorithm,
        "config": {
            "n": int(n_input),
            "terms": args.terms,
            "tol": args.tol,
            "order_n": args.n,
            "space": args.space,
            "grid": args.grid,
            "init": args.init,
            "seed": args.seed,
            "complex": bool(args.complex),
        },
        "source_energy": float(result.source_energy),
        "residual_trace": [float(x) for x in result.residual_energy],
        "components": components,
        "meta": meta,
    }


def _json_safe(v):
    return isinstance(v, (int, float, str, bool, type(None)))


def save_result(record, path):
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _encode_inner(samples):
    """base64 of the little-endian complex128 bytes of samples."""
    return base64.b64encode(np.asarray(samples, dtype="<c16").tobytes()).decode("ascii")


def _decode_inner(entry, schema, n):
    """One term's inner samples from its schema-1 or schema-2 entry.

    Raises ValueError (or TypeError) unless the entry holds exactly n
    samples.
    """
    if schema == 1:
        parts = [np.array(part, dtype=float) for part in entry]
        if len(parts) != 2 or any(part.shape != (n,) for part in parts):
            raise ValueError(f"inner entry is not two lists of inner_n = {n} floats")
        samples = np.empty(n, dtype=complex)
        samples.real, samples.imag = parts
        return samples
    raw = base64.b64decode(entry, validate=True)
    if len(raw) != 16 * n:
        raise ValueError(
            f"inner entry holds {len(raw)} bytes, not inner_n = {n} complex128"
        )
    return np.frombuffer(raw, dtype="<c16").astype(complex)


def load_result(path):
    """JSON result file -> (record dict, rebuilt decomposition object).

    Reads schemas 1 and 2.  Raises ParseError for a file that is not
    JSON, has no known schema marker, lacks a key the rebuild needs, or
    whose inner samples do not decode to one inner_n-long array per
    component.
    """
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(rec, dict) or rec.get("schema") not in READ_SCHEMAS:
        raise ParseError(f"{path}: missing or unsupported schema marker")
    try:
        return rec, _rebuild(rec)
    except KeyError as exc:
        raise ParseError(f"{path}: result record lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"{path}: malformed result record ({exc})") from exc


def _rebuild(rec):
    algo = rec["algorithm"]
    trace = np.array(rec["residual_trace"], dtype=float)
    source = float(rec["source_energy"])
    meta = rec["meta"]
    if algo in ("uwa", "uwafd"):
        n = int(meta["inner_n"])
        comps, inner = rec["components"], meta["inner"]
        if len(inner) != len(comps):
            raise ValueError(f"{len(inner)} inner entries for {len(comps)} components")
        terms = [
            UnwindingTerm(
                c=_j2c(comp["c"]),
                a=None if comp["a"] is None else _j2c(comp["a"]),
                cumulative_inner=_decode_inner(entry, rec["schema"], n),
            )
            for comp, entry in zip(comps, inner)
        ]
        return UnwindingDecomposition(
            terms=terms,
            residual_energy=trace,
            source_energy=source,
            kind=algo,
            meta={
                "n": n,
                "factor_consistency": meta["factor_consistency"],
                "front_loading": meta["front_loading"],
                "stopped": meta["stopped"],
            },
        )
    comps = [
        Component(a=_j2c(c["a"]), c=_j2c(c["c"]), kind=c["kind"])
        for c in rec["components"]
    ]
    return Decomposition(
        components=comps,
        residual_energy=trace,
        source_energy=source,
        meta=dict(meta, n=rec["config"]["n"]),
    )


# ---------------------------------------------------------------- commands

def _search_from_args(args):
    try:
        angles, radii = (int(x) for x in args.grid.lower().split("x"))
    except ValueError as exc:
        raise InputError(f"--grid wants ANGLESxRADII, got '{args.grid}'") from exc
    if angles < 1 or radii < 1:
        raise InputError("--grid counts must be positive")
    return replace(DEFAULT_SEARCH, n_angles=angles, n_radii=radii)


def _parse_init(text, n):
    if text == "auto":
        return None
    try:
        vals = tuple(complex(part.replace("i", "j")) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"--init wants 'auto' or comma-separated complex numbers") from exc
    if len(vals) != n:
        raise InputError(f"--init supplies {len(vals)} values, --n is {n}")
    return vals


def cmd_decompose(args):
    if args.terms < 0:
        raise InputError(f"--terms wants a count >= 0, got {args.terms}")
    if args.n < 0:
        raise InputError(f"--n wants a count >= 0, got {args.n}")
    search = _search_from_args(args)
    s, f = _ingest(args)
    extra = None
    t0 = time.perf_counter()
    if args.algo == "core":
        result = core_afd_decompose(
            f, max_terms=args.terms, energy_tol=args.tol, search=search
        )
    elif args.algo == "uwa":
        result = uwa_decompose(f, n_terms=args.terms)
    elif args.algo == "uwafd":
        result = uwafd_decompose(
            f, max_terms=args.terms, energy_tol=args.tol, search=search
        )
    elif args.algo == "cyclic":
        trace = cyclic_afd(
            f, args.n, init=_parse_init(args.init, args.n), search=search
        )
        result = cyclic_decomposition(f, trace.params)
        extra = {
            "objective": trace.objective,
            "cycles": trace.cycles,
            "converged": trace.converged,
        }
    elif args.algo == "poafd":
        make = hardy_space if args.space == "hardy" else bergman_space
        space = make(len(f.coefficients) - 1)
        result = poafd_decompose(
            space, f.coefficients, max_terms=args.terms, energy_tol=args.tol,
            search=search,
        )
    else:  # argparse choices make this unreachable
        raise InputError(f"unknown algorithm {args.algo}")
    elapsed = time.perf_counter() - t0

    record = _record(args, args.algo, s.n, result, extra)
    out = args.output or str(Path(args.input).with_suffix(".afd.json"))
    save_result(record, out)
    _print_energy_table(args.algo, record)
    # wall time stays on the console so reruns stay byte-identical
    print(f"result written to {out} ({elapsed:.3f}s)")
    return EXIT_OK


def _print_energy_table(algo, record):
    source = record["source_energy"]
    trace = record["residual_trace"]
    print(f"algorithm {algo}, N={record['config']['n']}, energy {source:.6e}")
    print(f"{'step':>4}  {'a':>24}  {'|c|':>12}  {'residual':>13}  {'relative':>10}")
    for k, comp in enumerate(record["components"], start=1):
        if comp["a"] is None:
            a_txt = "-"
        else:
            a = _j2c(comp["a"])
            a_txt = f"{a.real:+.6f}{a.imag:+.6f}j"
        c_mod = abs(_j2c(comp["c"]))
        resid = trace[min(k, len(trace) - 1)]
        print(
            f"{k:>4}  {a_txt:>24}  {c_mod:>12.6e}  {resid:>13.6e}  "
            f"{resid / source:>10.3e}"
        )
    if record["meta"].get("stopped"):
        print(f"stopped early: {record['meta']['stopped']}")


def cmd_tfd(args):
    if args.bins < 0:
        raise InputError(f"--bins wants a count >= 0, got {args.bins}")
    rec, obj = load_result(args.result)
    if rec["algorithm"] in ("uwa", "uwafd"):
        comps = unwinding_tfd(obj)
    else:
        comps = dirac_tfd(obj, grid=rec["config"]["n"])
    # record and decomposition hold every term's inner samples; free them
    # before writing
    del rec, obj
    out = args.output or str(Path(args.result).with_suffix(".tfd.csv"))
    with open(out, "w", newline="") as fh:
        _write_atoms(fh, comps)
    n_atoms = sum(len(comp.t) for comp in comps)
    print(f"{n_atoms} atoms over {len(comps)} components written to {out}")
    if args.bins:
        raster = _rasterize(comps, args.bins)
        rout = out[:-4] + ".raster.csv" if out.endswith(".csv") else out + ".raster.csv"
        with open(rout, "w", newline="") as fh:
            fh.write(",".join(["t", *map(repr, raster["centers"].tolist())]) + "\r\n")
            _write_rows(fh, "", _float_text(raster["t"]), list(raster["grid"].T))
        print(f"raster ({len(raster['centers'])} frequency bins) written to {rout}")
    return EXIT_OK


# Columns are converted to Python floats a block of about this many cells
# at a time, so the floats held at once stay few however long or wide
# the file is (a raster has one column per frequency bin).
_BLOCK_CELLS = 1 << 13


def _float_text(values):
    """repr of each value as a Python float, the cell text csv.writer wrote."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_atoms(fh, comps):
    """Atom CSV `k,t,omega,weight`: one CRLF line per component and grid time.

    Components that share one time array (dirac_tfd and unwinding_tfd
    give all of them the same one) share its formatted text.
    """
    fh.write("k,t,omega,weight\r\n")
    t, times = None, None
    for comp in comps:
        if comp.t is not t:
            t, times = comp.t, _float_text(comp.t)
        _write_rows(fh, f"{comp.index},", times, [comp.omega, comp.weight])


def _write_rows(fh, lead, times, columns):
    """Write one CRLF line per time: lead, the time text, one cell per column.

    columns are float arrays as long as times.  Within a block of rows,
    a column that repeats one float (same bits) is formatted once and
    joined into the literal text between cells; the others are
    formatted cell by cell.  Each line is one join of its pieces and
    goes out as it is made; no block or file text is built.
    """
    step = max(1, _BLOCK_CELLS // (len(columns) + 1))
    for start in range(0, len(times), step):
        rows = slice(start, start + step)
        pieces, literal = [repeat(lead), times[rows]], ""
        for col in columns:
            values = np.asarray(col[rows], dtype=float)
            bits = values.view(np.uint64)
            literal += ","
            if (bits == bits[0]).all():
                literal += repr(float(values[0]))
            else:
                pieces += [repeat(literal), map(repr, values.tolist())]
                literal = ""
        pieces.append(repeat(literal + "\r\n"))
        # zip stops with the time text, the one piece never folded
        fh.writelines(map("".join, zip(*pieces)))


def _rasterize(comps, bins):
    """Atom weights summed into (time, frequency bin) cells over the omega range.

    A result without components has no frequency range: the raster has
    no bins and no rows.
    """
    if not comps:
        return {"t": np.empty(0), "centers": np.empty(0), "grid": np.empty((0, 0))}
    t = comps[0].t
    omegas = np.concatenate([c.omega for c in comps])
    lo, hi = float(omegas.min()), float(omegas.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    grid = np.zeros((len(t), bins))
    rows = np.arange(len(t))
    for comp in comps:
        idx = np.clip(np.searchsorted(edges, comp.omega, side="right") - 1, 0, bins - 1)
        # one cell per row, so each cell gets at most one add per component
        grid[rows, idx] += comp.weight
    return {"t": t, "centers": centers, "grid": grid}


def cmd_check(args):
    if args.mode == "mono":
        s = read_signal_csv(args.input)
        rep = monocomp_check(s)
        print(f"radii probed: {', '.join(f'{r:.6f}' for r in rep.radii)}")
        print(f"min phase derivative per radius: "
              f"{', '.join(f'{m:+.3e}' for m in rep.min_per_radius)}")
        print(f"outermost minimum {rep.min_phase_derivative:+.6e}, "
              f"negative fraction {rep.fraction_negative:.4f}")
        print("mono-component check:", "pass" if rep.passed else "FAIL")
        return EXIT_OK if rep.passed else EXIT_CHECK
    if args.mode == "bedrosian":
        s = read_signal_csv(args.input)
        f = analytic_signal(s)
        rho, theta = phase_amplitude(f, 1.0 - 2.0**-12, s.n)
        resid = bedrosian_check(rho, theta)
        ok = resid < 1e-6
        print(f"amplitude-phase split at r=1-2^-12; H(rho cos theta) residual "
              f"{resid:.6e}")
        print("bedrosian check:", "pass" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_CHECK
    # uncertainty
    t, vals = read_line_csv(args.input)
    rep = uncertainty_report(vals, t)
    print(f"<t> = {rep.mean_t:+.6f}   <omega> = {rep.mean_w:+.6f}")
    print(f"sigma_t^2 = {rep.sigma_t2:.6f}   sigma_omega^2 = {rep.sigma_w2:.6f}")
    print(f"product     {rep.product:.6f}")
    print(f"extra bound {rep.extra_bound:.6f}")
    print(f"cohen bound {rep.cohen_bound:.6f}")
    print("uncertainty chain:", "pass" if rep.chain_ok else "FAIL")
    return EXIT_OK if rep.chain_ok else EXIT_CHECK


def cmd_info(args):
    from . import __version__

    print(f"afd {__version__}")
    print(f"algorithms: {', '.join(ALGORITHMS)}   spaces: hardy, bergman")
    print("input: CSV `t,value` or `t,re,im`, t = 2*pi*j/N, N a power of two >= 8")
    print("       (check --mode uncertainty: any uniform real-line `t,value`)")
    print("results: JSON, schema 2, complex numbers as {re, im}, unwinding inner")
    print("         samples as base64 little-endian complex128; schema 1 still read")
    print("defaults: --terms 10, --tol 1e-06, --grid 64x32, --n 2, --space hardy")
    print("exit codes: 0 ok, 2 input error, 3 check failed, 4 numerical degeneracy")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _build_parser():
    p = argparse.ArgumentParser(
        prog="afd",
        description="adaptive Fourier decompositions on the unit circle",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose a CSV signal")
    d.add_argument("input")
    d.add_argument("--algo", choices=ALGORITHMS, default="core")
    d.add_argument("--terms", type=int, default=10,
                   help="maximum number of terms (default 10)")
    d.add_argument("--tol", type=float, default=1e-6,
                   help="relative residual-energy stop (default 1e-6)")
    d.add_argument("--n", type=int, default=2,
                   help="tuple order for --algo cyclic (default 2)")
    d.add_argument("--init", default="auto",
                   help="cyclic init: 'auto' or comma-separated complex values")
    d.add_argument("--space", choices=("hardy", "bergman"), default="hardy",
                   help="kernel space for --algo poafd")
    d.add_argument("--grid", default="64x32",
                   help="selection grid ANGLESxRADII (default 64x32)")
    d.add_argument("--seed", type=int, default=0,
                   help="recorded in the result for audit reruns")
    d.add_argument("--output", help="result path (default: input with .afd.json)")
    d.add_argument("--complex", action="store_true",
                   help="accept complex input as Hardy boundary data")
    d.set_defaults(func=cmd_decompose)

    t = sub.add_parser("tfd", help="emit time-frequency atoms for a result")
    t.add_argument("result")
    t.add_argument("--bins", type=int, default=0,
                   help="also write a raster with this many frequency bins "
                        "(none for a result without components)")
    t.add_argument("--output", help="atom CSV path (default: result with .tfd.csv)")
    t.set_defaults(func=cmd_tfd)

    c = sub.add_parser("check", help="screen a signal")
    c.add_argument("input")
    c.add_argument("--mode", choices=("mono", "bedrosian", "uncertainty"),
                   required=True)
    c.set_defaults(func=cmd_check)

    i = sub.add_parser("info", help="versions, formats, exit codes")
    i.set_defaults(func=cmd_info)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalDegeneracy as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except AFDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
