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
Schema 1 stored those samples as [real list, imaginary list] pairs; it
is refused by name.  Wall time is printed, never stored, so reruns with
the same inputs produce byte-identical result files.

Exit codes: 0 ok, 2 input error, 3 check failed, 4 numerical
degeneracy.
"""

import argparse
import base64
import csv
import io
import json
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import DEFAULT_SEARCH, DEFAULT_TOL
from .core_afd import Component, Decomposition, _source_energy, core_afd_decompose
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
from .hardy_atoms import monocomp_check, validate_param
from .poafd import _SPACES, CAPPED_SEARCH, KernelSpace, poafd_decompose
from .signal_core import (
    CircularSignal,
    _LEAST_SAMPLES,
    _check_count,
    _check_tolerance,
    _hardy_bins,
    _padded_n,
    analytic_signal,
    bedrosian_check,
    circle_grid,
    phase_amplitude,
    to_hardy,
)
from .tfd_uncertainty import dirac_tfd, uncertainty_report
from .unwinding import uwa_decompose, uwafd_decompose

__all__ = [
    "main",
    "read_signal_csv",
    "read_line_csv",
    "load_result",
    "save_result",
]

SCHEMA = 2
ALGORITHMS = ("core", "uwa", "uwafd", "cyclic", "poafd")
# the algorithms whose components carry inner samples (meta.inner)
UNWINDING = ("uwa", "uwafd")
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
EXIT_DEGENERATE = 4


# ---------------------------------------------------------------- input

def read_signal_csv(path, allow_complex=False) -> CircularSignal:
    """CSV -> CircularSignal, validating grid and realness.

    Header `t,value` or `t,re,im`; times must equal 2*pi*j/N, for any
    N >= 8, within DEFAULT_TOL.grid_uniform (1e-9).  Without
    allow_complex the imaginary column, if present, must be numerically
    zero relative to the signal's peak (CircularSignal.is_real).
    """
    t, cols = _read_csv(path, {"t,value": 2, "t,re,im": 3})
    n = len(t)
    if np.max(np.abs(t - circle_grid(n))) > DEFAULT_TOL.grid_uniform:
        raise NonUniformGrid(
            f"{path}: time column is not the uniform circle grid 2*pi*j/{n}"
        )
    with _naming(path):
        s = CircularSignal(cols[0] if len(cols) == 1 else cols[0] + 1j * cols[1])
    if len(cols) > 1 and not allow_complex and not s.is_real():
        raise NonRealInput(
            f"{path}: imaginary column is nonzero; pass --complex to keep it"
        )
    return s


def read_line_csv(path):
    """CSV `t,value` on any uniform real-line grid -> (t, values)."""
    t, cols = _read_csv(path, {"t,value": 2})
    if len(t) < 2:
        raise ParseError(f"{path}: need at least two samples")
    dt = t[1] - t[0]
    if dt <= 0 or np.max(np.abs(np.diff(t) - dt)) > DEFAULT_TOL.grid_uniform * abs(dt):
        raise NonUniformGrid(f"{path}: time column is not uniform")
    return t, cols[0]


# A row whose cells are all blank (whitespace, quoted or not), with the
# line break before it; only a quoted blank may span lines.
_BLANK_CELL = r'(?:"\s*")?[^\S\n]*'
_BLANK_ROW = re.compile(rf"\n{_BLANK_CELL}(?:,{_BLANK_CELL})*(?=\n|\Z)")


def _read_csv(path, headers):
    """(first column, [other columns]) of a CSV with one of the headers.

    Rows of blank cells are skipped, the first other row is the header
    and the rest are parsed by one np.loadtxt call: a cell reads as
    float() reads it, quotes and surrounding spaces aside, but without
    underscores between digits.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc})") from exc
    text = _BLANK_ROW.sub("", "\n" + text)
    if not text:
        raise ParseError(f"{path}: empty file")
    first, _, data = text[1:].partition("\n")
    header = ",".join(c.strip().lower() for c in next(csv.reader([first])))
    if header not in headers:
        raise ParseError(
            f"{path}: header '{header}' not one of {sorted(headers)}"
        )
    width = headers[header]
    if not data:
        raise ParseError(f"{path}: no data rows")
    try:
        arr = np.loadtxt(
            io.StringIO(data), delimiter=",", comments=None, quotechar='"', ndmin=2
        )
    except ValueError as exc:
        raise ParseError(f"{path}: unreadable data row ({exc})") from exc
    if not np.isfinite(arr).all():
        raise ParseError(f"{path}: non-finite cell (nan or infinity)")
    if arr.shape[1] != width:
        raise ParseError(f"{path}: expected {width} columns, found {arr.shape[1]}")
    return arr[:, 0], [arr[:, j] for j in range(1, width)]


@contextmanager
def _naming(path):
    """Re-raise a package error from the block with path in front of its message."""
    try:
        yield
    except AFDError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _ingest(args):
    """(samples, Hardy function to decompose) of decompose's input.

    With --complex the negative frequencies are dropped: their share of
    the input energy is printed, and an input whose Hardy part's norm is
    not above DEFAULT_TOL.zero_residual times its own raises ZeroSignal.
    """
    s = read_signal_csv(args.input, allow_complex=args.complex)
    with _naming(args.input):
        if args.complex:
            energy = _source_energy(s.energy)
            f, leak = to_hardy(s)
            if not f.norm() > DEFAULT_TOL.zero_residual * np.sqrt(energy):
                raise ZeroSignal(
                    f"nothing to decompose: the nonnegative frequencies --complex keeps "
                    f"hold {f.energy() / energy:.3e} of the input energy"
                )
            print(f"--complex dropped {leak**2 / energy:.3e} of the input energy (negative frequencies)")
        else:
            f = analytic_signal(s)
        _source_energy(f.energy)
    return s, f


# ---------------------------------------------------------------- records

def _c2j(z):
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _j2c(d):
    return complex(d["re"], d["im"])


def _record(args, n_input, result):
    components = [
        {"a": None if comp.a is None else _c2j(comp.a), "c": _c2j(comp.c), "kind": args.algo}
        for comp in result.components
    ]
    meta = dict(result.meta)
    if args.algo in UNWINDING:
        meta["inner_n"] = int(meta.pop("n"))
        meta["inner"] = [_encode_inner(comp.inner) for comp in result.components]
    return {
        "schema": SCHEMA,
        "algorithm": args.algo,
        "config": {
            "n": int(n_input),
            "terms": args.terms,
            "tol": args.tol,
            "order_n": args.n,
            "space": args.space,
            "init": args.init,
            "complex": bool(args.complex),
        },
        "source_energy": float(result.source_energy),
        "residual_trace": [float(x) for x in result.residual_energy],
        "components": components,
        "meta": meta,
    }


# The layout of a result file, as json.dump writes it.
_JSON = dict(sort_keys=True, indent=1)
# A string of these characters is its own JSON text between quotes, so
# the base64 entries of meta.inner are written as they are; the encoder
# sees the stand-in "\0" (JSON text "\u0000") in their place.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_STAND_IN = "\0"


def save_result(record, path):
    """Write record as json.dump(record, fh, sort_keys=True, indent=1) and a newline."""
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(record))
        fh.write("\n")


def _json_pieces(record):
    """Strings that join to json.dumps(record, sort_keys=True, indent=1).

    Each meta.inner entry in the base64 alphabet is one piece of its own,
    the entry itself, so it is neither scanned for escapes nor copied.
    """
    meta = record.get("meta")
    inner = meta.get("inner") if isinstance(meta, dict) else None
    if not isinstance(inner, list):
        return [json.dumps(record, **_JSON)]
    plain = [
        isinstance(e, str) and e.isascii() and not e.encode("ascii").translate(None, _BASE64)
        for e in inner
    ]
    stand_ins = [_STAND_IN if p else e for e, p in zip(inner, plain)]
    text = json.dumps({**record, "meta": {**meta, "inner": stand_ins}}, **_JSON)
    parts = text.split(json.dumps(_STAND_IN))
    entries = [e for e, p in zip(inner, plain) if p]
    if len(parts) != len(entries) + 1:  # a caller's own string holds the stand-in's text
        return [json.dumps(record, **_JSON)]
    pieces = [parts[0]]
    for entry, part in zip(entries, parts[1:]):
        pieces += ['"', entry, '"' + part]
    return pieces


def _encode_inner(samples):
    """base64 of the little-endian complex128 bytes of samples."""
    return base64.b64encode(np.asarray(samples, dtype="<c16").tobytes()).decode("ascii")


def _decode_inner(entry, n):
    """One term's inner samples from its base64 entry.

    Raises ValueError (or TypeError) unless the entry holds exactly n
    samples.
    """
    raw = base64.b64decode(entry, validate=True)
    if len(raw) != 16 * n:
        raise ValueError(
            f"inner entry holds {len(raw)} bytes, not inner_n = {n} complex128"
        )
    # a read-only view of raw where complex is little-endian, a copy elsewhere
    return np.frombuffer(raw, dtype="<c16").astype(complex, copy=False)


def load_result(path):
    """JSON result file -> (record dict, rebuilt Decomposition).

    Reads schema 2 only: a file whose schema marker is missing or other
    (schema 1 stored inner samples as float lists) raises ParseError
    naming the schema found.  ParseError too for a file that is not
    JSON, lacks a key the rebuild needs, names an algorithm not in
    ALGORITHMS or a config.n that is not a JSON integer >= 8 (the
    sample counts read_signal_csv accepts),
    holds a source_energy that is not the first entry of a nonempty
    residual_trace or a component whose kind is not the record's
    algorithm, an inner_n other than the unwinding grid of config.n
    (_padded_n of its ceil(n/2) coefficients), or inner samples that do
    not decode to one inner_n-long array per component.  Also refused,
    since decompose never writes them: a residual_trace that is not one
    entry longer than the components, a pole on a uwa term or none on
    another, a pole that validate_param refuses, and a trace entry,
    coefficient or pole that is not finite (json reads NaN and Infinity).
    """
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    schema = rec.get("schema") if isinstance(rec, dict) else None
    if schema != SCHEMA:
        found = json.dumps(schema)
        if found == "1":
            found += " (inner samples as float lists)"
        raise ParseError(f"{path}: schema {found} is not read, only {SCHEMA}; run decompose on the input again")
    try:
        return rec, _rebuild(rec)
    except KeyError as exc:
        raise ParseError(f"{path}: result record lacks key {exc}") from exc
    # binascii.Error is a ValueError, _check_count raises InputError
    except (TypeError, ValueError, InputError) as exc:
        raise ParseError(f"{path}: malformed result record ({exc})") from exc


def _rebuild(rec):
    if rec["algorithm"] not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {rec['algorithm']!r}")
    _check_count("config.n", rec["config"]["n"], _LEAST_SAMPLES)
    trace = np.array(rec["residual_trace"], dtype=float)
    if not trace.size or float(rec["source_energy"]) != trace[0]:
        raise ValueError("source_energy is not the first entry of a nonempty residual_trace")
    algorithm = rec["algorithm"]
    meta, comps = dict(rec["meta"]), rec["components"]
    if any(c["kind"] != algorithm for c in comps):
        raise ValueError(f"a component's kind is not the algorithm {algorithm!r}")
    if len(trace) != len(comps) + 1:
        raise ValueError(f"{len(trace)} residual_trace entries for {len(comps)} components")
    inner = [None] * len(comps)
    if algorithm in UNWINDING:
        n = meta["n"] = int(meta.pop("inner_n"))
        # the unwinding grid of the Hardy coefficients an n-sample input gives
        if n != _padded_n(_hardy_bins(rec["config"]["n"])):
            raise ValueError(f"inner_n {n} is not the unwinding grid of config.n {rec['config']['n']}")
        entries = meta.pop("inner")
        if len(entries) != len(comps):
            raise ValueError(f"{len(entries)} inner entries for {len(comps)} components")
        inner = [_decode_inner(entry, n) for entry in entries]
    comps = [
        Component(a=_pole(c["a"], algorithm), c=_j2c(c["c"]), inner=samples)
        for c, samples in zip(comps, inner)
    ]
    numbers = [comp.c for comp in comps] + [comp.a for comp in comps if comp.a is not None]
    if not (np.isfinite(trace).all() and np.isfinite(np.array(numbers, dtype=complex)).all()):
        raise ValueError("a residual_trace entry, coefficient or pole is not finite")
    return Decomposition(components=comps, residual_energy=trace, meta=meta)


def _pole(entry, algorithm):
    """A stored pole: None for a UWA term (its only form), else validate_param's."""
    if algorithm == "uwa":
        if entry is not None:
            raise ValueError("a uwa term holds a pole")
        return None
    if entry is None:
        raise ValueError(f"a {algorithm} term lacks its pole")
    return validate_param(_j2c(entry))


# ---------------------------------------------------------------- commands

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
    _check_count("--terms", args.terms)
    _check_count("--n", args.n)
    _check_tolerance("--tol", args.tol)
    s, f = _ingest(args)
    t0 = time.perf_counter()
    if args.algo == "core":
        result = core_afd_decompose(f, max_terms=args.terms, energy_tol=args.tol)
    elif args.algo == "uwa":
        result = uwa_decompose(f, max_terms=args.terms)
    elif args.algo == "uwafd":
        result = uwafd_decompose(f, max_terms=args.terms, energy_tol=args.tol)
    elif args.algo == "cyclic":
        trace = cyclic_afd(f, args.n, init=_parse_init(args.init, args.n))
        result = cyclic_decomposition(f, trace.params)
        result.meta.update(objective=trace.objective, cycles=trace.cycles, converged=trace.converged)
    else:  # poafd, the last of the ALGORITHMS argparse accepts
        space = KernelSpace(args.space, len(f.coefficients) - 1)
        result = poafd_decompose(space, f.coefficients, max_terms=args.terms, energy_tol=args.tol)
    elapsed = time.perf_counter() - t0

    record = _record(args, s.n, result)
    out = args.output or str(Path(args.input).with_suffix(".afd.json"))
    save_result(record, out)
    _print_energy_table(record)
    # wall time stays on the console so reruns stay byte-identical
    print(f"result written to {out} ({elapsed:.3f}s)")
    return EXIT_OK


def _print_energy_table(record):
    source = record["source_energy"]
    trace = record["residual_trace"]
    print(f"algorithm {record['algorithm']}, N={record['config']['n']}, energy {source:.6e}")
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
    _check_count("--bins", args.bins)
    rec, obj = load_result(args.result)
    # inner factors exist on their own grid only; other terms go on the input's
    grid = obj.meta["n"] if rec["algorithm"] in UNWINDING else rec["config"]["n"]
    with _naming(args.result):
        comps = dirac_tfd(obj, grid=grid)
    # record and decomposition hold every term's inner samples; free them
    # before writing
    del rec, obj
    out = args.output or str(Path(args.result).with_suffix(".tfd.csv"))
    with open(out, "wb") as fh:
        _write_atoms(fh, comps)
    n_atoms = sum(len(comp.t) for comp in comps)
    print(f"{n_atoms} atoms over {len(comps)} components written to {out}")
    if args.bins:
        raster = _rasterize(comps, args.bins)
        rout = out[:-4] + ".raster.csv" if out.endswith(".csv") else out + ".raster.csv"
        with open(rout, "wb") as fh:
            header = ",".join(["t", *map(repr, raster["centers"].tolist())])
            fh.write(header.encode("ascii") + b"\r\n")
            _write_rows(fh, b"", _float_text(raster["t"]), list(raster["grid"].T))
        print(f"raster ({len(raster['centers'])} frequency bins) written to {rout}")
    return EXIT_OK


# Cells are formatted and written a block of about this many at a time,
# so the work arrays held at once stay small however long or wide the
# file is (a raster has one column per frequency bin).
_BLOCK_CELLS = 1 << 13


def _write_atoms(fh, comps):
    """Atom CSV `k,t,omega,weight`: one CRLF line per component and grid time.

    fh is a binary file.  Components that share one time array
    (dirac_tfd gives all of them the same one) share its formatted text.
    """
    fh.write(b"k,t,omega,weight\r\n")
    t, times = None, None
    for comp in comps:
        if comp.t is not t:
            t, times = comp.t, _float_text(comp.t)
        _write_rows(fh, b"%d," % comp.index, times, [comp.omega, comp.weight])


def _write_rows(fh, lead, times, columns):
    """Write one CRLF line per time: lead, the time text, one cell per column.

    fh is a binary file, lead a bytes prefix and times the _float_text
    matrix of the time column; columns are float arrays as long as
    times.  A column that repeats one float (same bits) is formatted
    once and joined into the literal text between cells.  The v others
    are written a block of rows at a time: within the block, one that
    repeats one float is folded the same way and the rest are formatted
    by one _float_text call each.  A block holds _BLOCK_CELLS // v rows,
    fewer when a row's literal text is longer than v cells of
    _TEXT_WIDTH bytes, so its size is bounded however wide the row.  The
    block is one uint8 matrix [lead, time text, literal, column text,
    ..., literal and CRLF], written with its NUL padding dropped in one
    write.
    """
    # (literal before the column, column) for each column that varies;
    # the literal after the last one ends every line
    varying, literal = [], b""
    for col in columns:
        values = np.asarray(col, dtype=float)
        literal += b","
        text = _repeat_text(values)
        if text is None:
            varying.append((literal, values))
            literal = b""
        else:
            literal += text
    tail = literal + b"\r\n"
    width = len(lead) + sum(len(lit) for lit, _ in varying) + len(tail)
    step = max(1, _BLOCK_CELLS // max(1, len(varying), width // _TEXT_WIDTH))
    for start in range(0, len(times), step):
        rows = slice(start, start + step)
        text = times[rows]
        pieces, literal = [_repeated(lead, len(text)), text], b""
        for lit, values in varying:
            cells = values[rows]
            literal += lit
            repeat = _repeat_text(cells)
            if repeat is None:
                pieces += [_repeated(literal, len(text)), _float_text(cells)]
                literal = b""
            else:
                literal += repeat
        pieces.append(_repeated(literal + tail, len(text)))
        block = np.concatenate(pieces, axis=1).ravel()
        fh.write(block[block != 0].tobytes())


def _repeat_text(values):
    """The repr bytes of the one float values repeats (same bits), else None."""
    bits = values.view(np.uint64)
    if len(bits) and (bits == bits[0]).all():
        return repr(float(values[0])).encode("ascii")
    return None


def _repeated(literal, n):
    """n rows of the bytes literal, as a read-only uint8 matrix."""
    return np.broadcast_to(np.frombuffer(literal, dtype=np.uint8), (n, len(literal)))


# ---------------------------------------------------------------- float text
#
# _float_text gives repr(float(x)) for every x of an array as one uint8
# matrix, so a block of CSV cells is made by a few array operations
# instead of one repr call per cell.  repr writes the shortest decimal
# that reads back as x (the one nearest x if several have that length),
# in fixed notation exactly when its exponent e (x = d.ddd * 10^e) lies
# in [-4, 15].  For such x the formatter finds the digits itself:
#
#   S = |x| * 10^(16 - e) is one long double product (both factors
#   exact, powers of ten up to 10^27 fit a 64-bit significand), so
#   S is off by at most 2^-64 S.  d17 = rint(S) holds 17 digits of x.
#   The 15- and 16-digit roundings follow from d17 mod 100 (mod 10) and
#   r = S - d17, and a rounding reads back as x iff its distance to S
#   is below the scaled half gap to x's neighbour on its side.  By 15
#   digits at most one decimal lies that close, so the correct 15-digit
#   rounding reads back iff any decimal of 15 or fewer digits does;
#   past that the nearest 16-digit one decides, and the 17-digit one
#   always reads back.  (The gap below a power of two is half the gap
#   above; for none of the 67 powers of two in the range does a
#   rounding fall between the two half gaps, so the nearest one still
#   decides there.)
#
# Every comparison is made on exact values derived from S, so only the
# 2^-64 S error in S can flip one; the value goes to repr when any
# comparison it depends on lies within 2^-62 S of its threshold, when
# S is not clearly inside [1e16, 1e17) (log10 misjudged e), when rounding
# carries into an 18th digit, and when x is not finite or not in the
# fixed range.  Without a 64-bit long double significand every value
# goes to repr.

_TEXT_WIDTH = 24  # the longest repr of a float, e.g. -2.2250738585072014e-308
_LONG_DOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63


def _powers_of_ten(dtype, count):
    power, table = dtype(1), []
    for _ in range(count):
        table.append(power)
        power = power * dtype(10)
    return np.array(table, dtype=dtype)


# 10^k for k = 0..21, which covers 16 - e for e in [-5, 16]
_POW10_LONG = _powers_of_ten(np.longdouble, 22)
_POW10 = _powers_of_ten(np.float64, 22)
_U64 = np.uint64


def _float_text(values):
    """repr of each value as a Python float, as a NUL-padded (n, 24) uint8 matrix.

    Row i holds the ASCII bytes of repr(float(values[i])), the cell
    text csv.writer wrote, followed by NULs.  Fixed-notation values are
    formatted in blocks of _BLOCK_CELLS by _shortest_digits and
    _fixed_text, zeros are constant text, and every other value (and
    every value the fast path cannot prove) goes through repr.
    """
    x = np.asarray(values, dtype=float).ravel()
    out = np.zeros((x.size, _TEXT_WIDTH), dtype=np.uint8)
    for start in range(0, x.size, _BLOCK_CELLS):
        _format_block(x[start:start + _BLOCK_CELLS], out[start:start + _BLOCK_CELLS])
    return out


def _format_block(x, out):
    mag = np.abs(x)
    done = mag == 0.0
    out[done, :3] = np.frombuffer(b"0.0", dtype=np.uint8)
    out[done & np.signbit(x), :4] = np.frombuffer(b"-0.0", dtype=np.uint8)
    fixed = np.flatnonzero((mag >= 1e-4) & (mag < 1e16))
    if _LONG_DOUBLE_EXACT and fixed.size:
        digits, exponent, sure = _shortest_digits(mag[fixed])
        rows = fixed[sure]
        _fixed_text(digits[sure], exponent[sure], np.signbit(x[rows]), out, rows)
        done[rows] = True
    rest = np.flatnonzero(~done)
    if rest.size:
        text = np.array([repr(v) for v in x[rest].tolist()], dtype=f"S{_TEXT_WIDTH}")
        out[rest] = text.view(np.uint8).reshape(-1, _TEXT_WIDTH)


def _shortest_digits(mag):
    """repr's digits of positive floats in [1e-4, 1e16), where provable.

    Returns (digits, e, sure): digits is the shortest round-trip decimal
    as a 17-digit uint64 (zero padded on the right), e the decimal
    exponent of its first digit, and sure marks the entries whose
    digits are proven; the others must go to repr.
    """
    e = np.floor(np.log10(mag)).astype(np.intp)  # in [-5, 16] on this range
    k = 16 - e
    s = mag.astype(np.longdouble) * _POW10_LONG[k]
    margin = s.astype(np.float64) * 2.0**-62
    outside = (s < 1e16 + 2.0 * margin) | (s >= 1e17)
    d17 = np.rint(s)
    r = (s - d17).astype(np.float64)
    d = d17.astype(_U64)
    # half gaps to the neighbours above and below, in units of d17
    scale = 0.5 * _POW10[k]
    gap_up = np.spacing(mag) * scale
    gap_down = (mag - np.nextafter(mag, 0.0)) * scale
    candidate = d
    unsure = np.abs(np.abs(r) - 0.5) <= margin
    # 16 digits, then 15: a shorter rounding that reads back wins, and
    # only the decisions that led to the winner must be sure
    for unit in (10, 100):
        tail = (d % _U64(unit)).astype(np.float64) + r  # S mod unit
        up = tail > 0.5 * unit
        offset = unit * up - tail  # rounding minus S
        half_gap = np.where(offset > 0.0, gap_up, gap_down)
        distance = np.abs(offset)
        reads_back = distance < half_gap
        near = (np.abs(tail - 0.5 * unit) <= margin) | (np.abs(distance - half_gap) <= margin)
        unsure = near | unsure & ~reads_back
        candidate = np.where(reads_back, (d // _U64(unit) + up) * _U64(unit), candidate)
    return candidate, e, ~(unsure | outside) & (candidate < _U64(10**17))


# decimal digit planes of a 17-digit number, first digit first
_PLANE = np.arange(1, 18, dtype=np.uint8)[:, None]


def _fixed_text(digits, e, negative, out, rows):
    """Write repr's fixed-notation text of digits * 10^(e - 16) into out[rows].

    Values are sorted by (e, sign) so each layout is a few slice copies
    of the digit planes; trailing zero digits past the first fraction
    digit become NUL.
    """
    key = ((e + 4) * 2 + negative).astype(np.int8)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=40)
    plane = _digit_planes(digits[order])
    significant = np.max(_PLANE * (plane != 0), axis=0).astype(np.int8)
    keep = np.maximum(significant, e[order].astype(np.int8) + 2).astype(np.uint8)
    plane += ord("0")
    plane *= _PLANE <= keep
    text = np.zeros((_TEXT_WIDTH, len(order)), dtype=np.uint8)
    start = 0
    for k in np.flatnonzero(counts):
        cols = slice(start, start + counts[k])
        start += counts[k]
        exp, sign = divmod(int(k), 2)
        exp -= 4
        if sign:
            text[0, cols] = ord("-")
        if exp >= 0:
            text[sign:sign + exp + 1, cols] = plane[:exp + 1, cols]
            text[sign + exp + 1, cols] = ord(".")
            text[sign + exp + 2:sign + 18, cols] = plane[exp + 1:, cols]
        else:
            text[sign:sign + 1 - exp, cols] = ord("0")
            text[sign + 1, cols] = ord(".")
            text[sign + 1 - exp:sign + 18 - exp, cols] = plane[:, cols]
    out[rows[order]] = text.T


def _digit_planes(digits):
    """(17, n) uint8 decimal digits of 17-digit uint64 values."""
    halves = np.empty((2, len(digits)), dtype=np.uint32)
    halves[0] = digits // _U64(10**9)
    halves[1] = digits - halves[0] * _U64(10**9)
    plane = np.empty((18, len(digits)), dtype=np.uint8)
    for j in range(8, -1, -1):
        quotient = halves // np.uint32(10)
        plane[j::9] = halves - quotient * np.uint32(10)
        halves = quotient
    return plane[1:]


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
        with _naming(args.input):
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
        with _naming(args.input):
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
    with _naming(args.input):
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
    print(f"algorithms: {', '.join(ALGORITHMS)}   spaces: {', '.join(_SPACES)}")
    print("input: CSV `t,value` or `t,re,im`, t = 2*pi*j/N, any N >= 8")
    print("       (check --mode uncertainty: any uniform real-line `t,value`)")
    print("results: JSON, schema 2, complex numbers as {re, im}, unwinding inner")
    print("         samples as base64 little-endian complex128; schema 1 refused")
    defaults = vars(_PARSER.parse_args(["decompose", "-"]))
    shown = ("terms", "tol", "n", "space")
    print("defaults: " + ", ".join(f"--{k} {defaults[k]}" for k in shown))
    print(f"selection grid: {DEFAULT_SEARCH.n_angles} angles x {DEFAULT_SEARCH.n_radii} radii, "
          f"|a| <= {DEFAULT_SEARCH.r_max} ({CAPPED_SEARCH.r_max} for poafd)")
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
                   help="relative residual-energy stop, finite and >= 0 (default 1e-6)")
    d.add_argument("--n", type=int, default=2,
                   help="tuple order for --algo cyclic (default 2)")
    d.add_argument("--init", default="auto",
                   help="cyclic init: 'auto' or comma-separated complex values")
    d.add_argument("--space", choices=tuple(_SPACES), default="hardy",
                   help="kernel space for --algo poafd")
    d.add_argument("--output", help="result path (default: input with .afd.json)")
    d.add_argument("--complex", action="store_true",
                   help="accept complex input as Hardy boundary data")

    t = sub.add_parser("tfd", help="emit time-frequency atoms for a result")
    t.add_argument("result")
    t.add_argument("--bins", type=int, default=0,
                   help="also write a raster with this many frequency bins "
                        "(none for a result without components)")
    t.add_argument("--output", help="atom CSV path (default: result with .tfd.csv)")

    c = sub.add_parser("check", help="screen a signal")
    c.add_argument("input")
    c.add_argument("--mode", choices=("mono", "bedrosian", "uncertainty"),
                   required=True)

    sub.add_parser("info", help="versions, formats, exit codes")
    return p


# built once: parsing leaves the parser as it was.  main looks the command
# function up by the subcommand's name on every call, so a rebinding of
# cmd_decompose and the others (the benchmark tracer wraps them) takes effect.
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalDegeneracy as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except AFDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as exc:
        # an output that cannot be written; inputs that cannot be read
        # are ParseErrors already
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
