"""Command line driver: formats, determinism, exit codes."""

import base64
import io
import json
import warnings

import numpy as np
import pytest

from afd import cli_io
from afd.cli_io import (
    EXIT_CHECK,
    EXIT_DEGENERATE,
    EXIT_INPUT,
    EXIT_OK,
    load_result,
    main,
    read_line_csv,
    read_signal_csv,
    save_result,
)
from afd.errors import AFDError, NonRealInput, NonUniformGrid, ParseError
from afd import (
    CircularSignal,
    Decomposition,
    analytic_signal,
    bergman_space,
    circle_grid,
    core_afd_decompose,
    cyclic_decomposition,
    hardy_space,
    poafd_decompose,
    uwa_decompose,
    uwafd_decompose,
)
from afd.tfd_uncertainty import dirac_tfd, unwinding_tfd

from conftest import am_fm_real, csv_writer_atoms, csv_writer_raster, schema1_record


def _write_real(path, samples, t=None):
    n = len(samples)
    if t is None:
        t = circle_grid(n)
    with open(path, "w") as fh:
        fh.write("t,value\n")
        for tj, vj in zip(t, samples):
            fh.write(f"{float(tj)!r},{float(vj)!r}\n")
    return str(path)


def _write_complex(path, samples):
    n = len(samples)
    t = circle_grid(n)
    with open(path, "w") as fh:
        fh.write("t,re,im\n")
        for tj, vj in zip(t, samples):
            fh.write(f"{float(tj)!r},{float(vj.real)!r},{float(vj.imag)!r}\n")
    return str(path)


@pytest.fixture
def cosine_csv(tmp_path):
    t = circle_grid(128)
    return _write_real(tmp_path / "cos.csv", np.cos(3 * t) + 0.5 * np.cos(5 * t))


# ---------------------------------------------------------------- readers


def test_read_real_csv(tmp_path):
    t = circle_grid(64)
    path = _write_real(tmp_path / "s.csv", np.sin(2 * t))
    s = read_signal_csv(path)
    assert s.n == 64
    assert s.is_real()
    np.testing.assert_allclose(s.samples.real, np.sin(2 * t), atol=1e-15)


def test_read_complex_csv_needs_flag(tmp_path):
    t = circle_grid(64)
    path = _write_complex(tmp_path / "c.csv", np.exp(1j * t))
    s = read_signal_csv(path, allow_complex=True)
    assert not s.is_real()
    with pytest.raises(NonRealInput):
        read_signal_csv(path)


@pytest.mark.parametrize("scale", [1e-20, 1e150])
def test_realness_is_relative_to_the_signal_peak(tmp_path, scale):
    # an imaginary column 1e6 times the real one is complex at any scale
    t = circle_grid(64)
    real = scale * np.cos(3 * t)
    mixed = _write_complex(tmp_path / "mixed.csv", real + 1e6j * real)
    with pytest.raises(NonRealInput):
        read_signal_csv(mixed)
    assert not read_signal_csv(mixed, allow_complex=True).is_real()
    assert main(["decompose", mixed, "--output", str(tmp_path / "m.json")]) == EXIT_INPUT
    # a real signal, its imaginary column zero, passes
    s = read_signal_csv(_write_complex(tmp_path / "real.csv", real + 0j))
    assert s.is_real()
    want = analytic_signal(CircularSignal(real)).coefficients
    np.testing.assert_array_equal(analytic_signal(s).coefficients, want)


def test_read_rejects_bad_headers_and_cells(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,signal\n0.0,1.0\n")
    with pytest.raises(ParseError):
        read_signal_csv(str(bad))
    bad.write_text("")
    with pytest.raises(ParseError):
        read_signal_csv(str(bad))
    bad.write_text("t,value\n0.0,one\n")
    with pytest.raises(ParseError):
        read_signal_csv(str(bad))
    bad.write_text("t,value\n0.0,1.0,2.0\n")
    with pytest.raises(ParseError):
        read_signal_csv(str(bad))
    # float() reads nan and infinity, which no signal or grid may hold
    for cell in ("nan", "inf", "-Infinity"):
        bad.write_text(f"t,value\n0.0,{cell}\n")
        with pytest.raises(ParseError):
            read_signal_csv(str(bad))
        bad.write_text(f"t,value\n{cell},1.0\n0.1,1.0\n")
        with pytest.raises(ParseError):
            read_line_csv(str(bad))


ROWS = [[0.0, 1.5], [0.5, -2.0]]
# (CSV text, the rows _read_csv returns or ParseError): rows of blank
# cells are skipped wherever they stand, cells read as float() reads
# them, and every other irregular row is refused
READ_CASES = {
    "crlf": ("t,value\r\n0.0,1.5\r\n0.5,-2.0\r\n", ROWS),
    "cr": ("t,value\r0.0,1.5\r0.5,-2.0\r", ROWS),
    "blank rows": ("\nt,value\n\n0.0,1.5\n\n\n0.5,-2.0\n\n", ROWS),
    "whitespace rows": (" \t\nt,value\n0.0,1.5\n   \n0.5,-2.0\n\t", ROWS),
    "comma rows": (",\nt,value\n0.0,1.5\n,\n , \n0.5,-2.0\n,,", ROWS),
    "quoted blank rows": ('"",""\nt,value\n0.0,1.5\n" ",\n0.5,-2.0\n', ROWS),
    "quoted cells": ('"t","value"\n"0.0","1.5"\n0.5,"-2.0"\n', ROWS),
    "space-padded cells": (" t , Value \n 0.0 ,\t1.5 \n0.5, -2.0\n", ROWS),
    "no final line break": ("t,value\n0.0,1.5\n0.5,-2.0", ROWS),
    "signs and exponents": ("t,value\n+0.0,+15e-1\n5E-1,-2.\n", ROWS),
    "three columns": ("t,re,im\n0.0,1.5,0.25\n", [[0.0, 1.5, 0.25]]),
    "ragged row": ("t,value\n0.0,1.5\n0.5\n", ParseError),
    "trailing comma": ("t,value\n0.0,1.5,\n0.5,-2.0,\n", ParseError),
    "extra column": ("t,value\n0.0,1.5,2.0\n", ParseError),
    "space before a quote": ('t,value\n0.0, "1.5"\n', ParseError),
    # an unterminated quote runs to the end of the file: an open last
    # cell reads, one that takes in later rows is not a number
    "unterminated quote at the end": ('t,value\n0.0,"1.5\n', [[0.0, 1.5]]),
    "unterminated quote": ('t,value\n0.0,"1.5\n0.5,-2.0\n', ParseError),
    "nan": ("t,value\n0.0,nan\n", ParseError),
    "inf": ("t,value\ninf,1.5\n", ParseError),
    "-Infinity": ("t,value\n0.0,-Infinity\n", ParseError),
    "word": ("t,value\n0.0,one\n", ParseError),
    "underscore": ("t,value\n0.0,1_0\n", ParseError),  # float() reads 10.0
    "header only": ("t,value\n", ParseError),
    "header and blank rows": ("t,value\n\n , \n", ParseError),
    "empty file": ("", ParseError),
    "blank rows only": (" \n,\n", ParseError),
    "unknown header": ("time,value\n0.0,1.5\n", ParseError),
    "not UTF-8": ("t,value\n0.0,1.5\xff\n", ParseError),
}


@pytest.mark.parametrize("text, want", READ_CASES.values(), ids=READ_CASES.keys())
def test_read_csv_skips_blank_rows_and_refuses_irregular_ones(tmp_path, text, want):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("latin-1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on any input
        if want is ParseError:
            with pytest.raises(ParseError):
                cli_io._read_csv(str(path), {"t,value": 2, "t,re,im": 3})
        else:
            t, cols = cli_io._read_csv(str(path), {"t,value": 2, "t,re,im": 3})
            assert np.column_stack([t, *cols]).tolist() == want


def test_read_rejects_wrong_grid(tmp_path):
    t = circle_grid(64).copy()
    t[5] += 1e-4
    path = _write_real(tmp_path / "g.csv", np.cos(t), t=t)
    with pytest.raises(NonUniformGrid):
        read_signal_csv(path)


def test_read_line_csv_any_uniform_grid(tmp_path):
    t = np.linspace(-1.0, 1.0, 50, endpoint=False)
    path = _write_real(tmp_path / "l.csv", np.exp(-(t**2)), t=t)
    tt, vals = read_line_csv(path)
    np.testing.assert_allclose(tt, t)
    np.testing.assert_allclose(vals, np.exp(-(t**2)))


# ---------------------------------------------------------------- decompose


def test_decompose_core_roundtrip(tmp_path, cosine_csv, capsys):
    out = str(tmp_path / "r.json")
    assert main(["decompose", cosine_csv, "--algo", "core", "--terms", "4",
                 "--output", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "algorithm core" in text
    rec, d = load_result(out)
    assert rec["schema"] == 2
    assert rec["algorithm"] == "core"
    trace = rec["residual_trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    d.validate()
    # saving the loaded record again reproduces the file byte for byte
    second = str(tmp_path / "r2.json")
    save_result(rec, second)
    assert open(out, "rb").read() == open(second, "rb").read()


def test_load_result_accepts_records_with_threads(tmp_path, cosine_csv):
    # records written before the grid-scan thread count was dropped
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, "--terms", "2", "--output", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert "threads" not in rec["config"]
    rec["config"]["threads"] = 1
    out.write_text(json.dumps(rec))
    old, d = load_result(str(out))
    assert old["config"]["threads"] == 1
    d.validate()
    assert main(["tfd", str(out), "--output", str(tmp_path / "r.tfd.csv")]) == EXIT_OK


def test_load_result_accepts_core_records_with_the_cross_check(tmp_path, cosine_csv):
    # core records written while the greedy loop audited its coefficients
    # carry meta.n and meta.triple_defect
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, "--terms", "2", "--output", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["meta"] == {}
    rec["meta"].update(n=4096, triple_defect=7.2e-16)
    out.write_text(json.dumps(rec))
    old, d = load_result(str(out))
    assert old["meta"]["triple_defect"] == 7.2e-16
    assert len(d) == 2
    d.validate()
    assert main(["tfd", str(out), "--output", str(tmp_path / "r.tfd.csv")]) == EXIT_OK


def test_decompose_rerun_is_byte_identical(tmp_path, cosine_csv):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    argv = ["decompose", cosine_csv, "--algo", "core", "--terms", "3"]
    assert main(argv + ["--output", out1]) == EXIT_OK
    assert main(argv + ["--output", out2]) == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("algo", ["uwa", "uwafd", "cyclic", "poafd"])
def test_decompose_other_algorithms_run(tmp_path, cosine_csv, algo):
    out = str(tmp_path / f"{algo}.json")
    argv = ["decompose", cosine_csv, "--algo", algo, "--terms", "3", "--output", out]
    if algo == "cyclic":
        argv += ["--n", "2"]
    assert main(argv) == EXIT_OK
    rec, obj = load_result(out)
    assert rec["algorithm"] == algo
    if algo == "cyclic":
        assert "objective" in rec["meta"]
    if algo in ("uwa", "uwafd"):
        assert rec["meta"]["inner_n"] >= 4096
    obj.validate()


def test_every_algorithm_returns_one_record_type(tmp_path, cosine_csv):
    # all five algorithms, and every loaded result file, give a Decomposition
    f = analytic_signal(read_signal_csv(cosine_csv))
    results = [
        core_afd_decompose(f, max_terms=3),
        uwa_decompose(f, 3),
        uwafd_decompose(f, max_terms=3),
        cyclic_decomposition(f, (0.3, -0.2j)),
    ]
    for make in (hardy_space, bergman_space):
        results.append(poafd_decompose(make(f.order), f.coefficients, max_terms=3))
    runs = [[algo] for algo in cli_io.ALGORITHMS] + [["poafd", "--space", "bergman"]]
    for algo, *flags in runs:
        out = str(tmp_path / f"{algo}{len(flags)}.json")
        argv = ["decompose", cosine_csv, "--algo", algo, "--terms", "3"]
        assert main(argv + flags + ["--output", out]) == EXIT_OK
        results.append(load_result(out)[1])
    for d in results:
        assert type(d) is Decomposition and len(d) > 0
        d.validate()


def test_decompose_poafd_bergman(tmp_path, cosine_csv):
    out = str(tmp_path / "b.json")
    assert main(["decompose", cosine_csv, "--algo", "poafd", "--space", "bergman",
                 "--terms", "2", "--output", out]) == EXIT_OK
    rec, d = load_result(out)
    # the loaded record keeps the meta it stored, and nothing more
    assert d.meta == rec["meta"] == {"space": "bergman", "order": 63}


def test_decompose_cyclic_explicit_init(tmp_path, cosine_csv):
    out = str(tmp_path / "c.json")
    assert main(["decompose", cosine_csv, "--algo", "cyclic", "--n", "2",
                 "--init", "0.1+0.1i,-0.2i", "--output", out]) == EXIT_OK
    rec, _ = load_result(out)
    assert rec["config"]["init"] == "0.1+0.1i,-0.2i"


def test_decompose_complex_input_recovers_a_kernel(tmp_path, capsys):
    # (1.3 + 0.5i) e_a on the circle, a = 0.4 - 0.2i: one term captures it
    a, c = 0.4 - 0.2j, 1.3 + 0.5j
    z = np.exp(1j * circle_grid(256))
    path = _write_complex(tmp_path / "k.csv", c * np.sqrt(1 - abs(a) ** 2) / (1 - np.conj(a) * z))
    out = str(tmp_path / "k.json")
    assert main(["decompose", path, "--complex", "--output", out]) == EXIT_OK
    rec, d = load_result(out)
    assert rec["config"]["complex"] is True
    assert abs(d.params[0] - a) < 1e-9
    assert abs(d.coefficients[0] - c) < 1e-9
    assert d.residual_energy[1] < 1e-20 * d.source_energy
    d.validate()
    assert main(["tfd", out, "--output", str(tmp_path / "k.tfd.csv")]) == EXIT_OK
    # the same file read as a real signal is refused
    capsys.readouterr()
    assert main(["decompose", path, "--output", str(tmp_path / "r.json")]) == EXIT_INPUT
    assert "--complex" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--algo", "cyclic", "--n", "2", "--init", "0.1,0.2,0.3"], "--init supplies 3 values"),
        (["--algo", "cyclic", "--init", "abc"], "--init wants 'auto'"),
        (["--algo", "cyclic", "--n", "2", "--init", "nan,0.1"], "is not inside the disc"),
    ],
)
def test_decompose_rejects_bad_init(tmp_path, capsys, cosine_csv, flags, message):
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, *flags, "--output", str(out)]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_decompose_has_no_seed_and_reads_records_with_one(tmp_path, cosine_csv):
    # --seed and --grid are no options; records that carry config.seed or
    # config.grid still load
    for flags in (["--seed", "1"], ["--grid", "24x12"]):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", cosine_csv, *flags])
        assert exc.value.code == 2
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, "--terms", "2", "--output", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert "seed" not in rec["config"] and "grid" not in rec["config"]
    rec["config"].update(seed=0, grid="64x32")
    out.write_text(json.dumps(rec))
    old, d = load_result(str(out))
    assert old == rec
    assert len(d) == 2
    d.validate()
    assert main(["tfd", str(out), "--output", str(tmp_path / "r.tfd.csv")]) == EXIT_OK


def test_decompose_rejects_negative_terms(tmp_path, cosine_csv):
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, "--terms", "-1", "--output", str(out)]) == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_decompose_rejects_a_tol_that_is_not_finite_and_nonnegative(tmp_path, capsys, cosine_csv, tol):
    # nan never stops a run, and nan or inf would be written into the record,
    # which strict JSON parsers refuse
    out = tmp_path / "r.json"
    assert main(["decompose", cosine_csv, f"--tol={tol}", "--output", str(out)]) == EXIT_INPUT
    assert "--tol wants a finite value >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_rejects_negative_n_before_reading(tmp_path, capsys, cosine_csv):
    out = tmp_path / "r.json"
    argv = ["decompose", cosine_csv, "--algo", "cyclic", "--output", str(out)]
    assert main(argv + ["--n", "-1"]) == EXIT_INPUT
    assert not out.exists()
    # the count is refused before the input is read: a missing file says so
    missing = ["decompose", str(tmp_path / "none.csv"), "--algo", "cyclic", "--n", "-1"]
    capsys.readouterr()
    assert main(missing) == EXIT_INPUT
    assert "--n wants a count >= 0" in capsys.readouterr().err
    # an empty tuple is still a valid request
    assert main(argv + ["--n", "0"]) == EXIT_OK
    rec, _obj = load_result(str(out))
    assert rec["components"] == []


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("algo", ["uwa", "uwafd"])
def test_unwinding_records_round_trip(tmp_path, capsys, algo):
    samples = am_fm_real(np.random.default_rng(9), 256).samples.real
    sig = _write_real(tmp_path / "s.csv", samples)
    argv = ["decompose", sig, "--algo", algo, "--terms", "4"]
    a, b, c = (str(tmp_path / name) for name in ("a.json", "b.json", "c.json"))
    assert main(argv + ["--output", a]) == EXIT_OK
    assert main(argv + ["--output", b]) == EXIT_OK
    assert _bytes(a) == _bytes(b)  # reruns are byte-identical
    rec, obj = load_result(a)
    assert rec["schema"] == 2
    assert all(isinstance(entry, str) for entry in rec["meta"]["inner"])
    # each step records how far its inner factor is off the circle
    # (|f|-weighted); on this smooth signal every step is clean
    cons = rec["meta"]["factor_consistency"]
    assert len(cons) == len(rec["components"])
    assert all(np.isfinite(x) and x <= 1e-12 for x in cons), cons
    save_result(rec, c)
    assert _bytes(a) == _bytes(c)  # so is load -> save

    # the loaded samples are the in-memory decomposition's, bit for bit
    f = analytic_signal(read_signal_csv(sig))
    if algo == "uwa":
        mem = uwa_decompose(f, 4)
    else:
        mem = uwafd_decompose(f, max_terms=4, energy_tol=1e-6)
    assert len(obj.components) == len(mem.components) == len(rec["components"]) > 0
    for got, want in zip(obj.components, mem.components):
        assert got.inner.dtype == np.dtype(complex)
        assert got.inner.tobytes() == want.inner.tobytes()

    # a schema-1 twin loads to the same arrays and gives the same tfd bytes
    old = str(tmp_path / "old.json")
    save_result(schema1_record(rec, mem), old)
    rec1, obj1 = load_result(old)
    assert rec1["schema"] == 1
    for got, want in zip(obj1.components, mem.components):
        assert got.inner.tobytes() == want.inner.tobytes()
    outputs = []
    for res in (a, old):
        atoms = res[:-5] + ".tfd.csv"
        assert main(["tfd", res, "--bins", "16", "--output", atoms]) == EXIT_OK
        outputs.append((_bytes(atoms), _bytes(atoms[:-4] + ".raster.csv")))
    assert outputs[0] == outputs[1]
    capsys.readouterr()


def test_inner_encoding_keeps_every_bit():
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0 / 3.0, -1e300])
    samples = x + 1j * 0.0
    samples.imag = x[::-1]
    for schema, entry in (
        (2, cli_io._encode_inner(samples)),
        (1, [samples.real.tolist(), samples.imag.tolist()]),
    ):
        got = cli_io._decode_inner(json.loads(json.dumps(entry)), schema, len(x))
        assert got.dtype == np.dtype(complex)
        # schema 2 gives a read-only view of the decoded bytes where
        # complex is little-endian: no second copy of the samples
        assert got.flags.writeable == (schema == 1 or np.dtype("<c16") != np.dtype(complex))
        assert got.tobytes() == samples.tobytes()


def _saved_records(tmp_path, cosine_csv):
    """(name, record) pairs save_result must write as json.dumps does."""
    out = {}
    for algo in ("uwa", "uwafd", "core"):
        res = str(tmp_path / f"{algo}.json")
        argv = ["decompose", cosine_csv, "--algo", algo, "--terms", "3"]
        assert main(argv + ["--output", res]) == EXIT_OK
        out[algo], obj = load_result(res)
        if algo == "uwa":
            out["schema 1"] = schema1_record(out[algo], obj)
    escaped = json.loads(json.dumps(out["uwa"]))
    inner = escaped["meta"]["inner"]
    # entries the encoder escapes, between plain base64 ones
    inner[1:1] = ['quote " backslash \\ e\u0301 \u00e9', 'QU"JD', "QU\\JD", "QU\nJD", "", 7]
    out["escaped entries"] = escaped
    # a caller's own strings whose JSON text is the stand-in's
    for where in ("note", "inner"):
        stand_in = json.loads(json.dumps(out["uwa"]))
        if where == "note":
            stand_in["meta"]["note"] = "\0"
        else:
            stand_in["meta"]["inner"].insert(1, "\0")
        out[f"stand-in text in meta.{where}"] = stand_in
    out["no meta"] = {"schema": 2, "inner": ["QUJD"]}
    out["inner not a list"] = {"meta": {"inner": "QUJD"}}
    return out


def test_save_result_writes_what_json_dumps_writes(tmp_path, cosine_csv, capsys):
    records = _saved_records(tmp_path, cosine_csv)
    capsys.readouterr()
    for name, rec in records.items():
        path = tmp_path / "saved.json"
        save_result(rec, str(path))
        want = json.dumps(rec, sort_keys=True, indent=1) + "\n"
        assert path.read_text() == want, name


def _malform(rec, case):
    """Break a saved uwa record (schema 2, two components) in place."""
    meta = rec["meta"]
    inner = meta["inner"]
    if case == "core-without-trace":
        rec.clear()
        rec.update(schema=1, algorithm="core")
    elif case == "no-algorithm":
        del rec["algorithm"]
    elif case == "no-inner":
        del meta["inner"]
    elif case == "no-inner-n":
        del meta["inner_n"]
    elif case == "zero-inner-n":
        # empty entries decode to inner_n = 0 samples each
        meta["inner_n"] = 0
        meta["inner"] = ["" for _ in inner]
    elif case == "other-inner-n":
        # entries cut to inner_n samples decode; the grid is not the input's
        meta["inner_n"] = 2048
        meta["inner"] = [base64.b64encode(base64.b64decode(e)[: 16 * 2048]).decode("ascii") for e in inner]
    elif case == "bad-base64":
        inner[0] = "not base64!"
    elif case == "list-in-schema-2":
        inner[0] = [[0.0], [0.0]]
    elif case == "short-inner":
        inner[1] = base64.b64encode(base64.b64decode(inner[1])[:-16]).decode("ascii")
    elif case == "inner-count":
        inner.pop()
    elif case == "schema-1-short-lists":
        rec["schema"] = 1
        meta["inner"] = [[[0.0] * 3, [0.0] * 3]] * 2
    elif case == "bad-coefficient":
        rec["components"][0]["c"] = "1+2j"
    elif case == "other-kind":
        # the record names the algorithm; a component may not name another
        rec["components"][1]["kind"] = "uwafd"
    elif case == "no-kind":
        del rec["components"][0]["kind"]
    elif case == "other-source-energy":
        # the source energy is stored twice on disk, the copies must agree
        rec["source_energy"] = float(np.nextafter(rec["source_energy"], np.inf))
    elif case == "empty-trace":
        rec["residual_trace"] = []
    elif case == "no-config":
        del rec["config"]
    elif case == "bad-config-n":
        # the input's sample count, which read_signal_csv keeps to powers of two >= 8
        rec["config"]["n"] = 3
    elif case == "nan-coefficient":
        # json reads NaN and Infinity, which decompose never writes
        rec["components"][0]["c"]["re"] = float("nan")
    elif case == "infinite-trace":
        rec["residual_trace"][-1] = float("inf")
    elif case in ("pole-outside-disc", "null-pole-in-uwafd"):
        # a uwafd record, so every term needs a pole inside the disc
        rec["algorithm"] = "uwafd"
        for comp in rec["components"]:
            comp.update(kind="uwafd", a={"re": 0.3, "im": 0.0})
        rec["components"][1]["a"] = {"re": 1.5, "im": 0.0} if case == "pole-outside-disc" else None
    elif case == "pole-in-uwa":
        rec["components"][0]["a"] = {"re": 0.3, "im": 0.0}
    elif case == "short-trace":
        rec["residual_trace"] = rec["residual_trace"][:2]
    elif case == "unknown-algorithm":
        # named by every component too, each with a parameter as core's have
        rec["algorithm"] = "bogus"
        for comp in rec["components"]:
            comp.update(kind="bogus", a={"re": 0.5, "im": 0.0})
    else:
        raise AssertionError(case)


MALFORMED = [
    "core-without-trace", "no-algorithm", "no-inner", "no-inner-n", "zero-inner-n",
    "other-inner-n", "bad-base64",
    "list-in-schema-2", "short-inner", "inner-count", "schema-1-short-lists",
    "bad-coefficient", "other-kind", "no-kind", "other-source-energy", "empty-trace",
    "no-config", "bad-config-n", "unknown-algorithm", "nan-coefficient", "infinite-trace",
    "pole-outside-disc", "null-pole-in-uwafd", "pole-in-uwa", "short-trace",
]


@pytest.mark.parametrize("case", MALFORMED)
def test_tfd_rejects_malformed_records(tmp_path, capsys, case):
    samples = am_fm_real(np.random.default_rng(4), 64).samples.real
    sig = _write_real(tmp_path / "s.csv", samples)
    res = tmp_path / "r.json"
    argv = ["decompose", sig, "--algo", "uwa", "--terms", "2", "--output", str(res)]
    assert main(argv) == EXIT_OK
    rec = json.loads(res.read_text())
    assert len(rec["components"]) == 2
    _malform(rec, case)
    res.write_text(json.dumps(rec))
    capsys.readouterr()
    with pytest.raises(ParseError):
        load_result(str(res))
    assert main(["tfd", str(res)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {res}: ")
    assert not (tmp_path / "r.tfd.csv").exists()


# ---------------------------------------------------------------- tfd


def test_tfd_atoms_and_raster(tmp_path, cosine_csv):
    res = str(tmp_path / "r.json")
    main(["decompose", cosine_csv, "--algo", "core", "--terms", "2",
          "--output", res])
    atoms = str(tmp_path / "r.tfd.csv")
    assert main(["tfd", res, "--bins", "16", "--output", atoms]) == EXIT_OK
    rows = open(atoms).read().strip().splitlines()
    assert rows[0] == "k,t,omega,weight"
    assert len(rows) == 1 + 2 * 128  # two components on the input grid
    # raster redistributes the atom weights without losing any
    raster = atoms[:-4] + ".raster.csv"
    lines = open(raster).read().strip().splitlines()
    total_atoms = sum(float(r.split(",")[3]) for r in rows[1:])
    total_raster = sum(
        sum(float(x) for x in line.split(",")[1:]) for line in lines[1:]
    )
    assert total_raster == pytest.approx(total_atoms, rel=1e-12)


# (algorithm, N, extra decompose flags): unwinding at the benchmark's
# sizes (inner grids 4096 and 16384), the selecting methods at N = 256
TFD_CASES = [
    ("uwa", 1024, []),
    ("uwa", 4096, []),
    ("uwafd", 256, []),
    ("core", 256, []),
    ("cyclic", 256, ["--n", "2"]),
    ("poafd", 256, []),
]


@pytest.mark.parametrize(
    "algo, n, flags", TFD_CASES, ids=[f"{a}-{n}" for a, n, _ in TFD_CASES]
)
def test_tfd_bytes_match_csv_writer(tmp_path, capsys, algo, n, flags):
    rng = np.random.default_rng(n)
    sig = _write_real(tmp_path / "s.csv", am_fm_real(rng, n).samples.real)
    res = str(tmp_path / "r.json")
    assert main(["decompose", sig, "--algo", algo, "--terms", "6", "--output", res]
                + flags) == EXIT_OK
    rec, obj = load_result(res)
    if algo in ("uwa", "uwafd"):
        comps = unwinding_tfd(obj)
    else:
        comps = dirac_tfd(obj, grid=rec["config"]["n"])
    assert comps
    capsys.readouterr()
    outputs = []
    for name in ("a.csv", "b.csv"):
        atoms = str(tmp_path / name)
        assert main(["tfd", res, "--bins", "16", "--output", atoms]) == EXIT_OK
        text = capsys.readouterr().out
        data = open(atoms, "rb").read()
        raster = open(atoms[:-4] + ".raster.csv", "rb").read()
        outputs.append((data, raster))
    assert outputs[0] == outputs[1]  # reruns are byte-identical
    assert outputs[0][0] == csv_writer_atoms(comps)
    assert outputs[0][1] == csv_writer_raster(comps, 16)
    n_atoms = int(text.split()[0])
    assert n_atoms == sum(len(c.t) for c in comps)
    if algo in ("uwa", "uwafd"):
        assert n_atoms == rec["meta"]["inner_n"] * len(rec["components"])


@pytest.mark.parametrize("algo", ["core", "uwa", "uwafd", "cyclic", "poafd"])
def test_tfd_of_a_result_without_components(tmp_path, capsys, algo):
    # every algorithm is scale invariant and saves no components only
    # when asked for none (no terms; cyclic: no poles)
    tiny = 1e-20 * am_fm_real(np.random.default_rng(3), 1024).samples.real
    sig = _write_real(tmp_path / "s.csv", tiny)
    res = str(tmp_path / "r.json")
    argv = ["decompose", sig, "--algo", algo, "--terms", "0", "--n", "0", "--output", res]
    assert main(argv) == EXIT_OK
    assert load_result(res)[0]["components"] == []
    capsys.readouterr()
    atoms = str(tmp_path / "r.tfd.csv")
    assert main(["tfd", res, "--bins", "8", "--output", atoms]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("0 atoms over 0 components")
    assert "raster (0 frequency bins)" in text
    assert open(atoms, "rb").read() == b"k,t,omega,weight\r\n"
    assert open(str(tmp_path / "r.tfd.raster.csv"), "rb").read() == b"t\r\n"


def test_write_rows_folds_only_repeated_bits(monkeypatch):
    # two varying columns, so blocks of three rows: the first column
    # repeats 2.5 in the second block only, the last holds 0.0 but for
    # one -0.0 in the first block, and 0.0 and -0.0 compare equal but
    # print differently; the nan column repeats over every row
    monkeypatch.setattr(cli_io, "_BLOCK_CELLS", 6)
    times = cli_io._float_text([0.0, 1.0, 2.0, 3.0, 4.0])
    cols = [
        np.array([0.0, -0.0, 1e-300, 2.5, 2.5]),
        np.full(5, np.nan),
        np.array([0.0, -0.0, 0.0, 0.0, 0.0]),
    ]
    buf = io.BytesIO()
    cli_io._write_rows(buf, b"7,", times, cols)
    assert buf.getvalue().decode("ascii") == (
        "7,0.0,0.0,nan,0.0\r\n7,1.0,-0.0,nan,-0.0\r\n7,2.0,1e-300,nan,0.0\r\n"
        "7,3.0,2.5,nan,0.0\r\n7,4.0,2.5,nan,0.0\r\n"
    )


def _rows_written(t, columns):
    """(bytes, write count) of _write_rows over these columns."""
    writes = []

    class Sink:
        def write(self, data):
            writes.append(data)

    cli_io._write_rows(Sink(), b"", cli_io._float_text(t), columns)
    return b"".join(writes), len(writes)


@pytest.mark.parametrize("block_cells", [1, 7, 40, 1 << 13])
def test_write_rows_of_a_raster_is_repr_per_cell(monkeypatch, block_cells):
    # a 64-bin raster: empty bins repeat 0.0 (one -0.0, one 0.0 but for
    # a -0.0 in row 20), one bin is constant in its first rows only, 20
    # others vary; any block size gives the text of one repr per cell
    monkeypatch.setattr(cli_io, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(73)
    rows = 45
    t = np.linspace(0.0, 2.0 * np.pi, rows, endpoint=False)
    grid = np.zeros((rows, 64))
    grid[:, 3] = -0.0
    grid[:, 5] = 7.25
    grid[20, 7] = -0.0
    grid[:, 10:30] = rng.uniform(0.0, 2.0, (rows, 20))
    grid[:, 40] = 1.5
    grid[30:, 40] = rng.uniform(0.0, 1.0, rows - 30)
    small = block_cells < 21
    for columns in (grid, np.zeros_like(grid)):
        text, writes = _rows_written(t, list(columns.T))
        want = "".join(
            ",".join(repr(float(x)) for x in (tj, *row)) + "\r\n" for tj, row in zip(t, columns)
        )
        assert text.decode("ascii") == want
        # a block holds _BLOCK_CELLS formatted cells, constant text
        # counting too: the default one takes all rows, a small one
        # fewer, also when every column is constant
        assert (writes == 1) == (block_cells == 1 << 13)
        if small:
            assert writes == rows


def test_write_rows_formats_only_the_cells_that_vary_in_their_block(monkeypatch):
    # a raster whose bin j is non-zero in rows 8j to 8j + 7 only, as
    # each grid time hits few bins: every bin varies over the whole
    # column, but blocks of eight rows leave one varying bin per block,
    # and only its cells are formatted
    monkeypatch.setattr(cli_io, "_BLOCK_CELLS", 64)
    rows, bins = 64, 8
    grid = np.zeros((rows, bins))
    for j in range(bins):
        grid[8 * j:8 * j + 8, j] = np.arange(1.0, 9.0) / (j + 3)
    formatted, float_text = [], cli_io._float_text

    def counting(values):
        formatted.append(np.size(values))
        return float_text(values)

    t = np.arange(rows, dtype=float)
    times = float_text(t)
    monkeypatch.setattr(cli_io, "_float_text", counting)
    buf = io.BytesIO()
    cli_io._write_rows(buf, b"", times, list(grid.T))
    assert formatted == [8] * bins
    want = "".join(
        ",".join(repr(float(x)) for x in (tj, *row)) + "\r\n" for tj, row in zip(t, grid)
    )
    assert buf.getvalue().decode("ascii") == want


def _cell_text(matrix):
    return [row.tobytes().rstrip(b"\0").decode("ascii") for row in matrix]


def _repr_mismatches(values):
    """(value, formatted, repr) for every cell _float_text gets wrong."""
    values = np.asarray(values, dtype=float)
    got = _cell_text(cli_io._float_text(values))
    return [(v, g, repr(v)) for v, g in zip(values.tolist(), got) if g != repr(v)]


def test_float_text_is_repr_on_every_value_class():
    rng = np.random.default_rng(71)
    n = 20000
    pow10 = np.array([float(f"1e{k}") for k in range(-8, 20)])
    pow2 = np.ldexp(1.0, np.arange(-40, 60))
    edges = np.concatenate([pow10, pow2])
    special = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    classes = [
        rng.uniform(0.0, 100.0, n),  # the omegas and times of a TFD
        10.0 ** rng.uniform(-6.0, 18.0, n),  # both edges of fixed notation
        rng.integers(0, 2**64, n, dtype=np.uint64).view(float),  # any bits
        rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 9, n),  # short decimals
        rng.integers(0, 10**16, n).astype(float),  # integers
        rng.integers(1, 2**52, 200, dtype=np.uint64).view(float),  # subnormals
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, np.inf),
        special,
    ]
    values = np.concatenate(classes)
    assert _repr_mismatches(np.concatenate([values, -values]))[:5] == []


def test_float_text_without_long_double_is_repr(monkeypatch):
    # where long double has no 64-bit significand every cell goes to repr
    monkeypatch.setattr(cli_io, "_LONG_DOUBLE_EXACT", False)
    values = np.random.default_rng(72).uniform(-100.0, 100.0, 500)
    assert _repr_mismatches(np.concatenate([values, [0.0, -0.0, np.nan, 1e300]])) == []


def test_float_text_rows_are_nul_padded():
    text = cli_io._float_text([1.5, -0.0, -2.2250738585072014e-308])
    assert text.shape == (3, 24) and text.dtype == np.uint8
    assert _cell_text(text) == ["1.5", "-0.0", "-2.2250738585072014e-308"]
    assert cli_io._float_text([]).shape == (0, 24)


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="the fast path needs a 64-bit long double"
)
def test_float_text_formats_tfd_omegas_without_repr():
    # an unwinding TFD like the benchmark's: nearly every omega must be
    # proven by the fast path, not handed to repr
    f = analytic_signal(am_fm_real(np.random.default_rng(5), 1024))
    omega = np.concatenate([comp.omega for comp in unwinding_tfd(uwa_decompose(f, max_terms=6))])
    mag = np.abs(omega)
    assert np.all((mag >= 1e-4) & (mag < 1e16))
    _digits, _exponent, sure = cli_io._shortest_digits(mag)
    assert sure.mean() >= 0.95


def test_tfd_rejects_negative_bins(tmp_path, cosine_csv):
    res = str(tmp_path / "r.json")
    main(["decompose", cosine_csv, "--terms", "2", "--output", res])
    assert main(["tfd", res, "--bins", "-3"]) == EXIT_INPUT


def test_tfd_refuses_bergman_results(tmp_path, cosine_csv, capsys):
    res = str(tmp_path / "r.json")
    main(["decompose", cosine_csv, "--algo", "poafd", "--space", "bergman",
          "--terms", "2", "--output", res])
    capsys.readouterr()
    assert main(["tfd", res]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {res}: components live in the 'bergman' space")
    assert not (tmp_path / "r.tfd.csv").exists()


def test_tfd_raster_of_a_single_frequency(tmp_path):
    # a constant is one term at a = 0 with omega = 0 everywhere: the omega
    # range is empty, so the raster spans [0, 1] and its bins centre at
    # 0.125 .. 0.875, all weight in the first
    sig = _write_real(tmp_path / "c.csv", np.full(64, 0.7))
    res = str(tmp_path / "c.json")
    assert main(["decompose", sig, "--output", res]) == EXIT_OK
    d = load_result(res)[1]
    assert len(d) == 1 and d.params[0] == 0
    atoms = str(tmp_path / "c.tfd.csv")
    assert main(["tfd", res, "--bins", "4", "--output", atoms]) == EXIT_OK
    lines = open(tmp_path / "c.tfd.raster.csv").read().splitlines()
    assert lines[0] == "t,0.125,0.375,0.625,0.875"
    assert len(lines) == 1 + 64
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")[2:]]
        assert float(line.split(",")[1]) == pytest.approx(0.49, rel=1e-14) and cells == [0.0] * 3


def test_tfd_rejects_bad_result_files(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text("{not json")
    assert main(["tfd", str(bad)]) == EXIT_INPUT
    bad.write_bytes(b'{"schema": "\xff"}')  # not UTF-8
    assert main(["tfd", str(bad)]) == EXIT_INPUT
    bad.write_text(json.dumps({"schema": 99}))
    assert main(["tfd", str(bad)]) == EXIT_INPUT
    assert main(["tfd", str(tmp_path / "missing.json")]) == EXIT_INPUT


# ---------------------------------------------------------------- check


def test_check_mono_pass_and_fail(tmp_path, cosine_csv, capsys):
    assert main(["check", cosine_csv, "--mode", "mono"]) == EXIT_OK
    assert "pass" in capsys.readouterr().out
    t = circle_grid(256)
    outer = _write_real(tmp_path / "o.csv", 1.0 - (2.0 / 1.05) * np.cos(t))
    assert main(["check", outer, "--mode", "mono"]) == EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


def test_check_bedrosian(tmp_path, capsys):
    t = circle_grid(256)
    path = _write_real(tmp_path / "am.csv", (1.0 + 0.5 * np.cos(t)) * np.cos(8 * t))
    assert main(["check", path, "--mode", "bedrosian"]) == EXIT_OK
    assert "pass" in capsys.readouterr().out


def test_check_uncertainty(tmp_path, capsys):
    n = 1024
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    s = np.exp(-((t - np.pi) ** 2) / (2 * 0.4**2)) * np.cos(6 * t)
    path = _write_real(tmp_path / "g.csv", s, t=t)
    assert main(["check", path, "--mode", "uncertainty"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pass" in out
    # a signal with edge energy is refused as a degenerate case, one whose
    # energy underflows as a zero signal; both refusals name the file
    bad = _write_real(tmp_path / "flat.csv", np.cos(t), t=t)
    assert main(["check", bad, "--mode", "uncertainty"]) == EXIT_DEGENERATE
    assert capsys.readouterr().err.startswith(f"degenerate: {bad}: ")
    tiny = _write_real(tmp_path / "tiny.csv", 1e-310 * np.cos(t), t=t)
    assert main(["check", tiny, "--mode", "uncertainty"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {tiny}: zero signal\n"


def test_check_uncertainty_refuses_a_grid_it_cannot_read(tmp_path, capsys):
    one = _write_real(tmp_path / "one.csv", [1.0], t=[0.0])
    assert main(["check", one, "--mode", "uncertainty"]) == EXIT_INPUT
    assert "need at least two samples" in capsys.readouterr().err
    t = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5])
    uneven = _write_real(tmp_path / "uneven.csv", np.cos(t), t=t)
    assert main(["check", uneven, "--mode", "uncertainty"]) == EXIT_INPUT
    assert "time column is not uniform" in capsys.readouterr().err


def test_decompose_prints_why_an_unwinding_run_stopped_early(tmp_path, capsys):
    # (1 + e^{it})^8 vanishes to eighth order at t = pi, so its modulus is
    # below the floor on more than 1% of the 256 samples: no term, exit 0
    z = np.exp(1j * circle_grid(256))
    path = _write_complex(tmp_path / "zero8.csv", (1.0 + z) ** 8)
    out = str(tmp_path / "zero8.afd.json")
    assert main(["decompose", path, "--complex", "--algo", "uwa", "--output", out]) == EXIT_OK
    assert "stopped early: modulus below floor on more than 1% of samples" in capsys.readouterr().out
    assert len(load_result(out)[1]) == 0


# ---------------------------------------------------------------- exit codes


def test_exit_codes_for_bad_input(tmp_path):
    missing = str(tmp_path / "nope.csv")
    assert main(["decompose", missing]) == EXIT_INPUT
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["decompose", str(empty)]) == EXIT_INPUT
    zeros = _write_real(tmp_path / "z.csv", np.zeros(64))
    assert main(["decompose", zeros]) == EXIT_INPUT
    t = circle_grid(64).copy()
    t[3] -= 1e-3
    skewed = _write_real(tmp_path / "sk.csv", np.cos(t), t=t)
    assert main(["decompose", skewed]) == EXIT_INPUT


def test_an_output_that_cannot_be_written_is_an_input_error(tmp_path, capsys, cosine_csv):
    # no traceback: exit 2, naming the path and the reason
    res = str(tmp_path / "r.json")
    assert main(["decompose", cosine_csv, "--terms", "2", "--output", res]) == EXIT_OK
    for argv in (["decompose", cosine_csv, "--terms", "2"], ["tfd", res]):
        out = tmp_path / "missing" / "out"
        capsys.readouterr()
        assert main(argv + ["--output", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


@pytest.mark.parametrize("header", ["t,value", "t,re,im"])
def test_decompose_refuses_a_header_without_rows(tmp_path, capsys, header):
    path = tmp_path / "h.csv"
    path.write_text(header + "\n")
    assert main(["decompose", str(path), "--complex"]) == EXIT_INPUT
    assert "no data rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algo, scale, cause",
    [(algo, 1e200, "not a finite double") for algo in cli_io.ALGORITHMS]
    + [(algo, 1e-200, "zero signal") for algo in cli_io.ALGORITHMS],
    ids=[*cli_io.ALGORITHMS, *(f"{algo}-underflow" for algo in cli_io.ALGORITHMS)],
)
def test_decompose_refuses_an_energy_beyond_the_double_range(tmp_path, algo, scale, cause, capsys):
    # a 1e200 signal has a finite peak but an energy that overflows, a
    # 1e-200 signal a nonzero peak but an energy that underflows to 0:
    # exit 2, naming the cause, no result file and no numpy warning
    t = circle_grid(256)
    signal = scale * (1 + 0.6 * np.cos(t)) * np.cos(6 * t + 0.4 * np.sin(3 * t))
    path = _write_real(tmp_path / "huge.csv", signal)
    out = tmp_path / "huge.afd.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompose", path, "--algo", algo, "--output", str(out)]) == EXIT_INPUT
    assert cause in capsys.readouterr().err
    assert not out.exists()


# afd info, byte for byte; its defaults line is read from the decompose parser
INFO_TEXT = """afd 0.1.0
algorithms: core, uwa, uwafd, cyclic, poafd   spaces: hardy, bergman
input: CSV `t,value` or `t,re,im`, t = 2*pi*j/N, N a power of two >= 8
       (check --mode uncertainty: any uniform real-line `t,value`)
results: JSON, schema 2, complex numbers as {re, im}, unwinding inner
         samples as base64 little-endian complex128; schema 1 still read
defaults: --terms 10, --tol 1e-06, --n 2, --space hardy
selection grid: 64 angles x 32 radii, |a| <= 0.999 (0.95 for poafd)
exit codes: 0 ok, 2 input error, 3 check failed, 4 numerical degeneracy
"""


def test_info_runs(capsys):
    assert main(["info"]) == EXIT_OK
    assert capsys.readouterr().out == INFO_TEXT


@pytest.mark.parametrize("command", ["decompose", "tfd", "check", "info"])
def test_main_calls_the_command_bound_at_call_time(monkeypatch, command):
    # the parser is built once, but a command function rebound after that
    # (a wrapper, say) is the one main runs
    seen = []
    monkeypatch.setattr(cli_io, f"cmd_{command}", lambda args: seen.append(args.command) or 7)
    argv = {"decompose": ["decompose", "x.csv"], "tfd": ["tfd", "x.afd.json"],
            "check": ["check", "x.csv", "--mode", "mono"], "info": ["info"]}[command]
    assert main(argv) == 7
    assert seen == [command]


def test_main_maps_any_other_package_error_to_exit_4(monkeypatch, capsys):
    # an AFDError that is neither an input error nor a numerical
    # degeneracy (cyclic_afd's "objective increased", say)
    def fail(_args):
        raise AFDError("objective increased")

    monkeypatch.setattr(cli_io, "cmd_info", fail)
    assert main(["info"]) == EXIT_DEGENERATE
    assert capsys.readouterr().err == "error: objective increased\n"
