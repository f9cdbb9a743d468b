"""Smoke test of the benchmark harness.

Runs from the repository root with `python3 -m pytest perfbench`.  One
op per workload runs traced; every check must pass and the traced counts
must match what the algorithms do by construction.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_checks_and_counts():
    report = _smoke()
    assert report["correct"], report
    greedy = report["workloads"]["greedy"]["counts"]
    # core AFD with 10 terms: one selection and one sift per term
    assert greedy["core_afd.core_afd_decompose.calls"] == 1
    assert greedy["core_afd.maximal_selection.calls"] == 10
    assert greedy["core_afd.sift.calls"] == 10
    assert greedy["signal_core.HardyFunction.__call__.scan_calls"] == 10

    kernel = report["workloads"]["kernel"]["counts"]
    assert kernel["poafd.poafd_select.calls"] == 10
    assert kernel["poafd.gram_schmidt.calls"] == 10
    assert kernel["core_afd.maximal_selection.calls"] == 0
    assert kernel["signal_core.HardyFunction.__call__.polish_calls"] == 0

    nbest = report["workloads"]["nbest"]["counts"]
    n, cycles = 2, 5
    assert nbest["cyclic_afd.coordinate_optimize.calls"] == n * cycles
    # per coordinate move: n-1 sifts for the remainder, n for the objective;
    # plus the objective at init, spread over the cycles
    assert nbest["cyclic_afd.sifts_per_cycle"] == (n * (2 * n - 1) * cycles + n) / cycles

    unwind = report["workloads"]["unwind-io"]["counts"]
    assert unwind["cli_io.main.calls"] == 2
    assert unwind["cli_io.save_result.calls"] == 1
    assert unwind["cli_io.load_result.calls"] == 1
    assert unwind["unwinding.uwa_decompose.calls"] == 1
    assert unwind["core_afd.maximal_selection.calls"] == 0


@pytest.mark.parametrize("name", ["greedy", "unwind-io"])
def test_every_unwinding_op_of_a_round_passes_its_checks(name, tmp_path):
    # the workloads that run unwinding: every op of a round must succeed
    failures = []
    for op in workloads.build(name, 7, tmp_path):
        fails, _ratio = op.check(op.run())
        failures += [f"{op.label}: {f}" for f in fails]
    assert failures == []


def _wrapped_bindings():
    """(module, name) of every afd binding that is a tracer wrapper."""
    return {
        (name, key)
        for name, mod in list(sys.modules.items())
        if name == "afd" or name.startswith("afd.")
        for key, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    }


def test_tracer_patches_every_binding_and_restores_them():
    # afd.cli_io is not imported by the package; install imports it, and a
    # module imported mid-install must not keep a wrapper after uninstall
    importlib.import_module("afd")
    original = importlib.import_module("afd.core_afd").sift
    t = tracer.Tracer()
    t.install()
    try:
        sift = importlib.import_module("afd.core_afd").sift
        assert sift.__wrapped__ is original
        for user in ("afd.cyclic_afd", "afd.unwinding", "afd"):
            assert importlib.import_module(user).sift is sift, user
        hardy = importlib.import_module("afd.signal_core").HardyFunction
        assert hasattr(hardy.__dict__["__call__"], "__wrapped__")
    finally:
        t.uninstall()
    assert _wrapped_bindings() == set()
    assert importlib.import_module("afd.cli_io").uwa_decompose is (
        importlib.import_module("afd.unwinding").uwa_decompose
    )
    assert not hasattr(hardy.__dict__["__call__"], "__wrapped__")


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    produced = {k: unit for k, (_v, unit) in tracer.summarize([], 1, 1).items()}
    produced.update({
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_frac": "frac",
        "trace.top_level_coverage": "frac",
    })
    assert listed == produced
