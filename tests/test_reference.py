"""The benchmark's 87 greedy, kernel and nbest ops against their committed record.

make_reference.py rebuilds the ops and wrote tests/data/reference_ops.json.
Where numpy's version, the machine and numpy's CPU features match the
recorded ones, every recorded number must come back bit for bit;
elsewhere within make_reference.BOUNDS, and the inner-sample digests are
not compared.  A change that means to move results regenerates the
record and states the largest move per quantity.
"""

import json

import numpy as np

import make_reference as ref


def _decode(values):
    if values and isinstance(values[0], list):
        return np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in values])
    return np.array([float.fromhex(v) for v in values])


def _bounded_misses(got, want):
    """Quantities of one op outside BOUNDS, as messages."""
    source = float.fromhex(want["trace"][0])
    scales = {"poles": 1.0, "coefficients": np.sqrt(source), "trace": source}
    # a cyclic objective is an energy, its tuples' entries are poles
    kinds = {"poles": "poles", "coefficients": "coefficients", "trace": "trace",
             "objective": "trace", "tuples": "poles"}
    misses = []
    for key, kind in kinds.items():
        if key not in want:
            continue
        g, w = got[key], want[key]
        if key == "tuples":
            g, w = sum(g, []), sum(w, [])
        g, w = _decode(g), _decode(w)
        if g.shape != w.shape:
            misses.append(f"{key}: {g.size} values, recorded {w.size}")
        elif g.size and np.max(np.abs(g - w)) > ref.BOUNDS[kind] * scales[kind]:
            misses.append(f"{key}: off by {np.max(np.abs(g - w)) / scales[kind]:.2e} relative")
    return misses


def test_benchmark_ops_reproduce_the_reference_record():
    record = json.loads(ref.PATH.read_text())
    exact = record["environment"] == ref.environment()
    got = [(label, ref.outputs(run())) for label, run in ref.ops()]
    assert [label for label, _ in got] == [op["label"] for op in record["ops"]]
    misses = []
    for (label, outputs), want in zip(got, record["ops"]):
        if exact:
            misses += [f"{label}: {key} differs" for key in outputs if outputs[key] != want[key]]
        else:
            misses += [f"{label}: {m}" for m in _bounded_misses(outputs, want)]
    assert not misses, ("exact" if exact else "bounded") + " comparison:\n" + "\n".join(misses[:20])
