#!/usr/bin/env python3
"""Recovering a planted two-pole form: greedy picks a mixture, cyclic does not.

The signal is an exact two-term combination over the orthogonal system
generated by (0.5, -0.3+0.2i).  Greedy selection maximizes energy per
step and its first pole lands between the two planted ones, so after
two terms a visible residual remains.  The cyclic coordinate search
minimizes the joint two-pole objective and walks back to the plant.
The script prints the greedy table, the cyclic objective trace per
coordinate step, the recovered parameters, and a few random restarts
to show the warm start is doing real work.
"""

import numpy as np

from afd import (
    cmp_check,
    core_afd_decompose,
    cyclic_afd,
    n_blaschke_objective,
    tm_system_boundary,
    to_hardy,
)
from afd.signal_core import CircularSignal


PLANT = (0.5, -0.3 + 0.2j)
COEFF = (1.0, 0.8 - 0.3j)


def build_signal(m=511, n=4096):
    rows = tm_system_boundary(PLANT, n)
    s = COEFF[0] * rows[0] + COEFF[1] * rows[1]
    f, _ = to_hardy(CircularSignal(s), m=m)
    return f


def main():
    f = build_signal()
    energy = f.energy()
    print(f"planted poles {PLANT}, energy {energy:.6f}\n")

    greedy = core_afd_decompose(f, max_terms=2, energy_tol=0.0)
    print("greedy, two steps:")
    for k, comp in enumerate(greedy.components, start=1):
        print(f"  step {k}: a = {comp.a:+.4f}, residual "
              f"{greedy.residual_energy[k] / energy:.3e}")
    print(f"  neither pole matches the plant; the first is a mixture point\n")

    trace = cyclic_afd(f, 2)
    print(f"cyclic, warm start, {trace.cycles} cycles, "
          f"converged={trace.converged}:")
    d = trace.d / energy
    show = min(len(d), 10)
    print("  objective trace (first steps):",
          " ".join(f"{x:.2e}" for x in d[:show]))
    print("  final objective:", f"{trace.objective / energy:.2e}")
    for a, want in zip(sorted(trace.params, key=lambda v: v.real),
                       sorted(PLANT, key=lambda v: v.real)):
        print(f"  recovered {a:+.6f}   planted {want:+.6f}   "
              f"|err| {abs(a - want):.2e}")
    print(f"  coordinate-wise minimal: {cmp_check(f, trace.params)}\n")

    rng = np.random.default_rng(5)
    inits = [tuple(0.8 * rng.uniform(size=2) *
                   np.exp(2j * np.pi * rng.uniform(size=2)))
             for _ in range(4)]
    runs = sorted((cyclic_afd(f, 2, init=init, max_cycles=40) for init in inits),
                  key=lambda tr: tr.objective)
    print("random restarts, best first:")
    for tr in runs:
        print(f"  objective {tr.objective / energy:.3e}  cycles {tr.cycles:>3}  "
              f"params {np.round(np.array(tr.params), 4)}")
    base = n_blaschke_objective(f, PLANT) / energy
    print(f"\nobjective at the exact plant: {base:.3e} (floor of the search)")


if __name__ == "__main__":
    main()
