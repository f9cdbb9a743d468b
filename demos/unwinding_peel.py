#!/usr/bin/env python3
"""Why unwinding exists: winding that greedy selection cannot shortcut.

The signal here is z^5 times a well-behaved outer function.  Kernel
selection has to climb through the five-fold winding one pole at a
time, while the unwinding recursion factors the whole inner part out
in its first step and then reads the outer remainder off directly.
The script prints both residual traces, the factorization health
numbers (|I| deviation from 1, its |f|-weighted RMS, front loading),
and the hand-checkable first coefficients.
"""

import numpy as np

from afd import (
    HardyFunction,
    core_afd_decompose,
    factorize,
    front_loading_defect,
    to_hardy,
    uwa_decompose,
    uwafd_decompose,
)


def main():
    # f(z) = z^5 (1 + z/2 + z^2/4): all energy rides on a winding carrier
    c = np.zeros(8, dtype=complex)
    c[5], c[6], c[7] = 1.0, 0.5, 0.25
    f = HardyFunction(c)
    energy = f.energy()
    print(f"f = z^5 (1 + z/2 + z^2/4), energy {energy:.4f}\n")

    greedy = core_afd_decompose(f, max_terms=6, energy_tol=0.0)
    uwa = uwa_decompose(f, 3)
    uwafd = uwafd_decompose(f, max_terms=3, energy_tol=0.0)

    width = max(len(uwa.residual_energy), len(greedy.residual_energy))
    print(f"{'n':>3} {'greedy resid':>14} {'uwa resid':>14} {'uwafd resid':>14}")
    for k in range(width):
        def pick(trace):
            return trace[min(k, len(trace) - 1)] / energy
        print(f"{k:>3} {pick(greedy.residual_energy):>14.3e} "
              f"{pick(uwa.residual_energy):>14.3e} "
              f"{pick(uwafd.residual_energy):>14.3e}")

    print("\nuwa coefficients:", np.round(uwa.coefficients, 6))
    print("expected        : [1.0, 0.5, 0.25] (outer read off after one peel)")

    fac = factorize(f.boundary(2048))
    inner_dev = np.abs(np.abs(fac.inner.samples) - 1.0).max()
    cons = fac.consistency
    g, _ = to_hardy(f.boundary(2048))
    front = front_loading_defect(g, fac.outer)
    print(f"\nfactorization: max | |I|-1 | = {inner_dev:.2e}, "
          f"|f|-weighted RMS of |I|-1 = {cons:.2e}")
    print(f"front loading defect {front:+.2e} (<= 0 means the outer factor "
          "concentrates energy in low coefficients)")
    print(f"per-step weighted |I| defect during uwa: "
          f"{[f'{x:.1e}' for x in uwa.meta['factor_consistency']]}")


if __name__ == "__main__":
    main()
