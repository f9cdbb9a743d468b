#!/usr/bin/env python3
"""One selection rule, two kernel geometries.

The pre-orthogonalized greedy step maximizes the normalized extension
coefficient in the Hardy space (boundary energy) and in the Bergman
space (area energy).  In the Hardy space that is core AFD's objective
on the sifted remainder, so POAFD runs core AFD's sift chain there;
the Bergman space carries its running orthonormal rows.
The script decomposes one coefficient sequence in both spaces, shows
that the Bergman kernel signal collapses in a single term, and prints
the multiplicity-limit ladder: the orthogonal vector built from a
derivative kernel is the limit of ordinary-kernel vectors as the probe
parameter slides into a repeated one.
"""

import numpy as np

from afd import (
    bergman_space,
    hardy_space,
    multiplicity_limit_check,
    poafd_decompose,
)
from afd.poafd import MULTIPLICITY_OFFSETS


def main():
    rng = np.random.default_rng(9)
    m = 127
    coeffs = (rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1))
    coeffs /= np.arange(1, m + 2) ** 1.5

    print("same coefficients, both geometries, five greedy terms:\n")
    for make in (hardy_space, bergman_space):
        space = make(m=m)
        d = poafd_decompose(space, coeffs, max_terms=5, energy_tol=0.0)
        rel = d.residual_energy / d.source_energy
        print(f"  {space.name:>7}: params "
              f"{np.round(np.array(d.params), 3)}")
        print(f"  {'':>7}  relative residuals "
              f"{' '.join(f'{x:.3e}' for x in rel[1:])}\n")

    # the Bergman kernel at 0.7 is itself a one-term object
    k = np.arange(64)
    kernel_sig = (k + 1.0) * 0.7**k
    space = bergman_space(m=63)
    d = poafd_decompose(space, kernel_sig, max_terms=5)
    print(f"bergman kernel signal sum (k+1) 0.7^k z^k: {len(d.components)} term, "
          f"a = {d.params[0]:.9f}, relative residual "
          f"{d.residual_energy[-1] / d.source_energy:.2e}\n")

    print("multiplicity limit ladder, ||B(a+h) - B_limit|| per h:")
    for make, params, a_n in ((hardy_space, (0.4,), 0.4),
                              (bergman_space, (0.3, 0.3), 0.3)):
        space = make(m=63)
        errors = multiplicity_limit_check(space, params, a_n)
        print(f"  {space.name}, repeat at {a_n}:")
        for h, e in zip(MULTIPLICITY_OFFSETS, errors):
            print(f"    h = 2^{int(np.log2(h)):>3}   error {e:.3e}")
        ratios = errors[1:] / errors[:-1]
        print(f"    successive ratios {' '.join(f'{r:.2f}' for r in ratios)} "
              "(-> 0.5 = clean linear contraction)\n")


if __name__ == "__main__":
    main()
