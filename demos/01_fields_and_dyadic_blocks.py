"""Fields on the torus and their dyadic anatomy.

Builds a rough random field, cuts it into Littlewood-Paley blocks, and
reads its regularity off the block ledger: the norm at the construction
exponent is order one, while probing above it blows up with resolution.
"""

import numpy as np

from besovpde import (
    SpectralField,
    TorusGrid,
    besov_norm,
    dyadic_partition,
    dyadic_random_field,
)

for n in (128, 512):
    grid = TorusGrid(d=1, n=n)
    part = dyadic_partition(grid)
    f = dyadic_random_field(grid, -0.3, seed=7, part=part)

    print(f"\nn = {n}: dyadic partition with blocks j = -1 .. {part.j_max}")
    blocks = f.coeffs * part.windows  # row j + 1 holds Delta_j f
    recon_gap = (SpectralField(grid, blocks.sum(axis=0)) - f).sup_norm()
    print(f"  block sum reconstructs the field to {recon_gap:.2e}")

    for gamma in (-0.3, 0.1):
        bn = besov_norm(f, gamma, part)
        print(f"  norm at regularity {gamma:+.1f}: {bn.value:8.3f}")
    print("  ledger at -0.3:", np.array_str(
        besov_norm(f, -0.3, part).ledger, precision=3))
