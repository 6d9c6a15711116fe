"""Multiplying a function by a distribution.

The product of a C^0.6 function with a C^(-0.3) distribution is
classically meaningless; the paraproduct estimate gives it a value and a
norm bound because the regularities sum positively.  On the grid the
product is the dealiased pointwise product.  When the regularities do not
sum positively, the grid still computes a number, but the would-be
product bound grows with resolution.
"""

import numpy as np

from besovpde import (
    TorusGrid,
    besov_norm,
    dealiased_product,
    dyadic_partition,
    dyadic_random_field,
    to_fourier,
)

grid = TorusGrid(d=1, n=256)
part = dyadic_partition(grid)
x = grid.axis_points()

print("smooth sanity: sin * cos against 0.5 sin(2x)")
f, g = to_fourier(np.sin(x), grid), to_fourier(np.cos(x), grid)
ref = to_fourier(0.5 * np.sin(2 * x), grid)
print(f"  |product - 0.5 sin(2x)| = "
      f"{(dealiased_product(f, g) - ref).sup_norm():.2e}")


def product_ratio(a, alpha, c, beta, pt):
    """||a c||_{-beta} / (||a||_alpha ||c||_{-beta})."""
    return (besov_norm(dealiased_product(a, c), -beta, pt).value
            / (besov_norm(a, alpha, pt).value
               * besov_norm(c, -beta, pt).value))


print("\nrough pairing within the hypothesis (0.6 - 0.3 > 0):")
ratios = [product_ratio(dyadic_random_field(grid, 0.6, seed=(3, s), part=part),
                        0.6,
                        dyadic_random_field(grid, -0.3, seed=(4, s), part=part),
                        0.3, part)
          for s in range(8)]
print(f"  product-bound ratios: min {min(ratios):.3f}, max {max(ratios):.3f}")

print("\nviolating the hypothesis (0.2 - 0.6 < 0): same-seed pairs share")
print("their phases, so the product piles up at low frequency, and the")
print("would-be product bound grows with resolution:")
for n in (64, 256, 1024):
    gr = TorusGrid(d=1, n=n)
    pt = dyadic_partition(gr)
    a = dyadic_random_field(gr, 0.2, seed=13, part=pt)
    c = dyadic_random_field(gr, -0.6, seed=13, part=pt)
    print(f"  n = {n:5d}: ratio {product_ratio(a, 0.2, c, 0.6, pt):.3f}")
