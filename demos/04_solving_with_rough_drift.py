"""Solving the backward equation with a distributional drift.

Calibrates the inequality constants once, selects the contraction weight
rho from them, and solves for a drift that is only a C^(-0.3)
distribution.  A short global Picard run measures the contraction ratios,
which sit well under the guaranteed 1/2; a backward march then reaches
the fixed point node by node.  The answer is certified by ||T(v) - v||
and the a posteriori error bound, and passes its weak-form cross-check.
"""

import numpy as np

from besovpde import (
    AffinePeriodicField,
    DriftSpec,
    PDEData,
    SolverConfig,
    SpectralField,
    TimeField,
    TorusGrid,
    besov_norm,
    calibrate,
    contraction_constant,
    dyadic_partition,
    gen_drift,
    select_rho,
    solve_mild,
    to_fourier,
)

grid = TorusGrid(d=1, n=128)
part = dyadic_partition(grid)
T, M = 0.5, 64
mesh = TimeField.uniform_mesh(T, M)

print("calibrating inequality constants at n = 128 ...")
cal = calibrate(grid, beta=0.3, eps=0.1, seed=0, pairs=8, n_fields=8)
print(f"  contraction constant: "
      f"{contraction_constant(cal, SolverConfig(beta=0.3, eps=0.1)):.3f}")

spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=42, amplitude=1.0)
b = gen_drift(spec, grid, mesh, part)
b_norm = max(besov_norm(s, -0.3, part).value for s in b.slices)
cfg0 = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
rho = select_rho(cfg0, b_norm, contraction_constant(cal, cfg0))
print(f"  drift norm {b_norm:.3f} -> selected rho = {rho:.3g}")

x = grid.axis_points()
data = PDEData(
    b=b,
    g=TimeField(mesh, [SpectralField.zero(grid)] * (M + 1)),
    v_T=AffinePeriodicField(np.array([0.5]), to_fourier(np.sin(x), grid)))
cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=rho)
res = solve_mild(data, cfg, part=part)

print(f"\nPicard prefix: {res.iterations} iterations")
print("  weighted contraction ratios:",
      np.array_str(np.asarray(res.ratios), precision=3))
# a static drift on 128 points: the node operator is factored once and
# each node is one matrix-vector product (march "dense", one step a node)
print(f"backward march: {res.march}, {res.march_steps} node solves over "
      f"{M} nodes")
print(f"  certificate ||T(v) - v|| (sup in time) {res.final_increment_sup:.2e}"
      f" <= tol {cfg.tol_fix:g}")
print(f"  a posteriori error bound (rho-weighted) {res.error_bound:.2e}")
print(f"  weak-form residual {res.weak_residual:.2e} "
      f"(quadrature tolerance {res.weak_tolerance:.2e})")
print(f"  terminal slope decays as exp(-lam (T - t)); at t = 0 the slope "
      f"is {res.v[0].slope[0]:.4f}")
