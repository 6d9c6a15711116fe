"""The same machinery in two dimensions.

Solves the backward equation for a two-component smooth drift on a 2-d
torus, checks the heat case mode-wise, then builds the transform from the
two component solutions and inverts it at a probe grid.
"""

import numpy as np

from besovpde import (
    PDEData,
    SolverConfig,
    SpectralField,
    TimeField,
    TorusGrid,
    apply_heat,
    build_phi,
    dyadic_partition,
    evaluate_at,
    invert_phi,
    to_fourier,
)

grid = TorusGrid(d=2, n=32)
part = dyadic_partition(grid)
T, M = 0.5, 24
mesh = TimeField.uniform_mesh(T, M)
xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")

print("heat case, d = 2: solver output against the exact multiplier")
v_T = to_fourier(np.sin(xs[0]) * np.cos(xs[1]), grid)
data = PDEData(b=TimeField(mesh, [SpectralField.zero(grid, (2,))] * (M + 1)),
               g=TimeField(mesh, [SpectralField.zero(grid)] * (M + 1)),
               v_T=v_T)
cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
from besovpde import solve_mild

res = solve_mild(data, cfg, part=part, compute_weak_residual=False)
gap = max((res.v[m].periodic - apply_heat(T - t, v_T)).sup_norm()
          for m, t in enumerate(mesh))
print(f"  max slice gap: {gap:.2e}")

print("\ntwo-component drift, transform and inverse:")
b_samples = np.stack([0.6 * np.sin(xs[0]), 0.6 * np.cos(xs[1])])
b = TimeField(mesh, [to_fourier(b_samples, grid)] * (M + 1))
cfg_u = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=8.0, rho=10.0)
phi_res = build_phi(b, cfg_u, part=part)
print(f"  sup |grad u| = {phi_res.grad_sup:.3e} (certified <= 1/2)")
tol = max(r.weak_tolerance for r in phi_res.u_results)
print(f"  weak residual of the transform's equation: "
      f"{phi_res.phi_equation_residual:.2e} (tolerance {tol:.2e})")

node = M // 2
t_mid = float(phi_res.phi.t_grid[node])
s = phi_res.phi.slices[node]
rng = np.random.default_rng(8)
worst = 0.0
for y in rng.uniform(0.0, grid.L, size=(8, 2)):
    x = invert_phi(phi_res.phi, t_mid, y, tol=1e-12)
    fwd = s.slope @ x + evaluate_at(s.periodic, x)
    worst = max(worst, float(np.abs(fwd - y).max()))
print(f"  max |phi(psi(y)) - y| over 8 probes: {worst:.2e}")
