"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The calibration used by the parameter-selection criteria is
computed once per session at the acceptance resolution.
"""

import time

import numpy as np
import pytest

from besovpde import (
    AffinePeriodicField,
    PDEData,
    SolverConfig,
    SpectralField,
    TimeField,
    TorusGrid,
    apply_heat,
    bernstein_path,
    besov_norm,
    bony_product,
    build_phi,
    calibrate,
    continuity_study_phi,
    continuity_study_v,
    contraction_constant,
    dealiased_product,
    dyadic_partition,
    dyadic_random_field,
    evaluate_at,
    gen_drift,
    invert_phi,
    lambda_constant,
    lambda_threshold,
    select_rho,
    solve_mild,
    to_fourier,
    weak_residual,
)
from besovpde.experiments import DriftSpec
from besovpde.solver import identity_component
from oracles import mol_reference_1d

BETA, EPS = 0.3, 0.1


def report(num, name, passed, detail):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} "
          f"- {name}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(d=1, n=128)


@pytest.fixture(scope="module")
def part(grid):
    return dyadic_partition(grid)


@pytest.fixture(scope="module")
def calibration(grid):
    return calibrate(grid, beta=BETA, eps=EPS, seed=0, pairs=16, n_fields=16)


@pytest.fixture(scope="module")
def rough_drift(grid, part):
    spec = DriftSpec(kind="dyadic-random", regularity=BETA, seed=42,
                     amplitude=1.0)
    mesh = TimeField.uniform_mesh(0.5, 64)
    return gen_drift(spec, grid, mesh, part)


@pytest.fixture(scope="module")
def smooth_solve(grid, part):
    """Criterion 2 solve plus its oracle gap (reused by criterion 8)."""
    t0 = time.time()
    T, M, lam = 1.0, 256, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid.axis_points()
    b = TimeField(mesh, [to_fourier(np.sin(x)[None, :], grid)] * (M + 1))
    data = PDEData(b=b,
                   g=TimeField(mesh, [SpectralField.zero(grid)] * (M + 1)),
                   v_T=to_fourier(np.sin(x), grid))
    cfg = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=lam, rho=4.0)
    res = solve_mild(data, cfg, part=part)
    grid_ref = TorusGrid(d=1, n=2 * grid.n)
    x_ref = grid_ref.axis_points()
    steps = 8 * M
    snaps = mol_reference_1d(np.sin(x_ref), lambda t: np.sin(x_ref),
                             lambda t: 0.0 * x_ref, lam, grid_ref.L, T,
                             steps=steps, record_every=steps // M)
    worst = max(
        np.abs(res.v[m].periodic.samples() - snaps[M - m][::2]).max()
        for m in range(M + 1))
    return res, worst, time.time() - t0


@pytest.fixture(scope="module")
def rough_solve(grid, part, rough_drift, calibration):
    """Criterion 3 solve with the selected rho (reused by criterion 8)."""
    t0 = time.time()
    T, M = 0.5, 64
    cfg0 = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=0.0, rho=1.0)
    b_norm = max(besov_norm(s, -BETA, part).value for s in rough_drift.slices)
    rho = select_rho(cfg0, b_norm, contraction_constant(calibration, cfg0))
    cfg = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=0.0, rho=rho)
    x = grid.axis_points()
    data = PDEData(
        b=rough_drift,
        g=TimeField(rough_drift.t_grid,
                    [SpectralField.zero(grid)] * (M + 1)),
        v_T=AffinePeriodicField(np.array([0.5]), to_fourier(np.sin(x), grid)))
    res = solve_mild(data, cfg, part=part)
    return res, data, cfg, time.time() - t0


@pytest.fixture(scope="module")
def threshold_solution(grid, part, rough_drift, calibration):
    """build_phi at the paper's lambda threshold (shared by criteria 4, 5)."""
    cfg0 = SolverConfig(beta=BETA, eps=EPS, T=0.5, M=64, lam=1.0, rho=1.0)
    lam = lambda_threshold(rough_drift, cfg0,
                           lambda_constant(calibration, cfg0), part)
    cfg = SolverConfig(beta=BETA, eps=EPS, T=0.5, M=64, lam=lam, rho=1.0)
    return build_phi(rough_drift, cfg, part=part, check_corollary=False), lam


def test_c01_heat_exactness():
    t0 = time.time()
    grid = TorusGrid(d=1, n=64)
    part = dyadic_partition(grid)
    T, M = 1.0, 64
    mesh = TimeField.uniform_mesh(T, M)
    rng = np.random.default_rng(1)
    v_T = to_fourier(rng.standard_normal(grid.shape), grid)
    data = PDEData(
        b=TimeField(mesh, [SpectralField.zero(grid, (1,))] * (M + 1)),
        g=TimeField(mesh, [SpectralField.zero(grid)] * (M + 1)),
        v_T=v_T)
    cfg = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=0.0, rho=1.0)
    res = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    scale = np.abs(v_T.coeffs).max()
    worst = max(
        np.abs(res.v[m].periodic.coeffs
               - apply_heat(T - t, v_T).coeffs).max() / scale
        for m, t in enumerate(mesh))
    elapsed = time.time() - t0
    report(1, "heat exactness",
           worst <= 1e-12 and elapsed < 1.0,
           f"mode-wise relative error {worst:.2e} (tol 1e-12), "
           f"{elapsed:.2f}s (budget 1s)")


def test_c02_smooth_drift_oracle(smooth_solve):
    res, worst, elapsed = smooth_solve
    report(2, "smooth-drift oracle equivalence",
           worst <= 1e-4 and elapsed < 30.0,
           f"sup gap to method-of-lines reference {worst:.2e} (tol 1e-4), "
           f"{elapsed:.1f}s (budget 30s)")


def test_c03_contraction_certificate(rough_solve):
    res, data, cfg, elapsed = rough_solve
    worst_ratio = max(res.ratios) if res.ratios else 0.0
    report(3, "contraction certificate",
           worst_ratio <= 0.55 and res.iterations <= 40 and elapsed < 120.0,
           f"max weighted ratio {worst_ratio:.3f} (tol 0.55), "
           f"{res.iterations} iterations (budget 40), rho={res.rho:.3g}, "
           f"{elapsed:.1f}s (budget 120s)")


def test_c04_gradient_bound(threshold_solution):
    phi_result, lam = threshold_solution
    ok = phi_result.grad_sup <= 0.5 + 1e-3
    report(4, "gradient bound 1/2",
           ok,
           f"sup |grad u| = {phi_result.grad_sup:.3e} <= 0.5 + 1e-3 at "
           f"lambda threshold {lam:.3g}")


def test_c05_phi_inversion(grid, threshold_solution):
    phi_result, lam = threshold_solution
    phi = phi_result.phi
    rng = np.random.default_rng(5)
    probes = rng.uniform(0.0, grid.L, size=(64, 1))
    t_probe = float(phi.t_grid[32])
    slice_probe = phi.slices[32]
    worst_fwd = 0.0
    for y in probes:
        x = invert_phi(phi, t_probe, y, tol=1e-12, max_steps=12)
        fwd = slice_probe.slope @ x + evaluate_at(slice_probe.periodic, x)
        worst_fwd = max(worst_fwd, float(np.abs(fwd - y).max()))
    inv = [invert_phi(phi, t_probe, y, tol=1e-12, max_steps=12)[0]
           for y in probes]
    lip = max(abs(inv[i] - inv[j]) / abs(probes[i, 0] - probes[j, 0])
              for i in range(len(inv)) for j in range(i + 1, len(inv))
              if abs(probes[i, 0] - probes[j, 0]) > 1e-9)
    report(5, "phi inversion",
           worst_fwd <= 1e-10 and lip <= 2.0,
           f"Newton converged in <= 12 steps at all 64 probes, "
           f"max |phi(psi(y)) - y| = {worst_fwd:.2e} (tol 1e-10), "
           f"Lipschitz(psi) = {lip:.3f} (tol 2.0)")


def test_c06_schauder_exponent_recovery():
    from besovpde import schauder_fit
    t0 = time.time()
    grid = TorusGrid(d=1, n=256)
    part = dyadic_partition(grid)
    t_samples = np.geomspace(1e-3, 0.2, 16)
    details = []
    ok = True
    for gamma, theta in ((-0.3, 0.25), (0.2, 0.5)):
        fields = [dyadic_random_field(grid, gamma, seed=s, part=part)
                  for s in np.random.SeedSequence((6, int(10 * theta))).spawn(32)]
        rep = schauder_fit(gamma, theta, fields, t_samples, part)
        gap = abs(rep.fitted_exponent + theta)
        ok = ok and gap <= 0.05
        details.append(f"(gamma={gamma}, theta={theta}): slope "
                       f"{rep.fitted_exponent:.3f} (target {-theta}, "
                       f"band 0.05)")
    elapsed = time.time() - t0
    report(6, "Schauder exponent recovery",
           ok and elapsed < 60.0,
           "; ".join(details) + f"; {elapsed:.1f}s (budget 60s)")


def test_c07_bony_product(grid, part):
    x = grid.axis_points()
    f = to_fourier(np.sin(3 * x) + 0.3 * np.cos(7 * x), grid)
    g = to_fourier(np.cos(2 * x) - 0.5 * np.sin(5 * x), grid)
    smooth_gap = (bony_product(f, 0.6, g, 0.3, part).total
                  - dealiased_product(f, g)).sup_norm()
    consts = []
    for s in range(5):
        worst = 0.0
        for pair in range(16):
            a = dyadic_random_field(grid, 0.6, seed=(7, s, pair, 0), part=part)
            c = dyadic_random_field(grid, -0.3, seed=(7, s, pair, 1),
                                    part=part)
            total = bony_product(a, 0.6, c, 0.3, part).total
            worst = max(worst, besov_norm(total, -0.3, part).value
                        / (besov_norm(a, 0.6, part).value
                           * besov_norm(c, -0.3, part).value))
        consts.append(worst)
    spread = (max(consts) - min(consts)) / float(np.mean(consts))
    report(7, "Bony product",
           smooth_gap <= 1e-10 and spread <= 0.20,
           f"smooth-field gap to dealiased product {smooth_gap:.2e} "
           f"(tol 1e-10); constant spread over 5 seeds {100 * spread:.1f}% "
           f"(tol 20%)")


def test_c08_weak_mild_equivalence(grid, part, smooth_solve, rough_solve):
    res2 = smooth_solve[0]
    res3, data3, cfg3 = rough_solve[:3]
    ok_solves = (res2.weak_residual <= 10.0 * res2.weak_tolerance
                 and res3.weak_residual <= 10.0 * res3.weak_tolerance)
    x = grid.axis_points()
    bad = TimeField(res3.v.t_grid, [
        AffinePeriodicField(s.slope,
                            s.periodic + to_fourier(0.1 * np.sin(x), grid))
        for s in res3.v.slices])
    rep_bad = weak_residual(bad, data3, cfg3)
    amplified = rep_bad.residual >= 100.0 * max(res3.weak_residual, 1e-300)
    report(8, "weak/mild equivalence",
           ok_solves and amplified,
           f"converged-solve residuals {res2.weak_residual:.2e} "
           f"(tol {10 * res2.weak_tolerance:.2e}) and "
           f"{res3.weak_residual:.2e} (tol {10 * res3.weak_tolerance:.2e}); "
           f"perturbed residual {rep_bad.residual:.2e} >= 100x")


def test_c09_continuity_cascades(calibration):
    t0 = time.time()
    grid = TorusGrid(d=1, n=64)
    part = dyadic_partition(grid)
    T, M = 0.5, 48
    mesh = TimeField.uniform_mesh(T, M)
    spec = DriftSpec(kind="dyadic-random", regularity=BETA, seed=9,
                     amplitude=1.0)
    b = gen_drift(spec, grid, mesh, part)
    eps_list = [2.0 ** (-k) for k in range(2, 9)]
    x = grid.axis_points()
    v_T = AffinePeriodicField(np.array([0.4]), to_fourier(np.sin(x), grid))
    g0 = TimeField(mesh, [SpectralField.zero(grid)] * (M + 1))
    cfg_v = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=0.0, rho=60.0,
                         tol_fix=1e-11)
    study_v = continuity_study_v(b, g0, v_T, cfg_v, eps_list, part=part)
    cfg_u = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=1.0, rho=1.0,
                         tol_fix=1e-12)
    study_phi = continuity_study_phi(
        b, cfg_u, eps_list, c_cal=lambda_constant(calibration, cfg_u),
        part=part)
    curves_ok = (study_v.verdicts["v_decreasing"]
                 and study_v.verdicts["grad_decreasing"]
                 and study_phi.verdicts["u_decreasing"]
                 and study_phi.verdicts["phi_decreasing"]
                 and study_phi.verdicts["psi_decreasing"])
    floors_ok = (study_v.verdicts["final_at_floor"]
                 and study_phi.verdicts["final_at_floor"])
    factor_ok = study_phi.verdicts["psi_factor_two"]
    elapsed = time.time() - t0
    report(9, "continuity cascades",
           curves_ok and floors_ok and factor_ok,
           f"v/grad-v/u/phi/psi ladders decreasing={curves_ok}, final at "
           f"solver floor={floors_ok}, psi <= 2u pointwise={factor_ok}; "
           f"{elapsed:.0f}s")


def test_c10_bernstein_path():
    grid = TorusGrid(d=1, n=64)
    base = to_fourier(np.sin(grid.axis_points()), grid)
    base = base * (1.0 / base.sup_norm())
    ts = np.linspace(0.0, 1.0, 17)
    worst_gap = 0.0
    for degree in (4, 16, 64):
        interp = bernstein_path(lambda t: (t * t) * base, degree, ts)
        err = max((f - (t * t) * base).sup_norm()
                  for f, t in zip(interp, ts))
        worst_gap = max(worst_gap, abs(err - 1.0 / (4.0 * degree)))
    report(10, "Bernstein path interpolation",
           worst_gap <= 1e-12,
           f"sup-error matches 1/(4n) within {worst_gap:.2e} (tol 1e-12) "
           f"for n in (4, 16, 64)")


def test_c11_identity_solves_drift_equation(grid, part, rough_drift):
    T, M = 0.5, 64
    mesh = rough_drift.t_grid
    x = grid.axis_points()
    smooth = TimeField(mesh, [to_fourier(np.sin(x)[None, :], grid)] * (M + 1))
    worst_weak = 0.0
    worst_fixed = 0.0
    for b in (smooth, rough_drift):
        data = PDEData(b=b,
                       g=TimeField(mesh, [s.component(0) for s in b.slices]),
                       v_T=identity_component(grid, 0))
        cfg = SolverConfig(beta=BETA, eps=EPS, T=T, M=M, lam=0.0, rho=60.0)
        v_id = TimeField(mesh, [identity_component(grid, 0)] * (M + 1))
        rep = weak_residual(v_id, data, cfg)
        worst_weak = max(worst_weak, rep.residual)
        res = solve_mild(data, cfg, part=part, compute_weak_residual=False)
        worst_fixed = max(worst_fixed, max(
            res.v[m].periodic.sup_norm() + abs(res.v[m].slope[0] - 1.0)
            for m in range(M + 1)))
        tol = rep.tolerance
    report(11, "identity solves the drift equation",
           worst_weak <= tol and worst_fixed <= 1e-9,
           f"weak residual of the identity {worst_weak:.2e} "
           f"(quadrature tolerance {tol:.2e}); solver returns the identity "
           f"to {worst_fixed:.2e}")
