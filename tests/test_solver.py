import math
import re

import numpy as np
import pytest

from besovpde import grid as grid_mod
from besovpde import paraproduct as paraproduct_mod
from besovpde import solver
from besovpde import (
    AffinePeriodicField,
    PDEData,
    PicardError,
    SolverConfig,
    SolverError,
    SpectralField,
    TimeField,
    TorusGrid,
    apply_heat,
    apply_T,
    besov_norm,
    build_phi,
    dyadic_partition,
    dyadic_random_field,
    evaluate_at,
    invert_phi,
    lambda_threshold,
    mild_residual,
    rlambda_bound_check,
    select_rho,
    solve_mild,
    solve_u,
    to_fourier,
    weak_residual,
)
from besovpde.lp import besov_norms
from besovpde.solver import (
    NewtonError,
    _quad_tolerance_from_nodes,
    identity_component,
    path_besov_norm,
)
from besovpde.calibration import calibrate_convolution, pair_key
from oracles import (
    bisect_inverse,
    bony_drift_pairing,
    complex_padded_samples,
    convolution_constant_by_apply_T,
    gamma_by_quadrature,
    manufactured_problem,
    mol_reference_1d,
    pack,
    per_node_apply_T,
    per_node_drift_terms,
    per_node_weak_residual,
    per_slice_c1plus_norms,
    per_slice_dc_norms,
    picard_solve,
)


def zero_vector(grid):
    return SpectralField.zero(grid, (grid.d,))


def zero_scalar(grid):
    return SpectralField.zero(grid)


def make_data(grid, mesh, b=None, g=None, v_T=None):
    M = len(mesh) - 1
    if b is None:
        b = TimeField(mesh, [zero_vector(grid)] * (M + 1))
    if g is None:
        g = TimeField(mesh, [zero_scalar(grid)] * (M + 1))
    if v_T is None:
        v_T = zero_scalar(grid)
    return PDEData(b=b, g=g, v_T=v_T)


def coefficient_gap(res, ref):
    """Largest periodic-coefficient gap between two solves, relative to
    the reference's largest coefficient; their slopes must agree exactly."""
    p, slopes = pack(res.v)
    p_ref, slopes_ref = pack(ref.v)
    assert np.array_equal(slopes, slopes_ref)
    return float(np.abs(p - p_ref).max() / np.abs(p_ref).max())


def static_drift(grid, mesh, samples):
    return TimeField(mesh, [to_fourier(samples, grid)] * len(mesh))


def nan_in_slice(tf, m=2):
    """A copy of the path with one NaN coefficient in slice m."""
    slices = list(tf.slices)
    s = slices[m]
    periodic = s.periodic if isinstance(s, AffinePeriodicField) else s
    coeffs = periodic.coeffs.copy()
    coeffs[(...,) + (3,) * periodic.grid.d] = np.nan
    poisoned = SpectralField(periodic.grid, coeffs)
    if isinstance(s, AffinePeriodicField):
        poisoned = AffinePeriodicField(s.slope, poisoned)
    slices[m] = poisoned
    return TimeField(tf.t_grid, slices)


# ---------------------------------------------------------------------------
# configuration and parameter selection


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(beta=0.6, eps=0.1)
    with pytest.raises(SolverError):
        SolverConfig(beta=0.3, eps=-0.1)
    with pytest.raises(SolverError):
        SolverConfig(beta=0.3, eps=0.1, alpha=0.8)  # >= 1 - beta
    with pytest.raises(SolverError):
        SolverConfig(beta=0.3, eps=0.1, lam=-1.0)
    cfg = SolverConfig(beta=0.3, eps=0.1)
    assert abs(cfg.alpha - 0.35) < 1e-15
    assert abs(cfg.theta - 0.75) < 1e-15


def test_select_rho_floor():
    cfg = SolverConfig(beta=0.3, eps=0.1, lam=0.0)
    assert select_rho(cfg, 0.0, 1.0) == 1.0


def test_select_rho_closed_form():
    # c = 1, lam + ||b|| = 2, alpha + beta = 1/2 -> rho = 4^4 = 256
    cfg = SolverConfig(beta=0.25, eps=0.1, alpha=0.25, lam=1.0)
    rho = select_rho(cfg, 1.0, 1.0)
    assert abs(rho - 256.0) < 1e-9
    # the defining inequality holds with equality
    assert abs(1.0 * 2.0 * rho ** ((0.5 - 1.0) / 2.0) - 0.5) < 1e-12


def test_select_rho_power_law_scaling():
    cfg = SolverConfig(beta=0.3, eps=0.1, lam=0.0)
    r1 = select_rho(cfg, 3.0, 2.0)
    r2 = select_rho(cfg, 6.0, 2.0)
    expected = 2.0 ** (2.0 / (1.0 - cfg.alpha - cfg.beta))
    assert abs(r2 / r1 - expected) < 1e-9


def test_lambda_threshold_zero_drift(grid64, part64):
    mesh = TimeField.uniform_mesh(1.0, 4)
    b = TimeField(mesh, [zero_vector(grid64)] * 5)
    cfg = SolverConfig(beta=0.3, eps=0.1, lam=1.0)
    assert lambda_threshold(b, cfg, 1.0, part64) == 0.0


def test_lambda_threshold_scaling(grid64, part64):
    mesh = TimeField.uniform_mesh(1.0, 4)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    b2 = TimeField(mesh, [2.0 * s for s in b.slices])
    cfg = SolverConfig(beta=0.3, eps=0.1, lam=1.0)
    l1 = lambda_threshold(b, cfg, 1.5, part64)
    l2 = lambda_threshold(b2, cfg, 1.5, part64)
    assert abs(l2 / l1 - 2.0 ** (1.0 / (1.0 - cfg.theta))) < 1e-9


def test_drift_norm_with_a_nan_slice_raises(grid64, part64):
    # NaN in slice 2 of 5: the builtin max() dropped it and returned the
    # clean norm; the path norm is NaN and parameter selection stops
    mesh = TimeField.uniform_mesh(1.0, 4)
    b0 = dyadic_random_field(grid64, -0.3, seed=7, comp_shape=(1,),
                             part=part64)
    b = nan_in_slice(TimeField(mesh, [b0] * 5))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=1.0, M=4, rho="auto")
    with pytest.raises(SolverError, match="drift norm .* not finite"):
        lambda_threshold(b, cfg, c_cal=1.0, part=part64)
    calibration = {"convolution": 1.0,
                   "bony": {pair_key(cfg.alpha, cfg.beta): 1.0}}
    with pytest.raises(SolverError, match="drift norm .* not finite"):
        solve_mild(make_data(grid64, mesh, b=b), cfg, part=part64,
                   calibration=calibration, compute_weak_residual=False)


def test_lambda_threshold_gamma_value(grid64, part64):
    # beta = 0.3, eps = 0.1 -> theta = 0.75; with c = 1 and ||b|| = 1 the
    # threshold is (3 Gamma(1/4))^4, Gamma by independent quadrature
    mesh = TimeField.uniform_mesh(1.0, 4)
    ones = to_fourier(np.ones((1,) + grid64.shape), grid64)
    b = TimeField(mesh, [ones] * 5)
    cfg = SolverConfig(beta=0.3, eps=0.1, lam=1.0)
    norm = besov_norm(ones, -0.2, part64).value
    lam = lambda_threshold(b, cfg, 1.0, part64)
    expected = (3.0 * gamma_by_quadrature(0.25) * norm) ** 4.0
    assert abs(lam - expected) < 1e-6 * expected


# ---------------------------------------------------------------------------
# the solution operator


def test_apply_T_heat_only_ignores_iterate(grid64, part64, rng):
    T, M = 1.0, 16
    mesh = TimeField.uniform_mesh(T, M)
    v_T = to_fourier(rng.standard_normal(grid64.shape), grid64)
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    v_a = TimeField(mesh, [AffinePeriodicField(np.zeros(1),
                                               zero_scalar(grid64))] * (M + 1))
    rnd = dyadic_random_field(grid64, 0.5, seed=4, part=part64)
    v_b = TimeField(mesh, [AffinePeriodicField(np.zeros(1), rnd)] * (M + 1))
    out_a = apply_T(v_a, data, cfg, part64)
    out_b = apply_T(v_b, data, cfg, part64)
    for m, t in enumerate(mesh):
        ref = apply_heat(T - t, v_T)
        assert (out_a[m].periodic - ref).sup_norm() < 1e-13
        assert (out_b[m].periodic - ref).sup_norm() < 1e-13


def test_apply_T_at_zero_is_data_term(grid64, part64):
    # T(0) = P_(T-t) v_T - int P g: check against exact mode integrals
    T, M = 1.0, 32
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    g_field = to_fourier(np.cos(x), grid64)
    v_T = to_fourier(np.sin(x), grid64)
    data = make_data(grid64, mesh,
                     g=TimeField(mesh, [g_field] * (M + 1)), v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    v0 = TimeField(mesh, [AffinePeriodicField(np.zeros(1),
                                              zero_scalar(grid64))] * (M + 1))
    out = apply_T(v0, data, cfg, part64)
    k2 = grid64.k_squared()
    for m in (0, M // 2, M):
        tail = T - mesh[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            integral = np.where(k2 > 0,
                                (1.0 - np.exp(-0.5 * k2 * tail)) / (0.5 * k2),
                                tail)
        ref = (np.exp(-0.5 * k2 * tail) * v_T.coeffs
               - integral * g_field.coeffs)
        assert np.abs(out[m].periodic.coeffs - ref).max() < 1e-13


def test_solver_heat_exactness(grid64, part64, rng):
    T, M = 1.0, 64
    mesh = TimeField.uniform_mesh(T, M)
    v_T = to_fourier(rng.standard_normal(grid64.shape), grid64)
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    scale = np.abs(v_T.coeffs).max()
    for m, t in enumerate(mesh):
        ref = apply_heat(T - t, v_T)
        gap = np.abs(res.v[m].periodic.coeffs - ref.coeffs).max()
        assert gap < 1e-12 * scale


def test_solver_matches_per_mode_ode(grid64, part64):
    # b = 0, lam > 0: the mild fixed point tracks exp(-(lam+k^2/2)(T-t))
    T, M, lam = 1.0, 256, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    v_T = to_fourier(np.sin(x) + 0.5 * np.cos(3 * x), grid64)
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    k2 = grid64.k_squared()
    worst = 0.0
    for m, t in enumerate(mesh):
        ref = np.exp(-(lam + 0.5 * k2) * (T - t)) * v_T.coeffs
        worst = max(worst, np.abs(res.v[m].periodic.coeffs - ref).max())
    assert worst < 1e-4  # quadrature-order agreement with the exact ODE


def test_apply_T_fixes_method_of_lines_solution(grid64, part64):
    # the operator applied at an independent reference solution returns it
    # to quadrature order
    T, M, lam = 1.0, 64, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    data = make_data(grid64, mesh, b=b, v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=4.0)
    steps = 16 * M
    snaps = mol_reference_1d(np.sin(x), lambda t: np.sin(x),
                             lambda t: 0.0 * x, lam, grid64.L, T,
                             steps=steps, record_every=steps // M)
    v_ref = TimeField(mesh, [
        AffinePeriodicField(np.zeros(1), to_fourier(snaps[M - m], grid64))
        for m in range(M + 1)])
    image = apply_T(v_ref, data, cfg, part64)
    worst = max((image[m].periodic - v_ref[m].periodic).sup_norm()
                for m in range(M + 1))
    assert worst < 5.0 * (T / M) ** 2


def test_solver_smooth_drift_vs_method_of_lines(part128, grid128):
    T, M, lam = 1.0, 128, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid128.axis_points()
    b = static_drift(grid128, mesh, np.sin(x)[None, :])
    v_T = to_fourier(np.sin(x), grid128)
    data = make_data(grid128, mesh, b=b, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=4.0)
    res = solve_mild(data, cfg, part=part128, compute_weak_residual=False)

    n_ref = 2 * grid128.n
    grid_ref = TorusGrid(d=1, n=n_ref)
    x_ref = grid_ref.axis_points()
    steps = 8 * M
    snaps = mol_reference_1d(np.sin(x_ref), lambda t: np.sin(x_ref),
                             lambda t: 0.0 * x_ref, lam, grid_ref.L, T,
                             steps=steps, record_every=steps // M)
    worst = 0.0
    for m, t in enumerate(mesh):
        ref = snaps[M - m][::2]  # snapshot at tau = T - t, common points
        worst = max(worst, np.abs(res.v[m].periodic.samples() - ref).max())
    assert worst < 1e-4


def test_contraction_ratios_with_selected_rho(grid128, part128):
    T, M = 0.5, 64
    mesh = TimeField.uniform_mesh(T, M)
    b0 = dyadic_random_field(grid128, -0.3, seed=42, comp_shape=(1,),
                             part=part128)
    b0 = b0 * (1.0 / besov_norm(b0, -0.3, part128).value)
    b = TimeField(mesh, [b0] * (M + 1))
    v_T = AffinePeriodicField(np.array([0.5]),
                              to_fourier(np.sin(grid128.axis_points()),
                                         grid128))
    cfg0 = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    rho = select_rho(cfg0, 1.0, 2.0)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=rho)
    data = make_data(grid128, mesh, b=b, v_T=v_T)
    # the contraction of a full Picard solve, from the global loop alone
    full = picard_solve(data, cfg, part=part128, compute_weak_residual=False)
    assert full.iterations <= 40
    assert full.ratios and max(full.ratios) <= 0.55
    res = solve_mild(data, cfg, part=part128, compute_weak_residual=False)
    assert res.ratios == full.ratios[:len(res.ratios)]
    assert coefficient_gap(res, full) <= 1e-10


def test_uniqueness_probe(grid64, part64):
    T, M = 0.5, 32
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    v_T = to_fourier(np.sin(x), grid64)
    data = make_data(grid64, mesh, b=b, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=8.0)
    res_zero = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    zero = TimeField(mesh, [AffinePeriodicField(np.zeros(1),
                                                zero_scalar(grid64))] * (M + 1))
    t0 = apply_T(zero, data, cfg, part64)
    res_t0 = solve_mild(data, cfg, part=part64, v0=t0,
                        compute_weak_residual=False)
    worst = max((res_zero.v[m].periodic - res_t0.v[m].periodic).sup_norm()
                for m in range(M + 1))
    assert worst <= 2.0 * cfg.tol_fix


def test_affine_slope_closed_form(grid64, part64):
    T, M, lam = 1.0, 32, 2.0
    mesh = TimeField.uniform_mesh(T, M)
    v_T = AffinePeriodicField(np.array([0.7]),
                              to_fourier(np.sin(grid64.axis_points()), grid64))
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    for m, t in enumerate(mesh):
        expected = 0.7 * math.exp(-lam * (T - t))
        assert abs(res.v[m].slope[0] - expected) < 1e-12


def test_identity_is_fixed_point_for_drift_source(grid64, part64):
    # the drift equation with source b_i and identity terminal data keeps
    # the identity exactly, for smooth and for rough drift
    T, M = 1.0, 32
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    for b0 in (to_fourier(np.sin(x)[None, :], grid64),
               dyadic_random_field(grid64, -0.3, seed=3, comp_shape=(1,),
                                   part=part64)):
        b = TimeField(mesh, [b0] * (M + 1))
        g = TimeField(mesh, [b0.component(0)] * (M + 1))
        data = PDEData(b=b, g=g, v_T=identity_component(grid64, 0))
        cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=50.0)
        res = solve_mild(data, cfg, part=part64)
        dev = max(res.v[m].periodic.sup_norm()
                  + abs(res.v[m].slope[0] - 1.0) for m in range(M + 1))
        assert dev < 10.0 * cfg.tol_fix
        assert res.weak_residual <= 10.0 * res.weak_tolerance


def test_solve_u_zero_drift(grid64, part64):
    mesh = TimeField.uniform_mesh(1.0, 16)
    b = TimeField(mesh, [zero_vector(grid64)] * 17)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=1.0, M=16, lam=1.0, rho=1.0)
    res = solve_u(b, 0, cfg, part=part64, compute_weak_residual=False)
    assert max(s.periodic.sup_norm() for s in res.v.slices) < 1e-13


def test_solve_u_needs_positive_lambda(grid64, part64):
    mesh = TimeField.uniform_mesh(1.0, 16)
    b = TimeField(mesh, [zero_vector(grid64)] * 17)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=1.0, M=16, lam=0.0, rho=1.0)
    with pytest.raises(SolverError):
        solve_u(b, 0, cfg, part=part64)


@pytest.mark.parametrize("lam", [2.0, 5e4])
def test_solve_u_constant_drift_closed_form(grid64, part64, lam):
    # constant drift: u is spatially constant, u(t) = (c_i/lam)(1-e^(-lam(T-t)));
    # the lam-in-kernel form integrates the constant source exactly
    T, M = 1.0, 32
    mesh = TimeField.uniform_mesh(T, M)
    c = 0.8
    b = static_drift(grid64, mesh, np.full((1,) + grid64.shape, c))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0,
                       lambda_kernel="always")
    res = solve_u(b, 0, cfg, part=part64, compute_weak_residual=False)
    for m, t in enumerate(mesh):
        expected = (c / lam) * (1.0 - math.exp(-lam * (T - t)))
        vals = res.v[m].periodic.samples()
        assert np.abs(vals - expected).max() < 1e-12 * max(abs(expected), c / lam)


def test_solve_u_constant_drift_explicit_form_consistent(grid64, part64):
    # the explicit-lam quadrature agrees with the closed form to O(dt^2)
    T, M, lam, c = 1.0, 32, 2.0, 0.8
    mesh = TimeField.uniform_mesh(T, M)
    b = static_drift(grid64, mesh, np.full((1,) + grid64.shape, c))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0,
                       lambda_kernel="never")
    res = solve_u(b, 0, cfg, part=part64, compute_weak_residual=False)
    worst = max(
        np.abs(res.v[m].periodic.samples()
               - (c / lam) * (1.0 - math.exp(-lam * (T - t)))).max()
        for m, t in enumerate(mesh))
    assert worst < 10.0 * (T / M) ** 2


def test_gradient_bound_at_threshold_lambda(grid128, part128):
    T, M = 0.5, 64
    mesh = TimeField.uniform_mesh(T, M)
    b0 = dyadic_random_field(grid128, -0.3, seed=21, comp_shape=(1,),
                             part=part128)
    b = TimeField(mesh, [b0] * (M + 1))
    cfg0 = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=1.0, rho=1.0)
    lam = lambda_threshold(b, cfg0, 2.0, part128)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0)
    result = build_phi(b, cfg, part=part128)
    assert result.grad_sup <= 0.5 + 1e-3


def test_integral_form_identity(grid64, part64):
    # iterate with the explicit-lam operator, check the lam-kernel form
    T, M, lam = 1.0, 64, 2.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, (0.5 * np.sin(x))[None, :])
    g = TimeField(mesh, [(-1.0) * s.component(0) for s in b.slices])
    data = PDEData(b=b, g=g, v_T=zero_scalar(grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=4.0,
                       lambda_kernel="never")
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert not res.used_lambda_kernel
    self_res = mild_residual(res.v, data, cfg, part=part64,
                             lambda_kernel=False)
    cross_res = mild_residual(res.v, data, cfg, part=part64,
                              lambda_kernel=True)
    assert self_res <= 5.0 * cfg.tol_fix
    # the two quadratures of the same mild solution agree to O(dt^2)
    assert cross_res <= 10.0 * max(res.quad_tolerance, 1e-8)


def test_mild_residual_is_nan_on_a_poisoned_slice(grid64, part64):
    T, M = 1.0, 16
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    data = make_data(grid64, mesh, b=b, v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=8.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert mild_residual(res.v, data, cfg, part=part64) <= 5.0 * cfg.tol_fix
    slices = list(res.v.slices)
    coeffs = slices[5].periodic.coeffs.copy()
    coeffs[3] = np.nan
    slices[5] = AffinePeriodicField(slices[5].slope,
                                    SpectralField(grid64, coeffs))
    poisoned = TimeField(mesh, slices)
    assert not np.isfinite(mild_residual(poisoned, data, cfg, part=part64))


def test_boundedness_of_u(grid64, part64):
    T, M, lam = 1.0, 32, 3.0
    mesh = TimeField.uniform_mesh(T, M)
    b0 = dyadic_random_field(grid64, -0.3, seed=31, comp_shape=(1,),
                             part=part64)
    b = TimeField(mesh, [b0] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=30.0)
    res = solve_u(b, 0, cfg, part=part64, compute_weak_residual=False)
    sup_u = max(s.periodic.sup_norm() for s in res.v.slices)
    assert np.isfinite(sup_u)
    data = PDEData(b=b, g=TimeField(mesh, [(-1.0) * s.component(0)
                                           for s in b.slices]),
                   v_T=zero_scalar(grid64))
    report = rlambda_bound_check(data, cfg, c_cal=2.0, result=res,
                                 part=part64)
    assert report["holds"]


def test_picard_error_carries_ratio_history(grid64, part64):
    T, M = 1.0, 16
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, (3.0 * np.sin(x))[None, :])
    data = make_data(grid64, mesh, b=b, v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0,
                       max_iter=2)
    with pytest.raises(PicardError) as err:
        solve_mild(data, cfg, part=part64)
    assert len(err.value.ratios) >= 1


def _divergent_data(grid, modulated):
    # a 1e4 sin(x) drift, times 0.75 + 0.25 cos(2 pi t / T) when modulated
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    x = grid.axis_points()
    b0 = to_fourier((1e4 * np.sin(x))[None, :], grid)
    scale = [0.75 + 0.25 * math.cos(2.0 * math.pi * t / T) if modulated
             else 1.0 for t in mesh]
    b = TimeField(mesh, [s * b0 for s in scale])
    data = make_data(grid, mesh, b=b, v_T=to_fourier(np.sin(x), grid))
    return data, SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)


def test_divergent_iteration_fails_fast(grid64, part64):
    # contraction ratios ~1e3 from the start stop nothing in the prefix:
    # it measures its four ratios, long before the increments overflow
    # (iteration 50 of 60), and the dense march then misses its
    # certificate
    data, cfg = _divergent_data(grid64, modulated=False)
    with pytest.raises(PicardError, match=r"the marched solution misses its "
                       r"certificate: \|\|T\(v\) - v\|\| = .* above tol_fix "
                       r"1\.000e-10 after the dense march") as err:
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert len(err.value.ratios) == solver.CERTIFICATE_RATIOS
    assert all(r > 100.0 for r in err.value.ratios)


def test_divergent_modulated_drift_names_the_node(grid64, part64):
    # the same drift, modulated in time, takes the iterative march, whose
    # first node's local steps grow
    data, cfg = _divergent_data(grid64, modulated=True)
    with pytest.raises(PicardError, match=r"node 15 \(t = 0\.46875\) "
                       r"diverges: local step 2 moved it by .* above 1024 "
                       "times the rounding floor") as err:
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert len(err.value.ratios) == solver.CERTIFICATE_RATIOS


def test_non_finite_increment_fails_fast(grid64, part64):
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    data = make_data(grid64, mesh, b=static_drift(grid64, mesh,
                                                  np.sin(x)[None, :]))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    v0 = nan_in_slice(TimeField(mesh, [zero_scalar(grid64)] * (M + 1)))
    with pytest.raises(PicardError, match="non-finite increment at "
                       "iteration 1"):
        solve_mild(data, cfg, part=part64, v0=v0, compute_weak_residual=False)


def _affine_rough_1d(grid, part, M=16):
    mesh = TimeField.uniform_mesh(0.5, M)
    x = grid.axis_points()
    b0 = dyadic_random_field(grid, -0.3, seed=41, comp_shape=(1,), part=part)
    v_T = AffinePeriodicField(np.array([0.5]), to_fourier(np.sin(x), grid))
    return make_data(grid, mesh, b=TimeField(mesh, [b0] * (M + 1)), v_T=v_T)


def _bounded_modulated_2d(M=8):
    grid = TorusGrid(d=2, n=16)
    part = dyadic_partition(grid)
    mesh = TimeField.uniform_mesh(0.5, M)
    xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")
    b0 = dyadic_random_field(grid, -0.3, seed=43, comp_shape=(2,), part=part)
    b = TimeField(mesh, [(1.0 + 0.5 * math.sin(3.0 * t)) * b0 for t in mesh])
    v_T = to_fourier(np.sin(xs[0]) * np.cos(xs[1]), grid)
    return make_data(grid, mesh, b=b, v_T=v_T), part


@pytest.mark.parametrize("case", ["affine-1d", "bounded-2d"])
def test_stacked_increment_norms_match_per_slice_loop(grid64, part64,
                                                      monkeypatch, case):
    # the same solve with the increment norms (solver.dc_norms and
    # solver.c1plus_norms) taken one slice at a time; the arithmetic is the
    # same, so everything must agree bit for bit
    if case == "affine-1d":
        data, part = _affine_rough_1d(grid64, part64), part64
    else:
        data, part = _bounded_modulated_2d()
    M = data.b.M
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=M, lam=0.0, rho=8.0)
    fast = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    assert fast.norm_kind == ("dc" if case == "affine-1d" else "c1plus")
    monkeypatch.setattr(solver, "dc_norms", per_slice_dc_norms)
    monkeypatch.setattr(solver, "c1plus_norms", per_slice_c1plus_norms)
    slow = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    assert fast.iterations == slow.iterations
    assert fast.ratios_raw == slow.ratios_raw
    assert fast.final_increment_sup == slow.final_increment_sup
    for a, b in zip(fast.v.slices, slow.v.slices):
        assert np.array_equal(a.periodic.coeffs, b.periodic.coeffs)
        assert np.array_equal(a.slope, b.slope)


def _random_path(data, seed):
    """An affine path on the data's mesh with rough periodic parts."""
    grid = data.grid
    part = dyadic_partition(grid)
    rng = np.random.default_rng(seed)
    slices = [AffinePeriodicField(rng.standard_normal(grid.d),
                                  dyadic_random_field(grid, 0.6, (seed, m),
                                                      part=part))
              for m in range(len(data.b.t_grid))]
    return TimeField(data.b.t_grid, slices)


@pytest.mark.parametrize("case, lam, kernel", [
    ("affine-1d", 0.0, "auto"),
    ("affine-1d", 2.0, "never"),
    ("affine-1d", 2.0, "always"),
    ("bounded-2d", 0.0, "auto"),
    ("bounded-2d", 2.0, "never"),
    ("bounded-2d", 40.0, "always"),
    ("warm-start-1d", 0.0, "auto"),
])
def test_march_matches_the_picard_oracle(grid64, part64, case, lam, kernel):
    # the Picard prefix plus backward march against the global Picard loop
    # it replaced: affine 1D data under a static drift, bounded 2D data
    # under a modulated one, lam in the integrand and in the kernel, and a
    # warm start; tolerance 1e-10 relative on the periodic coefficients
    if case == "bounded-2d":
        data, part = _bounded_modulated_2d()
    else:
        data, part = _affine_rough_1d(grid64, part64), part64
    v0 = _random_path(data, 3) if case.startswith("warm") else None
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=lam,
                       rho=8.0, lambda_kernel=kernel)
    fast = solve_mild(data, cfg, part=part, v0=v0)
    full = picard_solve(data, cfg, part=part, v0=v0)
    assert fast.march_steps > 0
    assert fast.iterations < full.iterations
    assert len(fast.ratios) == solver.CERTIFICATE_RATIOS
    assert fast.ratios_raw == full.ratios_raw[:len(fast.ratios_raw)]
    assert coefficient_gap(fast, full) <= 1e-10
    # the certificate is measured on the returned answer
    assert fast.final_increment_sup == mild_increment(fast, data, cfg, part)
    assert fast.final_increment_sup <= cfg.tol_fix
    assert fast.final_increment <= fast.error_bound < math.inf
    assert fast.weak_residual <= 10.0 * fast.weak_tolerance
    again = solve_mild(data, cfg, part=part, v0=v0)
    for a, b in zip(fast.v.slices, again.v.slices):
        assert np.array_equal(a.periodic.coeffs, b.periodic.coeffs)
    assert (again.march_steps, again.final_increment_sup,
            again.error_bound) == (fast.march_steps,
                                   fast.final_increment_sup, fast.error_bound)


def mild_increment(res, data, cfg, part):
    """max over the nodes of ||T(v) - v|| in the solve's increment norm."""
    p, slopes = pack(res.v)
    q, _ = pack(apply_T(res.v, data, cfg, part))
    if res.norm_kind == "dc":
        norms = solver.dc_norms(np.zeros_like(slopes), q - p, cfg.alpha, part)
    else:
        norms = solver.c1plus_norms(q - p, cfg.alpha, part)
    return float(norms.max())


def test_solve_converging_in_the_prefix_is_the_picard_oracle(grid64, part64):
    # a weak drift: Picard converges before it has CERTIFICATE_RATIOS
    # useful ratios, and its iterate is returned unchanged, bit for bit
    data = _affine_rough_1d(grid64, part64)
    b = TimeField(data.b.t_grid, [1e-3 * s for s in data.b.slices])
    data = make_data(grid64, data.b.t_grid, b=b, v_T=data.v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    fast = solve_mild(data, cfg, part=part64)
    full = picard_solve(data, cfg, part=part64)
    assert (fast.march, fast.march_steps) == ("none", 0)
    for name in ("iterations", "ratios", "ratios_raw", "final_increment",
                 "final_increment_log", "final_increment_sup",
                 "quad_tolerance", "weak_residual", "weak_tolerance"):
        assert getattr(fast, name) == getattr(full, name), name
    for a, b in zip(fast.v.slices, full.v.slices):
        assert np.array_equal(a.periodic.coeffs, b.periodic.coeffs)
        assert np.array_equal(a.slope, b.slope)
    assert fast.error_bound == (fast.final_increment
                                / (1.0 - max(fast.ratios)))


def test_march_node_that_does_not_settle_is_named(grid64, part64,
                                                  monkeypatch):
    # five Picard iterations give the four certificate ratios; five local
    # steps are too few for the last interval's node.  The gate at 0 sends
    # this static drift to the iterative march, as a larger grid would be
    monkeypatch.setattr(solver, "DENSE_MARCH_MAX_UNKNOWNS", 0)
    data = _affine_rough_1d(grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0, max_iter=5)
    with pytest.raises(PicardError, match=r"node 15 \(t = 0\.46875\) did "
                       "not settle in 5 local steps") as err:
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert len(err.value.ratios) == 4


def test_march_non_finite_node_is_named(grid64, part64, monkeypatch):
    # a pairing that goes non-finite in the iterative march (its one-row
    # calls) stops it at the first node it reaches; the gate at 0 sends
    # this static drift there
    monkeypatch.setattr(solver, "DENSE_MARCH_MAX_UNKNOWNS", 0)
    data = _affine_rough_1d(grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    pairing = solver.drift_terms

    def poisoned(w, b, grid, b_samples=None):
        out = pairing(w, b, grid, b_samples=b_samples)
        return out if len(w) > 1 else out * np.nan

    monkeypatch.setattr(solver, "drift_terms", poisoned)
    with pytest.raises(PicardError, match=r"non-finite iterate at node 15 "
                       r"\(t = 0\.46875\) in local step 1"):
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)


def _static_case(case, grid64, part64):
    """Data with a drift constant in time, for the dense march.

    affine-1d: affine terminal data, no source; source-1d: the same drift
    with periodic terminal data and the source -b_0 (as ``solve_u``);
    bounded-2d: a 2D grid of 256 points, periodic terminal data and a
    sine source.
    """
    if case == "bounded-2d":
        grid = TorusGrid(d=2, n=16)
        part = dyadic_partition(grid)
        mesh = TimeField.uniform_mesh(0.5, 8)
        xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")
        b0 = dyadic_random_field(grid, -0.3, seed=43, comp_shape=(2,),
                                 part=part)
        g = to_fourier(np.sin(xs[1]), grid)
        return make_data(grid, mesh, b=TimeField(mesh, [b0] * len(mesh)),
                         g=TimeField(mesh, [g] * len(mesh)),
                         v_T=to_fourier(np.sin(xs[0]) * np.cos(xs[1]),
                                        grid)), part
    data = _affine_rough_1d(grid64, part64)
    if case == "source-1d":
        mesh = data.b.t_grid
        g = TimeField.from_stacks(mesh, grid64, -data.b.coeffs[:, 0])
        data = make_data(grid64, mesh, b=data.b, g=g,
                         v_T=data.v_T.periodic)
    return data, part64


DENSE_CASES = [
    ("affine-1d", 0.0, "auto", False),
    ("affine-1d", 2.0, "never", False),
    ("affine-1d", 2.0, "always", False),
    ("source-1d", 2.0, "never", False),
    ("source-1d", 40.0, "always", False),
    ("bounded-2d", 0.0, "auto", False),
    ("bounded-2d", 2.0, "never", False),
    ("bounded-2d", 40.0, "always", False),
    ("affine-1d", 0.0, "auto", True),
]


@pytest.mark.parametrize("case, lam, kernel",
                         [c[:3] for c in DENSE_CASES if not c[3]])
def test_dense_march_matches_the_iterative_march(grid64, part64, case, lam,
                                                 kernel):
    # the two marches on one operator: tolerance 1e-12 relative on the
    # periodic coefficients; the dense march takes one step a node
    data, part = _static_case(case, grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=lam,
                       rho=8.0, lambda_kernel=kernel)
    op = solver._operator(data, cfg, cfg.uses_lambda_kernel())
    assert op.b_samples is not None
    dense, nodes = solver._march_dense(op, [])
    iterative, steps = solver._march_iterative(op, cfg.max_iter, [])
    assert nodes == cfg.M < steps
    gap = np.abs(dense - iterative).max() / np.abs(iterative).max()
    assert gap <= 1e-12
    assert np.array_equal(dense[-1], iterative[-1])


@pytest.mark.parametrize("case, lam, kernel, warm", DENSE_CASES)
def test_dense_march_solve_matches_the_picard_oracle(grid64, part64, case,
                                                     lam, kernel, warm):
    # a whole solve through the dense march against the global Picard loop:
    # tolerance 1e-10 relative; the certificate holds on the returned
    # answer, and a repeated solve is bit-identical
    data, part = _static_case(case, grid64, part64)
    v0 = _random_path(data, 3) if warm else None
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=lam,
                       rho=8.0, lambda_kernel=kernel)
    fast = solve_mild(data, cfg, part=part, v0=v0)
    full = picard_solve(data, cfg, part=part, v0=v0)
    assert (fast.march, fast.march_steps) == ("dense", cfg.M)
    assert fast.ratios_raw == full.ratios_raw[:len(fast.ratios_raw)]
    assert coefficient_gap(fast, full) <= 1e-10
    assert fast.final_increment_sup == mild_increment(fast, data, cfg, part)
    assert fast.final_increment_sup <= cfg.tol_fix
    assert fast.weak_residual <= 10.0 * fast.weak_tolerance
    again = solve_mild(data, cfg, part=part, v0=v0)
    assert np.array_equal(again.v.coeffs, fast.v.coeffs)
    assert np.array_equal(again.v.slopes, fast.v.slopes)
    assert (again.march, again.final_increment_sup, again.error_bound,
            again.weak_residual) == (fast.march, fast.final_increment_sup,
                                     fast.error_bound, fast.weak_residual)


def _pairing_without_drift_samples(w, b, grid, b_samples=None):
    """``drift_terms`` sampling b chunk by chunk in every call: the pairing
    as the solver made it before the drift was sampled once per solve."""
    return paraproduct_mod.drift_terms(w, b, grid)


@pytest.mark.parametrize("case, march", [
    ("solve-1d-shaped", "dense"),
    ("above-gate-1d", "iterative"),
    ("modulated-2d", "iterative"),
])
def test_march_gate_and_drift_sampled_once(grid128, part128, monkeypatch,
                                           case, march):
    # a static drift on at most DENSE_MARCH_MAX_UNKNOWNS points takes the
    # dense march, a larger grid or a drift that varies in time marches by
    # local steps.  A static drift is sampled once per solve, whichever
    # march it takes; a modulated one once per node in the march.  The
    # static samples, shared by every pairing, give the bytes of the
    # pairing that samples b chunk by chunk: the same Picard prefix, march
    # and certificate, bit for bit
    if case == "solve-1d-shaped":
        data, part = _affine_rough_1d(grid128, part128, M=64), part128
    elif case == "above-gate-1d":
        grid = TorusGrid(d=1, n=2 * solver.DENSE_MARCH_MAX_UNKNOWNS)
        part = dyadic_partition(grid)
        data = _affine_rough_1d(grid, part, M=8)
    else:
        data, part = _bounded_modulated_2d()
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    sampled = []
    sample = solver.drift_samples

    def spy(b, grid):
        sampled.append(len(b))
        return sample(b, grid)

    monkeypatch.setattr(solver, "drift_samples", spy)
    fast = solve_mild(data, cfg, part=part)
    assert fast.march == fast.manifest()["march"] == march
    if march == "dense":
        assert fast.march_steps == cfg.M
    else:
        assert fast.march_steps > cfg.M
    assert sampled == ([1] * (cfg.M + 1) if case == "modulated-2d"
                       else [1])
    monkeypatch.setattr(solver, "drift_terms",
                        _pairing_without_drift_samples)
    slow = solve_mild(data, cfg, part=part)
    assert fast.ratios_raw == slow.ratios_raw
    for name in ("march", "iterations", "march_steps", "final_increment_sup",
                 "error_bound", "quad_tolerance", "weak_residual"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert np.array_equal(fast.v.coeffs, slow.v.coeffs)


def test_diverging_march_node_is_named():
    # lam dt = 6.25 in the integrand: every node's local steps diverge, and
    # the first node stops on its second step, where the increment grows,
    # not as settled (the dense march solves this problem to 2e-5)
    grid = TorusGrid(d=1, n=128)
    data, exact = manufactured_problem(grid, 16, 200.0)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=16, lam=200.0, rho=8.0,
                       lambda_kernel="never")
    op = solver._operator(data, cfg, False)
    with pytest.raises(PicardError, match=r"node 15 \(t = 0\.46875\) "
                       r"diverges: local step 2 moved it by .* above 1024 "
                       "times the rounding floor") as err:
        solver._march_iterative(op, cfg.max_iter, ["history"])
    assert err.value.ratios == ["history"]
    dense, _ = solver._march_dense(op, [])
    assert grid_mod.sup_norms(dense - exact, grid).max() < 1e-4


def test_singular_node_operator_is_named(grid64, part64, monkeypatch):
    # the factor of I - W_left D fails: a PicardError naming the first node
    # the dense march would solve and the cause, not a LinAlgError
    data = _affine_rough_1d(grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver.np.linalg, "solve", singular)
    with pytest.raises(PicardError, match=re.escape(
            "the node operator I - W_left D is singular (Singular matrix); "
            "the dense march stops at node 15 (t = 0.46875)")) as err:
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert len(err.value.ratios) == 4


def test_dense_march_non_finite_node_is_named(grid64, part64, monkeypatch):
    # node 10's forcing goes non-finite: the march stops naming node 10,
    # the first node it reaches that is not finite
    data = _affine_rough_1d(grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    size = grid64.n
    solve = np.linalg.solve

    def poisoned(a, rhs):
        out = solve(a, rhs)
        out[:, size + 10] = np.nan
        return out

    monkeypatch.setattr(solver.np.linalg, "solve", poisoned)
    with pytest.raises(PicardError, match=re.escape(
            "non-finite iterate at node 10 (t = 0.3125) in the dense "
            "march")):
        solve_mild(data, cfg, part=part64, compute_weak_residual=False)


@pytest.mark.parametrize("kernel", [False, True])
@pytest.mark.parametrize("case", ["affine-1d", "bounded-2d"])
def test_apply_T_matches_per_node_operator(grid64, part64, case, kernel):
    # the coefficient-stack operator against the per-node form it replaced,
    # on a rough iterate, with the lam-term in the integrand and in the
    # kernel; tolerance: exact equality
    if case == "affine-1d":
        data, part = _affine_rough_1d(grid64, part64), part64
    else:
        data, part = _bounded_modulated_2d()
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=2.0,
                       rho=8.0)
    v = _random_path(data, 5)
    fast = apply_T(v, data, cfg, part, lambda_kernel=kernel)
    slow = per_node_apply_T(v, data, cfg, lambda_kernel=kernel)
    for a, b in zip(fast.slices, slow.slices):
        assert np.array_equal(a.periodic.coeffs, b.periodic.coeffs)
        assert np.array_equal(a.slope, b.slope)


@pytest.mark.parametrize("case", ["affine-1d", "bounded-2d"])
def test_solve_with_per_node_drift_pairing_is_identical(grid64, part64,
                                                        monkeypatch, case):
    # a whole solve with the stacked pairing replaced by the per-node loop:
    # the same iterations, ratios and coefficients, bit for bit
    if case == "affine-1d":
        data, part = _affine_rough_1d(grid64, part64), part64
    else:
        data, part = _bounded_modulated_2d()
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    fast = solve_mild(data, cfg, part=part)
    monkeypatch.setattr(solver, "drift_terms", per_node_drift_terms)
    slow = solve_mild(data, cfg, part=part)
    assert fast.iterations == slow.iterations
    assert fast.ratios_raw == slow.ratios_raw
    assert fast.quad_tolerance == slow.quad_tolerance
    assert fast.weak_residual == slow.weak_residual
    for a, b in zip(fast.v.slices, slow.v.slices):
        assert np.array_equal(a.periodic.coeffs, b.periodic.coeffs)
        assert np.array_equal(a.slope, b.slope)


@pytest.mark.parametrize("case", ["affine-1d", "bounded-2d", "random-2d"])
def test_weak_residual_matches_per_node_loop(grid64, part64, case):
    # stacked pairings against the node-by-node loop they replaced.  Each
    # node's modes are summed in the same order, but the loop forms
    # slope . b through a BLAS product: tolerance 1e-12 relative
    if case == "affine-1d":
        data, part = _affine_rough_1d(grid64, part64), part64
    else:
        data, part = _bounded_modulated_2d()
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=1.0,
                       rho=8.0)
    if case == "random-2d":   # rough slopes and periodic parts, no solve
        v = _random_path(data, 9)
    else:
        v = solve_mild(data, cfg, part=part, compute_weak_residual=False).v
    rep = weak_residual(v, data, cfg)
    residual, tolerance, per_test, affine = per_node_weak_residual(v, data,
                                                                   cfg)
    assert rep.residual == pytest.approx(residual, rel=1e-12)
    assert rep.tolerance == pytest.approx(tolerance, rel=1e-12)
    assert np.allclose(rep.per_test, per_test, rtol=1e-12, atol=0.0)
    assert rep.affine_residual == affine


@pytest.mark.parametrize("d, n, M", [(1, 64, 16), (2, 16, 8)])
def test_closed_form_convolution_matches_apply_T(d, n, M):
    # calibrate's closed-form time integral against the same constant
    # measured on apply_T's image of zero; tolerance 1e-14 relative
    grid = TorusGrid(d=d, n=n)
    fast = calibrate_convolution(grid, 0.35, 0.3, (3, 19), T=1.0, M=M,
                                 n_fields=2)
    slow = convolution_constant_by_apply_T(grid, 0.35, 0.3, (3, 19), T=1.0,
                                           M=M, n_fields=2)
    assert fast == pytest.approx(slow, rel=1e-14)


def test_calibration_does_not_advance_a_seed_sequence():
    # spawning from the SeedSequence passed in advanced it: the same call
    # twice read 0.894 and then 0.782
    grid = TorusGrid(d=1, n=64)
    seed = np.random.SeedSequence((3, 19))
    first = calibrate_convolution(grid, 0.35, 0.3, seed, M=16, n_fields=2)
    again = calibrate_convolution(grid, 0.35, 0.3, seed, M=16, n_fields=2)
    fresh = calibrate_convolution(grid, 0.35, 0.3, (3, 19), M=16, n_fields=2)
    assert first == again == fresh


def test_solve_with_bony_sum_pairing_agrees(grid64, part64, monkeypatch):
    # a whole solve with the one-product drift pairing against the same
    # solve through the Bony sum it replaced; tolerance 10 * tol_fix
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b0 = dyadic_random_field(grid64, -0.3, seed=41, comp_shape=(1,),
                             part=part64)
    v_T = AffinePeriodicField(np.array([0.5]), to_fourier(np.sin(x), grid64))
    data = make_data(grid64, mesh, b=TimeField(mesh, [b0] * (M + 1)), v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=8.0)
    fast = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    def bony_rows(w, b, grid, b_samples=None):
        return np.array([bony_drift_pairing(
            SpectralField(grid, wi), SpectralField(grid, bi),
            cfg.alpha, cfg.beta, part64).coeffs for wi, bi in zip(w, b)])

    monkeypatch.setattr(solver, "drift_terms", bony_rows)
    slow = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    gap = max(max((a.periodic - b.periodic).sup_norm(),
                  float(np.abs(a.slope - b.slope).max()))
              for a, b in zip(fast.v.slices, slow.v.slices))
    assert gap <= 10.0 * cfg.tol_fix


@pytest.mark.parametrize("case", ["affine-1d", "bounded-2d"])
def test_solve_with_complex_padded_samples_agrees(grid64, part64,
                                                  monkeypatch, case):
    # the same solve with every sampling (norms, drift pairing, the dense
    # march's samples and the quadrature tolerance) through the complex
    # transform the real kernel replaced: identical iteration count,
    # coefficients within 10 * tol_fix
    if case == "affine-1d":
        data, part = _affine_rough_1d(grid64, part64), part64
    else:
        data, part = _bounded_modulated_2d()
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=data.b.M, lam=0.0,
                       rho=8.0)
    fast = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    assert fast.norm_kind == ("dc" if case == "affine-1d" else "c1plus")
    calls = []

    def oracle(*args):
        calls.append(1)
        return complex_padded_samples(*args)

    monkeypatch.setattr(grid_mod, "_padded_samples", oracle)
    monkeypatch.setattr(paraproduct_mod, "_padded_samples", oracle)
    monkeypatch.setattr(solver, "_padded_samples", oracle)
    slow = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    assert calls
    assert fast.iterations == slow.iterations
    gap = max(max(float(np.abs(a.periodic.coeffs - b.periodic.coeffs).max()),
                  float(np.abs(a.slope - b.slope).max()))
              for a, b in zip(fast.v.slices, slow.v.slices))
    assert gap <= 10.0 * cfg.tol_fix


def test_static_drift_norm_measures_each_slice_object_once(grid64, part64,
                                                          monkeypatch):
    # a static path shares one field object across its nodes: measured
    # once, with the same value as the full stack, bit for bit
    mesh = TimeField.uniform_mesh(1.0, 8)
    b0 = dyadic_random_field(grid64, -0.3, seed=7, comp_shape=(1,),
                             part=part64)
    b1 = 0.5 * b0
    b = TimeField(mesh, [b0] * 4 + [b1] * 5)
    full = np.array([s.coeffs for s in b.slices])
    expected = np.max(besov_norms(full, -0.3, part64))
    rows = []

    def spy(coeffs, *args):
        rows.append(len(coeffs))
        return besov_norms(coeffs, *args)

    monkeypatch.setattr(solver, "besov_norms", spy)
    norm = path_besov_norm(b, -0.3, part64, "drift")
    assert rows == [2]
    assert np.array_equal(norm, expected)


def test_path_norm_measures_equal_valued_nodes_once(grid64, part64,
                                                    monkeypatch):
    # repeated nodes are found by value: nine distinct objects with equal
    # coefficients are measured as one row
    mesh = TimeField.uniform_mesh(1.0, 8)
    b0 = dyadic_random_field(grid64, -0.3, seed=7, comp_shape=(1,),
                             part=part64)
    b = TimeField(mesh, [SpectralField(grid64, b0.coeffs.copy())
                         for _ in mesh])
    expected = besov_norms(b0.coeffs[None], -0.3, part64)[0]
    rows = []

    def spy(coeffs, *args):
        rows.append(len(coeffs))
        return besov_norms(coeffs, *args)

    monkeypatch.setattr(solver, "besov_norms", spy)
    norm = path_besov_norm(b, -0.3, part64, "drift")
    assert rows == [1]
    assert norm == expected


def test_solve_builds_no_per_node_field_objects(grid128, part128,
                                                monkeypatch):
    # a solve-1d-shaped problem (n = 128, M = 64, static rough drift, affine
    # terminal data) runs on the paths' stacks: the Picard prefix, the
    # march, the certificate and the weak residual construct O(1)
    # AffinePeriodicField objects, not one or more per node
    data = _affine_rough_1d(grid128, part128, M=64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=64, lam=0.0, rho=8.0)
    built = []
    post_init = AffinePeriodicField.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(AffinePeriodicField, "__post_init__", spy)
    res = solve_mild(data, cfg, part=part128)
    assert res.march_steps > 0
    assert len(built) <= 2


@pytest.mark.parametrize("shape", [(17, 64), (9, 16, 16)])
def test_quad_tolerance_batched_transform_is_exact(rng, shape):
    # the padded-sample kernel on the whole stack against a per-row complex
    # inverse transform.  The integrands are coefficients of real fields,
    # so the stack is Hermitian; the kernel reads its half spectrum, and
    # the two agree to rounding (within 1e-14 relative)
    grid = TorusGrid(d=len(shape) - 1, n=shape[-1])
    axes = tuple(range(1, len(shape)))
    q = np.fft.fftn(rng.standard_normal(shape), axes=axes) / grid.n**grid.d
    d2 = q[2:] - 2.0 * q[1:-1] + q[:-2]
    sup = max(float(np.abs(np.fft.ifftn(row) * grid.n**grid.d).max())
              for row in d2)
    expected = max(1.0 * sup / 12.0, 10.0 * 1e-10)
    got = _quad_tolerance_from_nodes(q, grid, 1.0, 1e-10)
    assert abs(got - expected) <= 1e-14 * expected


# ---------------------------------------------------------------------------
# phi and its inverse


def test_build_phi_zero_drift_is_identity(grid64, part64):
    mesh = TimeField.uniform_mesh(1.0, 16)
    b = TimeField(mesh, [zero_vector(grid64)] * 17)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=1.0, M=16, lam=1.0, rho=1.0)
    res = build_phi(b, cfg, part=part64)
    assert res.grad_sup < 1e-12
    assert np.array_equal(res.phi[0].slope, np.eye(1))
    assert res.phi[0].periodic.sup_norm() < 1e-13
    y = np.array([1.234])
    x = invert_phi(res.phi, 0.3, y)
    assert np.abs(x - y).max() < 1e-12


def test_build_phi_smooth_drift(grid64, part64):
    T, M = 1.0, 48
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, (0.8 * np.sin(x))[None, :])
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=6.0, rho=20.0)
    res = build_phi(b, cfg, part=part64)
    assert res.grad_sup <= 0.5
    # forward composition on a probe set, at a mesh node time
    rng = np.random.default_rng(12)
    node = 20
    t_probe = float(res.phi.t_grid[node])
    worst = 0.0
    for y in rng.uniform(0.0, grid64.L, size=(16, 1)):
        xs = invert_phi(res.phi, t_probe, y, tol=1e-12)
        s = res.phi.slices[node]
        fwd = s.slope @ xs + evaluate_at(s.periodic, xs)
        worst = max(worst, float(np.abs(fwd - y).max()))
    assert worst <= 1e-10


def test_build_phi_gradient_sup_keeps_a_nan_slice(grid64, part64,
                                                  monkeypatch):
    # max(0.0, nan) is 0.0: a NaN slice of u used to pass the certificate
    mesh = TimeField.uniform_mesh(1.0, 4)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, (0.5 * np.sin(x))[None, :])
    cfg = SolverConfig(beta=0.3, eps=0.1, T=1.0, M=4, lam=8.0, rho=10.0)
    clean = build_phi(b, cfg, part=part64)
    assert 0.0 < clean.grad_sup <= 0.5
    solve_u = solver.solve_u

    def poisoned_solve_u(*args, **kwargs):
        res = solve_u(*args, **kwargs)
        res.v = nan_in_slice(res.v)
        return res

    monkeypatch.setattr(solver, "solve_u", poisoned_solve_u)
    res = build_phi(b, cfg, part=part64)
    assert math.isnan(res.grad_sup)


def test_invert_phi_toy_vs_bisection(grid256):
    # phi(x) = x + 0.5 sin(x): inside the gradient certificate
    x = grid256.axis_points()
    u = to_fourier((0.5 * np.sin(x))[None, :], grid256)
    slices = [AffinePeriodicField(np.eye(1), u)] * 5
    phi = TimeField(TimeField.uniform_mesh(1.0, 4), slices)
    y = 0.5
    got = invert_phi(phi, 0.5, np.array([y]), tol=1e-13)
    ref = bisect_inverse(lambda t: t + 0.5 * math.sin(t), y, -4.0, 4.0,
                         tol=1e-14)
    assert abs(got[0] - ref) < 1e-11


def test_invert_phi_reports_newton_failure(grid64):
    # gradient far beyond the certificate: Newton may cycle; the error
    # carries the step count and final residual
    x = grid64.axis_points()
    u = to_fourier((3.0 * np.sin(x))[None, :], grid64)
    slices = [AffinePeriodicField(np.eye(1), u)] * 3
    phi = TimeField(TimeField.uniform_mesh(1.0, 2), slices)
    with pytest.raises(NewtonError) as err:
        invert_phi(phi, 0.5, np.array([0.4]), tol=1e-15, max_steps=3)
    assert err.value.steps == 3


def test_psi_lipschitz_certificate(grid64, part64):
    T, M = 1.0, 32
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, (0.8 * np.sin(x))[None, :])
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=6.0, rho=20.0)
    res = build_phi(b, cfg, part=part64)
    assert res.grad_sup <= 0.5
    ys = np.linspace(0.0, grid64.L, 9, endpoint=False)
    xs = [invert_phi(res.phi, 0.5, np.array([y]))[0] for y in ys]
    lip = max(abs(xs[i] - xs[j]) / abs(ys[i] - ys[j])
              for i in range(9) for j in range(i + 1, 9))
    assert lip <= 2.0


# ---------------------------------------------------------------------------
# weak form


def test_weak_residual_heat_case(grid64, part64, rng):
    T, M = 1.0, 64
    mesh = TimeField.uniform_mesh(T, M)
    v_T = to_fourier(np.sin(grid64.axis_points()), grid64)
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    slices = [AffinePeriodicField(np.zeros(1), apply_heat(T - t, v_T))
              for t in mesh]
    rep = weak_residual(TimeField(mesh, slices), data, cfg)
    assert rep.residual <= rep.tolerance
    assert rep.affine_residual < 1e-14


def test_weak_residual_flags_perturbation(grid64, part64):
    T, M = 1.0, 32
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    data = make_data(grid64, mesh, b=b, v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=8.0)
    res = solve_mild(data, cfg, part=part64)
    assert res.weak_residual <= 10.0 * res.weak_tolerance
    bad = TimeField(mesh, [
        AffinePeriodicField(s.slope,
                            s.periodic + to_fourier(0.1 * np.sin(x), grid64))
        for s in res.v.slices])
    rep = weak_residual(bad, data, cfg)
    assert rep.residual >= 1e-3
    assert rep.residual >= 100.0 * res.weak_residual


def test_rlambda_bound_trivial_and_monotone(grid64, part64):
    T, M, lam = 1.0, 32, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    v_T = to_fourier(np.sin(x), grid64)
    data = make_data(grid64, mesh, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=1.0)
    rep = rlambda_bound_check(data, cfg, c_cal=1.0, part=part64)
    assert rep["holds"] and rep["slack_log"] >= 0.0
    # R_lambda is increasing in the drift-norm argument (compare in logs)
    theta_p = (1.0 - cfg.alpha - cfg.beta) / 2.0

    def log_r_lam(val):
        return math.log(2.0) + (2.0 * (lam + val)) ** (1.0 / theta_p) * T

    grid_vals = [log_r_lam(v) for v in np.linspace(0.0, 2.0, 7)]
    assert all(a < b for a, b in zip(grid_vals, grid_vals[1:]))


def test_rlambda_bound_with_a_nan_slice(grid64, part64):
    T, M, lam = 1.0, 4, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    data = make_data(grid64, mesh, b=static_drift(grid64, mesh,
                                                  np.sin(x)[None, :]),
                     v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=8.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    assert rlambda_bound_check(data, cfg, 1.0, result=res, part=part64)["holds"]
    res.v = nan_in_slice(res.v)
    rep = rlambda_bound_check(data, cfg, 1.0, result=res, part=part64)
    assert math.isnan(rep["lhs"]) and not rep["holds"]
    bad = PDEData(b=nan_in_slice(data.b), g=data.g, v_T=data.v_T)
    with pytest.raises(SolverError, match="drift norm .* not finite"):
        rlambda_bound_check(bad, cfg, 1.0, result=res, part=part64)


def test_smooth_drift_bound_has_slack(grid64, part64):
    T, M, lam = 1.0, 32, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()
    b = static_drift(grid64, mesh, np.sin(x)[None, :])
    v_T = to_fourier(np.sin(x), grid64)
    data = make_data(grid64, mesh, b=b, v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=8.0)
    rep = rlambda_bound_check(data, cfg, c_cal=1.0, part=part64)
    assert rep["holds"] and rep["slack_log"] >= 0.0


# ---------------------------------------------------------------------------
# two-dimensional integration


def test_two_dimensional_solve_and_inversion():
    grid = TorusGrid(d=2, n=16)
    part = dyadic_partition(grid)
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")

    # heat exactness in d = 2
    v_T = to_fourier(np.sin(xs[0]) * np.cos(xs[1]), grid)
    data = PDEData(b=TimeField(mesh, [SpectralField.zero(grid, (2,))] * (M + 1)),
                   g=TimeField(mesh, [SpectralField.zero(grid)] * (M + 1)),
                   v_T=v_T)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    res = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    worst = max((res.v[m].periodic - apply_heat(T - t, v_T)).sup_norm()
                for m, t in enumerate(mesh))
    assert worst < 1e-12

    # smooth-drift transform and Newton inversion in d = 2
    b_samples = np.stack([0.6 * np.sin(xs[0]), 0.6 * np.cos(xs[1])])
    b = TimeField(mesh, [to_fourier(b_samples, grid)] * (M + 1))
    cfg_u = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=8.0, rho=10.0)
    phi_res = build_phi(b, cfg_u, part=part)
    assert phi_res.grad_sup <= 0.5
    node = M // 2
    t_probe = float(phi_res.phi.t_grid[node])
    s = phi_res.phi.slices[node]
    rng = np.random.default_rng(2)
    for y in rng.uniform(0.0, grid.L, size=(4, 2)):
        x = invert_phi(phi_res.phi, t_probe, y, tol=1e-12)
        fwd = s.slope @ x + evaluate_at(s.periodic, x)
        assert np.abs(fwd - y).max() < 1e-10


def test_time_modulated_drift_vs_method_of_lines(grid64, part64):
    # genuinely time-dependent drift: validates the linear-in-time
    # interpolation of the drift products inside the cell integrals
    T, M, lam = 1.0, 128, 1.0
    mesh = TimeField.uniform_mesh(T, M)
    x = grid64.axis_points()

    def modulation(t):
        return 0.75 + 0.25 * np.cos(2 * np.pi * t / T)

    b = TimeField(mesh, [
        to_fourier((modulation(t) * np.sin(x))[None, :], grid64)
        for t in mesh])
    data = make_data(grid64, mesh, b=b, v_T=to_fourier(np.sin(x), grid64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=lam, rho=4.0)
    res = solve_mild(data, cfg, part=part64, compute_weak_residual=False)
    steps = 16 * M
    snaps = mol_reference_1d(np.sin(x),
                             lambda t: modulation(t) * np.sin(x),
                             lambda t: 0.0 * x, lam, grid64.L, T,
                             steps=steps, record_every=steps // M)
    worst = max(np.abs(res.v[m].periodic.samples() - snaps[M - m]).max()
                for m in range(M + 1))
    assert worst < 2.0 * (T / M) ** 2


def test_strongest_admissible_roughness(grid128, part128):
    # beta close to 1/2: the selected rho reaches ~1e15 and every weighted
    # quantity lives far below the underflow threshold; the log-space
    # bookkeeping must keep the certificate meaningful
    beta, eps = 0.45, 0.04
    T, M = 0.5, 64
    mesh = TimeField.uniform_mesh(T, M)
    b0 = dyadic_random_field(grid128, -beta, seed=5, comp_shape=(1,),
                             part=part128)
    b0 = b0 * (1.0 / besov_norm(b0, -beta, part128).value)
    b = TimeField(mesh, [b0] * (M + 1))
    cfg0 = SolverConfig(beta=beta, eps=eps, T=T, M=M, lam=0.0, rho=1.0)
    rho = select_rho(cfg0, 1.0, 2.0)
    assert rho > 1e12
    cfg = SolverConfig(beta=beta, eps=eps, T=T, M=M, lam=0.0, rho=rho,
                       max_iter=60)
    x = grid128.axis_points()
    data = make_data(grid128, mesh, b=b,
                     v_T=AffinePeriodicField(np.array([0.3]),
                                             to_fourier(np.sin(x), grid128)))
    res = solve_mild(data, cfg, part=part128)
    assert res.ratios and max(res.ratios) <= 0.55
    assert res.weak_residual <= 10.0 * res.weak_tolerance


def test_two_dimensional_rough_drift():
    grid = TorusGrid(d=2, n=32)
    part = dyadic_partition(grid)
    T, M = 0.5, 24
    mesh = TimeField.uniform_mesh(T, M)
    raw = dyadic_random_field(grid, -0.3, seed=17, comp_shape=(2,), part=part)
    b0 = raw * (1.0 / besov_norm(raw, -0.3, part).value)
    b = TimeField(mesh, [b0] * (M + 1))
    xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")
    v_T = AffinePeriodicField(np.array([0.3, -0.2]),
                              to_fourier(np.sin(xs[0]) * np.cos(xs[1]), grid))
    data = make_data(grid, mesh, b=b, v_T=v_T)
    cfg0 = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    rho = select_rho(cfg0, 1.0, 2.0)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=rho)
    res = solve_mild(data, cfg, part=part)
    assert res.ratios and max(res.ratios) <= 0.55
    assert res.weak_residual <= 10.0 * res.weak_tolerance
    assert np.allclose(res.v[0].slope, [0.3, -0.2], atol=1e-13)


def test_phi_equation_weak_residual_smooth_drift(grid128, part128):
    # the transform's equation, checked through the exact affine reduction
    T, M = 1.0, 256
    mesh = TimeField.uniform_mesh(T, M)
    x = grid128.axis_points()
    b = TimeField(mesh, [to_fourier((0.8 * np.sin(x))[None, :],
                                    grid128)] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=6.0, rho=20.0)
    res = build_phi(b, cfg, part=part128)
    assert res.phi_equation_residual <= 1e-6
