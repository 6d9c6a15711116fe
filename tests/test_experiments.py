import math
from types import SimpleNamespace

import numpy as np
import pytest

from besovpde import experiments
from besovpde import (
    AffinePeriodicField,
    DriftSpec,
    SolverConfig,
    SolverError,
    SpectralField,
    TimeField,
    TorusGrid,
    apply_heat,
    bernstein_path,
    besov_norm,
    continuity_study_phi,
    dc_norm,
    continuity_study_v,
    dyadic_partition,
    dyadic_random_field,
    gen_drift,
    invert_phi,
    mollification_density_check,
    mollify_timefield,
    smooth_cutoff,
    to_fourier,
)
from besovpde.paraproduct import dealiased_product
from besovpde.solver import path_besov_norm
from test_solver import nan_in_slice

MESH = TimeField.uniform_mesh(0.5, 16)


def test_smooth_drift_finite_at_every_regularity(grid64, part64):
    spec = DriftSpec(kind="smooth-deterministic", amplitude=1.0)
    b = gen_drift(spec, grid64, MESH, part64)
    for gamma in (-0.5, 0.0, 1.5, 3.0):
        assert np.isfinite(besov_norm(b[0], gamma, part64).value)


def test_dyadic_drift_regularity_window(grid128, part128):
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=5,
                     amplitude=1.0)
    b = gen_drift(spec, grid128, MESH, part128)
    val = besov_norm(b[0], -0.3, part128).value
    assert 0.5 <= val <= 2.0


def test_dyadic_drift_diverges_above_its_regularity():
    # the norm at +0.1 grows with resolution: the field is C^(-0.3), no better
    vals = {}
    for n in (64, 256):
        grid = TorusGrid(d=1, n=n)
        part = dyadic_partition(grid)
        spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=5,
                         amplitude=1.0)
        b = gen_drift(spec, grid, MESH, part)
        vals[n] = besov_norm(b[0], 0.1, part).value
    assert vals[256] > 1.5 * vals[64]


def test_mollified_drift_is_heat_smoothed(grid64, part64):
    base = DriftSpec(kind="dyadic-random", regularity=0.3, seed=2,
                     amplitude=1.0)
    spec = DriftSpec(kind="mollified", base=base, mollify=0.05,
                     regularity=0.3, seed=2)
    raw = gen_drift(base, grid64, MESH, part64)
    mol = gen_drift(spec, grid64, MESH, part64)
    ref = apply_heat(0.05, raw[0])
    assert (mol[0] - ref).sup_norm() < 1e-13


def test_seed_reproducibility_bit_identical(grid64, part64):
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=77)
    a = gen_drift(spec, grid64, MESH, part64)
    b = gen_drift(spec, grid64, MESH, part64)
    assert np.array_equal(a[0].coeffs, b[0].coeffs)


def test_modulated_drift_shares_profile(grid64, part64):
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=3,
                     time_dependence="modulated")
    b = gen_drift(spec, grid64, MESH, part64)
    n0 = besov_norm(b[0], -0.3, part64).value
    nmid = besov_norm(b[8], -0.3, part64).value
    assert n0 > 0 and nmid > 0 and abs(n0 - nmid) > 1e-6


def test_mollification_premise_decreases(grid64, part64):
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=4)
    b = gen_drift(spec, grid64, MESH, part64)
    gaps = [max(besov_norm(a - c, -0.3, part64).value
                for a, c in zip(mollify_timefield(b, eps).slices, b.slices))
            for eps in (0.25, 0.0625, 0.015625)]
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# continuity ladders (kept small; the acceptance suite runs the full ladder)


def _affine_terminal(grid):
    x = grid.axis_points()
    return AffinePeriodicField(np.array([0.4]), to_fourier(np.sin(x), grid))


def test_continuity_v_smooth_drift_sits_at_floor(grid64, part64):
    T, M = 0.5, 24
    mesh = TimeField.uniform_mesh(T, M)
    spec = DriftSpec(kind="smooth-deterministic", amplitude=0.5)
    b = gen_drift(spec, grid64, mesh, part64)
    g = TimeField(mesh, [SpectralField.zero(grid64)] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=30.0)
    # a smooth drift is essentially unchanged by small mollification times
    study = continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                               eps_list=[2.0**-6, 2.0**-8, 2.0**-10],
                               part=part64)
    assert max(study.errors["v_dc"]) < 1e-2
    assert study.verdicts["final_at_floor"]


def test_continuity_v_rough_drift_decreases(grid64, part64):
    T, M = 0.5, 24
    mesh = TimeField.uniform_mesh(T, M)
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=6)
    b = gen_drift(spec, grid64, mesh, part64)
    g = TimeField(mesh, [SpectralField.zero(grid64)] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=60.0)
    study = continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                               eps_list=[2.0**-k for k in range(2, 7)],
                               part=part64)
    assert study.verdicts["v_decreasing"]
    assert study.verdicts["grad_decreasing"]
    assert study.verdicts["premise_decreasing"]


def test_continuity_v_varying_source(grid64, part64):
    T, M = 0.5, 24
    mesh = TimeField.uniform_mesh(T, M)
    spec = DriftSpec(kind="smooth-deterministic", amplitude=0.5)
    b = gen_drift(spec, grid64, mesh, part64)
    rough = dyadic_random_field(grid64, -0.3, seed=8, part=part64)
    g = TimeField(mesh, [rough] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=30.0)
    study = continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                               eps_list=[2.0**-k for k in range(2, 7)],
                               part=part64, vary="g")
    assert study.verdicts["v_decreasing"]
    assert study.notes["vary"] == "g"


def _static_rough_drift(grid, part, M=4):
    mesh = TimeField.uniform_mesh(0.5, M)
    b0 = dyadic_random_field(grid, -0.3, seed=7, comp_shape=(1,), part=part)
    return TimeField(mesh, [b0] * (M + 1))


def test_continuity_v_premise_with_a_nan_drift_slice_raises(grid64, part64,
                                                            monkeypatch):
    # NaN in slice 2 of 5: the builtin max() dropped it from the premise;
    # the path norm names it.  The solves are stubbed out: with the NaN
    # drift they would stop on their own before the premise is measured.
    b = nan_in_slice(_static_rough_drift(grid64, part64))
    g = TimeField(b.t_grid, [SpectralField.zero(grid64)] * 5)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=4, lam=0.0, rho=30.0)
    monkeypatch.setattr(experiments, "_solve", lambda data, cfg, part: None)
    with pytest.raises(SolverError, match="drift premise norm .* not finite"):
        continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                           eps_list=[2.0**-4, 2.0**-6], part=part64)


def test_continuity_v_errors_keep_a_nan_solution_slice(grid64, part64,
                                                       monkeypatch):
    # NaN in slice 2 of 5 of a solution: max(ev, nan) was ev, so the error
    # ladders read finite; they now carry the NaN
    b = _static_rough_drift(grid64, part64)
    g = TimeField(b.t_grid, [SpectralField.zero(grid64)] * 5)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=4, lam=0.0, rho=30.0)
    clean = TimeField(b.t_grid, [_affine_terminal(grid64)] * 5)
    results = iter([clean, nan_in_slice(clean), clean])
    monkeypatch.setattr(experiments, "_solve", lambda data, cfg, part:
                        SimpleNamespace(v=next(results)))
    study = continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                               eps_list=[2.0**-4, 2.0**-6], part=part64)
    assert np.isnan(study.errors["v_dc"][0])
    assert np.isnan(study.errors["grad_v"][0])
    assert study.errors["v_dc"][1] == 0.0
    assert not study.finite()


def test_continuity_v_errors_match_per_node_norms(grid64, part64,
                                                 monkeypatch):
    # one stacked gradient norm per rung against the per-node dc_norm and
    # Besov norm of the gradient it replaced; tolerance: exact equality
    b = _static_rough_drift(grid64, part64, M=8)
    g = TimeField(b.t_grid, [SpectralField.zero(grid64)] * 9)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=8, lam=0.0, rho=30.0)
    solves = []
    real_solve = experiments._solve

    def recording(data, cfg, part):
        solves.append(real_solve(data, cfg, part))
        return solves[-1]

    monkeypatch.setattr(experiments, "_solve", recording)
    study = continuity_study_v(b, g, _affine_terminal(grid64), cfg,
                               eps_list=[2.0**-3, 2.0**-5, 2.0**-7],
                               part=part64)
    ref, rungs = solves[0], solves[1:]
    err_v, err_grad = [], []
    for sol in rungs:
        deltas = [a - c for a, c in zip(sol.v.slices, ref.v.slices)]
        err_v.append(np.max([dc_norm(dv, cfg.alpha, part64)
                             for dv in deltas]))
        err_grad.append(np.max([
            besov_norm(dv.gradient_field(), cfg.alpha, part64).value
            for dv in deltas]))
    assert np.array_equal(study.errors["v_dc"], err_v)
    assert np.array_equal(study.errors["grad_v"], err_grad)
    # the finest rung repeats the reference solve; the others have data
    # that differ from it, so their errors must not vanish
    assert min(err_grad[:-1]) > 0.0


def test_continuity_phi_ladders_keep_a_nan_slice(grid64, part64,
                                                 monkeypatch):
    # NaN in slice 2 of 5 of the first rung's u: the builtin max() dropped
    # it from the u, grad u, phi, psi and grad phi ladders
    b = _static_rough_drift(grid64, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=4, lam=1.0, rho=1.0)
    u = AffinePeriodicField(
        np.zeros(1), to_fourier(0.1 * np.sin(grid64.axis_points()), grid64))
    clean = TimeField(b.t_grid, [u] * 5)
    results = iter([clean, nan_in_slice(clean), clean])
    monkeypatch.setattr(experiments, "solve_u", lambda *args, **kwargs:
                        SimpleNamespace(v=next(results)))

    def invert(phi, t, y, tol):
        # a slice with a NaN has no inverse: report it as NaN
        m = int(np.argmin(np.abs(phi.t_grid - t)))
        if not np.isfinite(phi[m].periodic.coeffs).all():
            return np.full(1, np.nan)
        return invert_phi(phi, t, y, tol=tol)

    monkeypatch.setattr(experiments, "invert_phi", invert)
    study = continuity_study_phi(b, cfg, [2.0**-4, 2.0**-6], c_cal=1.5,
                                 part=part64)
    for name in ("u", "grad_u", "phi", "psi", "grad_phi_sup"):
        assert np.isnan(study.errors[name][0]), name
        assert np.isfinite(study.errors[name][1]), name
    assert study.errors["u"][1] == 0.0
    assert not study.finite()


def test_continuity_phi_ladder_with_a_nan_drift_slice_raises(grid64, part64,
                                                             monkeypatch):
    # NaN in slice 2 of 5: the builtin max() dropped it from the drift norm
    # that sets lam; the path norm stops the study before any solve
    b = nan_in_slice(_static_rough_drift(grid64, part64))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=4, lam=1.0, rho=1.0)

    def solve_not_reached(*args, **kwargs):
        raise AssertionError("a solve ran with a NaN drift norm")

    monkeypatch.setattr(experiments, "solve_u", solve_not_reached)
    with pytest.raises(SolverError, match="drift norm .* not finite"):
        continuity_study_phi(b, cfg, [2.0**-4, 2.0**-6], c_cal=1.5,
                             part=part64)


def test_continuity_phi_zero_drift(grid64, part64):
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    b = TimeField(mesh, [SpectralField.zero(grid64, (1,))] * (M + 1))
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=0.0, rho=1.0)
    study = continuity_study_phi(b, cfg, [0.25, 0.0625], c_cal=1.0,
                                 part=part64)
    assert max(study.errors["u"]) < 1e-13
    assert max(study.errors["psi"]) < 1e-10
    assert study.verdicts["psi_factor_two"]
    assert study.notes["lambda"] == 1.0


def test_continuity_phi_rough_drift(grid64, part64):
    T, M = 0.5, 16
    mesh = TimeField.uniform_mesh(T, M)
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=9)
    b = gen_drift(spec, grid64, mesh, part64)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=T, M=M, lam=1.0, rho=1.0,
                       tol_fix=1e-12)
    eps_list = [2.0**-k for k in range(2, 7)]
    study = continuity_study_phi(b, cfg, eps_list, c_cal=1.5, part=part64)
    # lam from the ladder's worst drift norm, bit for bit
    worst = max(path_besov_norm(mollify_timefield(b, eps),
                                -cfg.beta + cfg.eps, part64, "drift")
                for eps in eps_list)
    theta = cfg.theta
    assert study.notes["lambda"] == (3.0 * 1.5 * math.gamma(1.0 - theta)
                                     * worst) ** (1.0 / (1.0 - theta))
    assert study.verdicts["u_decreasing"]
    assert study.verdicts["psi_decreasing"]
    assert study.verdicts["psi_factor_two"]
    assert study.verdicts["grad_phi_bounded"]
    assert study.notes["psi_lipschitz"] <= 2.0


# ---------------------------------------------------------------------------
# Bernstein interpolation


def unit_slice(grid):
    f = to_fourier(np.sin(grid.axis_points()), grid)
    return f * (1.0 / f.sup_norm())


def test_bernstein_reproduces_constants(grid64):
    base = unit_slice(grid64)
    out = bernstein_path(lambda t: base, 8, np.linspace(0, 1, 7))
    assert all((f - base).sup_norm() < 1e-13 for f in out)


def test_bernstein_reproduces_affine_paths(grid64):
    base = unit_slice(grid64)
    ts = np.linspace(0, 1, 7)
    out = bernstein_path(lambda t: t * base, 8, ts)
    assert all((f - t * base).sup_norm() < 1e-13 for f, t in zip(out, ts))


def test_bernstein_matches_exact_rational_summation(grid64):
    # the scalar weights agree with a direct summation of the defining
    # polynomial carried out in exact rational arithmetic
    from fractions import Fraction
    from oracles import bernstein_value_exact
    base = unit_slice(grid64)
    degree = 16
    path = bernstein_path(lambda t: (t * t) * base, degree,
                          [j / 8 for j in range(9)])
    nodes = [Fraction(j, degree) ** 2 for j in range(degree + 1)]
    for j, f in enumerate(path):
        exact = bernstein_value_exact(nodes, Fraction(j, 8))
        got = f.coeffs[1] / base.coeffs[1]
        assert abs(got - float(exact)) < 1e-14


def test_bernstein_quadratic_error_closed_form(grid64):
    base = unit_slice(grid64)
    ts = np.linspace(0, 1, 17)  # includes t = 1/2 where the error peaks
    for degree in (4, 16, 64):
        out = bernstein_path(lambda t: (t * t) * base, degree, ts)
        errs = [(f - (t * t) * base).sup_norm() for f, t in zip(out, ts)]
        assert abs(max(errs) - 1.0 / (4.0 * degree)) < 1e-12


def test_bernstein_rate_for_lipschitz_paths(grid64):
    base = unit_slice(grid64)
    ts = np.linspace(0, 1, 33)
    degrees = [4, 8, 16, 32, 64]
    sups = []
    for degree in degrees:
        out = bernstein_path(lambda t: abs(t - 0.5) * base, degree, ts)
        sups.append(max((f - abs(t - 0.5) * base).sup_norm()
                        for f, t in zip(out, ts)))
    slope = np.polyfit(np.log(degrees), np.log(sups), 1)[0]
    assert slope <= -0.4


def test_bernstein_rejects_degree_zero(grid64):
    with pytest.raises(ValueError):
        bernstein_path(lambda t: unit_slice(grid64), 0, [0.5])


# ---------------------------------------------------------------------------
# mollification density


def test_mollification_zero_field(grid64, part64):
    st = mollification_density_check(SpectralField.zero(grid64), 0.4,
                                     [0.1, 0.01], part64)
    assert max(st.errors["mollification"]) == 0.0


def test_mollification_rate_matches_regularity_gap():
    # field of regularity 1.0 under a smooth compact cutoff; the norm gap
    # at 0.4 closes at rate (1.0 - 0.4)/2 = 0.3
    grid = TorusGrid(d=1, n=256)
    part = dyadic_partition(grid)
    rough = dyadic_random_field(grid, 1.0, seed=9, part=part)
    cut = smooth_cutoff(grid, radius=2.0, width=1.0)
    f = dealiased_product(rough, cut)
    st = mollification_density_check(f, 0.4, [2.0**-k for k in range(2, 10)],
                                     part)
    assert st.verdicts["decreasing"]
    assert 0.25 <= st.notes["fitted_rate"] <= 0.40


def test_cutoff_ladder_stabilizes(grid128):
    # once the plateau covers the support, multiplying by the cutoff is the
    # identity (up to the spectral tail of the band-limited interpolant)
    f = smooth_cutoff(grid128, radius=1.5, width=1.0)
    for radius in (2.5, 3.0):
        cut = smooth_cutoff(grid128, radius=radius, width=1.0)
        prod = dealiased_product(f, cut)
        assert (prod - f).sup_norm() < 1e-5


def test_cutoff_profile_support(grid64):
    cut = smooth_cutoff(grid64, radius=2.0, width=1.0)
    vals = cut.samples()
    x = grid64.axis_points()
    dist = np.abs(x - np.pi)
    dist = np.minimum(dist, grid64.L - dist)
    assert np.all(vals[dist >= 2.0] < 1e-10)
    assert np.all(np.abs(vals[dist <= 1.0] - 1.0) < 1e-10)


def test_study_serialization(tmp_path, grid64, part64):
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=4)
    b = gen_drift(spec, grid64, MESH, part64)
    gaps = mollification_density_check(b[0].component(0), -0.3,
                                       [0.25, 0.0625], part64)
    path = tmp_path / "study.csv"
    gaps.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "parameter,mollification"
    assert len(rows) == 3
    payload = gaps.to_json()
    assert "verdicts" in payload


def test_mollification_above_ceiling_reported_not_asserted(grid64, part64):
    # above the field's regularity the mollification error need not close;
    # the curve is reported and only checked to be finite
    spec = DriftSpec(kind="dyadic-random", regularity=0.3, seed=4)
    b = gen_drift(spec, grid64, MESH, part64)
    st = mollification_density_check(b[0].component(0), -0.3 + 0.25,
                                     [2.0**-k for k in range(2, 8)], part64)
    assert st.finite()
