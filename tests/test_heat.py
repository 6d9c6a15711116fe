import json
import math

import numpy as np
import pytest

from besovpde import (
    AffinePeriodicField,
    SpectralField,
    TorusGrid,
    apply_heat,
    bernstein_check,
    besov_norm,
    dyadic_random_field,
    gradient,
    heat_increment_fit,
    heat_weights,
    schauder_fit,
    to_fourier,
)
from besovpde.heat import dc_stability_check
from oracles import dc_time_continuity_fit, interior_mode_field

T_SAMPLES = np.geomspace(1e-3, 0.2, 16)


def fields_at(grid, gamma, count, base_seed, part=None):
    return [dyadic_random_field(grid, gamma, seed=s, part=part)
            for s in np.random.SeedSequence(base_seed).spawn(count)]


def test_multiplier_invariants(grid64):
    w = heat_weights(grid64, 0.7)
    assert w.flat[0] == 1.0
    assert np.all(w > 0) and np.all(w <= 1.0)
    assert np.all(heat_weights(grid64, 0.0) == 1.0)
    with pytest.raises(ValueError):
        heat_weights(grid64, -0.1)


def test_identity_at_zero_time(grid64, rng):
    f = to_fourier(rng.standard_normal(grid64.shape), grid64)
    assert (apply_heat(0.0, f) - f).sup_norm() == 0.0


def test_single_mode_decay():
    grid = TorusGrid(d=1, n=64)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[[2, -2]] = 1.0  # 2 cos(2x): |k| = 2 with L = 2 pi
    f = SpectralField(grid, coeffs)
    out = apply_heat(0.5, f)
    assert np.abs(out.coeffs[[2, -2]] - math.exp(-1.0)).max() < 1e-14


def test_semigroup_law(grid128, rng):
    f = to_fourier(rng.standard_normal(grid128.shape), grid128)
    gap = (apply_heat(0.3, apply_heat(0.2, f)) - apply_heat(0.5, f)).sup_norm()
    assert gap < 1e-12


def test_mass_conservation(grid64, rng):
    f = to_fourier(rng.standard_normal(grid64.shape), grid64)
    for t in (0.01, 0.5, 3.0):
        assert abs(apply_heat(t, f).coeffs[0] - f.coeffs[0]) < 1e-14


def test_maximum_principle(grid128, rng):
    f = to_fourier(rng.standard_normal(grid128.shape), grid128)
    lo, hi = f.samples().min(), f.samples().max()
    for t in (0.01, 0.2, 1.0):
        vals = apply_heat(t, f).samples()
        assert vals.max() <= hi + 1e-10
        assert vals.min() >= lo - 1e-10


def test_affine_slope_preserved(grid64):
    x = grid64.axis_points()
    h = AffinePeriodicField(np.array([1.3]), to_fourier(np.sin(x), grid64))
    out = apply_heat(0.4, h)
    assert np.array_equal(out.slope, h.slope)
    assert abs(out.periodic.coeffs[1]) < abs(h.periodic.coeffs[1])


def test_schauder_theta_zero_bounded(grid256, part256):
    # theta = 0: the ratio carries no t^-theta blow-up; the max over the
    # noisy flat ledger drifts slightly downward, hence the wide band
    fields = fields_at(grid256, -0.3, 12, 7, part256)
    rep = schauder_fit(-0.3, 0.0, fields, T_SAMPLES, part256)
    assert abs(rep.fitted_exponent) < 0.10
    ratios = np.exp(rep.log_ratio)
    assert np.all(ratios <= rep.constant + 1e-12)
    assert rep.constant < 1.2


def test_schauder_single_mode_closed_form(grid256, part256):
    # one interior mode: the ratio is the multiplier weight exactly
    f = interior_mode_field(grid256, {4: 1.0}, seed=3, part=part256)
    r = 23  # interior odd radius used for block 4 at n = 256
    k2 = (2.0 * np.pi / grid256.L * r) ** 2
    for t in (0.001, 0.01):
        num = besov_norm(apply_heat(t, f), 0.0, part256).value
        den = besov_norm(f, 0.0, part256).value
        assert abs(num / den - math.exp(-0.5 * t * k2)) < 1e-8


def test_schauder_exponent_recovery(grid256, part256):
    fields = fields_at(grid256, -0.3, 32, 11, part256)
    rep = schauder_fit(-0.3, 0.25, fields, T_SAMPLES, part256)
    assert -0.30 <= rep.fitted_exponent <= -0.20


def test_increment_constant_field(grid64, part64):
    c = to_fourier(np.full(grid64.shape, 2.0), grid64)
    for t in (0.01, 0.5):
        assert (apply_heat(t, c) - c).sup_norm() < 1e-14


def test_increment_single_mode_taylor():
    grid = TorusGrid(d=1, n=64)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[[1, -1]] = 1.0  # 2 cos(x)
    f = SpectralField(grid, coeffs)
    for t in (1e-4, 1e-3):
        gap = np.abs(apply_heat(t, f).coeffs[[1, -1]] - 1.0)
        # (t/2)|k|^2 with |k| = 1
        assert np.abs(gap - 0.5 * t).max() < t * t


def test_increment_exponent_recovery(grid256, part256):
    fields = fields_at(grid256, 1.2, 16, 13, part256)
    rep = heat_increment_fit(0.2, 0.5, fields, T_SAMPLES, part256)
    assert 0.45 <= rep.fitted_exponent <= 0.60


def test_bernstein_constant_zero_for_constants(grid64, part64):
    c = to_fourier(np.full(grid64.shape, 5.0), grid64)
    rep = bernstein_check(0.3, [c] * 8, part64)
    assert rep.constant < 1e-12


def test_bernstein_single_mode_closed_form(grid256, part256):
    f = interior_mode_field(grid256, {4: 1.0}, seed=3, part=part256)
    num = besov_norm(gradient(f), -0.3, part256).value
    den = besov_norm(f, 0.7, part256).value
    k = 2.0 * np.pi / grid256.L * 23
    assert abs(num / den - k * 2.0 ** (4 * (-0.3 - 0.7))) < 1e-6


def test_bernstein_seed_stability(grid128, part128):
    consts = []
    for s in range(3):
        fields = fields_at(grid128, 0.7, 33, 100 + s, part128)
        consts.append(bernstein_check(-0.3, fields, part128).constant)
    spread = (max(consts) - min(consts)) / np.mean(consts)
    assert spread <= 0.20


def test_grad_heat_zero_for_constants(grid64):
    c = to_fourier(np.full(grid64.shape, 1.0), grid64)
    assert gradient(apply_heat(0.2, c)).sup_norm() < 1e-14


def test_grad_heat_commutation(grid128, rng):
    # the multipliers of P_t and grad commute: both orders agree to 1e-12
    # relative to max(max |coefficient|, 1)
    f = to_fourier(rng.standard_normal(grid128.shape), grid128)
    a = gradient(apply_heat(0.05, f))
    b = apply_heat(0.05, gradient(f))
    gap = np.abs(a.coeffs - b.coeffs).max()
    assert gap <= 1e-12 * max(np.abs(a.coeffs).max(), 1.0)


def test_grad_heat_slope(grid256, part256):
    # || grad P_t g ||_{gamma + 2 theta - 1} / ||g||_gamma decays like t^-theta
    gamma, theta = -0.3, 0.4
    fields = fields_at(grid256, gamma, 16, 17, part256)
    ratios = []
    for t in T_SAMPLES:
        top = max(
            besov_norm(gradient(apply_heat(t, f)), gamma + 2 * theta - 1.0,
                       part256).value
            / besov_norm(f, gamma, part256).value for f in fields)
        ratios.append(top)
    slope = np.polyfit(np.log(T_SAMPLES), np.log(ratios), 1)[0]
    assert abs(slope + theta) < 0.07


def test_dc_stability(grid128, part128, rng):
    fields = []
    for s in range(6):
        p = dyadic_random_field(grid128, 1.35, seed=60 + s, part=part128)
        fields.append(AffinePeriodicField(rng.normal(size=1), p))
    c = dc_stability_check(0.35, fields, np.linspace(0.0, 1.0, 9), part128)
    assert np.isfinite(c)
    assert c <= 2.0  # the semigroup does not amplify linear-growth norms much


def test_dc_time_continuity_and_trace_bound(grid256, part256, rng):
    alpha, nu = 0.3, 0.5
    fields = []
    for s in range(6):
        p = dyadic_random_field(grid256, alpha + nu + 1.0, seed=80 + s,
                                part=part256)
        fields.append(AffinePeriodicField(rng.normal(size=1), p))
    eps = np.geomspace(1e-4, 1e-1, 10)
    rep, trace_margin = dc_time_continuity_fit(alpha, nu, fields, eps, part256)
    assert rep.fitted_exponent >= min(nu, 1.0) / 2.0 - 0.05
    # one-dimensional trace bound sqrt(2/pi) eps^(1/2) ||grad h||_inf
    assert trace_margin <= 1.0 + 1e-9


def test_estimate_report_serialization(tmp_path, grid128, part128):
    fields = fields_at(grid128, -0.3, 8, 23, part128)
    rep = schauder_fit(-0.3, 0.25, fields, T_SAMPLES, part128)
    payload = json.loads(rep.to_json())
    assert payload["sample_count"] == len(T_SAMPLES)
    assert np.isfinite(payload["residual"])
    csv_path = tmp_path / "fit.csv"
    rep.to_csv(csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "log_t,log_ratio"
    assert len(rows) == 1 + len(T_SAMPLES)


def test_degenerate_generator_rejected(grid64, part64):
    zeros = [SpectralField.zero(grid64)] * 8
    with pytest.raises(ValueError, match="degenerate"):
        schauder_fit(0.0, 0.25, zeros, T_SAMPLES, part64)
