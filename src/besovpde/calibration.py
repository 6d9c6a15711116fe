"""Empirical calibration of the inequality constants.

The existence statements behind the solver (heat smoothing, gradient
control, product bounds, the weighted time-integral bound) never exhibit
their constants; parameter selection needs numbers.  One calibration run
measures the constants ``contraction_constant`` and ``lambda_constant``
read, on stacks of random fields at a fixed resolution, and stores them in
a JSON file keyed by exponent pair.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .grid import TimeField, TorusGrid
from .heat import bernstein_check, dc_stability_check, schauder_fit
from .lp import (
    AffinePeriodicField,
    besov_norm,
    besov_norms,
    dc_norms,
    dyadic_partition,
    dyadic_random_field,
    rho_time_norm_log,
)
from .paraproduct import dealiased_products
from .solver import SolverConfig, SolverError

__all__ = [
    "CalibrationError",
    "calibrate",
    "save_calibration",
    "load_calibration",
    "contraction_constant",
    "lambda_constant",
    "pair_key",
]


def pair_key(*vals) -> str:
    return ",".join(f"{v:g}" for v in vals)


def _spawn(seed, count):
    """The first ``count`` children of ``seed``.

    A ``SeedSequence`` is copied before spawning: ``spawn`` advances the
    sequence it is called on, and a calibration must be a pure function of
    its seed however often the caller reuses it.
    """
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)


def calibrate_schauder(grid, gamma, theta, seed, n_fields=16, part=None):
    part = part or dyadic_partition(grid)
    fields = [dyadic_random_field(grid, gamma, s, part=part)
              for s in _spawn(seed, n_fields)]
    t_samples = np.geomspace(1e-3, 0.2, 12)
    return schauder_fit(gamma, theta, fields, t_samples, part).constant


def calibrate_bony(grid, alpha, beta, seed, pairs=16, part=None):
    """Envelope of ||f g||_{-beta} / (||f||_alpha ||g||_{-beta}), f g the
    dealiased product the drift pairing computes (the Bony terms' sum)."""
    part = part or dyadic_partition(grid)
    seeds = _spawn(seed, 2 * pairs)
    f = np.array([dyadic_random_field(grid, alpha, s, part=part).coeffs
                  for s in seeds[0::2]])
    g = np.array([dyadic_random_field(grid, -beta, s, part=part).coeffs
                  for s in seeds[1::2]])
    ratios = (besov_norms(dealiased_products(f[:, None], g[:, None], grid),
                          -beta, part)
              / (besov_norms(f, alpha, part) * besov_norms(g, -beta, part)))
    return float(np.max(ratios))


def calibrate_bernstein(grid, gamma, seed, n_fields=16, part=None):
    part = part or dyadic_partition(grid)
    fields = [dyadic_random_field(grid, gamma + 1.0, s, part=part)
              for s in _spawn(seed, n_fields)]
    return bernstein_check(gamma, fields, part).constant


def calibrate_dc_stability(grid, alpha, seed, n_fields=8, part=None):
    part = part or dyadic_partition(grid)
    rng = np.random.default_rng(seed)
    fields = [AffinePeriodicField(rng.normal(size=grid.d), dyadic_random_field(
        grid, alpha + 1.0, s, part=part)) for s in _spawn(seed, n_fields)]
    s_samples = np.linspace(0.0, 1.0, 9)
    return dc_stability_check(alpha, fields, s_samples, part)


def calibrate_convolution(grid, alpha, beta, seed, T=1.0, M=64,
                          n_fields=6, part=None):
    """Envelope constant of the weighted time-integral bound.

    Measures || int_t^T P_(s-t) l(s) ds ||^(rho) in the linear-growth
    alpha-norm against ||l||^(rho) in C_T C^(-beta) times
    rho^((alpha+beta-1)/2), over random drifts and a grid of rho values.
    """
    part = part or dyadic_partition(grid)
    mesh = TimeField.uniform_mesh(T, M)
    # for l constant in time the integral has a closed form mode by mode:
    # int_t^T P_(s-t) l ds = (1 - exp(-mu (T - t))) / mu * l_hat with
    # mu = |k|^2 / 2, and T - t at k = 0
    mu = 0.5 * grid.k_squared()
    tails = (T - mesh).reshape((M + 1,) + (1,) * grid.d)
    safe = np.where(mu > 0, mu, 1.0)
    kernel = np.where(mu > 0, -np.expm1(-mu * tails) / safe, tails)
    slopes = np.zeros((M + 1, grid.d))
    rho_grid = (1.0, 4.0, 16.0, 64.0)
    worst = 0.0
    for s in _spawn(seed, n_fields):
        ell0 = dyadic_random_field(grid, -beta, s, part=part)
        x_norms = dc_norms(slopes, kernel * ell0.coeffs, alpha, part)
        # a path constant in time has its weighted norm at t = T
        den = math.log(besov_norm(ell0, -beta, part).value)
        for rho in rho_grid:
            num = rho_time_norm_log(x_norms, mesh, rho)
            scale = 0.5 * (alpha + beta - 1.0) * math.log(rho)
            worst = max(worst, math.exp(num - den - scale))
    return worst


def calibrate(grid: TorusGrid, beta: float, eps: float, alpha: float = None,
              seed: int = 0, pairs: int = 16, n_fields: int = 16) -> dict:
    """The six constants a config's runs read, in one pass.  The seed
    indices skip those of four constants no run read, so the rest keep
    their values."""
    part = dyadic_partition(grid)
    if alpha is None:
        alpha = beta + eps / 2.0
    theta = (1.0 + 2.0 * beta - eps) / 2.0

    def seq(*key):
        return np.random.SeedSequence((seed,) + key)

    bony = {pair_key(alpha, beta): calibrate_bony(
        grid, alpha, beta, seq(13, 0), pairs, part)}
    if beta - eps > 0:
        bony[pair_key(beta, beta - eps)] = calibrate_bony(
            grid, beta, beta - eps, seq(13, 2), pairs, part)
    return {
        # no timestamps: the file must be a pure function of (grid, seed)
        "metadata": {
            "n": grid.n, "d": grid.d, "L": grid.L, "seed": seed,
            "pairs": pairs, "fields": n_fields,
            "beta": beta, "eps": eps, "alpha": alpha,
        },
        "schauder": {pair_key(-beta + eps, theta): calibrate_schauder(
            grid, -beta + eps, theta, seq(11, 0), n_fields, part)},
        "bony": bony,
        "bernstein_ineq": {pair_key(beta): calibrate_bernstein(
            grid, beta, seq(17, 1), n_fields, part)},
        "convolution": calibrate_convolution(grid, alpha, beta, seq(19),
                                             part=part),
        "dc_stability": calibrate_dc_stability(grid, alpha, seq(23),
                                               part=part),
    }


def save_calibration(path, calib: dict):
    with open(path, "w") as fh:
        json.dump(calib, fh, indent=2, sort_keys=True)
        fh.write("\n")


class CalibrationError(ValueError):
    """A calibration file that cannot serve the run: not a calibration
    object, a missing or non-finite constant, or another grid."""


def _check_constant(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CalibrationError(f"calibration {where} must be a number, "
                               f"got {value!r}")
    if not math.isfinite(value):
        raise CalibrationError(f"calibration {where} is not finite ({value})")


def load_calibration(path, grid: TorusGrid = None) -> dict:
    """Read a calibration file and check it before any constant is used.

    Every constant must be a finite number, and with ``grid`` the file's
    metadata must name that grid: the constants are measured at one
    resolution.  Raises ``CalibrationError`` naming the first defect.
    """
    with open(path) as fh:
        calib = json.load(fh)
    if not isinstance(calib, dict):
        raise CalibrationError(
            f"calibration file must hold a JSON object, got "
            f"{type(calib).__name__}")
    for key in ("metadata", "convolution", "dc_stability", "schauder",
                "bony", "bernstein_ineq"):
        if key not in calib:
            raise CalibrationError(f"calibration has no {key!r}")
    for key in ("convolution", "dc_stability"):
        _check_constant(calib[key], key)
    for section in ("schauder", "bony", "bernstein_ineq"):
        if not isinstance(calib[section], dict):
            raise CalibrationError(f"calibration {section} must be an object")
        for key, value in calib[section].items():
            _check_constant(value, f"{section}[{key}]")
    meta = calib["metadata"]
    if not isinstance(meta, dict):
        raise CalibrationError("calibration metadata must be an object")
    if grid is not None:
        for key in ("d", "n", "L"):
            if meta.get(key) != getattr(grid, key):
                raise CalibrationError(
                    f"calibration metadata {key} = {meta.get(key)!r} does "
                    f"not match the config grid's {getattr(grid, key)!r}")
    return calib


def _lookup(calib, section, key):
    try:
        return calib[section][key]
    except KeyError:
        raise SolverError(
            f"calibration is missing {section}[{key}]; re-run calibrate "
            "for these exponents") from None


def contraction_constant(calib: dict, cfg: SolverConfig) -> float:
    """Composite constant entering the contraction bound.

    The drift term chains the time-integral constant with the product
    bound at (alpha, beta); the lam term is controlled by the semigroup
    stability constant on linear-growth fields.
    """
    c_conv = calib["convolution"]
    c_bony = _lookup(calib, "bony", pair_key(cfg.alpha, cfg.beta))
    c_stab = calib.get("dc_stability", 1.0)
    return max(c_conv * c_bony, c_stab)


def lambda_constant(calib: dict, cfg: SolverConfig) -> float:
    """Composite constant for the gradient-threshold rule.

    Chains the smoothing constant from regularity -beta+eps up to beta+1,
    the gradient (Bernstein) constant at beta, and the product bound for
    pairing a beta-regular gradient with the drift.
    """
    c_sch = _lookup(calib, "schauder",
                    pair_key(-cfg.beta + cfg.eps, cfg.theta))
    c_bern = _lookup(calib, "bernstein_ineq", pair_key(cfg.beta))
    if cfg.beta - cfg.eps > 0:
        c_bony = _lookup(calib, "bony", pair_key(cfg.beta, cfg.beta - cfg.eps))
    else:
        c_bony = 1.0
    return c_sch * c_bern * max(c_bony, 1.0)
