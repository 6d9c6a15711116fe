"""Empirical calibration of the inequality constants.

The existence statements behind the solver (heat smoothing, gradient
control, product bounds, the weighted time-integral bound) never exhibit
their constants; parameter selection needs numbers.  One calibration run
measures envelope constants on random fields at a fixed resolution and
stores them in a JSON file keyed by exponent pair; rho and lambda
selection consume them.
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
    dc_norms,
    dyadic_partition,
    dyadic_random_field,
    rho_time_norm_log,
)
from .paraproduct import bony_product
from .solver import SolverConfig, SolverError

__all__ = [
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
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)


def calibrate_schauder(grid, gamma, theta, seed, n_fields=16, part=None):
    part = part or dyadic_partition(grid)
    fields = [dyadic_random_field(grid, gamma, s, part=part)
              for s in _spawn(seed, n_fields)]
    t_samples = np.geomspace(1e-3, 0.2, 12)
    return schauder_fit(gamma, theta, fields, t_samples, part).constant


def calibrate_bony(grid, alpha, beta, seed, pairs=16, part=None):
    """Envelope of ||f g||_{-beta} / (||f||_alpha ||g||_{-beta})."""
    part = part or dyadic_partition(grid)
    seeds = _spawn(seed, 2 * pairs)
    worst = 0.0
    for i in range(pairs):
        f = dyadic_random_field(grid, alpha, seeds[2 * i], part=part)
        g = dyadic_random_field(grid, -beta, seeds[2 * i + 1], part=part)
        total = bony_product(f, alpha, g, beta, part).total
        ratio = (besov_norm(total, -beta, part).value
                 / (besov_norm(f, alpha, part).value
                    * besov_norm(g, -beta, part).value))
        worst = max(worst, ratio)
    return worst


def calibrate_bernstein(grid, gamma, seed, n_fields=16, part=None):
    part = part or dyadic_partition(grid)
    fields = [dyadic_random_field(grid, gamma + 1.0, s, part=part)
              for s in _spawn(seed, n_fields)]
    return bernstein_check(gamma, fields, part).constant


def calibrate_dc_stability(grid, alpha, seed, n_fields=8, part=None):
    part = part or dyadic_partition(grid)
    rng = np.random.default_rng(seed)
    fields = []
    for s in _spawn(seed, n_fields):
        p = dyadic_random_field(grid, alpha + 1.0, s, part=part)
        fields.append(AffinePeriodicField(rng.normal(size=grid.d), p))
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
              seed: int = 0, pairs: int = 16, n_fields: int = 16,
              extra_schauder=((-0.3, 0.25), (0.2, 0.5)),
              extra_bony=((0.6, 0.3),)) -> dict:
    """One calibration pass covering the exponents a config needs."""
    part = dyadic_partition(grid)
    if alpha is None:
        alpha = beta + eps / 2.0
    theta = (1.0 + 2.0 * beta - eps) / 2.0

    schauder = {}
    for i, (g_, t_) in enumerate(
            [(-beta + eps, theta)] + list(extra_schauder)):
        schauder[pair_key(g_, t_)] = calibrate_schauder(
            grid, g_, t_, np.random.SeedSequence((seed, 11, i)),
            n_fields, part)

    bony = {}
    bony_pairs = [(alpha, beta)] + list(extra_bony)
    if beta - eps > 0:
        bony_pairs.append((beta, beta - eps))
    for i, (a_, b_) in enumerate(bony_pairs):
        bony[pair_key(a_, b_)] = calibrate_bony(
            grid, a_, b_, np.random.SeedSequence((seed, 13, i)), pairs, part)

    bernstein = {}
    for i, g_ in enumerate(sorted({beta, -0.3})):
        bernstein[pair_key(g_)] = calibrate_bernstein(
            grid, g_, np.random.SeedSequence((seed, 17, i)), n_fields, part)

    convolution = calibrate_convolution(
        grid, alpha, beta, np.random.SeedSequence((seed, 19)), part=part)
    dc_stab = calibrate_dc_stability(
        grid, alpha, np.random.SeedSequence((seed, 23)), part=part)

    return {
        # no timestamps: the file must be a pure function of (grid, seed)
        "metadata": {
            "n": grid.n, "d": grid.d, "L": grid.L, "seed": seed,
            "pairs": pairs, "fields": n_fields,
            "beta": beta, "eps": eps, "alpha": alpha,
        },
        "schauder": schauder,
        "bony": bony,
        "bernstein_ineq": bernstein,
        "convolution": convolution,
        "dc_stability": dc_stab,
    }


def save_calibration(path, calib: dict):
    with open(path, "w") as fh:
        json.dump(calib, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_calibration(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
