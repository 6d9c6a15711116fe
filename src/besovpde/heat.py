"""Heat semigroup as a Fourier multiplier and its empirical estimates.

The semigroup generated by half the Laplacian acts mode-wise through
exp(-t |k|^2 / 2).  The fit helpers quantify the classical smoothing
estimates (Schauder, increment continuity, Bernstein) on random fields
that saturate a target regularity; the measured constants feed the
parameter-selection rules of the solver.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (AffinePeriodicField, SpectralField, TorusGrid, evaluate_at,
                   gradient, gradient_stack)
from .lp import (DyadicPartition, besov_norms, dc_norm, dc_norms,
                 dyadic_partition)

__all__ = [
    "HeatMultiplier",
    "apply_heat",
    "grad_heat",
    "EstimateReport",
    "schauder_fit",
    "heat_increment_fit",
    "bernstein_check",
    "dc_stability_check",
    "dc_time_continuity_fit",
]


@dataclass(frozen=True, eq=False)
class HeatMultiplier:
    """Per-mode weights exp(-t |k|^2 / 2) for one grid and time."""

    grid: TorusGrid
    t: float
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"heat time must be nonnegative, got t={self.t}")
        if self.weights is None:
            w = np.exp(-0.5 * self.t * self.grid.k_squared())
            object.__setattr__(self, "weights", w)

    def __call__(self, f):
        return apply_field(self, f)


def apply_field(mult: HeatMultiplier, f):
    if isinstance(f, AffinePeriodicField):
        # the affine part a.x is harmonic and drift-free, so the semigroup
        # leaves the slope untouched and smooths only the periodic part
        return AffinePeriodicField(f.slope, apply_field(mult, f.periodic))
    if f.grid != mult.grid:
        raise ValueError("field and multiplier grids differ")
    return SpectralField(f.grid, f.coeffs * mult.weights)


def apply_heat(t: float, f):
    """P_t f for a SpectralField or AffinePeriodicField; t >= 0."""
    grid = f.grid
    return apply_field(HeatMultiplier(grid, t), f)


def grad_heat(t: float, g: SpectralField, tol: float = 1e-12) -> SpectralField:
    """grad(P_t g), computed along both orders and checked to agree.

    The multiplier realizations of P_t and grad commute exactly in exact
    arithmetic; the dual-path check guards the implementation.
    """
    if t <= 0:
        raise ValueError(f"grad_heat needs t > 0, got t={t}")
    a = gradient(apply_heat(t, g))
    b = apply_heat(t, gradient(g))
    gap = np.abs(a.coeffs - b.coeffs).max()
    scale = max(np.abs(a.coeffs).max(), 1.0)
    if gap > tol * scale:
        raise AssertionError(f"grad/heat commutation violated: {gap:.3e}")
    return a


# ---------------------------------------------------------------------------
# empirical estimate reports


@dataclass
class EstimateReport:
    """Result of one log-log estimate fit.

    ``constant`` is the envelope constant at the expected exponent, i.e.
    the smallest c for which the inequality held on every sample; it is
    what downstream parameter selection consumes.
    """

    name: str
    fitted_exponent: float
    constant: float
    sample_count: int
    residual: float
    expected_exponent: float = float("nan")
    log_t: np.ndarray = field(default=None, repr=False)
    log_ratio: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.residual):
            raise ValueError("log-log fit residual is not finite")
        if self.sample_count < 8:
            raise ValueError(
                f"estimate needs >= 8 samples, got {self.sample_count}"
            )

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "fitted_exponent": self.fitted_exponent,
            "expected_exponent": self.expected_exponent,
            "constant": self.constant,
            "sample_count": self.sample_count,
            "residual": self.residual,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["log_t", "log_ratio"])
            for lt, lr in zip(self.log_t, self.log_ratio):
                writer.writerow([f"{lt:.16g}", f"{lr:.16g}"])


def _loglog_fit(name, t_samples, ratios, expected, envelope_exp):
    t = np.asarray(t_samples, dtype=float)
    r = np.asarray(ratios, dtype=float)
    if len(t) < 8:
        raise ValueError(f"{name}: need at least 8 time samples, got {len(t)}")
    if np.any(r <= 0):
        raise ValueError(f"{name}: nonpositive ratio in fit")
    lt, lr = np.log(t), np.log(r)
    slope, intercept = np.polyfit(lt, lr, 1)
    resid = float(np.sqrt(np.mean((lr - (slope * lt + intercept)) ** 2)))
    envelope = float(np.max(r * t**envelope_exp))
    return EstimateReport(
        name=name,
        fitted_exponent=float(slope),
        constant=envelope,
        sample_count=len(t),
        residual=resid,
        expected_exponent=expected,
        log_t=lt,
        log_ratio=lr,
    )


def _stack(fields, part):
    """The coefficient stack of the sample fields, and the partition."""
    stack = np.array([f.coeffs for f in fields])
    if not len(stack):
        raise ValueError("no sample fields supplied")
    if np.abs(stack).max() == 0.0:
        raise ValueError("degenerate generator: all sample fields vanish")
    return stack, part or dyadic_partition(fields[0].grid)


def _heat_path(stack, times, part):
    """``apply_heat`` of every row of a stack, one stack per time."""
    return (stack * HeatMultiplier(part.grid, t).weights for t in times)


def schauder_fit(gamma: float, theta: float, fields, t_samples,
                 part: DyadicPartition = None) -> EstimateReport:
    """Fit ||P_t f||_{gamma+2 theta} / ||f||_gamma against t.

    The fitted slope recovers -theta; the envelope constant is
    max over samples of ratio * t^theta.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    stack, part = _stack(fields, part)
    base = besov_norms(stack, gamma, part)
    ratios = [np.max(besov_norms(p, gamma + 2 * theta, part) / base)
              for p in _heat_path(stack, t_samples, part)]
    return _loglog_fit(f"schauder(gamma={gamma:g},theta={theta:g})",
                       t_samples, ratios, expected=-theta, envelope_exp=theta)


def heat_increment_fit(gamma: float, theta: float, fields, t_samples,
                       part: DyadicPartition = None) -> EstimateReport:
    """Fit ||P_t f - f||_gamma / ||f||_{gamma+2 theta} against t; slope ~ +theta."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0,1)")
    stack, part = _stack(fields, part)
    base = besov_norms(stack, gamma + 2 * theta, part)
    ratios = [np.max(besov_norms(p - stack, gamma, part) / base)
              for p in _heat_path(stack, t_samples, part)]
    return _loglog_fit(f"heat_increment(gamma={gamma:g},theta={theta:g})",
                       t_samples, ratios, expected=theta, envelope_exp=-theta)


def bernstein_check(gamma: float, fields,
                    part: DyadicPartition = None) -> EstimateReport:
    """Envelope of ||grad g||_gamma / ||g||_{gamma+1} over the samples."""
    stack, part = _stack(fields, part)
    denom = besov_norms(stack, gamma + 1.0, part)
    num = besov_norms(gradient_stack(stack, part.grid), gamma, part)
    ratios = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)
    return EstimateReport(
        name=f"bernstein(gamma={gamma:g})",
        fitted_exponent=0.0,
        constant=float(ratios.max()),
        sample_count=len(ratios),
        residual=0.0,
        expected_exponent=0.0,
        log_t=np.zeros(len(ratios)),
        log_ratio=np.log(np.maximum(ratios, 1e-300)),
    )


def dc_stability_check(alpha: float, fields, s_samples,
                       part: DyadicPartition = None) -> float:
    """Envelope constant of dc_norm(P_s h) <= c dc_norm(h) over s in [0, T]
    for AffinePeriodicFields h."""
    slopes = np.array([h.slope for h in fields])
    coeffs = np.array([h.periodic.coeffs for h in fields])
    part = part or dyadic_partition(fields[0].grid)
    base = dc_norms(slopes, coeffs, alpha, part)
    return float(np.max([dc_norms(slopes, p, alpha, part) / base
                         for p in _heat_path(coeffs, s_samples, part)]))


def dc_time_continuity_fit(alpha: float, nu: float, fields, eps_samples,
                           part: DyadicPartition = None):
    """Fit ||P_eps h - h||_{DC^alpha} against eps for h of regularity alpha+nu.

    Returns the EstimateReport (expected slope (nu ^ 1)/2) together with the
    worst trace-term margin |P_eps h(0) - h(0)| / (sqrt(2/pi) eps^(1/2)
    ||grad h||_inf), whose bound is exact in one dimension.
    """
    fields = list(fields)
    base = [dc_norm(h, alpha + nu, part) for h in fields]
    origin = np.zeros(fields[0].grid.d)
    ratios, trace_margin = [], 0.0
    for eps in eps_samples:
        top = 0.0
        for h, b in zip(fields, base):
            smoothed = apply_heat(eps, h)
            diff = smoothed - h
            top = max(top, dc_norm(diff, alpha, part) / b)
            trace = abs(float(evaluate_at(smoothed, origin)
                              - evaluate_at(h, origin)))
            grad_sup = h.gradient_field().sup_norm()
            bound = math.sqrt(2.0 / math.pi) * math.sqrt(eps) * grad_sup
            if bound > 0:
                trace_margin = max(trace_margin, trace / bound)
        ratios.append(top)
    report = _loglog_fit(f"dc_time_continuity(alpha={alpha:g},nu={nu:g})",
                         eps_samples, ratios,
                         expected=min(nu, 1.0) / 2.0,
                         envelope_exp=-min(nu, 1.0) / 2.0)
    return report, trace_margin
