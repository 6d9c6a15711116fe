"""Drift generators, continuity ladders and interpolation experiments.

Convergence studies replace an unreachable rough-drift limit by the solve
at the finest ladder parameter.  The solver's backward march converges
every node to rounding, so a tighter Picard tolerance would not move that
reference; the finest rung is solved again and reports the repeat-solve
gap, which is 0.0 for a bit-identical solve.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (
    SpectralField,
    TimeField,
    TorusGrid,
    gradient_stack,
    sup_norms,
    to_fourier,
)
from .heat import apply_heat, heat_weights
from .lp import (
    DyadicPartition,
    _bump_integral,
    besov_norm,
    besov_norms,
    dyadic_partition,
    dyadic_random_field,
)
from .solver import (
    PDEData,
    SolverConfig,
    invert_phi,
    path_besov_norm,
    solve_mild,
    solve_u,
)

__all__ = [
    "DriftSpec",
    "gen_drift",
    "mollify_timefield",
    "ConvergenceStudy",
    "continuity_study_v",
    "continuity_study_phi",
    "bernstein_path",
    "mollification_density_check",
    "smooth_cutoff",
]


@dataclass(frozen=True)
class DriftSpec:
    """Recipe for a drift field.

    kind 'smooth-deterministic' gives per-component sine profiles;
    'dyadic-random' draws random phases per dyadic ring with block
    amplitudes 2^(j * regularity), normalized so the Besov norm at
    -regularity equals the amplitude; 'mollified' heat-smooths a base
    spec by the time mollify.
    """

    kind: str
    amplitude: float = 1.0
    regularity: float = 0.3
    seed: int = 0
    time_dependence: str = "static"  # static | modulated
    mollify: float = 0.0
    base: "DriftSpec" = None

    def __post_init__(self):
        if self.kind not in ("smooth-deterministic", "dyadic-random", "mollified"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if self.time_dependence not in ("static", "modulated"):
            raise ValueError(f"unknown time dependence {self.time_dependence!r}")
        if self.kind == "mollified" and self.base is None:
            raise ValueError("mollified drift needs a base spec")


def _base_drift_field(spec: DriftSpec, grid: TorusGrid,
                      part: DyadicPartition) -> SpectralField:
    if spec.kind == "smooth-deterministic":
        axes = np.meshgrid(*[grid.axis_points()] * grid.d, indexing="ij")
        comps = []
        for i in range(grid.d):
            phase = 0.25 * math.pi * i
            comps.append(spec.amplitude
                         * np.sin(2.0 * np.pi * axes[i] / grid.L + phase))
        return to_fourier(np.stack(comps), grid)
    if spec.kind == "dyadic-random":
        f = dyadic_random_field(grid, -spec.regularity, seed=spec.seed,
                                amplitude=spec.amplitude,
                                comp_shape=(grid.d,), part=part)
        norm = besov_norm(f, -spec.regularity, part).value
        if norm == 0.0:
            return f
        return f * (spec.amplitude / norm)
    base = _base_drift_field(spec.base, grid, part)
    return apply_heat(spec.mollify, base)


def gen_drift(spec: DriftSpec, grid: TorusGrid, t_grid,
              part: DyadicPartition = None) -> TimeField:
    """Vector drift path on the mesh: the base field at every node, times
    0.75 + 0.25 cos(2 pi t / T) when modulated."""
    if part is None:
        part = dyadic_partition(grid)
    t_grid = np.asarray(t_grid, dtype=float)
    base = _base_drift_field(spec, grid, part)
    coeffs = np.repeat(base.coeffs[None], len(t_grid), axis=0)
    if spec.time_dependence == "modulated":
        T = t_grid[-1]
        scale = [0.75 + 0.25 * math.cos(2.0 * math.pi * t / T) for t in t_grid]
        coeffs *= np.reshape(scale, (-1,) + (1,) * base.coeffs.ndim)
    return TimeField.from_stacks(t_grid, grid, coeffs)


def mollify_timefield(tf: TimeField, eps: float) -> TimeField:
    """Heat-kernel mollification of every node: one multiply of the
    coefficient stack by the heat weights; affine slopes are untouched."""
    weights = heat_weights(tf.grid, eps)
    return TimeField.from_stacks(tf.t_grid, tf.grid, tf.coeffs * weights,
                                 tf.slopes)


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(eq=False)
class ConvergenceStudy:
    """Per-parameter error records in named norms plus a computed verdict."""

    parameters: list
    errors: dict
    verdicts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.errors.values())

    def to_csv(self, path):
        names = sorted(self.errors)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter"] + names)
            for i, p in enumerate(self.parameters):
                writer.writerow([f"{p:.16g}"]
                                + [f"{self.errors[n][i]:.16g}" for n in names])

    def to_json(self) -> str:
        return json.dumps({
            "parameters": list(map(float, self.parameters)),
            "errors": {k: list(map(float, v)) for k, v in self.errors.items()},
            "verdicts": self.verdicts,
            "notes": self.notes,
        }, indent=2)


def monotone_decreasing(values, inversions_allowed: int = 1) -> bool:
    values = np.asarray(values, dtype=float)
    ups = int(np.sum(np.diff(values) > 0))
    return ups <= inversions_allowed


def _solve(data, cfg, part):
    return solve_mild(data, cfg, part=part, compute_weak_residual=False)


def continuity_study_v(b: TimeField, g: TimeField, v_T, cfg: SolverConfig,
                       eps_list, part: DyadicPartition = None,
                       vary: str = "b") -> ConvergenceStudy:
    """Solution error curves under heat-mollification of the drift (or the
    source, with vary='g').

    The reference is the solve at the smallest mollification time, so the
    finest rung reports the repeat-solve gap.  Errors are recorded in the
    linear-growth norm of the solution and the Besov norm of its gradient;
    the mollification premise (data converging along the ladder) is
    recorded alongside.
    """
    if part is None:
        part = dyadic_partition(b.grid)
    eps_list = sorted(eps_list, reverse=True)
    eps_min = eps_list[-1]

    def data_for(eps):
        if vary == "b":
            return PDEData(b=mollify_timefield(b, eps), g=g, v_T=v_T)
        return PDEData(b=b, g=mollify_timefield(g, eps), v_T=v_T)

    ref_data = data_for(eps_min)
    ref = _solve(ref_data, cfg, part)

    premise = []
    err_v, err_grad = [], []
    gamma_data = -cfg.beta
    varied_name = "drift" if vary == "b" else "source"
    for eps in eps_list:
        data = data_for(eps)
        varied = data.b if vary == "b" else data.g
        target = ref_data.b if vary == "b" else ref_data.g
        gap = TimeField.from_stacks(b.t_grid, b.grid,
                                    varied.coeffs - target.coeffs)
        premise.append(path_besov_norm(gap, gamma_data, part,
                                       f"{varied_name} premise"))
        v = _solve(data, cfg, part).v
        dp = v.coeffs - ref.v.coeffs
        grad = besov_norms(gradient_stack(dp, b.grid, v.slopes - ref.v.slopes),
                           cfg.alpha, part)
        # |dv(0)|: the slope term vanishes at the origin
        origin = np.abs(dp.reshape(len(dp), -1).sum(axis=1).real)
        # np.max, not the builtin max, which drops a NaN
        err_v.append(float(np.max(origin + grad)))
        err_grad.append(float(np.max(grad)))
    study = ConvergenceStudy(
        parameters=list(eps_list),
        errors={"v_dc": err_v, "grad_v": err_grad, "data_premise": premise},
    )
    floor = 10.0 * cfg.tol_fix
    study.verdicts = {
        "v_decreasing": monotone_decreasing(err_v),
        "grad_decreasing": monotone_decreasing(err_grad),
        "premise_decreasing": monotone_decreasing(premise),
        "final_at_floor": bool(err_v[-1] <= floor),
    }
    study.notes = {"floor": floor, "vary": vary}
    return study


def continuity_study_phi(b: TimeField, cfg: SolverConfig, eps_list,
                         c_cal: float, part: DyadicPartition = None,
                         probe_count: int = 12,
                         newton_tol: float = 1e-13) -> ConvergenceStudy:
    """Uniform-norm error ladders for u, grad u, phi and psi.

    One lam serves the whole ladder, chosen from the worst drift norm so
    the gradient certificate holds for every rung; psi is probed through
    Newton inversion on a fixed point set.  The inequality
    |psi_n - psi| <= 2 sup|u_n - u| is checked rung by rung (with an
    additive allowance at the Newton tolerance).
    """
    if part is None:
        part = dyadic_partition(b.grid)
    g = b.grid
    if g.d != 1:
        raise NotImplementedError("phi ladder implemented for d = 1")
    eps_list = sorted(eps_list, reverse=True)
    eps_min = eps_list[-1]
    ladders = {eps: mollify_timefield(b, eps) for eps in eps_list}

    theta = cfg.theta
    worst = float(np.max([path_besov_norm(tf, -cfg.beta + cfg.eps, part,
                                          "drift")
                          for tf in ladders.values()]))
    if worst > 0.0:
        lam = (3.0 * c_cal * math.gamma(1.0 - theta)
               * worst) ** (1.0 / (1.0 - theta))
    else:
        lam = 1.0  # vanishing drift: any positive lam certifies u = 0
    cfg = replace(cfg, lam=lam)

    def solve_for(tf):
        return solve_u(tf, 0, cfg, part=part, compute_weak_residual=False)

    ref = solve_for(ladders[eps_min])

    rng = np.random.default_rng(97)
    probe_y = rng.uniform(0.0, g.L, size=(probe_count, 1))
    probe_t = [0.0, 0.5 * cfg.T, cfg.T]

    # x + u(t, x): the identity slope at every node
    ones = np.ones((len(b.t_grid), 1, 1))
    ref_u = ref.v.coeffs
    phi_ref = TimeField.from_stacks(b.t_grid, g, ref_u[:, None], ones)
    psi_ref = {(t, i): invert_phi(phi_ref, t, y, tol=newton_tol)
               for t in probe_t for i, y in enumerate(probe_y)}
    psi_lip = 0.0
    for t in probe_t:
        for i in range(len(probe_y)):
            for j in range(i + 1, len(probe_y)):
                gap = float(np.abs(probe_y[i] - probe_y[j]).max())
                if gap > 1e-9:
                    move = float(np.abs(psi_ref[(t, i)]
                                        - psi_ref[(t, j)]).max())
                    psi_lip = max(psi_lip, move / gap)

    err_u, err_grad, err_phi, err_psi = [], [], [], []
    grad_phi_sup, phi_origin = [], []
    for eps in eps_list:
        res = solve_for(ladders[eps])
        u = res.v.coeffs
        du = u - ref_u
        # d = 1: sup |du|, sup |grad du| and sup |grad u| at every node as
        # one stack of one-component rows; np.max keeps a NaN
        rows = np.concatenate([du[:, None],
                               gradient_stack(np.concatenate([du, u]), g)])
        eu, eg, gu = np.max(sup_norms(rows, g).reshape(3, -1), axis=1)
        phi_n = TimeField.from_stacks(b.t_grid, g, u[:, None], ones)
        ep = np.max([abs(invert_phi(phi_n, t, y, tol=newton_tol)[0]
                         - psi_ref[(t, i)][0])
                     for t in probe_t for i, y in enumerate(probe_y)])
        err_u.append(float(eu))
        err_grad.append(float(eg))
        err_phi.append(float(eu))   # phi - phi_ref = u - u_ref
        err_psi.append(float(ep))
        grad_phi_sup.append(1.0 + float(gu))
        phi_origin.append(abs(float(
            res.v[0].periodic.samples().flat[0])))
    study = ConvergenceStudy(
        parameters=list(eps_list),
        errors={"u": err_u, "grad_u": err_grad, "phi": err_phi,
                "psi": err_psi, "grad_phi_sup": grad_phi_sup},
    )
    floor = 10.0 * cfg.tol_fix
    psi_factor_ok = all(
        p <= 2.0 * u + 10.0 * newton_tol
        for p, u in zip(err_psi, err_u))
    study.verdicts = {
        "u_decreasing": monotone_decreasing(err_u),
        "grad_u_decreasing": monotone_decreasing(err_grad),
        "phi_decreasing": monotone_decreasing(err_phi),
        "psi_decreasing": monotone_decreasing(err_psi),
        "final_at_floor": bool(err_u[-1] <= floor),
        "psi_factor_two": psi_factor_ok,
        "grad_phi_bounded": bool(max(grad_phi_sup) <= 1.5),
        "phi_origin_bounded": bool(np.isfinite(phi_origin).all()),
    }
    study.notes = {"lambda": lam, "floor": floor,
                   "psi_lipschitz": psi_lip,
                   "phi_origin": list(map(float, phi_origin))}
    return study


# ---------------------------------------------------------------------------
# Banach-valued Bernstein interpolation


def bernstein_path(f, degree: int, ts) -> list:
    """Bernstein polynomial sum_j f(j/n) t^j (1-t)^(n-j) C(n,j) on [0, 1].

    ``f`` maps [0, 1] to fields (or anything supporting + and scalar *);
    returns the interpolant evaluated at each requested t.
    """
    if degree < 1:
        raise ValueError(f"Bernstein degree must be >= 1, got {degree}")
    nodes = [f(j / degree) for j in range(degree + 1)]
    out = []
    for t in np.asarray(ts, dtype=float):
        weights = [math.comb(degree, j) * t**j * (1.0 - t) ** (degree - j)
                   for j in range(degree + 1)]
        acc = weights[0] * nodes[0]
        for wj, nj in zip(weights[1:], nodes[1:]):
            acc = acc + wj * nj
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# mollification density


def smooth_cutoff(grid: TorusGrid, radius: float, width: float = 1.0,
                  center=None) -> SpectralField:
    """Radial cutoff 1 inside radius-width, 0 outside radius, bump-smooth
    in between; distances are torus (minimum-image) distances from the
    domain center unless a center is given."""
    if center is None:
        center = np.full(grid.d, grid.L / 2.0)
    axes = np.meshgrid(*[grid.axis_points()] * grid.d, indexing="ij")
    r2 = np.zeros(grid.shape)
    for ax in range(grid.d):
        delta = np.abs(axes[ax] - center[ax])
        delta = np.minimum(delta, grid.L - delta)
        r2 += delta**2
    rho = np.sqrt(r2)
    s = 2.0 * (rho - (radius - width)) / width - 1.0
    vals = 1.0 - _bump_integral(s)
    vals = np.where(rho <= radius - width, 1.0, vals)
    vals = np.where(rho >= radius, 0.0, vals)
    return to_fourier(vals, grid)


def mollification_density_check(f: SpectralField, gamma: float, eps_list,
                                part: DyadicPartition = None) -> ConvergenceStudy:
    """Error curve ||P_eps f - f||_gamma down a mollification ladder with
    its fitted log-log rate."""
    if part is None:
        part = dyadic_partition(f.grid)
    eps_list = sorted(eps_list, reverse=True)
    errs = [besov_norm(apply_heat(eps, f) - f, gamma, part).value
            for eps in eps_list]
    study = ConvergenceStudy(parameters=list(eps_list),
                             errors={"mollification": errs})
    positive = [(e, v) for e, v in zip(eps_list, errs) if v > 0]
    if len(positive) >= 2:
        le = np.log([p[0] for p in positive])
        lv = np.log([p[1] for p in positive])
        rate = float(np.polyfit(le, lv, 1)[0])
    else:
        rate = float("nan")
    study.verdicts = {"decreasing": monotone_decreasing(errs)}
    study.notes = {"fitted_rate": rate}
    return study
