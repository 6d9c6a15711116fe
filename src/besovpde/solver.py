"""Mild-solution machinery for the drift equation on the torus.

Solves the backward problem

    d_t v + (1/2) Lap v + grad(v) . b = lam v + g,   v(T) = v_T,

through the Duhamel solution operator and its fixed point, contracting in
exponentially weighted time norms.  Linear-growth terminal data is
carried as slope(t) . x + p(t, x): the affine slope decouples exactly
(slope(t) = slope_T exp(-lam (T - t))) and every spectral operation acts
on the periodic part, with the slope re-entering the drift product.

The iterate is a coefficient stack: the ``(M+1,) + grid`` coefficients of
its periodic parts at the mesh nodes, its slopes following their closed
form.  One Picard step pairs the gradient stack with the drift stack in
one chunked call (``paraproduct.drift_terms``), integrates in time, and
measures the increment with one stacked norm call.  A ``TimeField`` is
such a stack (plus a slope stack), so paths go in and out of the solver
as arrays, with no per-node field objects.  A short global Picard run
measures the contraction; the discrete operator is lower-triangular in
time, so the fixed point itself is then reached by a backward march, one
node at a time, and certified by one more application of the operator.
The equation is linear, so for a drift constant in time every node's
implicit problem has the same linear part: on small grids it is factored
once and each node is one matrix-vector product.

Time integrals use per-mode exact integration of the exponential kernel
against a linearly interpolated integrand (a stiffness-uniform O(dt^2)
composite rule), accumulated by one backward sweep with exact semigroup
propagation between nodes.  For lam * dt above a configurable threshold
the lam-term moves from the integrand into the kernel; both forms are
consistent discretizations of the same mild solution and the one not used
for iteration serves as an independent residual check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .grid import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TimeField,
    chunk_rows,
    evaluate_at,
    gradient,
    gradient_stack,
    sup_norms,
)
from .lp import (
    DyadicPartition,
    besov_norm,  # noqa: F401  (unused; perfbench/selftest.py traces this binding)
    besov_norms,
    c1plus_norm,
    c1plus_norms,
    dc_norms,
    dyadic_partition,
    rho_time_norm_log,
)
from .paraproduct import (
    drift_samples,
    drift_term,  # noqa: F401  (unused; perfbench/selftest.py traces this binding)
    drift_terms,
)

__all__ = [
    "SolverConfig",
    "PDEData",
    "SolveResult",
    "SolverError",
    "PicardError",
    "NewtonError",
    "select_rho",
    "lambda_threshold",
    "path_besov_norm",
    "apply_T",
    "solve_mild",
    "solve_u",
    "build_phi",
    "PhiResult",
    "invert_phi",
    "weak_residual",
    "WeakResidualReport",
    "mild_residual",
    "rlambda_bound_check",
    "default_test_fields",
    "identity_component",
]


class SolverError(RuntimeError):
    pass


# A Picard run stops as diverging after this many consecutive contraction
# ratios above 1 (counting only ratios above the rounding floor).
DIVERGENCE_STREAK = 3

# Contraction ratios above the rounding floor the global Picard prefix
# measures before the backward march takes over; the weighted ratios
# settle after about three iterations.
CERTIFICATE_RATIOS = 4

# Largest grid, in unknowns n^d, whose march factors the node operator
# once for a static drift (``_march_dense``); larger grids march by local
# fixed-point steps (``_march_iterative``).  Measured march times (2-core
# host, numpy 2.4, 1 BLAS thread, T = 0.5, affine terminal data; dense vs
# iterative): 1D n=128, M=64: 6 vs 58 ms; 1D n=256, M=64: 14 vs 59 ms
# (M=16: 12 vs 22 ms); 2D n=16 (256 unknowns), M=32: 34 vs 44 ms (M=8:
# 32 vs 18 ms, M=128: 44 vs 126 ms).  Above 256 the build (one pairing
# per unknown, an LU solve with n^d + M right-hand sides) loses: 1D
# n=512, M=64: 70 vs 108 ms but M=16: 68 vs 48 ms; 3D n=8 (512), M=16:
# 399 vs 69 ms; 1D n=1024, M=64: 351 vs 126 ms; 2D n=32, M=32: 811 vs
# 125 ms.
DENSE_MARCH_MAX_UNKNOWNS = 256


class PicardError(SolverError):
    def __init__(self, message, ratios):
        super().__init__(message)
        self.ratios = list(ratios)


class NewtonError(SolverError):
    def __init__(self, message, steps, residual):
        super().__init__(message)
        self.steps = steps
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Exponents, horizon, mesh and fixed-point controls.

    alpha defaults to beta + eps/2, the midpoint between the uniqueness
    exponent and the drift's actual regularity.
    """

    beta: float
    eps: float
    T: float = 1.0
    M: int = 128
    alpha: float = None
    lam: float = 0.0
    rho: object = "auto"
    tol_fix: float = 1e-10
    max_iter: int = 60
    lambda_kernel: str = "auto"  # auto | never | always
    lambda_kernel_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise SolverError(f"beta must lie in (0, 1/2), got {self.beta}")
        if not self.eps > 0:
            raise SolverError(f"eps must be positive, got {self.eps}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.beta + self.eps / 2.0)
        if not self.beta <= self.alpha < 1.0 - self.beta:
            raise SolverError(
                f"alpha must lie in [beta, 1-beta) = [{self.beta}, "
                f"{1.0 - self.beta}), got {self.alpha}"
            )
        if self.theta >= 1.0:
            raise SolverError(f"theta = {self.theta} must be below 1")
        if self.lam < 0:
            raise SolverError(f"lambda must be nonnegative, got {self.lam}")
        if self.T <= 0 or self.M < 2:
            raise SolverError("need T > 0 and M >= 2")
        if self.lambda_kernel not in ("auto", "never", "always"):
            raise SolverError(f"bad lambda_kernel policy {self.lambda_kernel!r}")

    @property
    def theta(self) -> float:
        return (1.0 + 2.0 * self.beta - self.eps) / 2.0

    @property
    def dt(self) -> float:
        return self.T / self.M

    def uses_lambda_kernel(self) -> bool:
        if self.lambda_kernel == "always":
            return True
        if self.lambda_kernel == "never":
            return False
        return self.lam * self.dt > self.lambda_kernel_threshold


@dataclass(frozen=True, eq=False)
class PDEData:
    """Drift b (vector), source g (scalar) and terminal condition v_T."""

    b: TimeField
    g: TimeField
    v_T: object  # AffinePeriodicField or SpectralField

    def __post_init__(self):
        vt = self.v_T
        if isinstance(vt, SpectralField):
            vt = AffinePeriodicField.from_periodic(vt)
            object.__setattr__(self, "v_T", vt)
        g = self.b.grid
        if self.g.grid != g or vt.grid != g:
            raise GridError("drift, source and terminal data on different grids")
        if not np.array_equal(self.b.t_grid, self.g.t_grid):
            raise GridError("drift and source use different time meshes")
        if self.b.comp_shape != (g.d,):
            raise GridError("drift must be a vector field")
        if self.g.comp_shape != () or vt.comp_shape != ():
            raise GridError("source and terminal condition must be scalar")

    @property
    def grid(self):
        return self.b.grid

    @property
    def is_affine(self) -> bool:
        return bool(np.any(self.v_T.slope != 0.0))


@dataclass(eq=False)
class SolveResult:
    """The mild solution together with its diagnostics.

    ``iterations`` and the ratios count the global Picard iterations (the
    whole solve, or the prefix before the march).  ``march`` names the
    march that reached the answer: "none" when Picard converged, else
    "dense" or "iterative" (see ``_operator``).  ``march_steps`` counts
    its node solves: 0 for "none", one a node (M) for "dense", and the
    local fixed-point steps summed over the nodes for "iterative".  The
    final increments are ||T(v) - v|| of the returned v after a march,
    and the last Picard increment otherwise.
    """

    v: TimeField
    iterations: int
    ratios: list          # contraction ratios while increments exceed the
                          # rounding floor; ratios_raw keeps the full list
    rho: float
    final_increment: float        # rho-weighted
    final_increment_log: float    # log of the above (survives underflow)
    final_increment_sup: float    # unweighted sup-in-time norm
    lam: float
    used_lambda_kernel: bool
    quad_tolerance: float
    norm_kind: str
    weak_residual: float = float("nan")
    weak_tolerance: float = float("nan")
    ratios_raw: list = field(default_factory=list)
    march: str = "none"       # none | dense | iterative
    march_steps: int = 0
    error_bound: float = float("nan")   # rho-weighted, a posteriori

    def manifest(self, config: SolverConfig = None) -> dict:
        out = {
            "rho": self.rho,
            "lambda": self.lam,
            "iterations": self.iterations,
            "march": self.march,
            "march_steps": self.march_steps,
            "ratios": list(self.ratios),
            "final_increment": self.final_increment,
            "final_increment_sup": self.final_increment_sup,
            "error_bound": self.error_bound,
            "weak_residual": self.weak_residual,
            "weak_tolerance": self.weak_tolerance,
            "quad_tolerance": self.quad_tolerance,
            "norm_kind": self.norm_kind,
            "used_lambda_kernel": self.used_lambda_kernel,
        }
        if config is not None:
            out["config"] = {
                "beta": config.beta, "eps": config.eps, "alpha": config.alpha,
                "T": config.T, "M": config.M, "tol_fix": config.tol_fix,
                "max_iter": config.max_iter,
            }
        return out

    def save(self, directory, config: SolverConfig = None) -> list:
        """Write one field file per slice plus a solution.json manifest.

        Affine slopes travel in the manifest; the field files hold the
        periodic parts in the shared binary format.
        """
        from .grid import save_fields
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        v = self.v
        files = [directory / f"slice_{m:05d}.field" for m in range(len(v))]
        save_fields(files, v.grid, v.coeffs)
        meta = self.manifest(config)
        meta["slice_files"] = [path.name for path in files]
        meta["affine_slopes"] = _slopes_of(v).tolist()
        meta["t_grid"] = v.t_grid.tolist()
        path = directory / "solution.json"
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=2, default=float)
            fh.write("\n")
        files.append(path)
        return files


# ---------------------------------------------------------------------------
# parameter selection


def select_rho(cfg: SolverConfig, b_norm: float, c_cal: float) -> float:
    """Smallest rho >= 1 with c (lam + ||b||) rho^((alpha+beta-1)/2) <= 1/2."""
    if cfg.alpha + cfg.beta >= 1.0:
        raise SolverError("select_rho needs alpha + beta < 1")
    level = c_cal * (cfg.lam + b_norm)
    if level <= 0.5:
        return 1.0
    return max(1.0, (2.0 * level) ** (2.0 / (1.0 - cfg.alpha - cfg.beta)))


def lambda_threshold(b: TimeField, cfg: SolverConfig, c_cal: float,
                     part: DyadicPartition = None) -> float:
    """lam = (3 c Gamma(1-theta) ||b||_{C_T C^(-beta+eps)})^(1/(1-theta))."""
    theta = cfg.theta
    if theta >= 1.0:
        raise SolverError("lambda_threshold needs theta < 1")
    if part is None:
        part = dyadic_partition(b.grid)
    norm_b = path_besov_norm(b, -cfg.beta + cfg.eps, part, "drift")
    if norm_b == 0.0:
        return 0.0
    big_c = 3.0 * c_cal * math.gamma(1.0 - theta)
    return (big_c * norm_b) ** (1.0 / (1.0 - theta))


def path_besov_norm(tf: TimeField, gamma: float, part: DyadicPartition,
                    name: str) -> float:
    """max over the mesh nodes of ||tf(t_m)||_gamma; raises when not finite.

    A node whose coefficients equal the node before it is not measured
    again, so a static path costs one norm.
    """
    c = tf.coeffs
    again = np.all(c[1:] == c[:-1], axis=tuple(range(1, c.ndim)))
    rows = c[np.concatenate([[True], ~again])]
    norm = float(np.max(besov_norms(rows, gamma, part)))
    if not math.isfinite(norm):
        raise SolverError(f"{name} norm in C^{gamma:g} is not finite ({norm})")
    return norm


# ---------------------------------------------------------------------------
# exponential-kernel quadrature


def _sweep_weights(mu: np.ndarray, dt: float):
    """Per-mode weights of the Duhamel sweep for decay rates ``mu``.

    With a = mu dt, p1 = (1 - e^-a)/a and p2 = (e^-a - 1 + a)/a^2: the
    one-cell propagator e^-a and the weights dt p2 and dt (p1 - p2) of a
    cell's left and right nodes.
    """
    a = np.asarray(mu * dt, dtype=float)
    safe = np.where(a > 0, a, 1.0)
    em = np.expm1(-safe)
    p1 = np.where(a > 0, -em / safe, 1.0)
    p2 = np.where(a > 0, (safe + em) / safe**2, 0.5)
    return np.exp(-a), dt * p2, dt * (p1 - p2)


def _duhamel_sweep(q_nodes: np.ndarray, weights) -> np.ndarray:
    """I_m = int_{t_m}^T exp(-mu (s - t_m)) Q(s) ds for every node m.

    Q is linearly interpolated between nodes; each cell integral is exact
    for that interpolant, and cells are chained backward with the exact
    propagator exp(-mu dt).  ``weights`` is ``_sweep_weights(mu, dt)``.
    """
    decay, w_left, w_right = weights
    out = np.zeros_like(q_nodes)
    acc = np.zeros_like(q_nodes[0])
    for m in range(len(q_nodes) - 2, -1, -1):
        acc = decay * acc + w_left * q_nodes[m] + w_right * q_nodes[m + 1]
        out[m] = acc
    return out


# ---------------------------------------------------------------------------
# the solution operator on coefficient stacks


def _slopes_of(v: TimeField) -> np.ndarray:
    """A path's slope stack; zeros for a periodic path."""
    if v.slopes is not None:
        return v.slopes
    return np.zeros(v.coeffs.shape[:1] + v.comp_shape + (v.grid.d,))


def _slopes(data: PDEData, cfg: SolverConfig) -> np.ndarray:
    """The closed-form slopes slope_T exp(-lam (T - t)) at the nodes."""
    return np.array([data.v_T.slope * math.exp(-cfg.lam * (cfg.T - t))
                     for t in data.b.t_grid])


def _check_mesh(v: TimeField, data: PDEData, cfg: SolverConfig):
    if not np.array_equal(v.t_grid, data.b.t_grid):
        raise GridError("iterate and data use different time meshes")
    if v.M != cfg.M or abs(v.T - cfg.T) > 1e-12 * max(cfg.T, 1.0):
        raise SolverError(
            f"mesh (T={v.T}, M={v.M}) disagrees with config "
            f"(T={cfg.T}, M={cfg.M})")


@dataclass(frozen=True, eq=False)
class _Operator:
    """What ``_operator`` sets up once per solve; see there."""

    data: PDEData
    cfg: SolverConfig
    lambda_kernel: bool
    free: np.ndarray        # P_(T-t) v_T at the nodes
    weights: tuple          # _sweep_weights of the kernel's decay rates
    slopes: np.ndarray      # the closed-form slopes at the nodes
    b_samples: np.ndarray   # the drift's 2x-grid samples, broadcast over
                            # the nodes; None unless the drift is static

    def integrand(self, p, s):
        g = self.data.grid
        q = drift_terms(gradient_stack(p, g, s), self.data.b.coeffs, g,
                        b_samples=self.b_samples)
        if not self.lambda_kernel:
            q = q - self.cfg.lam * p
        return q - self.data.g.coeffs

    def image(self, q):
        return self.free + _duhamel_sweep(q, self.weights)


def _operator(data: PDEData, cfg: SolverConfig,
              lambda_kernel: bool) -> _Operator:
    """The Duhamel operator on coefficient stacks, set up once per solve.

    For an iterate with periodic coefficients ``p`` and slopes ``s``,
    ``integrand(p, s)`` is the node stack q of the time integrand: the
    pairing of slope + grad p with b, less lam p unless ``lambda_kernel``
    moves the lam-term into the kernel, less g.
    ``image(q)`` is the periodic part of T(v): P_(T-t) v_T plus the swept
    integral of q.  The slopes of T(v) are ``_slopes`` and need no iterate.
    A drift whose nodes all equal the first is sampled on the 2x grid once
    here (``b_samples``), and every pairing reuses those samples.

    The sweep makes node m depend on nodes m..M only, so the fixed point
    of T is reached node by node, backward from the terminal node: with
    ``q_m`` the integrand at node m,

        v_m = decay v_(m+1) + w_right q_(m+1)(v_(m+1)) + w_left q_m(v_m),

    and only the ``w_left`` term is implicit.  ``_march_dense`` solves this
    with the node operator factored once, for a static drift on a grid of
    at most ``DENSE_MARCH_MAX_UNKNOWNS`` points; ``_march_iterative``
    solves each node by local fixed-point steps otherwise.
    """
    g = data.grid
    tails = cfg.T - data.b.t_grid
    mu = 0.5 * g.k_squared()
    if lambda_kernel:
        mu = cfg.lam + mu
    free = np.array([np.exp(-mu * tail) * data.v_T.periodic.coeffs
                     for tail in tails])
    b = data.b.coeffs
    b_samples = None
    if np.all(b == b[:1]):
        one = drift_samples(b[:1], g)
        b_samples = np.broadcast_to(one, (len(b),) + one.shape[1:])
    return _Operator(data, cfg, lambda_kernel, free,
                     _sweep_weights(mu, cfg.dt), _slopes(data, cfg),
                     b_samples)


def _march_iterative(op: _Operator, max_steps: int, history):
    """The march with each node solved by local fixed-point steps.

    With c_m the explicit part, x <- c_m + w_left q_m(x) is iterated from a
    predictor (q_m extrapolated from the two nodes after m) until the
    coefficient increment reaches the rounding floor, 8 eps max|x|, or
    stops decreasing.  Each step pairs through ``drift_terms`` with node
    m's drift samples, which are taken once per node.  Returns the
    periodic stack and the number of local steps; a node that goes
    non-finite or does not settle in ``max_steps`` raises ``PicardError``
    with ``history`` as its ratios.
    """
    data, cfg, g = op.data, op.cfg, op.data.grid
    b, source, slopes = data.b.coeffs, data.g.coeffs, op.slopes
    decay, w_left, w_right = op.weights

    def node_integrand(m, x, samples):
        w = gradient_stack(x[None], g, slopes[m:m + 1])
        q = drift_terms(w, b[m:m + 1], g, b_samples=samples)[0]
        if not op.lambda_kernel:
            q = q - cfg.lam * x
        return q - source[m]

    floor = 8.0 * np.finfo(float).eps
    v = np.empty_like(op.free)
    v[-1] = op.free[-1]
    samples = drift_samples(b[-1:], g)
    steps = 0
    q_after = None
    for m in range(len(v) - 2, -1, -1):
        q_next = node_integrand(m + 1, v[m + 1], samples)
        samples = drift_samples(b[m:m + 1], g)
        c = decay * v[m + 1] + w_right * q_next
        # q_m extrapolated linearly from the two nodes after m: about
        # 15% fewer local steps than the predictor q_m ~ q_(m+1)
        x = c + w_left * (q_next if q_after is None
                          else 2.0 * q_next - q_after)
        q_after = q_next
        prev = math.inf
        for k in range(1, max_steps + 1):
            x_new = c + w_left * node_integrand(m, x, samples)
            inc = float(np.abs(x_new - x).max())
            x = x_new
            if not math.isfinite(inc):
                raise PicardError(
                    f"non-finite iterate at node {m} (t = "
                    f"{data.b.t_grid[m]:.6g}) in local step {k}; the "
                    "march diverged", history)
            if inc <= floor * float(np.abs(x).max()) or inc >= prev:
                break
            prev = inc
        else:
            raise PicardError(
                f"node {m} (t = {data.b.t_grid[m]:.6g}) did not settle "
                f"in {max_steps} local steps (last increment "
                f"{inc:.3e})", history)
        steps += k
        v[m] = x
    return v, steps


def _march_dense(op: _Operator, history):
    """The march with the node operator factored once (a static drift).

    On the N = n^d coarse-grid samples the integrand at node m is affine,
    q_m(x) = D x + e_m: D is grad(.) . b, less lam I unless the kernel
    carries lam, and e_m is the slope pairing less the source.  With the
    sweep weights as Fourier multipliers the node equation reads

        (I - W_left D) v_m = (Decay + W_right D) v_(m+1) + f'_m,
        f'_m = W_right e_(m+1) + W_left e_m.

    D is paired from the N unit sample fields, ``chunk_rows`` of them a
    ``drift_terms`` call with the drift samples of the solve.  One LU
    solve with A = I - W_left D gives B = A^-1 (Decay + W_right D) and
    every node's forcing f_m = A^-1 f'_m, and v_m = B v_(m+1) + f_m is one
    matvec a node (the implicit ETD-trapezoid step, Cox & Matthews, JCP
    2002).  Returns the periodic stack and M, its node count; a singular A
    or a non-finite node raises ``PicardError`` with ``history`` as its
    ratios.
    """
    data, g = op.data, op.data.grid
    size = g.n ** g.d
    axes = tuple(range(1, g.d + 1))
    decay, w_left, w_right = op.weights
    nodes = len(op.free)

    def samples(c):
        """Rows of coarse-grid samples of a coefficient stack."""
        return (np.fft.ifftn(c, axes=axes).real * size).reshape(len(c), size)

    # the matrices a block of columns at a time: the whole basis at once
    # raised the 1D benchmark's peak RSS by ~0.8 MB
    b, b_samples = data.b.coeffs, op.b_samples
    lhs = np.eye(size)
    rhs = np.empty((size, size + nodes - 1))
    rows = chunk_rows((2 * g.d,) + g.shape, g)
    for lo in range(0, size, rows):
        k = min(rows, size - lo)
        basis = np.fft.fftn(np.eye(k, size, lo).reshape((k,) + g.shape),
                            axes=axes) / size
        d_cols = drift_terms(
            gradient_stack(basis, g),
            np.broadcast_to(b[:1], (k,) + b.shape[1:]), g,
            b_samples=np.broadcast_to(b_samples[:1],
                                      (k,) + b_samples.shape[1:]))
        if not op.lambda_kernel:
            d_cols -= op.cfg.lam * basis
        lhs[:, lo:lo + k] -= samples(w_left * d_cols).T
        rhs[:, lo:lo + k] = samples(decay * basis + w_right * d_cols).T
    e = op.integrand(np.zeros_like(op.free), op.slopes)
    rhs[:, size:] = samples(w_right * e[1:] + w_left * e[:-1]).T
    t_grid = data.b.t_grid
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise PicardError(
            f"the node operator I - W_left D is singular ({exc}); the dense "
            f"march stops at node {nodes - 2} (t = {t_grid[-2]:.6g})",
            history) from exc
    step, forcing = sol[:, :size], sol[:, size:]
    x = np.empty((nodes, size))
    x[-1] = samples(op.free[-1:])[0]
    for m in range(nodes - 2, -1, -1):
        x[m] = step @ x[m + 1] + forcing[:, m]
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        m = int(bad[-1])
        raise PicardError(
            f"non-finite iterate at node {m} (t = {t_grid[m]:.6g}) in the "
            "dense march", history)
    v = np.fft.fftn(x.reshape((nodes,) + g.shape), axes=axes) / size
    v[-1] = op.free[-1]
    return v, nodes - 1


def apply_T(v: TimeField, data: PDEData, cfg: SolverConfig,
            part: DyadicPartition = None, lambda_kernel: bool = None) -> TimeField:
    """One application of the Duhamel solution operator.

    Computes P_{T-t} v_T plus the time integral of the drift, lam and
    source terms.  With ``lambda_kernel`` the lam-term is absorbed into
    the kernel exp(-(lam + |k|^2/2)(s-t)) instead of the integrand; the
    affine slope always follows its exact closed form
    slope_T exp(-lam (T - t)).  The drift pairing needs no dyadic
    partition; ``part`` is accepted so callers can share one signature
    across the solver API, and is unused.
    """
    if lambda_kernel is None:
        lambda_kernel = cfg.uses_lambda_kernel()
    _check_mesh(v, data, cfg)
    op = _operator(data, cfg, lambda_kernel)
    p = op.image(op.integrand(v.coeffs, _slopes_of(v)))
    return TimeField.from_stacks(data.b.t_grid, data.grid, p,
                                 _slopes(data, cfg))


def _quad_tolerance_from_nodes(q_nodes: np.ndarray, grid, T: float,
                               tol_fix: float) -> float:
    """Trapezoid-style error bound T/12 * max ||second difference||_inf."""
    if q_nodes.shape[0] < 3:
        return 10.0 * tol_fix
    d2 = q_nodes[2:] - 2.0 * q_nodes[1:-1] + q_nodes[:-2]
    axes = tuple(range(1, d2.ndim))
    vals = np.fft.ifftn(d2, axes=axes) * grid.n**grid.d
    sup = float(np.abs(vals).max())
    return max(T * sup / 12.0, 10.0 * tol_fix)


def solve_mild(data: PDEData, cfg: SolverConfig, part: DyadicPartition = None,
               calibration=None, v0: TimeField = None,
               compute_weak_residual: bool = True) -> SolveResult:
    """The mild solution: a global Picard prefix, then a backward march.

    The global Picard iteration runs first.  Convergence is declared on
    the unweighted sup-in-time increment norm, which dominates every
    rho-weighted norm (weights <= 1), so the rho-weighted stopping
    contract holds a fortiori; the weighted norms themselves are tracked
    in log space because the selected rho can push the weights far below
    the floating-point underflow threshold.  If it converges its iterate
    is the answer.  Otherwise it stops once it has ``CERTIFICATE_RATIOS``
    contraction ratios above the rounding floor, which bound the
    contraction constant, and the fixed point is reached node by node
    (``_operator``'s march).  The marched answer is then certified by one
    more application of T: ||T(v) - v|| must be within ``tol_fix``.
    Either way ``error_bound`` is the Banach a posteriori bound
    ||T(v) - v||_rho / (1 - max ratio), with the last Picard increment for
    ||T(v) - v|| when Picard converged (it dominates it).
    """
    if part is None:
        part = dyadic_partition(data.grid)
    rho = cfg.rho
    if rho == "auto":
        from .calibration import contraction_constant
        if calibration is None:
            raise SolverError(
                "rho='auto' needs a calibration; run calibrate first or "
                "pass rho explicitly")
        b_norm = path_besov_norm(data.b, -cfg.beta, part, "drift")
        rho = select_rho(cfg, b_norm, contraction_constant(calibration, cfg))
    rho = float(rho)
    kind = "dc" if data.is_affine else "c1plus"
    use_kernel = cfg.uses_lambda_kernel()
    op = _operator(data, cfg, use_kernel)
    integrand, image, slopes = op.integrand, op.image, op.slopes

    def increment_norms(dp, ds):
        if kind == "dc":
            return dc_norms(ds, dp, cfg.alpha, part)
        return c1plus_norms(dp, cfg.alpha, part)

    if v0 is None:
        _check_mesh(data.b, data, cfg)
        p = np.zeros((cfg.M + 1,) + data.grid.shape, dtype=complex)
        s = np.zeros_like(slopes)
    else:
        _check_mesh(v0, data, cfg)
        p, s = v0.coeffs, _slopes_of(v0)
    ratios = []
    ratios_raw = []
    prev_log = None
    noise_log = None
    streak = 0      # consecutive useful ratios above 1
    weighted_log = float("inf")
    sup_inc = float("inf")
    iterations = 0
    march, march_steps = "none", 0
    for iterations in range(1, cfg.max_iter + 1):
        p_next = image(integrand(p, s))
        norms = increment_norms(p_next - p, slopes - s)
        sup_inc = float(norms.max())
        if not math.isfinite(sup_inc):
            raise PicardError(
                f"non-finite increment at iteration {iterations} "
                f"(sup norm {sup_inc}); the iteration diverged", ratios_raw)
        weighted_log = rho_time_norm_log(norms, data.b.t_grid, rho)
        if noise_log is None:
            # increments are differences of O(solution-scale) fields, so the
            # rounding floor of a measured norm sits near eps * scale; the
            # terminal slice is reproduced exactly, hence the dt offset
            noise_log = (-rho * cfg.dt
                         + math.log(1e-13 * (1.0 + sup_inc)))
        if prev_log is not None:
            if weighted_log == -math.inf:
                raw = 0.0
            elif prev_log == -math.inf:
                raw = float("inf")
            else:
                raw = math.exp(weighted_log - prev_log)
            ratios_raw.append(raw)
            useful = min(prev_log, weighted_log) > noise_log + math.log(3.0)
            if useful:
                ratios.append(raw)
            streak = streak + 1 if useful and raw > 1.0 else 0
            if streak >= DIVERGENCE_STREAK:
                raise PicardError(
                    f"contraction ratio above 1 for {DIVERGENCE_STREAK} "
                    f"consecutive iterations at iteration {iterations} "
                    f"(last ratio {raw:.3e}); the iteration diverges",
                    ratios_raw)
        prev_log = weighted_log
        p, s = p_next, slopes
        if sup_inc <= cfg.tol_fix:
            q = integrand(p, s)
            break
        if len(ratios) >= CERTIFICATE_RATIOS:
            g = data.grid
            if (op.b_samples is not None
                    and g.n ** g.d <= DENSE_MARCH_MAX_UNKNOWNS):
                march = "dense"
                p, march_steps = _march_dense(op, ratios_raw)
            else:
                march = "iterative"
                p, march_steps = _march_iterative(op, cfg.max_iter,
                                                  ratios_raw)
            q = integrand(p, s)
            norms = increment_norms(image(q) - p, slopes - s)
            sup_inc = float(norms.max())
            weighted_log = rho_time_norm_log(norms, data.b.t_grid, rho)
            if not sup_inc <= cfg.tol_fix:
                raise PicardError(
                    f"the marched solution misses its certificate: "
                    f"||T(v) - v|| = {sup_inc:.3e} above tol_fix "
                    f"{cfg.tol_fix:.3e} after the {march} march",
                    ratios_raw)
            break
    else:
        raise PicardError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last increment {sup_inc:.3e})", ratios_raw)

    quad_tol = _quad_tolerance_from_nodes(q, data.grid, cfg.T, cfg.tol_fix)
    final_increment = (math.exp(weighted_log) if weighted_log > -math.inf
                       else 0.0)
    # no ratio above the rounding floor: every increment sat at it
    q_max = max(ratios, default=0.0)
    v = TimeField.from_stacks(data.b.t_grid, data.grid, p, s)
    result = SolveResult(
        v=v,
        iterations=iterations,
        ratios=ratios,
        rho=rho,
        final_increment=final_increment,
        final_increment_log=weighted_log,
        final_increment_sup=sup_inc,
        lam=cfg.lam,
        used_lambda_kernel=use_kernel,
        quad_tolerance=quad_tol,
        norm_kind=kind,
        ratios_raw=ratios_raw,
        march=march,
        march_steps=march_steps,
        error_bound=(final_increment / (1.0 - q_max) if q_max < 1.0
                     else math.inf),
    )
    if compute_weak_residual:
        report = weak_residual(v, data, cfg)
        result.weak_residual = report.residual
        result.weak_tolerance = report.tolerance
    return result


def solve_u(b: TimeField, i: int, cfg: SolverConfig,
            part: DyadicPartition = None, **kwargs) -> SolveResult:
    """Solve the drift-component equation: g = -b_i, zero terminal data."""
    if cfg.lam <= 0:
        raise SolverError("solve_u needs lam > 0")
    g = b.grid
    neg_bi = TimeField.from_stacks(b.t_grid, g, b.coeffs[:, i] * -1.0)
    data = PDEData(b=b, g=neg_bi, v_T=SpectralField.zero(g))
    return solve_mild(data, cfg, part=part, **kwargs)


# ---------------------------------------------------------------------------
# the transform phi = id + u and its inverse


def identity_component(grid, i: int) -> AffinePeriodicField:
    slope = np.zeros(grid.d)
    slope[i] = 1.0
    return AffinePeriodicField(slope, SpectralField.zero(grid))


@dataclass(eq=False)
class PhiResult:
    phi: TimeField
    u_results: list
    grad_sup: float
    corollary_residual: float
    lam: float

    @property
    def phi_equation_residual(self) -> float:
        """Weak residual of the transform's own equation.

        Through the affine reduction the equation for phi_i collapses
        exactly onto the component equation for u_i, so the worst
        component residual is the transform's residual.
        """
        vals = [r.weak_residual for r in self.u_results]
        return max(vals) if vals else float("nan")


def build_phi(b: TimeField, cfg: SolverConfig, part: DyadicPartition = None,
              check_corollary: bool = True, **kwargs) -> PhiResult:
    """Assemble phi(t, x) = x + u(t, x) from the d component solves.

    The slope of every slice is the identity matrix; the periodic part
    stacks the component solutions.  As a byproduct the discrete
    counterpart of 'the identity solves the drift equation with source
    b_i' is checked through its weak residual.
    """
    if part is None:
        part = dyadic_partition(b.grid)
    g = b.grid
    results = [solve_u(b, i, cfg, part=part, **kwargs) for i in range(g.d)]
    # (M+1, d) + grid: component i of u at every node
    u = np.stack([r.v.coeffs for r in results], axis=1)
    grad_sup = float(np.max(sup_norms(gradient_stack(u, g), g)))
    phi = TimeField.from_stacks(b.t_grid, g, u,
                                np.repeat(np.eye(g.d)[None], len(u), axis=0))

    corollary = float("nan")
    if check_corollary:
        corollary = 0.0
        id_cfg = replace(cfg, lam=0.0, rho=1.0)
        for i in range(g.d):
            b_i = TimeField.from_stacks(b.t_grid, g, b.coeffs[:, i])
            data = PDEData(b=b, g=b_i, v_T=identity_component(g, i))
            v_id = TimeField(b.t_grid,
                             [identity_component(g, i)] * len(b.t_grid))
            rep = weak_residual(v_id, data, id_cfg)
            corollary = max(corollary, rep.residual)
    return PhiResult(phi=phi, u_results=results, grad_sup=grad_sup,
                     corollary_residual=corollary, lam=cfg.lam)


def invert_phi(phi: TimeField, t: float, y, tol: float = 1e-12,
               max_steps: int = 50) -> np.ndarray:
    """Newton inversion of x -> phi(t, x) at the target point y.

    phi(t) is interpolated linearly between the mesh nodes around t.
    Starts from x0 = y; valid whenever the gradient certificate
    sup |grad phi - I| <= 1/2 holds, which keeps the Jacobian uniformly
    invertible and the inverse 2-Lipschitz.  Non-convergence signals a
    violated lambda certificate.
    """
    y = np.asarray(y, dtype=float)
    mesh = phi.t_grid
    t = float(np.clip(t, mesh[0], mesh[-1]))
    m = min(int(np.searchsorted(mesh, t, side="right") - 1), len(mesh) - 2)
    w = (t - mesh[m]) / (mesh[m + 1] - mesh[m])
    # (component, axis); identity for phi
    slope = (1 - w) * phi.slopes[m] + w * phi.slopes[m + 1]
    u = SpectralField(phi.grid, (1 - w) * phi.coeffs[m]
                      + w * phi.coeffs[m + 1])
    du = gradient(u)       # entries (axis, component) = d_axis u_comp
    x = y.copy()
    for step in range(max_steps):
        f_val = slope @ x + evaluate_at(u, x) - y
        if np.linalg.norm(f_val) <= tol:
            return x
        jac = slope + evaluate_at(du, x).T
        x = x - np.linalg.solve(jac, f_val)
    res = float(np.linalg.norm(slope @ x + evaluate_at(u, x) - y))
    raise NewtonError(
        f"Newton inversion did not reach {tol:g} in {max_steps} steps "
        f"(residual {res:.3e}); the gradient certificate may be violated",
        max_steps, res)


# ---------------------------------------------------------------------------
# residual checks


def default_test_fields(grid, count: int = 4, max_mode: int = 3,
                        seed: int = 2718) -> list:
    """Band-limited smooth real test fields, unit sup norm."""
    rng = np.random.default_rng(seed)
    fields = []
    modes = grid.mode_axis()
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.n
        mask &= (np.abs(modes.reshape(shape)) <= max_mode)
    for _ in range(count):
        white = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n**grid.d
        f = SpectralField(grid, white * mask)
        fields.append(f * (1.0 / f.sup_norm()))
    return fields


@dataclass(eq=False)
class WeakResidualReport:
    residual: float
    tolerance: float
    per_test: np.ndarray
    affine_residual: float

    def passed(self, factor: float = 10.0) -> bool:
        return self.residual <= factor * self.tolerance


def weak_residual(v: TimeField, data: PDEData, cfg: SolverConfig,
                  test_set=None) -> WeakResidualReport:
    """Maximal weak-form defect of v over smooth test fields and mesh times.

    Affine slices are reduced to their periodic parts: the slope satisfies
    its decoupled evolution exactly (checked and reported separately) and
    contributes the extra source -slope(s) . b(s) to the periodic channel.
    Pairing against periodic test functions then carries no boundary
    artifacts from the non-periodic linear growth.
    """
    grid = data.grid
    if test_set is None:
        test_set = default_test_fields(grid)
    h = float(v.t_grid[1] - v.t_grid[0])
    p, slopes, b = v.coeffs, _slopes_of(v), data.b.coeffs
    # np.max, not the builtin max: a NaN slope must show
    affine_res = float(np.max(np.abs(slopes - _slopes(data, cfg))))

    # node stacks of the periodic weak-form integrand
    drift = drift_terms(gradient_stack(p, grid), b, grid)
    source = data.g.coeffs - np.einsum("md,md...->m...", slopes, b)
    k2 = grid.k_squared()
    volume = grid.L**grid.d

    def pairing(chi_hat, stack):
        """Integral of chi * f over the torus at every node."""
        rows = (np.conj(chi_hat) * stack).reshape(len(stack), -1)
        return np.sum(rows, axis=1).real * volume

    per_test = []
    tolerance = 0.0
    for chi in test_set:
        chi_hat = chi.coeffs
        chi_p = pairing(chi_hat, p)
        a_vals = (pairing(-0.5 * k2 * chi_hat, p) + pairing(chi_hat, drift)
                  - cfg.lam * chi_p - pairing(chi_hat, source))
        # cumulative trapezoid of a_vals from t_m to T
        cells = 0.5 * h * (a_vals[1:] + a_vals[:-1])
        tail = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
        defects = chi_p[-1] - chi_p + tail
        per_test.append(float(np.abs(defects).max()))
        if len(a_vals) >= 3:
            d2 = np.abs(a_vals[2:] - 2 * a_vals[1:-1] + a_vals[:-2]).max()
            tolerance = max(tolerance, cfg.T * d2 / 12.0)
    tolerance = max(tolerance, 20.0 * cfg.tol_fix)
    return WeakResidualReport(
        residual=float(max(per_test)),
        tolerance=float(tolerance),
        per_test=np.asarray(per_test),
        affine_residual=affine_res,
    )


def mild_residual(v: TimeField, data: PDEData, cfg: SolverConfig,
                  part: DyadicPartition = None,
                  lambda_kernel: bool = None) -> float:
    """sup-in-time sup-norm of v - T(v) for the requested operator form.

    Evaluating the form that was *not* used for the iteration gives an
    independent check of the integral equation satisfied by the solution.
    """
    image = apply_T(v, data, cfg, part=part, lambda_kernel=lambda_kernel)
    sups = sup_norms(v.coeffs - image.coeffs, data.grid)
    gaps = np.abs(_slopes_of(v) - image.slopes).max(axis=1)
    # np.max, not the builtin max: a NaN slice must make the residual NaN
    return float(np.max([sups, gaps]))


def rlambda_bound_check(data: PDEData, cfg: SolverConfig, c_cal: float,
                        result: SolveResult = None,
                        part: DyadicPartition = None) -> dict:
    """Check the a-priori bound ||v|| <= R_lam(||b||)(||v_T|| + ||g||).

    R_lam(x) = 2 exp([2 c (lam + x)]^(1/theta') T) max(1, 1/lam) with
    theta' = (1 - alpha - beta)/2; bounded data only.
    """
    if cfg.lam <= 0:
        raise SolverError("rlambda_bound_check needs lam > 0")
    if data.is_affine:
        raise SolverError("rlambda_bound_check applies to bounded data")
    if part is None:
        part = dyadic_partition(data.grid)
    if result is None:
        result = solve_mild(data, cfg, part=part, compute_weak_residual=False)
    v = result.v
    lhs = float(np.max(c1plus_norms(v.coeffs, cfg.alpha, part)))
    b_norm = path_besov_norm(data.b, -cfg.beta, part, "drift")
    g_norm = path_besov_norm(data.g, -cfg.beta, part, "source")
    vt_norm = c1plus_norm(data.v_T.periodic, cfg.alpha, part)
    theta_p = (1.0 - cfg.alpha - cfg.beta) / 2.0
    # R_lambda is a double exponential in the drift norm; both sides are
    # compared in log space so the check survives the inevitable overflow
    log_r_lam = (math.log(2.0)
                 + (2.0 * c_cal * (cfg.lam + b_norm)) ** (1.0 / theta_p) * cfg.T
                 + max(0.0, -math.log(cfg.lam)))
    log_rhs = log_r_lam + math.log(vt_norm + g_norm)
    # a NaN lhs gives a NaN log, and the bound then does not hold
    log_lhs = math.log(lhs) if lhs != 0.0 else -math.inf
    slack_log = log_rhs - log_lhs
    return {
        "lhs": lhs,
        "log_rhs": log_rhs,
        "rhs": math.exp(min(log_rhs, 700.0)),
        "log_r_lambda": log_r_lam,
        "slack_log": slack_log,
        "slack": math.exp(min(slack_log, 700.0)),
        "holds": bool(log_lhs <= log_rhs),
    }
