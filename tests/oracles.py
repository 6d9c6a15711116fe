"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the mathematics, not
against the package: naive DFT summation, dense pair enumeration,
integrating-factor Runge-Kutta time stepping, bisection, quadrature.
Where a reference runs package code, its docstring says so.

The module also holds machinery the paper's claims rest on that no
command runs: the Bony split of a product (its three terms sum to the
dealiased product), the classical Holder norm (equivalent to the
Besov-Holder norm for gamma in (0, 1)), fields with prescribed block
norms, and the time-continuity fit of the heat semigroup.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from besovpde import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TimeField,
    apply_heat,
    apply_T,
    besov_norm,
    dc_norm,
    dyadic_partition,
    dyadic_random_field,
    evaluate_at,
    gradient,
)
from besovpde.calibration import contraction_constant, pair_key
from besovpde.grid import _embed_axis, _padded_samples
from besovpde.heat import _loglog_fit
from besovpde.lp import _ring_labels, c1plus_norms, dc_norms, rho_time_norm_log
from besovpde.paraproduct import _truncate_to_grid
from besovpde.solver import (
    DIVERGENCE_STREAK,
    PicardError,
    SolveResult,
    SolverError,
    _check_mesh,
    _operator,
    _quad_tolerance_from_nodes,
    default_test_fields,
    path_besov_norm,
    select_rho,
    weak_residual,
)


def refined_samples(f, refine):
    """Samples of one field on the ``refine``-times finer grid."""
    return _padded_samples(f.coeffs, f.grid, refine)


def naive_dft_1d(samples):
    """O(n^2) forward transform with the mean normalization."""
    n = len(samples)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        kk = k if k < n // 2 else k - n
        for m in range(n):
            out[k] += samples[m] * np.exp(-2j * np.pi * kk * m / n)
    return out / n


def dense_holder_norm_1d(samples, gamma, dx, L):
    """Holder norm by full pair enumeration with torus distances below 1."""
    n = len(samples)
    sup = np.abs(samples).max()
    semi = 0.0
    for c in range(1, n // 2 + 1):
        h = c * dx
        h = min(h, L - h)
        if not 0.0 < h < 1.0:
            continue
        diff = np.abs(samples - np.roll(samples, c)).max()
        semi = max(semi, diff / h**gamma)
    return sup + semi


def bernstein_value_exact(scalars, t: Fraction):
    """Exact-rational Bernstein sum for scalar node values."""
    n = len(scalars) - 1
    acc = Fraction(0)
    for j, fj in enumerate(scalars):
        acc += Fraction(fj) * comb(n, j) * t**j * (1 - t) ** (n - j)
    return acc


def gamma_by_quadrature(eta, nodes=96):
    """Gamma function by Gauss-Legendre quadrature of its integral form.

    The singular piece over (0, 1) is regularized by x = u^(1/eta); the
    tail is integrated on (1, 50) where the integrand decays below 2e-22.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    # (0,1): integral of e^{-x} x^{eta-1} dx = (1/eta) int_0^1 e^{-u^{1/eta}} du
    u = 0.5 * (x + 1.0)
    part1 = float(np.sum(0.5 * w * np.exp(-u ** (1.0 / eta)))) / eta
    # (1,50)
    y = 0.5 * (x + 1.0) * 49.0 + 1.0
    part2 = float(np.sum(0.5 * 49.0 * w * np.exp(-y) * y ** (eta - 1.0)))
    return part1 + part2


def bisect_inverse(fn, target, lo, hi, tol=1e-13, max_iter=200):
    """Inverse of an increasing scalar function by bisection."""
    flo, fhi = fn(lo) - target, fn(hi) - target
    assert flo <= 0 <= fhi, "target not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid) - target
        if fmid <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Holder norm by structured pair sampling
#
# For gamma in (0, 1) the Besov-Holder norm besov_norm(f, gamma) and the
# classical Holder norm are equivalent; this estimator is what tests check
# that equivalence with.

# fixed seed for the pair-sampling offsets; the norm must be a
# deterministic function of the field
_HOLDER_SAMPLING_SEED = 1618


def _holder_offsets(grid):
    """Offset vectors (in cells) at dyadic axis separations plus 64 seeded
    random directions, all with torus distance below min(1, L/2)."""
    n, d, dx = grid.n, grid.d, grid.dx
    h_cap = min(1.0, grid.L / 2.0)
    c_cap = n // 2
    offsets = []
    # dyadic cell counts per axis, plus the largest admissible separation
    counts = []
    c = 1
    while c <= c_cap and c * dx < h_cap:
        counts.append(c)
        c *= 2
    top = min(c_cap, int(math.ceil(h_cap / dx)) - 1)
    if top >= 1 and top not in counts:
        counts.append(top)
    for ax in range(d):
        for c in counts:
            vec = np.zeros(d, dtype=int)
            vec[ax] = c
            offsets.append(vec)
    rng = np.random.default_rng(_HOLDER_SAMPLING_SEED)
    tries = 0
    added = 0
    while added < 64 and tries < 2000:
        tries += 1
        vec = rng.integers(-c_cap, c_cap, size=d, endpoint=True)
        wrapped = (vec + n // 2) % n - n // 2
        dist = dx * np.linalg.norm(wrapped)
        if dist == 0.0 or dist >= h_cap:
            continue
        offsets.append(np.asarray(wrapped, dtype=int))
        added += 1
    return offsets


def _pointwise_magnitude(vals, comp_shape, d):
    if comp_shape:
        flat = vals.reshape((-1,) + vals.shape[-d:])
        return np.sqrt(np.sum(flat**2, axis=0))
    return np.abs(vals)


def holder_norm(f, gamma):
    """Classical Holder norm, gamma in (0, 1): sup norm plus the seminorm
    sup |f(x) - f(y)| / |x - y|^gamma over sampled grid pairs with torus
    distance below 1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"holder_norm needs gamma in (0,1), got {gamma}")
    g = f.grid
    vals = f.samples()
    sup = float(_pointwise_magnitude(vals, f.comp_shape, g.d).max())
    semi = 0.0
    space_axes = tuple(range(vals.ndim - g.d, vals.ndim))
    for vec in _holder_offsets(g):
        wrapped = (vec + g.n // 2) % g.n - g.n // 2
        h = g.dx * float(np.linalg.norm(wrapped))
        diff = vals - np.roll(vals, shift=tuple(vec), axis=space_axes)
        top = float(_pointwise_magnitude(diff, f.comp_shape, g.d).max())
        semi = max(semi, top / h**gamma)
    return sup + semi


# ---------------------------------------------------------------------------
# fields with prescribed block norms


def interior_mode_field(grid, block_targets, seed, part=None):
    """Field whose listed blocks have exactly the requested sup norms.

    Each block is realized by a single cosine mode at a radius interior to
    exactly one analysis window (4/3 * 2^j < r < 3/2 * 2^j), so the window
    weight is 1 and the block equals the constructed mode.  Raises if some
    requested block has no interior lattice radius at this resolution.
    """
    if part is None:
        part = dyadic_partition(grid)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    for j, target in sorted(block_targets.items()):
        r = _interior_radius(grid, j)
        if r is None:
            raise ValueError(
                f"block {j} has no single-window lattice radius at n={grid.n}"
            )
        theta = rng.uniform(0.0, 2.0 * np.pi)
        idx_pos = (r,) + (0,) * (grid.d - 1)
        idx_neg = (grid.n - r,) + (0,) * (grid.d - 1)
        coeffs[idx_pos] += 0.5 * np.exp(1j * theta)
        coeffs[idx_neg] += 0.5 * np.exp(-1j * theta)
        f_j = SpectralField(grid, coeffs * part.window(j))
        # measure on the same refined grid the norm estimators use, so the
        # forced block norms are exact under besov_norm
        sup = f_j.sup_norm(refine=2)
        scale = target / sup
        coeffs[idx_pos] *= scale
        coeffs[idx_neg] *= scale
    return SpectralField(grid, coeffs)


def _interior_radius(grid, j):
    lo = (8.0 / 3.0) * 2.0 ** (j - 1)
    hi = 1.5 * 2.0**j
    for r in range(int(math.floor(lo)) + 1, int(math.ceil(hi))):
        if lo < r < hi and r <= grid.n // 2 - 1:
            if r % 2 == 1:  # odd radii give dense phase coverage when refined
                return r
    for r in range(int(math.floor(lo)) + 1, int(math.ceil(hi))):
        if lo < r < hi and r <= grid.n // 2 - 1:
            return r
    return None


# ---------------------------------------------------------------------------
# time continuity of the heat semigroup in the linear-growth norm


def dc_time_continuity_fit(alpha, nu, fields, eps_samples, part=None):
    """Fit ||P_eps h - h||_{DC^alpha} against eps for h of regularity alpha+nu.

    Returns the EstimateReport (expected slope (nu ^ 1)/2) together with the
    worst trace-term margin |P_eps h(0) - h(0)| / (sqrt(2/pi) eps^(1/2)
    ||grad h||_inf), whose bound is exact in one dimension.  Runs package
    code: the fit is ``heat._loglog_fit``, the norms ``dc_norm``.
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


# ---------------------------------------------------------------------------
# method-of-lines reference solver (independent time stepper)


def _pad_product_1d(a_hat, b_hat, n):
    """Dealiased product of two coefficient arrays via 2x zero padding."""
    big = 2 * n

    def pad(c):
        out = np.zeros(big, dtype=complex)
        out[: n // 2] = c[: n // 2]
        out[big - n // 2 + 1:] = c[n // 2 + 1:]
        out[n // 2] = 0.5 * c[n // 2]
        out[big - n // 2] = 0.5 * c[n // 2]
        return out

    fa = np.fft.ifft(pad(a_hat)) * big
    fb = np.fft.ifft(pad(b_hat)) * big
    prod = np.fft.fft(fa * fb) / big
    out = np.zeros(n, dtype=complex)
    out[: n // 2] = prod[: n // 2]
    out[n // 2 + 1:] = prod[big - n // 2 + 1:]
    out[n // 2] = prod[n // 2] + prod[big - n // 2]
    return out


def mol_reference_1d(v_T_samples, b_samples_fn, g_samples_fn, lam, L, T,
                     steps, record_every):
    """Backward-equation reference by forward-time integrating-factor RK4.

    Solves d_tau w = (1/2) w'' + w' b - lam w - g for w(tau) = v(T - tau)
    spectrally in space; products are dealiased by zero padding.  Returns
    the list of sample snapshots at tau = k * record_every * dtau, i.e.
    v at mesh times T, T - h, ..., 0.
    """
    n = len(v_T_samples)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    lin = -0.5 * k**2
    dtau = T / steps
    e_half = np.exp(lin * dtau / 2.0)
    e_full = np.exp(lin * dtau)

    def nonlinear(tau, w_hat):
        t_back = T - tau
        b_hat = np.fft.fft(b_samples_fn(t_back)) / n
        g_hat = np.fft.fft(g_samples_fn(t_back)) / n
        ikw = 1j * k * w_hat
        ikw[n // 2] = 0.0
        drift = _pad_product_1d(ikw, b_hat, n)
        return drift - lam * w_hat - g_hat

    w_hat = np.fft.fft(np.asarray(v_T_samples, dtype=float)) / n
    snapshots = [np.fft.ifft(w_hat).real * n]
    for step in range(steps):
        tau = step * dtau
        k1 = nonlinear(tau, w_hat)
        k2 = nonlinear(tau + dtau / 2, e_half * (w_hat + dtau / 2 * k1))
        k3 = nonlinear(tau + dtau / 2, e_half * w_hat + dtau / 2 * k2)
        k4 = nonlinear(tau + dtau, e_full * w_hat + dtau * e_half * k3)
        w_hat = (e_full * w_hat
                 + dtau / 6.0 * (e_full * k1 + 2 * e_half * k2
                                 + 2 * e_half * k3 + k4))
        if (step + 1) % record_every == 0:
            snapshots.append(np.fft.ifft(w_hat).real * n)
    return snapshots


# ---------------------------------------------------------------------------
# refined-grid samples through the complex transform


def complex_padded_samples(coeffs, grid, refine):
    """``grid._padded_samples`` through one complex inverse transform.

    Package code: the whole zero-padded spectrum (every axis embedded,
    Nyquist split) goes through ``ifftn``, and the real part is kept.
    This is the path the real-to-complex kernel replaced; it needs no
    Hermitian symmetry of its input.
    """
    n, d = grid.n, grid.d
    fine_n = refine * n
    pad = coeffs
    if refine > 1:
        for ax in range(d):
            pad = _embed_axis(pad, pad.ndim - d + ax, n, fine_n)
    vals = np.fft.ifftn(pad, axes=tuple(range(pad.ndim - d, pad.ndim)))
    return (vals * fine_n**d).real


# ---------------------------------------------------------------------------
# the Bony split of a product


@dataclass(frozen=True, eq=False)
class BonyProduct:
    """The three Bony terms of a pointwise product and their sum."""

    para_low_high: SpectralField  # low f times high g
    para_high_low: SpectralField  # low g times high f
    resonant: SpectralField
    total: SpectralField
    alpha: float
    beta: float
    hypothesis_ok: bool


def bony_product(f, alpha, g, beta, part=None):
    """Decomposed product of f in C^alpha with g in C^(-beta).

    The product splits into two paraproducts and a resonant part: block
    pairs (i, j) with i <= j-2 (low f times high g), j <= i-2, and
    |i - j| <= 1.  Block products are taken on the 2x grid through the
    package's padded-sample kernel and truncated back to the band by
    ``paraproduct._truncate_to_grid``, so the three terms sum to
    ``dealiased_product(f, g)`` up to rounding.  The estimate
    ||f g||_{-beta} <= c ||f||_alpha ||g||_{-beta} needs alpha, beta > 0
    and alpha - beta > 0; outside that range the product is still computed
    and the result carries hypothesis_ok=False.
    """
    if f.grid != g.grid:
        raise GridError("bony_product: fields on different grids")
    if f.comp_shape or g.comp_shape:
        raise GridError("bony_product expects scalar fields")
    if part is None:
        part = dyadic_partition(f.grid)
    ok = alpha > 0 and beta > 0 and alpha - beta > 0
    if not ok:
        warnings.warn(
            f"bony estimate hypothesis violated (alpha={alpha}, beta={beta}); "
            "computing the product anyway", stacklevel=2)
    # every block of each factor on the 2x grid, one transform per factor
    fb = _padded_samples(part.windows * f.coeffs, f.grid, 2)
    gb = _padded_samples(part.windows * g.coeffs, g.grid, 2)
    nblocks = fb.shape[0]
    f_cum = np.cumsum(fb, axis=0)
    g_cum = np.cumsum(gb, axis=0)
    low_high = np.zeros_like(fb[0])
    high_low = np.zeros_like(fb[0])
    resonant = np.zeros_like(fb[0])
    for p in range(nblocks):  # p = j + 1
        if p >= 2:
            low_high += f_cum[p - 2] * gb[p]
            high_low += g_cum[p - 2] * fb[p]
        lo, hi = max(0, p - 1), min(nblocks - 1, p + 1)
        resonant += fb[p] * (g_cum[hi] - (g_cum[lo - 1] if lo > 0 else 0.0))
    terms = _truncate_to_grid(np.stack([low_high, high_low, resonant]), f.grid)
    t_lh, t_hl, t_res = (SpectralField(f.grid, c) for c in terms)
    total = t_lh + t_hl + t_res
    return BonyProduct(para_low_high=t_lh, para_high_low=t_hl,
                       resonant=t_res, total=total,
                       alpha=alpha, beta=beta, hypothesis_ok=ok)


def bony_drift_pairing(w, b, alpha, beta, part=None):
    """sum_i bony_product(w_i, alpha, b_i, beta).total for vector fields.

    This reference runs package code: it is the three-term Bony sum
    (``bony_product`` above) that the solver's one-product drift pairing
    replaced, kept as the reference for that path.  Regularities outside
    the product estimate's range only clear the hypothesis flag, so its
    warning is silenced.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        terms = [bony_product(w.component(i), alpha, b.component(i), beta,
                              part).total
                 for i in range(w.comp_shape[0])]
    return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# norms one field and one block at a time


def _sup_of_samples(vals, comp_shape, d):
    """Largest pointwise Euclidean magnitude of a field's samples."""
    if comp_shape:
        flat = vals.reshape((-1,) + vals.shape[-d:])
        return float(np.sqrt(np.sum(np.abs(flat) ** 2, axis=0)).max())
    return float(np.abs(vals).max())


def per_block_sup_norms(f, part, refine=2):
    """Sup norm of every dyadic block of one field, one block at a time.

    Package code again: the per-block loop that the stacked, chunked
    ``lp.block_sup_stack`` replaced, with the sup norm written out over
    ``refined_samples`` of each windowed block.
    """
    return np.array([
        _sup_of_samples(
            refined_samples(SpectralField(f.grid, f.coeffs * w), refine),
            f.comp_shape, f.grid.d)
        for w in part.windows])


def _affine(s):
    if isinstance(s, SpectralField):
        return AffinePeriodicField.from_periodic(s)
    return s


def pack(tf):
    """A path's ``(M+1,) + comp + grid`` periodic coefficients and its
    slopes (zero at periodic nodes), read node by node from ``tf.slices``."""
    slices = [_affine(s) for s in tf.slices]
    return (np.array([s.periodic.coeffs for s in slices]),
            np.array([s.slope for s in slices]))


def unpack(t_grid, grid, coeffs, slopes):
    """The path of affine nodes with these periodic coefficients and slopes,
    built as a list of per-node fields."""
    return TimeField(t_grid, [
        AffinePeriodicField(s, SpectralField(grid, c))
        for s, c in zip(slopes, coeffs)])


def _increment_norm(delta, kind, alpha, part):
    """One slice's dc or c1plus norm, the Besov norm block by block.

    ``dc``: |dv(0)| + ||slope + grad dp||_alpha; ``c1plus``:
    sup |dp| + ||grad dp||_alpha.
    """
    d = delta.grid.d
    if kind == "dc":
        origin = float(np.abs(evaluate_at(delta, np.zeros(d))))
        grad = delta.gradient_field()
    else:
        origin = _sup_of_samples(refined_samples(delta.periodic, 2), (), d)
        grad = gradient(delta.periodic)
    sups = per_block_sup_norms(grad, part)
    return origin + float(np.max(2.0 ** (part.j_indices * alpha) * sups))


def per_slice_dc_norms(slopes, coeffs, alpha, part):
    """``lp.dc_norms`` one field at a time, through ``_increment_norm``.

    The per-slice loop the solver's stacked increment norms replaced.
    """
    return np.array([
        _increment_norm(AffinePeriodicField(s, SpectralField(part.grid, c)),
                        "dc", alpha, part)
        for s, c in zip(slopes, coeffs)])


def per_slice_c1plus_norms(coeffs, alpha, part):
    """``lp.c1plus_norms`` one field at a time, through ``_increment_norm``."""
    return np.array([
        _increment_norm(AffinePeriodicField.from_periodic(
            SpectralField(part.grid, c)), "c1plus", alpha, part)
        for c in coeffs])


# ---------------------------------------------------------------------------
# the Picard machinery one mesh node at a time


def _truncate_one(fine_samples, grid):
    """Coefficients on the coarse band of one field's 2x-grid samples:
    modes beyond the band dropped, the +-n/2 pair merged into Nyquist."""
    n, d = grid.n, grid.d
    fine_n = fine_samples.shape[-1]
    axes = tuple(range(fine_samples.ndim - d, fine_samples.ndim))
    coeffs = np.fft.fftn(fine_samples, axes=axes) / fine_n**d
    idx = np.concatenate([np.arange(0, n // 2), [n // 2],
                          np.arange(fine_n - n // 2 + 1, fine_n)])
    for ax in range(d):
        axis = coeffs.ndim - d + ax
        neg_nyq = np.take(coeffs, fine_n - n // 2, axis=axis)
        coeffs = np.take(coeffs, idx, axis=axis)
        nyq = [slice(None)] * coeffs.ndim
        nyq[axis] = n // 2
        coeffs[tuple(nyq)] += neg_nyq
    return coeffs


def node_drift_term(w, b):
    """w . b for two vector fields: one 2x-grid product summed over
    components, then truncated.  Package code for the samples; the
    single-field pairing the stacked ``paraproduct.drift_terms`` replaced.
    """
    prod = np.sum(refined_samples(w, 2) * refined_samples(b, 2), axis=0)
    return SpectralField(w.grid, _truncate_one(prod, w.grid))


def per_node_drift_terms(w, b, grid, b_samples=None):
    """``paraproduct.drift_terms`` as a loop of ``node_drift_term``; it
    samples b itself, so ``b_samples`` is ignored."""
    return np.array([node_drift_term(SpectralField(grid, wi),
                                     SpectralField(grid, bi)).coeffs
                     for wi, bi in zip(w, b)])


def _node_sweep(q_nodes, mu, dt):
    """Backward sweep of exp(-mu (s - t_m)) against the piecewise-linear
    interpolant of the node values q, one cell at a time."""
    a = mu * dt
    safe = np.where(a > 0, a, 1.0)
    em = np.expm1(-safe)
    p1 = np.where(a > 0, -em / safe, 1.0)
    p2 = np.where(a > 0, (safe + em) / safe**2, 0.5)
    decay, w_left, w_right = np.exp(-a), dt * p2, dt * (p1 - p2)
    out = np.zeros_like(q_nodes)
    acc = np.zeros_like(q_nodes[0])
    for m in range(len(q_nodes) - 2, -1, -1):
        acc = decay * acc + w_left * q_nodes[m] + w_right * q_nodes[m + 1]
        out[m] = acc
    return out


def per_node_apply_T(v, data, cfg, lambda_kernel=None):
    """The Duhamel operator with the drift paired one node at a time.

    Package code for the fields; the per-node form of ``solver.apply_T``
    that the coefficient-stack operator replaced.
    """
    if lambda_kernel is None:
        lambda_kernel = cfg.uses_lambda_kernel()
    g = data.grid
    slices = [_affine(s) for s in v.slices]
    drift = np.array([node_drift_term(s.gradient_field(), b_m).coeffs
                      for s, b_m in zip(slices, data.b.slices)])
    g_coeffs = np.array([s.coeffs for s in data.g.slices])
    if lambda_kernel:
        q = drift - g_coeffs
        mu = cfg.lam + 0.5 * g.k_squared()
    else:
        q = drift - cfg.lam * np.array([s.periodic.coeffs for s in slices]) \
            - g_coeffs
        mu = 0.5 * g.k_squared()
    integrals = _node_sweep(q, mu, cfg.T / cfg.M)
    v_T = data.v_T
    out = []
    for m, t in enumerate(v.t_grid):
        tail = cfg.T - t
        coeffs = np.exp(-mu * tail) * v_T.periodic.coeffs + integrals[m]
        out.append(AffinePeriodicField(
            v_T.slope * math.exp(-cfg.lam * tail),
            SpectralField(g, coeffs)))
    return TimeField(v.t_grid, out)


def per_node_weak_residual(v, data, cfg, test_set=None):
    """``solver.weak_residual`` one node and one pairing at a time.

    Returns (residual, tolerance, per_test, affine_residual).
    """
    grid = data.grid
    if test_set is None:
        test_set = default_test_fields(grid)
    t = v.t_grid
    h = float(t[1] - t[0])
    lam = cfg.lam
    slices = [_affine(s) for s in v.slices]
    slope_T = data.v_T.slope
    affine_res = 0.0
    for tm, s in zip(t, slices):
        expected = slope_T * math.exp(-lam * (cfg.T - tm))
        affine_res = max(affine_res, float(np.abs(s.slope - expected).max()))

    def pairing(chi_hat, f_coeffs):
        return float(np.sum(np.conj(chi_hat) * f_coeffs).real) * grid.L**grid.d

    drift_nodes, source_nodes = [], []
    for s, b_m, g_m in zip(slices, data.b.slices, data.g.slices):
        drift_nodes.append(node_drift_term(gradient(s.periodic), b_m).coeffs)
        slope_dot_b = np.tensordot(s.slope, b_m.coeffs, axes=(0, 0))
        source_nodes.append(g_m.coeffs - slope_dot_b)
    p_nodes = [s.periodic.coeffs for s in slices]
    k2 = grid.k_squared()
    per_test = []
    tolerance = 0.0
    for chi in test_set:
        chi_hat = chi.coeffs
        lap_chi_hat = -0.5 * k2 * chi_hat
        a_vals = np.array([
            pairing(lap_chi_hat, p_nodes[m]) + pairing(chi_hat, drift_nodes[m])
            - lam * pairing(chi_hat, p_nodes[m])
            - pairing(chi_hat, source_nodes[m])
            for m in range(len(t))])
        cells = 0.5 * h * (a_vals[1:] + a_vals[:-1])
        tail = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
        pair_T = pairing(chi_hat, p_nodes[-1])
        defects = np.array([pair_T - pairing(chi_hat, p_nodes[m]) + tail[m]
                            for m in range(len(t))])
        per_test.append(float(np.abs(defects).max()))
        d2 = np.abs(a_vals[2:] - 2 * a_vals[1:-1] + a_vals[:-2]).max()
        tolerance = max(tolerance, cfg.T * d2 / 12.0)
    tolerance = max(tolerance, 20.0 * cfg.tol_fix)
    return max(per_test), tolerance, np.asarray(per_test), affine_res


def convolution_constant_by_apply_T(grid, alpha, beta, seed, T=1.0, M=64,
                                    n_fields=6):
    """``calibration.calibrate_convolution`` with the time integral taken
    by ``apply_T``: T(0) for zero drift, zero terminal data and g = -l is
    the integral of P l.  Every slice norm is measured on its own."""
    from besovpde import PDEData, SolverConfig

    part = dyadic_partition(grid)
    mesh = TimeField.uniform_mesh(T, M)
    cfg = SolverConfig(beta=beta, eps=1e-3, alpha=alpha, T=T, M=M,
                       lam=0.0, rho=1.0)
    zero_b = TimeField(mesh, [SpectralField.zero(grid, (grid.d,))] * (M + 1))
    zero_v = TimeField(mesh, [AffinePeriodicField(np.zeros(grid.d),
                                                  SpectralField.zero(grid))]
                       * (M + 1))
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    worst = 0.0
    for s in seed.spawn(n_fields):
        ell0 = dyadic_random_field(grid, -beta, s, part=part)
        data = PDEData(b=zero_b, g=TimeField(mesh, [(-1.0) * ell0] * (M + 1)),
                       v_T=SpectralField.zero(grid))
        image = apply_T(zero_v, data, cfg, part)
        x_norms = np.array([dc_norm(sl, alpha, part) for sl in image.slices])
        l_norms = np.array([besov_norm(ell0, -beta, part).value] * (M + 1))
        for rho in (1.0, 4.0, 16.0, 64.0):
            num = rho_time_norm_log(x_norms, mesh, rho)
            den = rho_time_norm_log(l_norms, mesh, rho)
            scale = 0.5 * (alpha + beta - 1.0) * math.log(rho)
            worst = max(worst, math.exp(num - den - scale))
    return worst


def picard_solve(data, cfg, part=None, calibration=None, v0=None,
                 compute_weak_residual=True):
    """``solver.solve_mild`` as the global Picard iteration alone.

    The loop the backward march replaced, run until the increment is
    within ``tol_fix``: every contraction ratio of a full Picard solve.
    Package code for the operator, norms and diagnostics.
    """
    if part is None:
        part = dyadic_partition(data.grid)
    rho = cfg.rho
    if rho == "auto":
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

    if v0 is None:
        _check_mesh(data.b, data, cfg)
        p = np.zeros((cfg.M + 1,) + data.grid.shape, dtype=complex)
        s = np.zeros_like(slopes)
    else:
        _check_mesh(v0, data, cfg)
        p, s = pack(v0)
    ratios = []
    ratios_raw = []
    prev_log = None
    noise_log = None
    streak = 0      # consecutive useful ratios above 1
    weighted_log = float("inf")
    sup_inc = float("inf")
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        p_next = image(integrand(p, s))
        if kind == "dc":
            norms = dc_norms(slopes - s, p_next - p, cfg.alpha, part)
        else:
            norms = c1plus_norms(p_next - p, cfg.alpha, part)
        sup_inc = float(norms.max())
        if not math.isfinite(sup_inc):
            raise PicardError(
                f"non-finite increment at iteration {iterations} "
                f"(sup norm {sup_inc}); the iteration diverged", ratios_raw)
        weighted_log = rho_time_norm_log(norms, data.b.t_grid, rho)
        if noise_log is None:
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
            break
    else:
        raise PicardError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last increment {sup_inc:.3e})", ratios_raw)

    quad_tol = _quad_tolerance_from_nodes(integrand(p, s), data.grid,
                                          cfg.T, cfg.tol_fix)
    v = unpack(data.b.t_grid, data.grid, p, s)
    result = SolveResult(
        v=v,
        iterations=iterations,
        ratios=ratios,
        rho=rho,
        final_increment=math.exp(weighted_log) if weighted_log > -math.inf else 0.0,
        final_increment_log=weighted_log,
        final_increment_sup=sup_inc,
        lam=cfg.lam,
        used_lambda_kernel=use_kernel,
        quad_tolerance=quad_tol,
        norm_kind=kind,
        ratios_raw=ratios_raw,
    )
    if compute_weak_residual:
        report = weak_residual(v, data, cfg)
        result.weak_residual = report.residual
        result.weak_tolerance = report.tolerance
    return result


# ---------------------------------------------------------------------------
# calibration one field, one time and one pair at a time


def ring_loop_random_field(grid, gamma, seed, part):
    """``lp.dyadic_random_field`` of a scalar with amplitude 1, each ring's
    sup norm measured on its own."""
    labels = _ring_labels(grid, part.j_max)
    rng = np.random.default_rng(seed)
    white = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n**grid.d
    acc = np.zeros(grid.shape, dtype=complex)
    for j in range(-1, part.j_max + 1):
        mask = labels == j
        if not mask.any():
            continue
        ring = white * mask
        sup = SpectralField(grid, ring).sup_norm()
        if sup == 0.0:
            continue
        acc += ring * (1.0 * 2.0 ** (-j * gamma) / sup)
    return SpectralField(grid, acc)


def per_field_calibration(grid, beta, eps, seed, pairs=16, n_fields=16):
    """The constants of ``calibration.calibrate``, measured field by field:
    one ``besov_norm`` or ``dc_norm`` call per field and time, and each
    product through the Bony sum, ``bony_product(...).total``.

    Like ``bony_drift_pairing`` this reference runs package code: it is the
    per-field calibration that the stacked one replaced, with the same
    seeds, kept as the reference for it.
    """
    part = dyadic_partition(grid)
    alpha = beta + eps / 2.0
    theta = (1.0 + 2.0 * beta - eps) / 2.0

    def fields(gamma, key, count):
        ss = np.random.SeedSequence((seed,) + key)
        return [ring_loop_random_field(grid, gamma, s, part)
                for s in ss.spawn(count)]

    def norm(f, gamma):
        return besov_norm(f, gamma, part).value

    t_samples = np.geomspace(1e-3, 0.2, 12)
    sample = fields(-beta + eps, (11, 0), n_fields)
    ratios = [max(norm(apply_heat(t, f), -beta + eps + 2 * theta)
                  / norm(f, -beta + eps) for f in sample)
              for t in t_samples]
    schauder = float(np.max(np.asarray(ratios) * t_samples**theta))

    def bony(a, b, key):
        ss = np.random.SeedSequence((seed,) + key).spawn(2 * pairs)
        worst = 0.0
        for i in range(pairs):
            f = ring_loop_random_field(grid, a, ss[2 * i], part)
            g = ring_loop_random_field(grid, -b, ss[2 * i + 1], part)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                total = bony_product(f, a, g, b, part).total
            worst = max(worst, norm(total, -b) / (norm(f, a) * norm(g, -b)))
        return worst

    bern = max(norm(gradient(f), beta) / norm(f, beta + 1.0)
               for f in fields(beta + 1.0, (17, 1), n_fields))

    mesh = TimeField.uniform_mesh(1.0, 64)
    mu = 0.5 * grid.k_squared()
    tails = (1.0 - mesh).reshape((65,) + (1,) * grid.d)
    safe = np.where(mu > 0, mu, 1.0)
    kernel = np.where(mu > 0, -np.expm1(-mu * tails) / safe, tails)
    conv = 0.0
    for ell0 in fields(-beta, (19,), 6):
        x_norms = dc_norms(np.zeros((65, grid.d)), kernel * ell0.coeffs,
                           alpha, part)
        den = math.log(norm(ell0, -beta))
        for rho in (1.0, 4.0, 16.0, 64.0):
            num = rho_time_norm_log(x_norms, mesh, rho)
            scale = 0.5 * (alpha + beta - 1.0) * math.log(rho)
            conv = max(conv, math.exp(num - den - scale))

    rng = np.random.default_rng(np.random.SeedSequence((seed, 23)))
    stab = 0.0
    for p in fields(alpha + 1.0, (23,), 8):
        h = AffinePeriodicField(rng.normal(size=grid.d), p)
        base = dc_norm(h, alpha, part)
        for s in np.linspace(0.0, 1.0, 9):
            stab = max(stab, dc_norm(apply_heat(s, h), alpha, part) / base)

    out = {"schauder": {pair_key(-beta + eps, theta): schauder},
           "bony": {pair_key(alpha, beta): bony(alpha, beta, (13, 0))},
           "bernstein_ineq": {pair_key(beta): bern},
           "convolution": conv, "dc_stability": stab}
    if beta - eps > 0:
        out["bony"][pair_key(beta, beta - eps)] = bony(beta, beta - eps,
                                                       (13, 2))
    return out


# ---------------------------------------------------------------------------
# a problem with a known answer


def manufactured_problem(grid, M, lam, T=0.5, affine=True, modulated=False,
                         seed=3, pairing="dealiased"):
    """Data whose solution is known: v = a(t) . x + p(t, x) under a
    ``gen_drift`` C^-0.3 drift.

    p is three low modes, each with a smooth time factor cos(w t + phi),
    and a(t) = a_T exp(-lam (T - t)) the closed-form slope (a_T = 0 for
    periodic data).  The source is g = d_t p + (1/2) Lap p + (a + grad p)
    . b - lam p at the mesh nodes, with the drift pairing taken by
    ``drift_terms`` (``pairing="dealiased"``, as the solver pairs) or by
    ``bony_drift_pairing`` (``"bony"``).  Returns the ``PDEData`` and the
    exact periodic coefficients of v at the nodes, ``(M+1,) + grid``.
    """
    from besovpde import DriftSpec, PDEData, gen_drift, to_fourier
    from besovpde.grid import gradient_stack
    from besovpde.paraproduct import drift_terms

    mesh = TimeField.uniform_mesh(T, M)
    xs = np.meshgrid(*[grid.axis_points()] * grid.d, indexing="ij")
    modes = np.array([to_fourier(f, grid).coeffs for f in (
        np.sin(xs[0]), np.cos(2.0 * xs[-1]), np.sin(xs[0] + xs[-1]))])
    omega = np.array([2.0, 3.0, 1.5])
    phase = np.array([0.3, 1.0, 0.0])
    arg = omega * mesh[:, None] + phase
    factor, rate = np.cos(arg), -omega * np.sin(arg)
    exact = np.tensordot(factor, modes, axes=1)
    d_t = np.tensordot(rate, modes, axes=1)
    a_T = np.zeros(grid.d)
    if affine:
        a_T[0] = 0.5
    slopes = np.array([a_T * math.exp(-lam * (T - t)) for t in mesh])
    spec = DriftSpec(kind="dyadic-random", amplitude=1.0, regularity=0.3,
                     seed=seed, time_dependence=("modulated" if modulated
                                                 else "static"))
    b = gen_drift(spec, grid, mesh)
    w = gradient_stack(exact, grid, slopes)
    if pairing == "bony":
        paired = np.array([
            bony_drift_pairing(SpectralField(grid, w[m]),
                               SpectralField(grid, b.coeffs[m]), 0.6,
                               0.3).coeffs
            for m in range(M + 1)])
    else:
        paired = drift_terms(w, b.coeffs, grid)
    source = d_t - 0.5 * grid.k_squared() * exact + paired - lam * exact
    v_T = SpectralField(grid, exact[-1])
    if affine:
        v_T = AffinePeriodicField(a_T, v_T)
    data = PDEData(b=b, g=TimeField.from_stacks(mesh, grid, source), v_T=v_T)
    return data, exact
