"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the mathematics, not
against the package: naive DFT summation, dense pair enumeration,
integrating-factor Runge-Kutta time stepping, bisection, quadrature.
"""

import warnings
from fractions import Fraction
from math import comb

import numpy as np

from besovpde import (
    AffinePeriodicField,
    SpectralField,
    bony_product,
    evaluate_at,
    gradient,
)
from besovpde.grid import refined_samples


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
# drift pairing through the Bony split


def bony_drift_pairing(w, b, alpha, beta, part=None):
    """sum_i bony_product(w_i, alpha, b_i, beta).total for vector fields.

    Unlike the rest of this module this reference runs package code: it is
    the three-term Bony sum that the solver's one-product drift pairing
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
            refined_samples(SpectralField(f.grid, f.coeffs * w, real=f.real),
                            refine),
            f.comp_shape, f.grid.d)
        for w in part.windows])


def per_slice_increment_norms(v_new, v_old, cfg, kind, part):
    """The Picard increment norms, one slice difference at a time.

    ``dc``: |dv(0)| + ||slope + grad dp||_alpha; ``c1plus``:
    sup |dp| + ||grad dp||_alpha, each Besov norm through
    ``per_block_sup_norms``.  The per-slice loop the solver's stacked
    increment norms replaced.
    """
    def affine(s):
        if isinstance(s, SpectralField):
            return AffinePeriodicField.from_periodic(s)
        return s

    norms = []
    for a, b in zip(v_new.slices, v_old.slices):
        delta = affine(a) - affine(b)
        d = delta.grid.d
        if kind == "dc":
            origin = float(np.abs(evaluate_at(delta, np.zeros(d))))
            grad = delta.gradient_field()
        else:
            origin = _sup_of_samples(refined_samples(delta.periodic, 2), (), d)
            grad = gradient(delta.periodic)
        sups = per_block_sup_norms(grad, part)
        norms.append(origin
                     + float(np.max(2.0 ** (part.j_indices * cfg.alpha) * sups)))
    return np.asarray(norms)
