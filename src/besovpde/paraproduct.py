"""Pointwise products on the torus: the dealiased product and its Bony split.

The product of f and g splits into two paraproducts and a resonant part:
block pairs (i, j) with i <= j-2 (low f times high g), j <= i-2, and
|i - j| <= 1.  Real-space multiplications run on a twice-refined grid so
block products never alias into wrong rings; the result is truncated back
to the resolved band with the Nyquist plane zeroed.

The three Bony terms cover every block pair, so on the grid their sum is
the plain dealiased product.  The split is what the paper's product
estimate is proved through, and is kept for the product study and the
calibration of that estimate's constant; the solver's drift pairing
(``drift_term``) is the dealiased product itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridError, SpectralField, _embed_axis, refined_samples
from .lp import DyadicPartition, dyadic_partition

__all__ = ["BonyProduct", "bony_product", "drift_term", "dealiased_product"]


def _padded_block_samples(f: SpectralField, part: DyadicPartition) -> np.ndarray:
    """Real-space samples of every block on the 2x refined grid."""
    g = f.grid
    fine_n = 2 * g.n
    blocks = part.windows * f.coeffs  # (J+2,) + grid.shape
    pad = blocks
    for ax in range(g.d):
        pad = _embed_axis(pad, 1 + ax, g.n, fine_n)
    axes = tuple(range(1, 1 + g.d))
    vals = np.fft.ifftn(pad, axes=axes) * fine_n**g.d
    return vals.real if f.real else vals


def _truncate_to_grid(fine_samples: np.ndarray, f_like: SpectralField) -> SpectralField:
    """Project fine-grid samples onto the coarse band.

    Modes beyond the coarse band are discarded (the dealiasing step); the
    +-n/2 pair is merged into the coarse Nyquist slot, which is the
    aliasing the coarse grid itself performs, so band-limited fields pass
    through bit-for-bit.
    """
    g = f_like.grid
    n, d = g.n, g.d
    fine_n = fine_samples.shape[-1]
    axes = tuple(range(fine_samples.ndim - d, fine_samples.ndim))
    coeffs = np.fft.fftn(fine_samples, axes=axes) / fine_n**d
    # coarse FFT layout [0 .. n/2-1, Nyquist, -n/2+1 .. -1]
    idx = np.concatenate([np.arange(0, n // 2), [n // 2],
                          np.arange(fine_n - n // 2 + 1, fine_n)])
    for ax in range(d):
        axis = coeffs.ndim - d + ax
        neg_nyq = np.take(coeffs, fine_n - n // 2, axis=axis)
        coeffs = np.take(coeffs, idx, axis=axis)
        nyq = [slice(None)] * coeffs.ndim
        nyq[axis] = n // 2
        coeffs[tuple(nyq)] += neg_nyq
    return SpectralField(g, coeffs, real=not np.iscomplexobj(fine_samples))


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


def bony_product(f: SpectralField, alpha: float, g: SpectralField,
                 beta: float, part: DyadicPartition = None) -> BonyProduct:
    """Decomposed product of f in C^alpha with g in C^(-beta).

    The estimate ||f g||_{-beta} <= c ||f||_alpha ||g||_{-beta} needs
    alpha, beta > 0 and alpha - beta > 0; outside that range the product
    is still computed and the result carries hypothesis_ok=False.
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
    fb = _padded_block_samples(f, part)
    gb = _padded_block_samples(g, part)
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
    t_lh = _truncate_to_grid(low_high, f)
    t_hl = _truncate_to_grid(high_low, f)
    t_res = _truncate_to_grid(resonant, f)
    total = t_lh + t_hl + t_res
    return BonyProduct(para_low_high=t_lh, para_high_low=t_hl,
                       resonant=t_res, total=total,
                       alpha=alpha, beta=beta, hypothesis_ok=ok)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product computed on the 2x grid, truncated to the band."""
    if f.grid != g.grid:
        raise GridError("dealiased_product: fields on different grids")
    prod = refined_samples(f, 2) * refined_samples(g, 2)
    return _truncate_to_grid(prod, f)


def drift_term(w: SpectralField, b: SpectralField) -> SpectralField:
    """Drift pairing w . b as one dealiased product summed over components.

    Realizes grad(v) . b as a scalar field for w = grad(v) and a drift of
    matching dimension.  This equals the sum of the Bony products w_i b_i
    (the three terms cover every block pair), which is where the estimate
    in C^(-beta) comes from; the split itself is not needed to compute it.
    """
    if w.comp_shape != b.comp_shape or len(w.comp_shape) != 1:
        raise GridError(
            f"drift_term needs matching vectors, got {w.comp_shape} "
            f"and {b.comp_shape}"
        )
    if w.grid != b.grid:
        raise GridError("drift_term: fields on different grids")
    prod = np.sum(refined_samples(w, 2) * refined_samples(b, 2), axis=0)
    return _truncate_to_grid(prod, w)
