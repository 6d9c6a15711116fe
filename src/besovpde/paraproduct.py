"""Pointwise products on the torus: the dealiased product and its Bony split.

The product of f and g splits into two paraproducts and a resonant part:
block pairs (i, j) with i <= j-2 (low f times high g), j <= i-2, and
|i - j| <= 1.  Real-space multiplications run on a twice-refined grid so
block products never alias into wrong rings; the result is truncated back
to the resolved band with the Nyquist plane zeroed.  Every factor is
sampled there by ``grid._padded_samples``, the one padded-sample kernel
(a real inverse transform of the Hermitian half spectrum).

The three Bony terms cover every block pair, so on the grid their sum is
the plain dealiased product.  The split is what the paper's product
estimate is proved through; it serves acceptance criterion c07, demo 03
and the test oracle ``bony_drift_pairing``, and no command runs it.
Everything else multiplies through ``dealiased_products``, which pairs the
rows of two coefficient stacks (a whole time path at once) in chunks.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (GridError, SpectralField, TorusGrid, _padded_samples,
                   chunk_rows)
from .lp import DyadicPartition, dyadic_partition

__all__ = ["BonyProduct", "bony_product", "drift_samples", "drift_term",
           "drift_terms", "dealiased_product", "dealiased_products"]


@functools.lru_cache(maxsize=8)
def _coarse_modes(n: int, fine_n: int) -> np.ndarray:
    """Fine-grid indices of the coarse FFT layout [0 .. n/2-1, Nyquist,
    -n/2+1 .. -1] (cached, read-only)."""
    idx = np.concatenate([np.arange(0, n // 2), [n // 2],
                          np.arange(fine_n - n // 2 + 1, fine_n)])
    idx.flags.writeable = False
    return idx


def _truncate_to_grid(fine_samples: np.ndarray, g: TorusGrid) -> np.ndarray:
    """Coefficients on the coarse band of fine-grid samples.

    The last d axes are the fine grid, leading axes a batch.  Modes beyond
    the coarse band are discarded (the dealiasing step); the +-n/2 pair is
    merged into the coarse Nyquist slot, which is the aliasing the coarse
    grid itself performs, so band-limited fields pass through bit-for-bit.
    """
    n, d = g.n, g.d
    fine_n = fine_samples.shape[-1]
    # fftn's own loop (last axis first) without its per-call argument
    # handling, which is 12 of the 28 us a one-row 1D transform takes
    coeffs = fine_samples
    for axis in range(fine_samples.ndim - 1, fine_samples.ndim - d - 1, -1):
        coeffs = np.fft.fft(coeffs, axis=axis)
    coeffs /= fine_n**d
    idx = _coarse_modes(n, fine_n)
    for ax in range(d):
        axis = coeffs.ndim - d + ax
        neg_nyq = np.take(coeffs, fine_n - n // 2, axis=axis)
        coeffs = np.take(coeffs, idx, axis=axis)
        nyq = [slice(None)] * coeffs.ndim
        nyq[axis] = n // 2
        coeffs[tuple(nyq)] += neg_nyq
    return coeffs


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


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product of two scalar fields computed on the 2x grid,
    truncated to the band (one row of ``dealiased_products``)."""
    if f.grid != g.grid:
        raise GridError("dealiased_product: fields on different grids")
    return SpectralField(f.grid, dealiased_products(
        f.coeffs[None, None], g.coeffs[None, None], f.grid)[0])


def drift_samples(b: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The 2x-grid samples of a ``(N, d) + grid`` stack, as ``drift_terms``
    takes them through ``b_samples``."""
    return _padded_samples(b, grid, 2)


def drift_terms(w: np.ndarray, b: np.ndarray, grid: TorusGrid,
                b_samples: np.ndarray = None) -> np.ndarray:
    """``drift_term`` of every row pair of two ``(N, d) + grid`` stacks:
    their ``dealiased_products``.  ``b_samples``, when given, is
    ``drift_samples(b, grid)``: a caller pairing many stacks with one b
    samples it once."""
    if w.shape != b.shape or w.shape[1:] != (grid.d,) + grid.shape:
        raise GridError(
            f"drift_terms needs two (N, {grid.d}) + {grid.shape} stacks, "
            f"got {w.shape} and {b.shape}")
    return dealiased_products(w, b, grid, b_samples)


def dealiased_products(w: np.ndarray, b: np.ndarray, grid: TorusGrid,
                       b_samples: np.ndarray = None) -> np.ndarray:
    """Row i of the ``(N,) + grid`` result is the dealiased product of rows
    i of two ``(N, c) + grid`` stacks, summed over the c components.

    Rows are paired ``chunk_rows`` at a time, sized so that both factors'
    2x-grid samples fit in ``CHUNK_BYTES`` (a budget for one factor raised
    the 1D benchmark's peak RSS by ~1 MB): one padded-sample call per
    factor (or ``b_samples``), one multiply and one truncation a chunk.
    """
    rows = chunk_rows((2 * w.shape[1],) + grid.shape, grid)
    out = np.empty((len(w),) + grid.shape, dtype=complex)
    for lo in range(0, len(w), rows):
        prod = _padded_samples(w[lo:lo + rows], grid, 2)
        if b_samples is None:
            prod *= _padded_samples(b[lo:lo + rows], grid, 2)
        else:
            prod *= b_samples[lo:lo + rows]
        out[lo:lo + rows] = _truncate_to_grid(prod.sum(axis=1), grid)
    return out


def drift_term(w: SpectralField, b: SpectralField) -> SpectralField:
    """Drift pairing w . b as one dealiased product summed over components.

    Realizes grad(v) . b as a scalar field for w = grad(v) and a drift of
    matching dimension.  This equals the sum of the Bony products w_i b_i
    (the three terms cover every block pair), which is where the estimate
    in C^(-beta) comes from; the split itself is not needed to compute it.
    The one-row case of ``drift_terms``.
    """
    if w.grid != b.grid:
        raise GridError("drift_term: fields on different grids")
    return SpectralField(
        w.grid, drift_terms(w.coeffs[None], b.coeffs[None], w.grid)[0])
