"""Dyadic partition of unity, block decomposition, and norm estimators.

The partition follows the standard telescoping construction: a radial
cutoff chi equal to 1 below ring radius 3/4 and 0 above 4/3, with
phi_{-1}(k) = chi(r) and phi_j(k) = chi(r/2^{j+1}) - chi(r/2^j), where
r = |k| L / (2 pi).  The windows sum to 1 on every lattice frequency by
construction; ring supports are [3/4 * 2^j, 8/3 * 2^j].

The norms are computed on coefficient stacks ``(N,) + comp_shape + grid``:
``block_sup_stack`` returns the (N, J+2) block sup norms of N fields,
measured on the twice-refined grid through ``grid.sup_norms`` in chunks of
(field, block) pairs whose refined samples fit in ``grid.CHUNK_BYTES``, and
``besov_norms``, ``dc_norms`` and ``c1plus_norms`` build on it.  The
single-field estimators (``besov_norm``, ``dc_norm``, ``c1plus_norm``) are
their one-row cases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TorusGrid,
    chunk_rows,
    gradient_stack,
    sup_norms,
)

__all__ = [
    "DyadicPartition",
    "dyadic_partition",
    "LPDecomposition",
    "BesovNorm",
    "lp_blocks",
    "block_sup_stack",
    "besov_norm",
    "besov_norms",
    "holder_norm",
    "dc_norm",
    "dc_norms",
    "c1plus_norm",
    "c1plus_norms",
    "rho_time_norm_log",
    "dyadic_random_field",
    "interior_mode_field",
]

RING_LOW = 0.75
RING_HIGH = 4.0 / 3.0

# fixed internal seed for the Holder pair-sampling offsets; the norm must be
# a deterministic function of the field
_HOLDER_SAMPLING_SEED = 1618


def _bump_integral(s: np.ndarray) -> np.ndarray:
    """Normalized integral of the C-infinity bump exp(-1/(1-s^2)) on [-1, s]."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = np.asarray(s, dtype=float)
    lo, hi = -1.0, np.clip(s, -1.0, 1.0)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid[..., None] + half[..., None] * nodes  # (..., 64)
    inside = np.clip(1.0 - u * u, 1e-300, None)
    vals = np.where(np.abs(u) < 1.0, np.exp(-1.0 / inside), 0.0)
    total = float(np.sum(weights * np.where(np.abs(nodes) < 1.0,
                                            np.exp(-1.0 / (1.0 - nodes**2)), 0.0)))
    return np.sum(vals * weights, axis=-1) * half / total


def _radial_cutoff(r: np.ndarray) -> np.ndarray:
    """chi(r): 1 for r <= 3/4, 0 for r >= 4/3, bump-smoothstep between."""
    s = 2.0 * (r - RING_LOW) / (RING_HIGH - RING_LOW) - 1.0
    out = 1.0 - _bump_integral(s)
    out = np.where(r <= RING_LOW, 1.0, out)
    out = np.where(r >= RING_HIGH, 0.0, out)
    return out


@dataclass(frozen=True, eq=False)
class DyadicPartition:
    """Window family phi_j, j = -1 .. j_max, on one grid's frequency lattice.

    ``windows[i]`` is the weight array of block ``j = i - 1``.
    """

    grid: TorusGrid
    j_max: int
    windows: np.ndarray

    @property
    def j_indices(self) -> np.ndarray:
        return np.arange(-1, self.j_max + 1)

    def window(self, j: int) -> np.ndarray:
        return self.windows[j + 1]


@functools.lru_cache(maxsize=32)
def dyadic_partition(grid: TorusGrid) -> DyadicPartition:
    """Build (and cache) the dyadic partition for a grid.

    j_max is the smallest index whose next low-pass plateau covers the whole
    lattice, i.e. (3/4) * 2^(j_max+1) >= max |k| L / (2 pi); the window sum
    then equals 1 exactly on every mode.
    """
    r = grid.ring_radius()
    r_max = float(r.max())
    j_max = max(0, math.ceil(math.log2(r_max * RING_HIGH)) - 1)
    windows = np.empty((j_max + 2,) + grid.shape)
    chi_prev = _radial_cutoff(r)
    windows[0] = chi_prev
    for j in range(0, j_max + 1):
        chi_next = _radial_cutoff(r / 2.0 ** (j + 1))
        windows[j + 1] = chi_next - chi_prev
        chi_prev = chi_next
    return DyadicPartition(grid=grid, j_max=j_max, windows=windows)


@dataclass(frozen=True, eq=False)
class LPDecomposition:
    """The dyadic block sequence (Delta_j f)_j under a fixed partition."""

    partition: DyadicPartition
    blocks: list

    @property
    def j_indices(self) -> np.ndarray:
        return self.partition.j_indices

    def reconstruct(self) -> SpectralField:
        total = self.blocks[0]
        for b in self.blocks[1:]:
            total = total + b
        return total


def lp_blocks(f: SpectralField, part: DyadicPartition = None) -> LPDecomposition:
    """Cut a field into its dyadic blocks Delta_j f."""
    if part is None:
        part = dyadic_partition(f.grid)
    if part.grid != f.grid:
        raise GridError("field and partition live on different grids")
    blocks = [SpectralField(f.grid, f.coeffs * w) for w in part.windows]
    return LPDecomposition(partition=part, blocks=blocks)


def block_sup_stack(coeffs: np.ndarray, part: DyadicPartition,
                    refine: int = 2) -> np.ndarray:
    """Block sup norms of a ``(N,) + comp_shape + grid`` coefficient stack.

    Entry (i, j + 1) is ``||Delta_j f_i||_inf`` on the ``refine``-times
    finer grid.  The N * (J+2) (field, block) pairs are windowed and
    measured ``chunk_rows`` at a time, so one batched transform replaces
    many small ones without the memory traffic of padding every block of a
    whole path at once.
    """
    g = part.grid
    if coeffs.shape[coeffs.ndim - g.d:] != g.shape:
        raise GridError("coefficients and partition live on different grids")
    n_blocks = len(part.windows)
    window_shape = (1,) * (coeffs.ndim - 1 - g.d) + g.shape
    pairs = chunk_rows(coeffs.shape[1:], g, refine)
    total = len(coeffs) * n_blocks
    out = np.empty(total)
    for lo in range(0, total, pairs):
        node, block = np.divmod(np.arange(lo, min(lo + pairs, total)), n_blocks)
        windows = part.windows[block].reshape((len(block),) + window_shape)
        out[lo:lo + pairs] = sup_norms(coeffs[node] * windows, g, refine)
    return out.reshape(len(coeffs), n_blocks)


@dataclass(frozen=True, eq=False)
class BesovNorm:
    """max_j 2^{j gamma} ||Delta_j f||_inf together with its per-block ledger."""

    gamma: float
    value: float
    ledger: np.ndarray
    block_sups: np.ndarray
    j_indices: np.ndarray

    def report(self) -> dict:
        return {
            "kind": "besov",
            "gamma": self.gamma,
            "value": self.value,
            "ledger": [{"j": int(j), "entry": float(e), "block_sup": float(s)}
                       for j, e, s in zip(self.j_indices, self.ledger,
                                          self.block_sups)],
        }


def besov_norm(f: SpectralField, gamma: float,
               part: DyadicPartition = None, refine: int = 2) -> BesovNorm:
    """Besov-Holder norm estimator; any real gamma, negative included."""
    if part is None:
        part = dyadic_partition(f.grid)
    if part.grid != f.grid:
        raise GridError("field and partition live on different grids")
    sups = block_sup_stack(f.coeffs[None], part, refine)[0]
    j = part.j_indices
    ledger = 2.0 ** (j * gamma) * sups
    return BesovNorm(gamma=gamma, value=float(ledger.max()), ledger=ledger,
                     block_sups=sups, j_indices=j)


def besov_norms(coeffs: np.ndarray, gamma: float,
                part: DyadicPartition) -> np.ndarray:
    """``besov_norm(f, gamma, part).value`` of every row of a stack."""
    ledger = 2.0 ** (part.j_indices * gamma) * block_sup_stack(coeffs, part)
    return ledger.max(axis=1)


# ---------------------------------------------------------------------------
# Holder norm via structured pair sampling


def _holder_offsets(grid: TorusGrid):
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


def _pointwise_magnitude(vals: np.ndarray, comp_shape: tuple, d: int):
    if comp_shape:
        flat = vals.reshape((-1,) + vals.shape[-d:])
        return np.sqrt(np.sum(flat**2, axis=0))
    return np.abs(vals)


def holder_norm(f: SpectralField, gamma: float) -> float:
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


def dc_norm(f: AffinePeriodicField, alpha: float,
            part: DyadicPartition = None) -> float:
    """Linear-growth norm |f(0)| + ||slope + grad p||_alpha for scalar f."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"dc_norm needs alpha in (0,1), got {alpha}")
    if isinstance(f, SpectralField):
        f = AffinePeriodicField.from_periodic(f)
    if f.comp_shape != ():
        raise GridError("dc_norm expects a scalar field")
    if part is None:
        part = dyadic_partition(f.grid)
    return float(dc_norms(f.slope[None], f.periodic.coeffs[None], alpha,
                          part)[0])


def dc_norms(slopes: np.ndarray, coeffs: np.ndarray, alpha: float,
             part: DyadicPartition) -> np.ndarray:
    """``dc_norm`` of every scalar field ``slopes[i] . x + p_i``.

    ``slopes`` is (N, d) and ``coeffs`` the (N,) + grid coefficients of
    the periodic parts.
    """
    g = part.grid
    # f_i(0) is the sum of the coefficients; the slope term vanishes there
    origin = coeffs.reshape(len(coeffs), -1).sum(axis=1)
    origin = np.abs(origin.real)
    grad = gradient_stack(coeffs, g, slopes)
    return origin + besov_norms(grad, alpha, part)


def c1plus_norm(f, alpha: float, part: DyadicPartition = None) -> float:
    """sup |f| + ||grad f||_alpha, the bounded-data companion of dc_norm."""
    if isinstance(f, AffinePeriodicField):
        if np.any(f.slope != 0.0):
            raise GridError("c1plus_norm expects a bounded (zero-slope) field")
        f = f.periodic
    if part is None:
        part = dyadic_partition(f.grid)
    return float(c1plus_norms(f.coeffs[None], alpha, part)[0])


def c1plus_norms(coeffs: np.ndarray, alpha: float,
                 part: DyadicPartition) -> np.ndarray:
    """``c1plus_norm`` of every row of a ``(N,) + grid`` scalar stack."""
    g = part.grid
    return (sup_norms(coeffs, g)
            + besov_norms(gradient_stack(coeffs, g), alpha, part))


def rho_time_norm_log(norms: np.ndarray, t_grid: np.ndarray,
                      rho: float) -> float:
    """log of the rho-weighted time norm given precomputed slice norms.

    Works for weights far below the float underflow threshold, where the
    direct product would flush to zero (rho from the contraction recipe can
    reach 1e7).  Zero slice norms contribute -inf.
    """
    T = t_grid[-1]
    with np.errstate(divide="ignore"):
        logs = np.log(np.asarray(norms, dtype=float))
    return float(np.max(-rho * (T - t_grid) + logs))


# ---------------------------------------------------------------------------
# synthetic fields saturating a target regularity


def _ring_labels(grid: TorusGrid, j_max: int) -> np.ndarray:
    r = grid.ring_radius()
    with np.errstate(divide="ignore"):
        j = np.where(r > 1.0, np.round(np.log2(np.maximum(r, 1e-300))), -1.0)
    j = np.clip(j, -1, j_max).astype(int)
    j[r == 0.0] = -2  # the mean is assigned to no ring
    return j


def dyadic_random_field(grid: TorusGrid, gamma: float, seed,
                        amplitude: float = 1.0, comp_shape: tuple = (),
                        part: DyadicPartition = None) -> SpectralField:
    """Random field with block sup norms near amplitude * 2^(-j gamma).

    Modes are grouped into disjoint dyadic rings; each ring receives the
    phases of a white-noise draw and is rescaled so its raw sup norm hits
    the target (the rings measured as one stack).  The resulting Besov
    ledger at gamma is flat up to the leakage between the (overlapping)
    analysis windows, which keeps besov_norm(f, gamma) within a factor ~2
    of amplitude.
    """
    if part is None:
        part = dyadic_partition(grid)
    labels = _ring_labels(grid, part.j_max)
    rng = np.random.default_rng(seed)
    out = np.zeros(comp_shape + grid.shape, dtype=complex)
    for comp in np.ndindex(comp_shape) if comp_shape else [()]:
        white = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n**grid.d
        js = [j for j in range(-1, part.j_max + 1) if (labels == j).any()]
        rings = white * (labels == np.reshape(js, (-1,) + (1,) * grid.d))
        acc = np.zeros(grid.shape, dtype=complex)
        for j, ring, sup in zip(js, rings, sup_norms(rings, grid).tolist()):
            if sup != 0.0:
                acc += ring * (amplitude * 2.0 ** (-j * gamma) / sup)
        out[comp] = acc
    return SpectralField(grid, out)


def interior_mode_field(grid: TorusGrid, block_targets: dict, seed,
                        part: DyadicPartition = None) -> SpectralField:
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


def _interior_radius(grid: TorusGrid, j: int):
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
