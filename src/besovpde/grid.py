"""Torus discretization and the dual real/Fourier field representation.

Fields live on a periodic box [0, L)^d sampled on a uniform n^d lattice.
The forward transform carries the 1/n^d normalization, so the k=0
coefficient of a field is its mean.  Every other module consumes the
types defined here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "AffinePeriodicField",
    "TimeField",
    "GridError",
    "to_fourier",
    "gradient",
    "gradient_stack",
    "sup_norms",
    "evaluate_at",
    "save_field",
    "load_field",
]

_ROUND_TRIP_TOL = 1e-12

# Bytes of refined samples one batched sup-norm transform produces (8 a
# point for real stacks, 16 for complex).  Measured on the benchmark
# workloads (2-core host, numpy 2.4, one 20 s run each): the 2D solve's
# median op is ~1.2 s at 128 or 256 KiB against ~1.4 s at 64 KiB, where
# gradient pairs go one per transform; the 1D solve reads 0.47-0.51 s at
# 64-256 KiB, and 256 KiB adds ~1 MB (2.6%) peak RSS.  512 KiB chunks and
# whole-node batches cost 5-6% peak RSS.
CHUNK_BYTES = 128 * 1024


class GridError(ValueError):
    """Structured error for dimension/shape mismatches between fields."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic lattice on [0, L)^d.

    Parameters
    ----------
    d : int
        Spatial dimension, 1, 2 or 3.
    n : int
        Points per axis; must be a power of two, n >= 8.
    L : float
        Period length per axis.  Lattice frequencies per axis are
        (2*pi/L) * {-n/2, ..., n/2 - 1}.
    """

    d: int
    n: int
    L: float = 2.0 * np.pi

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got d={self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got n={self.n}")
        if not self.L > 0:
            raise GridError(f"period length must be positive, got L={self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def k_axis(self) -> np.ndarray:
        """Angular frequencies along one axis, FFT (unshifted) order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def mode_axis(self) -> np.ndarray:
        """Integer mode numbers along one axis, FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def k_mesh(self) -> list:
        """One broadcastable frequency array per axis."""
        k1 = self.k_axis()
        out = []
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.n
            out.append(k1.reshape(shape))
        return out

    def k_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for k in self.k_mesh():
            k2 = k2 + k**2
        return k2

    def ring_radius(self) -> np.ndarray:
        """|k| * L / (2*pi): the dimensionless dyadic radius of each mode."""
        m1 = self.mode_axis()
        r2 = np.zeros(self.shape)
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.n
            r2 = r2 + m1.reshape(shape) ** 2
        return np.sqrt(r2)

    def nyquist_mask(self) -> np.ndarray:
        """True outside every axis Nyquist plane (mode -n/2)."""
        keep = np.ones(self.shape, dtype=bool)
        m1 = self.mode_axis()
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.n
            keep &= (m1 != -self.n // 2).reshape(shape)
        return keep


def _component_shape(components, d):
    if components == 1:
        return ()
    if components == d:
        return (d,)
    if components == d * d:
        return (d, d)
    raise GridError(f"components must be 1, d or d*d, got {components} for d={d}")


@dataclass(frozen=True)
class SpectralField:
    """A scalar/vector/matrix field held by its Fourier coefficients.

    ``coeffs`` has shape ``comp_shape + (n,)*d`` where ``comp_shape`` is
    ``()`` for scalars, ``(d,)`` for vectors and ``(d, d)`` for matrix
    fields.  ``real`` asserts that the real-space samples are real; the
    coefficients then carry Hermitian symmetry.
    """

    grid: TorusGrid
    coeffs: np.ndarray
    real: bool = True
    # original sample block when built from samples; keeps file round trips
    # bit-exact (fft followed by ifft is not the bit identity)
    sample_cache: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        expected_tail = self.grid.shape
        if self.coeffs.shape[-self.grid.d:] != expected_tail:
            raise GridError(
                f"coefficient lattice shape {self.coeffs.shape[-self.grid.d:]} "
                f"does not match grid shape {expected_tail}"
            )
        if self.comp_shape not in ((), (self.grid.d,), (self.grid.d, self.grid.d)):
            raise GridError(
                f"component shape {self.comp_shape} invalid for d={self.grid.d}"
            )

    @property
    def comp_shape(self) -> tuple:
        return self.coeffs.shape[: self.coeffs.ndim - self.grid.d]

    @property
    def components(self) -> int:
        return int(np.prod(self.comp_shape)) if self.comp_shape else 1

    @property
    def space_axes(self) -> tuple:
        nd = self.coeffs.ndim
        return tuple(range(nd - self.grid.d, nd))

    def samples(self) -> np.ndarray:
        """Real-space samples (real array when the parity flag is set)."""
        if self.sample_cache is not None:
            return self.sample_cache
        vals = np.fft.ifftn(self.coeffs, axes=self.space_axes) * self.grid.n**self.grid.d
        if self.real:
            return vals.real
        return vals

    def mean(self) -> np.ndarray:
        idx = (...,) + (0,) * self.grid.d
        c = self.coeffs[idx]
        return c.real if self.real else c

    def __add__(self, other):
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             real=self.real and other.real)

    def __sub__(self, other):
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             real=self.real and other.real)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar, real=self.real)

    __rmul__ = __mul__

    def component(self, *idx) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[idx], real=self.real)

    def sup_norm(self, refine: int = 2) -> float:
        """Sup of the pointwise Euclidean magnitude over the refined grid.

        Band-limited fields can exceed their grid maximum between samples,
        so the default evaluates on the ``refine``-times finer lattice.
        """
        return float(sup_norms(self.coeffs[None], self.grid, self.real,
                               refine)[0])

    @staticmethod
    def zero(grid: TorusGrid, comp_shape: tuple = ()) -> "SpectralField":
        return SpectralField(grid, np.zeros(comp_shape + grid.shape, dtype=complex))


def _check_same_layout(a: SpectralField, b: SpectralField):
    if a.grid != b.grid:
        raise GridError("fields live on different grids")
    if a.comp_shape != b.comp_shape:
        raise GridError(
            f"component shapes differ: {a.comp_shape} vs {b.comp_shape}"
        )


def to_fourier(samples: np.ndarray, grid: TorusGrid, real=None) -> SpectralField:
    """Forward transform of real-space samples into a SpectralField.

    ``samples`` has shape ``comp_shape + (n,)*d``; per-axis lengths are
    validated individually so a mismatch names the offending axis.
    """
    samples = np.asarray(samples)
    if samples.ndim < grid.d:
        raise GridError(
            f"samples have {samples.ndim} axes, need at least d={grid.d}"
        )
    for ax in range(grid.d):
        got = samples.shape[samples.ndim - grid.d + ax]
        if got != grid.n:
            raise GridError(
                f"axis {ax}: expected {grid.n} samples per axis, got {got}"
            )
    if real is None:
        real = not np.iscomplexobj(samples)
    space_axes = tuple(range(samples.ndim - grid.d, samples.ndim))
    coeffs = np.fft.fftn(samples, axes=space_axes) / grid.n**grid.d
    cache = samples if real and not np.iscomplexobj(samples) else None
    return SpectralField(grid, coeffs, real=real, sample_cache=cache)


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient: per-mode multiplication by i*k along each axis.

    A scalar maps to a vector; a vector maps to the d x d matrix with
    entries (i, j) = d_i f_j.  Axis Nyquist planes are zeroed since the
    odd-order derivative of the unpaired mode has no well-defined sign.
    """
    return SpectralField(f.grid, gradient_stack(f.coeffs[None], f.grid)[0],
                         real=f.real)


def gradient_stack(coeffs: np.ndarray, grid: TorusGrid,
                   slopes: np.ndarray = None) -> np.ndarray:
    """``gradient`` of every row of a ``(N,) + comp_shape + grid`` stack.

    Returns the ``(N, d) + comp_shape + grid`` coefficients, row i holding
    the coefficients of ``gradient`` of field i.  With ``slopes`` (shape
    ``(N,) + comp_shape + (d,)``) row i is the gradient of the affine field
    ``slopes[i] . x + p_i``: the constant slope enters at k=0.
    """
    if coeffs.ndim - 1 - grid.d >= 2:
        raise GridError("gradient of a matrix field is not supported")
    keep = grid.nyquist_mask()
    out = np.empty(coeffs.shape[:1] + (grid.d,) + coeffs.shape[1:],
                   dtype=complex)
    for ax, k in enumerate(grid.k_mesh()):
        out[:, ax] = coeffs * (1j * k) * keep
    if slopes is not None:
        out[(...,) + (0,) * grid.d] += np.moveaxis(slopes, -1, 1)
    return out


def _padded_samples(coeffs: np.ndarray, grid: TorusGrid, real: bool,
                    refine: int) -> np.ndarray:
    """Samples on a ``refine``-times finer grid via Fourier zero-padding.

    The coefficients' last d axes are the grid; leading axes are a batch,
    transformed together.  Axis Nyquist coefficients are split evenly
    between +-n/2 so that real fields stay real and the original grid
    points are reproduced.  The one kernel behind every sampling on the
    refined grid: sup norms, block sup norms, the dealiased products and
    the Bony blocks.

    With ``real`` the coefficients must be Hermitian, as a real field's
    are, and the samples come from a real inverse transform of the half
    spectrum on the last axis: modes 0..n/2-1, the coarse Nyquist halved
    into slot n/2, zeros above.  That transform reads only the half
    spectrum, so coefficients that are not Hermitian give the samples of
    a different field, not the real part of their own.  Without ``real``
    the whole padded spectrum goes through a complex inverse transform.
    """
    n, d = grid.n, grid.d
    fine_n = refine * n
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    if real:
        pad = np.zeros(coeffs.shape[:-1] + (fine_n // 2 + 1,), dtype=complex)
        pad[..., :n // 2] = coeffs[..., :n // 2]
        pad[..., n // 2] = coeffs[..., n // 2] * (0.5 if refine > 1 else 1.0)
        embed = d - 1
    else:
        pad, embed = coeffs, d
    if refine > 1:
        for ax in range(embed):
            pad = _embed_axis(pad, axes[ax], n, fine_n)
    if real:   # unnormalized: the coefficients carry the 1/n^d already
        return np.fft.irfftn(pad, s=(fine_n,) * d, axes=axes, norm="forward")
    return np.fft.ifftn(pad, axes=axes) * fine_n**d


def chunk_rows(row_shape: tuple, grid: TorusGrid, real: bool = True,
               refine: int = 2) -> int:
    """Rows of shape ``comp_shape + grid.shape`` one batched transform takes.

    Their refined samples (8 bytes a point for real rows, 16 for complex)
    fit in CHUNK_BYTES; a row larger than that goes alone.
    """
    comps = int(np.prod(row_shape[:len(row_shape) - grid.d]))
    itemsize = np.dtype(float if real else complex).itemsize
    return max(1, CHUNK_BYTES // (comps * (refine * grid.n) ** grid.d * itemsize))


def sup_norms(coeffs: np.ndarray, grid: TorusGrid, real: bool = True,
              refine: int = 2) -> np.ndarray:
    """``sup_norm`` of every row of a ``(N,) + comp_shape + grid`` stack.

    Rows are sampled on the ``refine``-times finer grid in chunks of
    ``chunk_rows`` rows, each chunk one call of the padded-sample kernel.
    """
    d = grid.d
    rows = chunk_rows(coeffs.shape[1:], grid, real, refine)
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), rows):
        vals = _padded_samples(coeffs[lo:lo + rows], grid, real, refine)
        if vals.ndim > 1 + d:   # Euclidean magnitude over the components
            flat = vals.reshape((len(vals), -1) + vals.shape[-d:])
            mag = np.sqrt(np.sum(np.abs(flat) ** 2, axis=1))
        else:
            mag = np.abs(vals)
        out[lo:lo + rows] = mag.reshape(len(mag), -1).max(axis=1)
    return out


def _embed_axis(arr: np.ndarray, axis: int, n: int, fine_n: int) -> np.ndarray:
    """Zero-pad one FFT-ordered axis from n to fine_n, splitting Nyquist."""
    shape = list(arr.shape)
    shape[axis] = fine_n
    out = np.zeros(shape, dtype=complex)
    half = n // 2

    def sl(lo, hi):
        idx = [slice(None)] * arr.ndim
        idx[axis] = slice(lo, hi)
        return tuple(idx)

    out[sl(0, half)] = arr[sl(0, half)]
    out[sl(fine_n - half + 1, fine_n)] = arr[sl(half + 1, n)]
    nyq_src = [slice(None)] * arr.ndim
    nyq_src[axis] = half
    hi_dst = [slice(None)] * arr.ndim
    hi_dst[axis] = half
    lo_dst = [slice(None)] * arr.ndim
    lo_dst[axis] = fine_n - half
    out[tuple(hi_dst)] = 0.5 * arr[tuple(nyq_src)]
    out[tuple(lo_dst)] = 0.5 * arr[tuple(nyq_src)]
    return out


@dataclass(frozen=True)
class AffinePeriodicField:
    """Linear-growth field a . x + p(x) with p periodic.

    ``slope`` has shape ``comp_shape + (d,)``: one slope vector per
    component.  The gradient of the represented field is slope + grad p,
    and the slope is exactly the mean-free obstruction to periodicity.
    """

    slope: np.ndarray
    periodic: SpectralField

    def __post_init__(self):
        slope = np.asarray(self.slope, dtype=float)
        object.__setattr__(self, "slope", slope)
        d = self.periodic.grid.d
        if slope.shape != self.periodic.comp_shape + (d,):
            raise GridError(
                f"slope shape {slope.shape} does not match components "
                f"{self.periodic.comp_shape} + ({d},)"
            )

    @property
    def grid(self) -> TorusGrid:
        return self.periodic.grid

    @property
    def comp_shape(self) -> tuple:
        return self.periodic.comp_shape

    def gradient_field(self) -> SpectralField:
        """Gradient slope + grad p as a periodic field.

        The constant slope enters through the k=0 coefficient only, so
        the result is an ordinary SpectralField of one higher tensor rank
        (indices (i, ..., j): d_i of component j).
        """
        p = self.periodic
        coeffs = gradient_stack(p.coeffs[None], self.grid, self.slope[None])[0]
        return SpectralField(self.grid, coeffs, real=p.real)

    def __sub__(self, other: "AffinePeriodicField") -> "AffinePeriodicField":
        return AffinePeriodicField(self.slope - other.slope,
                                   self.periodic - other.periodic)

    @staticmethod
    def from_periodic(p: SpectralField) -> "AffinePeriodicField":
        d = p.grid.d
        return AffinePeriodicField(np.zeros(p.comp_shape + (d,)), p)


def evaluate_at(f, x) -> np.ndarray:
    """Trigonometric interpolation of a field at one off-grid point.

    Exact (to rounding) for band-limited fields; the affine part a . x is
    added analytically.  Returns an array of shape ``comp_shape``.
    """
    if isinstance(f, AffinePeriodicField):
        base = evaluate_at(f.periodic, x)
        return base + f.slope @ np.asarray(x, dtype=float)
    x = np.asarray(x, dtype=float)
    g = f.grid
    if x.shape != (g.d,):
        raise GridError(f"point must have shape ({g.d},), got {x.shape}")
    k1 = g.k_axis()
    acc = f.coeffs
    ncomp_axes = len(f.comp_shape)
    for ax in range(g.d):
        phase = np.exp(1j * k1 * x[ax])
        acc = np.tensordot(acc, phase, axes=(ncomp_axes, 0))
    if f.real:
        return np.asarray(acc.real)
    return np.asarray(acc)


@dataclass(frozen=True)
class TimeField:
    """A field-valued path on a uniform mesh 0 = t_0 < ... < t_M = T.

    Slices are SpectralField or AffinePeriodicField instances sharing one
    grid and component layout.
    """

    t_grid: np.ndarray
    slices: list = field(default_factory=list)

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        object.__setattr__(self, "t_grid", t)
        if len(t) < 3:
            raise GridError("time mesh needs at least M >= 2 cells")
        steps = np.diff(t)
        if not (steps > 0).all() or not np.allclose(steps, steps[0], rtol=1e-10):
            raise GridError("time mesh must be uniform and increasing")
        if len(self.slices) != len(t):
            raise GridError(
                f"{len(self.slices)} slices for {len(t)} mesh nodes"
            )
        g = self.slices[0].grid
        cs = self.slices[0].comp_shape
        for s in self.slices[1:]:
            if s.grid != g or s.comp_shape != cs:
                raise GridError("slices disagree on grid or component layout")

    @property
    def M(self) -> int:
        return len(self.t_grid) - 1

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])

    @property
    def grid(self) -> TorusGrid:
        return self.slices[0].grid

    def __getitem__(self, m):
        return self.slices[m]

    def __len__(self):
        return len(self.slices)

    @staticmethod
    def uniform_mesh(T: float, M: int) -> np.ndarray:
        return np.linspace(0.0, T, M + 1)

    @staticmethod
    def constant(slice_field, T: float, M: int) -> "TimeField":
        mesh = TimeField.uniform_mesh(T, M)
        return TimeField(mesh, [slice_field] * (M + 1))


# ---------------------------------------------------------------------------
# field file format: one-line JSON header + row-major float64 LE sample block


def save_field(path, f: SpectralField):
    """Write a real field: JSON header line + little-endian float64 block."""
    if not f.real:
        raise GridError("field files store real-valued sample blocks only")
    g = f.grid
    header = {
        "d": g.d,
        "n": g.n,
        "L": g.L,
        "components": f.components,
        "layout": "rowmajor-float64-le",
    }
    block = np.ascontiguousarray(f.samples(), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(block.tobytes())


def load_field(path) -> SpectralField:
    """Read a field file; a header that is not a JSON object, a missing or
    ill-typed header key, a payload of the wrong size or a non-finite
    sample raises a GridError naming the cause."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    if not isinstance(header, dict):
        raise GridError(f"{path}: header is not a JSON object")
    if header.get("layout") != "rowmajor-float64-le":
        raise GridError(f"unsupported layout {header.get('layout')!r}")
    for key, kind in (("d", int), ("n", int), ("L", (int, float)),
                      ("components", int)):
        if key not in header:
            raise GridError(f"{path}: header has no {key!r}")
        if isinstance(header[key], bool) or not isinstance(header[key], kind):
            want = "an integer" if kind is int else "a number"
            raise GridError(f"{path}: header {key!r} must be {want}, "
                            f"got {header[key]!r}")
    grid = TorusGrid(d=header["d"], n=header["n"], L=header["L"])
    comp_shape = _component_shape(header["components"], grid.d)
    shape = comp_shape + grid.shape
    need = int(np.prod(shape)) * 8
    if len(raw) < need:
        raise GridError(f"{path}: truncated payload, {len(raw)} bytes for "
                        f"{need // 8} float64 samples ({need} bytes)")
    if len(raw) > need:
        raise GridError(f"{path}: {len(raw) - need} trailing bytes after "
                        f"{need // 8} float64 samples")
    vals = np.frombuffer(raw, dtype="<f8").reshape(shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise GridError(f"{path}: non-finite sample {vals.flat[bad[0]]} at "
                        f"flat index {bad[0]} ({bad.size} in all)")
    return to_fourier(vals, grid)
