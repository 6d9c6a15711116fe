"""Torus discretization and real fields held by their Fourier coefficients.

Fields live on a periodic box [0, L)^d sampled on a uniform n^d lattice.
Every field is real, so its coefficients are Hermitian.  The forward
transform carries the 1/n^d normalization, so the k=0 coefficient of a
field is its mean.  Every other module consumes the types defined here.
"""

from __future__ import annotations

import functools
import json
import math
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
    "save_fields",
    "load_field",
]

_ROUND_TRIP_TOL = 1e-12

# Bytes of refined samples one batched sup-norm transform produces (8 a
# point).  Measured on the benchmark workloads (2-core host, numpy 2.4,
# one 20 s run each): the 2D solve's median op is ~1.2 s at 128 or
# 256 KiB against ~1.4 s at 64 KiB, where gradient pairs go one per
# transform; the 1D solve reads 0.47-0.51 s at 64-256 KiB, and 256 KiB
# adds ~1 MB (2.6%) peak RSS.  512 KiB chunks and whole-node batches cost
# 5-6% peak RSS.
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
    fields.  The field is real: the coefficients must be Hermitian,
    ``c(-k) = conj(c(k))``, as those of ``to_fourier`` of real samples are.
    """

    grid: TorusGrid
    coeffs: np.ndarray
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
        """Real-space samples."""
        if self.sample_cache is not None:
            return self.sample_cache
        vals = np.fft.ifftn(self.coeffs, axes=self.space_axes) * self.grid.n**self.grid.d
        return vals.real

    def mean(self) -> np.ndarray:
        idx = (...,) + (0,) * self.grid.d
        return self.coeffs[idx].real

    def __add__(self, other):
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_layout(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def component(self, *idx) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[idx])

    def sup_norm(self, refine: int = 2) -> float:
        """Sup of the pointwise Euclidean magnitude over the refined grid.

        Band-limited fields can exceed their grid maximum between samples,
        so the default evaluates on the ``refine``-times finer lattice.
        """
        return float(sup_norms(self.coeffs[None], self.grid, refine)[0])

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


def to_fourier(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Forward transform of real-space samples into a SpectralField.

    ``samples`` has shape ``comp_shape + (n,)*d``; per-axis lengths are
    validated individually so a mismatch names the offending axis.
    Complex samples raise a GridError: fields are real.
    """
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        raise GridError(f"samples must be real, got {samples.dtype}")
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
    space_axes = tuple(range(samples.ndim - grid.d, samples.ndim))
    coeffs = np.fft.fftn(samples, axes=space_axes) / grid.n**grid.d
    return SpectralField(grid, coeffs, sample_cache=samples)


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient: per-mode multiplication by i*k along each axis.

    A scalar maps to a vector; a vector maps to the d x d matrix with
    entries (i, j) = d_i f_j.  Axis Nyquist planes are zeroed since the
    odd-order derivative of the unpaired mode has no well-defined sign.
    """
    return SpectralField(f.grid, gradient_stack(f.coeffs[None], f.grid)[0])


@functools.lru_cache(maxsize=32)
def _gradient_multipliers(grid: TorusGrid) -> tuple:
    """The per-axis ``1j * k`` arrays and the Nyquist mask of a grid (cached).

    Kept as separate factors so that ``coeffs * (1j * k) * keep`` rounds as
    it did when both were rebuilt per call; the arrays are read-only.
    """
    multipliers = tuple(1j * k for k in grid.k_mesh())
    keep = grid.nyquist_mask()
    for arr in multipliers + (keep,):
        arr.flags.writeable = False
    return multipliers, keep


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
    multipliers, keep = _gradient_multipliers(grid)
    out = np.empty(coeffs.shape[:1] + (grid.d,) + coeffs.shape[1:],
                   dtype=complex)
    for ax, ik in enumerate(multipliers):
        out[:, ax] = coeffs * ik * keep
    if slopes is not None:
        # (N,) + comp_shape + (d,) -> (N, d) + comp_shape; comp_shape has at
        # most one axis, and swapaxes costs far less than np.moveaxis
        out[(...,) + (0,) * grid.d] += slopes.swapaxes(1, -1)
    return out


def _padded_samples(coeffs: np.ndarray, grid: TorusGrid,
                    refine: int) -> np.ndarray:
    """Samples on a ``refine``-times finer grid via Fourier zero-padding.

    The coefficients' last d axes are the grid; leading axes are a batch,
    transformed together.  Axis Nyquist coefficients are split evenly
    between +-n/2 so that the samples stay real and the original grid
    points are reproduced.  The one kernel behind every sampling on the
    refined grid: sup norms, block sup norms, the dealiased products and
    the Bony blocks.

    The samples come from a real inverse transform of the half spectrum
    on the last axis: modes 0..n/2-1, the coarse Nyquist halved into slot
    n/2, zeros above.  That transform reads only the half spectrum, so
    coefficients that are not Hermitian give the samples of a different
    field, not the real part of their own.
    """
    n, d = grid.n, grid.d
    fine_n = refine * n
    axes = tuple(range(coeffs.ndim - d, coeffs.ndim))
    pad = np.zeros(coeffs.shape[:-1] + (fine_n // 2 + 1,), dtype=complex)
    pad[..., :n // 2] = coeffs[..., :n // 2]
    pad[..., n // 2] = coeffs[..., n // 2] * (0.5 if refine > 1 else 1.0)
    if refine > 1:
        for ax in range(d - 1):
            pad = _embed_axis(pad, axes[ax], n, fine_n)
    # unnormalized: the coefficients carry the 1/n^d already
    return np.fft.irfftn(pad, s=(fine_n,) * d, axes=axes, norm="forward")


def chunk_rows(row_shape: tuple, grid: TorusGrid, refine: int = 2) -> int:
    """Rows of shape ``comp_shape + grid.shape`` one batched transform takes.

    Their refined samples (8 bytes a point) fit in CHUNK_BYTES; a row
    larger than that goes alone.
    """
    comps = math.prod(row_shape[:len(row_shape) - grid.d])
    return max(1, CHUNK_BYTES // (comps * (refine * grid.n) ** grid.d * 8))


def sup_norms(coeffs: np.ndarray, grid: TorusGrid,
              refine: int = 2) -> np.ndarray:
    """``sup_norm`` of every row of a ``(N,) + comp_shape + grid`` stack.

    Rows are sampled on the ``refine``-times finer grid in chunks of
    ``chunk_rows`` rows, each chunk one call of the padded-sample kernel.
    """
    d = grid.d
    rows = chunk_rows(coeffs.shape[1:], grid, refine)
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), rows):
        vals = _padded_samples(coeffs[lo:lo + rows], grid, refine)
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
        return SpectralField(self.grid, coeffs)

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
    return np.asarray(acc.real)


@dataclass(frozen=True, init=False, eq=False)
class TimeField:
    """A field-valued path on a uniform mesh 0 = t_0 < ... < t_M = T.

    ``coeffs`` stacks the nodes' periodic coefficients, ``(M+1,) +
    comp_shape + grid``; ``slopes`` their affine slopes, ``(M+1,) +
    comp_shape + (d,)``, or is None for a periodic path.
    ``TimeField(t_grid, slices)`` packs SpectralField or AffinePeriodicField
    slices once (one affine slice makes the path affine); ``slices`` and
    ``[m]`` build per-node fields as views of the stacks.
    """

    t_grid: np.ndarray
    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)
    slopes: np.ndarray = field(repr=False)

    def __init__(self, t_grid, slices):
        if len(slices) != len(t_grid):
            raise GridError(f"{len(slices)} slices for {len(t_grid)} "
                            "mesh nodes")
        parts = [getattr(s, "periodic", s) for s in slices]
        if len({(p.grid, p.comp_shape) for p in parts}) > 1:
            raise GridError("slices disagree on grid or component layout")
        grid, comp = parts[0].grid, parts[0].comp_shape
        slopes = None
        if any(isinstance(s, AffinePeriodicField) for s in slices):
            slopes = np.array([getattr(s, "slope", np.zeros(comp + (grid.d,)))
                               for s in slices])
        self._store(t_grid, grid, np.array([p.coeffs for p in parts]), slopes)

    @classmethod
    def from_stacks(cls, t_grid, grid: TorusGrid, coeffs: np.ndarray,
                    slopes: np.ndarray = None):
        """The path with these stacks, kept without a copy."""
        tf = cls.__new__(cls)
        tf._store(t_grid, grid, coeffs, slopes)
        return tf

    def _store(self, t_grid, grid, coeffs, slopes):
        t = np.asarray(t_grid, dtype=float)
        steps = np.diff(t)
        if len(t) < 3:
            raise GridError("time mesh needs at least M >= 2 cells")
        if t[0] != 0.0:
            raise GridError(f"time mesh must start at 0, got t_0 = {t[0]:g}")
        if not (steps > 0).all() or not np.allclose(steps, steps[0], rtol=1e-10):
            raise GridError("time mesh must be uniform and increasing")
        comp = coeffs.shape[1:coeffs.ndim - grid.d]
        if (coeffs.shape != (len(t),) + comp + grid.shape
                or comp not in ((), (grid.d,), (grid.d, grid.d))
                or slopes is not None
                and slopes.shape != (len(t),) + comp + (grid.d,)):
            raise GridError(f"stacks of shapes {coeffs.shape} and "
                            f"{getattr(slopes, 'shape', None)} do not fit "
                            f"{len(t)} nodes of a d={grid.d}, n={grid.n} grid")
        for name, value in (("t_grid", t), ("grid", grid), ("coeffs", coeffs),
                            ("slopes", slopes)):
            object.__setattr__(self, name, value)

    @property
    def comp_shape(self) -> tuple:
        return self.coeffs.shape[1:self.coeffs.ndim - self.grid.d]

    @property
    def M(self) -> int:
        return len(self.t_grid) - 1

    @property
    def T(self) -> float:
        return float(self.t_grid[-1])

    @property
    def slices(self) -> list:
        return [self[m] for m in range(len(self))]

    def __getitem__(self, m):
        periodic = SpectralField(self.grid, self.coeffs[m])
        if self.slopes is None:
            return periodic
        return AffinePeriodicField(self.slopes[m], periodic)

    def __len__(self):
        return len(self.t_grid)

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
    """Write a field: JSON header line + little-endian float64 block."""
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


def save_fields(paths, grid: TorusGrid, coeffs: np.ndarray):
    """``save_field`` of every row of a ``(N,) + comp_shape + grid`` stack.

    Row m goes to ``paths[m]``.  The samples of all rows come from one
    batched inverse transform, which gives each row the same bytes as its
    own transform would.
    """
    axes = tuple(range(coeffs.ndim - grid.d, coeffs.ndim))
    samples = (np.fft.ifftn(coeffs, axes=axes) * grid.n**grid.d).real
    for path, c, s in zip(paths, coeffs, samples):
        save_field(path, SpectralField(grid, c, sample_cache=s))


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
