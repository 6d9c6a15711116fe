import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovpde import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TimeField,
    TorusGrid,
    dyadic_partition,
    dyadic_random_field,
    evaluate_at,
    gradient,
    load_field,
    save_field,
    to_fourier,
)
from besovpde.grid import _padded_samples, gradient_stack, save_fields
from oracles import complex_padded_samples, naive_dft_1d


def test_grid_validation():
    with pytest.raises(GridError):
        TorusGrid(d=4, n=16)
    with pytest.raises(GridError):
        TorusGrid(d=1, n=12)  # not a power of two
    with pytest.raises(GridError):
        TorusGrid(d=1, n=4)   # too small
    with pytest.raises(GridError):
        TorusGrid(d=1, n=16, L=-1.0)


def test_constant_gives_dc_mode(grid64):
    f = to_fourier(np.full(grid64.shape, 2.5), grid64)
    assert abs(f.coeffs[0] - 2.5) < 1e-14
    assert np.abs(f.coeffs[1:]).max() < 1e-14


def test_sine_single_mode_identity(grid64):
    x = grid64.axis_points()
    f = to_fourier(np.sin(2 * np.pi * x / grid64.L), grid64)
    assert abs(f.coeffs[1] - (-0.5j)) < 1e-14
    assert abs(f.coeffs[-1] - 0.5j) < 1e-14


def test_roundtrip_matches_naive_dft(rng):
    grid = TorusGrid(d=1, n=16)
    samples = rng.standard_normal(16)
    f = to_fourier(samples, grid)
    ref = naive_dft_1d(samples)
    assert np.abs(f.coeffs - ref).max() < 1e-12
    assert np.abs(f.samples() - samples).max() < 1e-12


def test_hermitian_symmetry_for_real_fields(grid64, rng):
    f = to_fourier(rng.standard_normal(grid64.shape), grid64)
    c = f.coeffs
    flipped = np.conj(np.roll(c[::-1], 1))
    assert np.abs(c - flipped).max() < 1e-12 * np.abs(c).max()


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_to_fourier_rejects_complex_samples(grid64, dtype):
    samples = np.zeros(grid64.shape, dtype=dtype)
    with pytest.raises(GridError,
                       match=f"samples must be real, got {np.dtype(dtype)}"):
        to_fourier(samples, grid64)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 5: SpectralField accepts coefficients "
                          "that are not Hermitian, and its half-spectrum sup "
                          "norm then reads another field than its samples")
def test_sup_norm_and_samples_read_one_field():
    # only c[5] = 1: sup_norm() reads 2 cos(5x) (2.0), samples() cos(5x) (1.0)
    grid = TorusGrid(d=1, n=64)
    c = np.zeros(grid.shape, dtype=complex)
    c[5] = 1.0
    f = SpectralField(grid, c)
    assert f.sup_norm() == np.abs(f.samples()).max()


def test_dimension_mismatch_names_axis(grid64):
    with pytest.raises(GridError, match="axis 0"):
        to_fourier(np.zeros(48), grid64)
    g2 = TorusGrid(d=2, n=16)
    with pytest.raises(GridError, match="axis 1"):
        to_fourier(np.zeros((16, 8)), g2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval(seed):
    grid = TorusGrid(d=1, n=32)
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    f = to_fourier(samples, grid)
    lhs = np.sum(np.abs(f.coeffs) ** 2)
    rhs = np.mean(np.abs(samples) ** 2)
    assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)


def test_gradient_constant_is_zero(grid64):
    f = to_fourier(np.full(grid64.shape, 3.0), grid64)
    assert gradient(f).sup_norm() < 1e-14


def test_gradient_sine(grid64):
    x = grid64.axis_points()
    f = to_fourier(np.sin(2 * np.pi * x / grid64.L), grid64)
    g = gradient(f).component(0)
    ref = (2 * np.pi / grid64.L) * np.cos(2 * np.pi * x / grid64.L)
    assert np.abs(g.samples() - ref).max() < 1e-13


def band_limited_field(grid, rng, max_mode=6):
    modes = grid.mode_axis()
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = grid.n
        mask &= np.abs(modes.reshape(shape)) <= max_mode
    coeffs = np.fft.fftn(rng.standard_normal(grid.shape)) / grid.n**grid.d
    return SpectralField(grid, coeffs * mask)


def test_gradient_matches_finite_differences_two_resolutions():
    # one fixed band-limited function, sampled at both resolutions
    amps = [(1, 0.9, -0.4), (3, -0.5, 0.2), (6, 0.3, 0.7)]

    def func(x):
        return sum(a * np.cos(m * x) + b * np.sin(m * x) for m, a, b in amps)

    errors = {}
    for n in (64, 128):
        grid = TorusGrid(d=1, n=n)
        vals = func(grid.axis_points())
        f = to_fourier(vals, grid)
        h = grid.dx
        centered = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * h)
        spectral = gradient(f).component(0).samples()
        errors[n] = np.abs(spectral - centered).max()
    # centered differences converge at second order to the spectral value
    rate = np.log2(errors[64] / errors[128])
    assert 1.9 < rate < 2.1


def test_hessian_symmetry(grid2d, rng):
    f = band_limited_field(grid2d, rng, max_mode=5)
    hess = gradient(gradient(f))
    a = hess.component(0, 1).samples()
    b = hess.component(1, 0).samples()
    assert np.abs(a - b).max() < 1e-10


def test_evaluate_constant(grid64):
    f = to_fourier(np.full(grid64.shape, 1.75), grid64)
    assert abs(evaluate_at(f, [0.123]) - 1.75) < 1e-13


def test_evaluate_affine_part(grid64):
    a = AffinePeriodicField(np.array([1.0]), SpectralField.zero(grid64))
    val = evaluate_at(a, [grid64.L / 2])
    assert abs(val - grid64.L / 2) < 1e-13


def test_evaluate_single_mode_off_grid():
    # a Hermitian pair of modes +-5: the cosine cos(k x + theta), whose
    # phase tells exp(i k x) from exp(-i k x)
    grid = TorusGrid(d=1, n=64)
    theta = 0.3
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[5] = 0.5 * np.exp(1j * theta)
    coeffs[-5] = 0.5 * np.exp(-1j * theta)
    f = SpectralField(grid, coeffs)
    x = 0.7321
    k = 5 * 2 * np.pi / grid.L
    assert abs(evaluate_at(f, [x]) - np.cos(k * x + theta)) < 1e-12


def test_evaluate_reproduces_grid_samples(grid64, rng):
    f = band_limited_field(grid64, rng)
    vals = f.samples()
    for m in (0, 7, 33):
        x = grid64.axis_points()[m]
        assert abs(evaluate_at(f, [x]) - vals[m]) < 1e-12


def test_field_file_round_trip(tmp_path, grid2d, rng):
    f = to_fourier(rng.standard_normal(grid2d.shape), grid2d)
    path = tmp_path / "field.bin"
    save_field(path, f)
    g = load_field(path)
    assert np.array_equal(f.samples(), g.samples())
    # a second save must reproduce the file byte for byte
    path2 = tmp_path / "field2.bin"
    save_field(path2, g)
    assert path.read_bytes() == path2.read_bytes()
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert '"layout": "rowmajor-float64-le"' in header


@pytest.mark.parametrize("d, n, rows, vector", [
    (1, 128, 65, False), (1, 128, 65, True), (2, 32, 33, False),
    (2, 32, 33, True), (3, 16, 17, False)])
def test_save_fields_writes_the_bytes_of_per_node_save_field(tmp_path, d, n,
                                                             rows, vector):
    # one batched inverse transform of the stack against one save_field
    # (one transform) per row, at the benchmark sizes: identical files
    grid = TorusGrid(d=d, n=n)
    shape = (rows,) + ((d,) if vector else ()) + grid.shape
    axes = tuple(range(len(shape) - d, len(shape)))
    rng = np.random.default_rng(d * n)
    coeffs = np.fft.fftn(rng.standard_normal(shape), axes=axes) / n**d
    batched = [tmp_path / f"batched_{m}.field" for m in range(rows)]
    save_fields(batched, grid, coeffs)
    for m, c in enumerate(coeffs):
        single = tmp_path / f"single_{m}.field"
        save_field(single, SpectralField(grid, c))
        assert batched[m].read_bytes() == single.read_bytes(), m


def test_timefield_invariants(grid64):
    f = SpectralField.zero(grid64)
    with pytest.raises(GridError):
        TimeField(np.array([0.0, 1.0]), [f, f])  # M = 1 < 2
    with pytest.raises(GridError):
        TimeField(np.array([0.0, 0.5, 0.7]), [f, f, f])  # nonuniform
    with pytest.raises(GridError, match="t_0 = 0.5"):
        TimeField(np.linspace(0.5, 1.0, 17), [f] * 17)  # does not start at 0
    with pytest.raises(GridError, match="4 slices for 5 mesh nodes"):
        TimeField(TimeField.uniform_mesh(1.0, 4), [f] * 4)
    with pytest.raises(GridError, match="do not fit"):
        TimeField.from_stacks(TimeField.uniform_mesh(1.0, 4), grid64,
                              np.zeros((5, 3) + grid64.shape))
    tf = TimeField(TimeField.uniform_mesh(1.0, 4), [f] * 5)
    assert tf.M == 4 and tf.T == 1.0


@pytest.mark.parametrize("affine", [False, True])
@pytest.mark.parametrize("comp", [(), (2,)])
def test_timefield_round_trips_its_slices_exactly(affine, comp, rng):
    # per-node slices -> one coefficient stack and one slope stack -> slices
    grid = TorusGrid(d=2, n=8)
    slices = []
    for _ in range(5):
        s = to_fourier(rng.standard_normal(comp + grid.shape), grid)
        if affine:
            s = AffinePeriodicField(rng.standard_normal(comp + (2,)), s)
        slices.append(s)
    tf = TimeField(TimeField.uniform_mesh(1.0, 4), slices)
    assert tf.coeffs.shape == (5,) + comp + grid.shape
    assert (tf.slopes is None) == (not affine)
    assert tf.comp_shape == comp
    for m, (a, b) in enumerate(zip(slices, tf.slices)):
        assert type(b) is type(a)
        pa = a.periodic if affine else a
        pb = b.periodic if affine else b
        assert np.array_equal(pb.coeffs, pa.coeffs)
        assert pb.comp_shape == pa.comp_shape
        assert np.shares_memory(pb.coeffs, tf.coeffs)   # a view, not a copy
        if affine:
            assert np.array_equal(b.slope, a.slope)
        c = tf[m].periodic if affine else tf[m]
        assert np.array_equal(c.coeffs, pa.coeffs)


def test_affine_gradient_field(grid64):
    x = grid64.axis_points()
    p = to_fourier(np.sin(x), grid64)
    a = AffinePeriodicField(np.array([2.0]), p)
    g = a.gradient_field()
    ref = 2.0 + np.cos(x)
    assert np.abs(g.component(0).samples() - ref).max() < 1e-12


def test_three_dimensional_roundtrip_and_gradient():
    grid = TorusGrid(d=3, n=8)
    xs = np.meshgrid(*[grid.axis_points()] * 3, indexing="ij")
    vals = np.sin(xs[0]) * np.cos(xs[1]) + 0.5 * np.sin(xs[2])
    f = to_fourier(vals, grid)
    assert np.abs(f.samples() - vals).max() < 1e-13
    g = gradient(f)
    ref = np.cos(xs[0]) * np.cos(xs[1])
    assert np.abs(g.component(0).samples() - ref).max() < 1e-12
    assert abs(evaluate_at(f, [0.3, 1.1, 2.0])
               - (np.sin(0.3) * np.cos(1.1) + 0.5 * np.sin(2.0))) < 1e-12


def _package_stack(grid, kind, vector, rows, seed):
    """(rows,) + comp + grid coefficients of real fields the package builds:
    random dyadic fields, their (affine) gradients, or windowed blocks."""
    part = dyadic_partition(grid)
    comp = (grid.d,) if vector and kind != "gradient" else ()
    coeffs = np.array([
        dyadic_random_field(grid, -0.3, seed + i, comp_shape=comp,
                            part=part).coeffs for i in range(rows)])
    rng = np.random.default_rng(seed)
    if kind == "gradient":
        return gradient_stack(coeffs, grid, rng.standard_normal((rows, grid.d)))
    if kind == "blocks":
        blocks = part.windows[rng.integers(len(part.windows), size=rows)]
        return coeffs * blocks.reshape((rows,) + (1,) * len(comp) + grid.shape)
    return coeffs


@settings(max_examples=60, deadline=None)
@given(dn=st.sampled_from([(1, 8), (1, 64), (2, 8), (2, 16), (3, 8)]),
       kind=st.sampled_from(["field", "gradient", "blocks"]),
       vector=st.booleans(), rows=st.integers(1, 7),
       refine=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000))
def test_padded_samples_match_complex_transform(dn, kind, vector, rows,
                                                refine, seed):
    # the real-to-complex kernel against the complex inverse transform of
    # the whole padded spectrum; tolerance 1e-14 * (1 + max|oracle|)
    grid = TorusGrid(d=dn[0], n=dn[1])
    coeffs = _package_stack(grid, kind, vector, rows, seed)
    fast = _padded_samples(coeffs, grid, refine)
    slow = complex_padded_samples(coeffs, grid, refine)
    assert fast.dtype == np.float64 and fast.shape == slow.shape
    assert np.abs(fast - slow).max() <= 1e-14 * (1.0 + np.abs(slow).max())
