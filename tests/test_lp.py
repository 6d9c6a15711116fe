import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovpde import (
    AffinePeriodicField,
    SpectralField,
    TimeField,
    TorusGrid,
    besov_norm,
    dc_norm,
    dyadic_partition,
    dyadic_random_field,
    evaluate_at,
    holder_norm,
    interior_mode_field,
    lp_blocks,
    to_fourier,
)
from besovpde.grid import CHUNK_BYTES, gradient_stack, sup_norms
from besovpde.lp import (
    besov_norms,
    block_sup_stack,
    c1plus_norms,
    dc_norms,
    rho_time_norm_log,
)
from oracles import dense_holder_norm_1d, per_block_sup_norms

RING_LOW, RING_HIGH = 0.75, 4.0 / 3.0


def test_partition_sums_to_one(part256):
    assert np.abs(part256.windows.sum(axis=0) - 1.0).max() < 1e-12


def test_partition_ring_supports(grid256, part256):
    r = grid256.ring_radius()
    for j in range(0, part256.j_max + 1):
        on = r[np.abs(part256.window(j)) > 1e-14]
        assert on.min() >= RING_LOW * 2**j - 1e-9
        assert on.max() <= (8.0 / 3.0) * 2**j + 1e-9
    low = r[np.abs(part256.window(-1)) > 1e-14]
    assert low.max() <= RING_HIGH + 1e-9


def test_constant_lives_in_low_block(grid64, part64):
    f = to_fourier(np.full(grid64.shape, 4.0), grid64)
    dec = lp_blocks(f, part64)
    sups = [b.sup_norm() for b in dec.blocks]
    assert abs(sups[0] - 4.0) < 1e-12
    assert max(sups[1:]) < 1e-12


def test_single_mode_support_blocks(grid256, part256):
    # ring radius 2 is covered by exactly the windows of blocks 0 and 1
    coeffs = np.zeros(grid256.shape, dtype=complex)
    coeffs[[2, -2]] = 1.0  # 2 cos(2x)
    f = SpectralField(grid256, coeffs)
    dec = lp_blocks(f, part256)
    nonzero = [int(j) for j, b in zip(part256.j_indices, dec.blocks)
               if b.sup_norm() > 1e-13]
    assert nonzero == [0, 1]


def test_block_sum_reconstructs(grid128, part128, rng):
    f = to_fourier(rng.standard_normal(grid128.shape), grid128)
    rec = lp_blocks(f, part128).reconstruct()
    assert (rec - f).sup_norm() < 1e-12 * max(f.sup_norm(), 1.0)


def _random_stack(grid, comp_shape, rows, seed):
    """(rows,) + comp_shape + grid coefficients of random real fields."""
    rng = np.random.default_rng(seed)
    shape = (rows,) + comp_shape + grid.shape
    axes = tuple(range(len(shape) - grid.d, len(shape)))
    return np.fft.fftn(rng.standard_normal(shape), axes=axes) / grid.n**grid.d


@settings(max_examples=30, deadline=None)
@given(dn=st.sampled_from([(1, 8), (1, 64), (2, 8), (2, 16), (3, 8)]),
       vector=st.booleans(), rows=st.integers(1, 7),
       seed=st.integers(0, 10_000))
def test_block_sup_stack_equals_per_block_loop(dn, vector, rows, seed):
    # the stacked, chunked kernel against one field and one block at a
    # time; same arithmetic per entry, so the tolerance is exact equality
    d, n = dn
    grid = TorusGrid(d=d, n=n)
    part = dyadic_partition(grid)
    comp_shape = (d,) if vector else ()
    coeffs = _random_stack(grid, comp_shape, rows, seed)
    fields = [SpectralField(grid, c) for c in coeffs]
    expected = np.array([per_block_sup_norms(f, part) for f in fields])
    assert np.array_equal(block_sup_stack(coeffs, part), expected)
    assert np.array_equal(sup_norms(coeffs, grid),
                          np.array([f.sup_norm() for f in fields]))


def test_block_sup_stack_stays_within_chunk_budget(monkeypatch):
    # the refined samples of every batch the kernel transforms fit in
    # CHUNK_BYTES, and the batches together cover every (node, block) pair
    # once; every batch goes through the real inverse transform
    grid = TorusGrid(d=2, n=16)
    part = dyadic_partition(grid)
    coeffs = _random_stack(grid, (2,), 33, seed=4)
    outputs = []
    irfftn = np.fft.irfftn

    def spy(a, *args, **kwargs):
        vals = irfftn(a, *args, **kwargs)
        outputs.append(vals.shape)
        assert vals.nbytes <= CHUNK_BYTES, vals.shape
        return vals

    monkeypatch.setattr(np.fft, "irfftn", spy)
    sups = block_sup_stack(coeffs, part)
    assert sups.shape == (33, len(part.windows))
    assert sum(shape[0] for shape in outputs) == sups.size
    assert max(shape[0] for shape in outputs) > 1
    assert all(shape[1:] == (2, 32, 32) for shape in outputs)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
def test_dc_norms_origin_is_the_coefficient_sum(d, n):
    # f_i(0) as one stacked sum of coefficients against evaluate_at one
    # field at a time; tolerance 1e-13 * (1 + |value|)
    grid = TorusGrid(d=d, n=n)
    part = dyadic_partition(grid)
    coeffs = _random_stack(grid, (), 5, seed=d)
    slopes = np.random.default_rng(d).standard_normal((5, d))
    values = dc_norms(slopes, coeffs, 0.4, part)
    grads = besov_norms(gradient_stack(coeffs, grid, slopes), 0.4, part)
    for value, grad, slope, c in zip(values, grads, slopes, coeffs):
        f = AffinePeriodicField(slope, SpectralField(grid, c))
        expected = float(np.abs(evaluate_at(f, np.zeros(d)))) + grad
        assert abs(value - expected) <= 1e-13 * (1.0 + abs(value))


def test_besov_zero_field(grid64, part64):
    assert besov_norm(SpectralField.zero(grid64), 0.7, part64).value == 0.0


def test_besov_single_interior_mode_is_one(grid256, part256):
    f = interior_mode_field(grid256, {3: 1.0}, seed=5, part=part256)
    bn = besov_norm(f, 0.0, part256)
    assert abs(bn.value - 1.0) < 1e-10


def test_besov_forced_blocks(grid256, part256):
    # block sup norms forced to 2^(0.3 j); norm at -0.3 must sit at 1
    targets = {j: 2.0 ** (0.3 * j) for j in (3, 4, 5, 6)}
    f = interior_mode_field(grid256, targets, seed=11, part=part256)
    bn = besov_norm(f, -0.3, part256)
    assert abs(bn.value - 1.0) < 0.05


def test_besov_monotonicity_ledger(grid128, part128, rng):
    f = dyadic_random_field(grid128, 0.4, seed=3, part=part128)
    lower = besov_norm(f, 0.1, part128)
    higher = besov_norm(f, 0.4, part128)
    keep = lower.j_indices >= 0
    assert np.all(lower.ledger[keep] <= higher.ledger[keep] + 1e-14)


def test_besov_report_schema(grid64, part64):
    f = dyadic_random_field(grid64, 0.2, seed=1, part=part64)
    rep = besov_norm(f, 0.2, part64).report()
    assert rep["kind"] == "besov"
    assert rep["value"] == max(e["entry"] for e in rep["ledger"])


def test_holder_constant_and_zero(grid64):
    c = to_fourier(np.full(grid64.shape, -2.0), grid64)
    assert abs(holder_norm(c, 0.5) - 2.0) < 1e-12
    assert holder_norm(SpectralField.zero(grid64), 0.5) == 0.0


def test_holder_sine_matches_dense_enumeration():
    grid = TorusGrid(d=1, n=256)
    x = grid.axis_points()
    f = to_fourier(np.sin(x), grid)
    ref = dense_holder_norm_1d(np.sin(x), 0.5, grid.dx, grid.L)
    val = holder_norm(f, 0.5)
    assert abs(val - ref) < 0.05 * ref


def test_holder_rejects_bad_exponent(grid64):
    f = SpectralField.zero(grid64)
    with pytest.raises(ValueError):
        holder_norm(f, 1.2)
    with pytest.raises(ValueError):
        holder_norm(f, 0.0)


def test_dc_norm_identity_component(grid64, part64):
    ident = AffinePeriodicField(np.array([1.0]), SpectralField.zero(grid64))
    ones = to_fourier(np.ones(grid64.shape), grid64)
    ref = besov_norm(ones, 0.4, part64).value
    assert abs(dc_norm(ident, 0.4, part64) - ref) < 1e-12


def test_dc_norm_constant(grid64, part64):
    c = AffinePeriodicField(np.array([0.0]),
                            to_fourier(np.full(grid64.shape, 3.0), grid64))
    assert abs(dc_norm(c, 0.4, part64) - 3.0) < 1e-12


def test_dc_norm_x_plus_sine(grid256, part256):
    x = grid256.axis_points()
    f = AffinePeriodicField(np.array([1.0]), to_fourier(np.sin(x), grid256))
    ref = besov_norm(to_fourier(1.0 + np.cos(x), grid256), 0.4, part256).value
    assert abs(dc_norm(f, 0.4, part256) - ref) < 1e-10


def test_dc_norm_rejects_bad_exponent(grid64):
    f = AffinePeriodicField(np.array([0.0]), SpectralField.zero(grid64))
    with pytest.raises(ValueError):
        dc_norm(f, 1.0)


def besov_time_norm(tf, rho, gamma, part):
    """The rho-weighted C_T C^gamma norm of a path from its stacked norms."""
    norms = besov_norms(np.array([s.coeffs for s in tf.slices]), gamma, part)
    return float(np.exp(rho_time_norm_log(norms, tf.t_grid, rho)))


def test_rho_zero_is_plain_sup(grid64, part64):
    fields = [dyadic_random_field(grid64, 0.5, seed=s, part=part64)
              for s in range(4)]
    tf = TimeField(TimeField.uniform_mesh(1.0, 3), fields)
    plain = max(besov_norm(f, 0.5, part64).value for f in fields)
    assert abs(besov_time_norm(tf, 0.0, 0.5, part64) - plain) < 1e-14


def test_rho_constant_slices(grid64, part64):
    f = interior_mode_field(grid64, {3: 1.0}, seed=2, part=part64)
    tf = TimeField(TimeField.uniform_mesh(1.0, 8), [f] * 9)
    val = besov_time_norm(tf, 1.0, 0.0, part64)
    assert abs(val - 1.0) < 1e-10  # attained at t = T where the weight is 1


def test_rho_linear_growth_maximization(grid64, part64):
    # slice norms t on [0,1] with rho = 2: max of t e^(-2(1-t)) is 1 at t = 1
    base = interior_mode_field(grid64, {3: 1.0}, seed=2, part=part64)
    mesh = TimeField.uniform_mesh(1.0, 16)
    tf = TimeField(mesh, [t * base for t in mesh])
    val = besov_time_norm(tf, 2.0, 0.0, part64)
    ref = max(t * np.exp(-2.0 * (1.0 - t)) for t in mesh)
    assert abs(val - ref) < 1e-10
    assert abs(ref - 1.0) < 1e-12


def test_equivalence_bracket_stability():
    # holder/besov ratio bracket at gamma = 1/2, stable across seeds
    grid = TorusGrid(d=1, n=32)
    part = dyadic_partition(grid)

    def bracket(seed):
        ratios = []
        for s in np.random.SeedSequence(seed).spawn(200):
            f = dyadic_random_field(grid, 0.5, seed=s, part=part)
            h = holder_norm(f, 0.5)
            b = besov_norm(f, 0.5, part).value
            ratios.append(h / b)
        return max(max(ratios), 1.0 / min(ratios))

    ks = [bracket(s) for s in (0, 1, 2)]
    assert all(np.isfinite(ks))
    spread = (max(ks) - min(ks)) / np.mean(ks)
    assert spread <= 0.20


def test_dyadic_random_field_saturates(grid128, part128):
    f = dyadic_random_field(grid128, -0.3, seed=9, part=part128)
    val = besov_norm(f, -0.3, part128).value
    assert 0.5 <= val <= 2.0


def test_rho_time_norm_keeps_a_nan_slice(grid64, part64):
    fields = [dyadic_random_field(grid64, 0.5, seed=s, part=part64)
              for s in range(5)]
    coeffs = fields[2].coeffs.copy()
    coeffs[3] = np.nan
    fields[2] = SpectralField(grid64, coeffs)
    tf = TimeField(TimeField.uniform_mesh(1.0, 4), fields)
    assert math.isnan(besov_time_norm(tf, 0.0, 0.5, part64))


def test_rho_time_norm_of_dc_and_c1plus_stacks(grid64, part64):
    # constant paths: the stacked norms repeat the single-field norm bit for
    # bit, and the unweighted time norm is that norm
    mesh = TimeField.uniform_mesh(1.0, 4)
    f = to_fourier(np.sin(grid64.axis_points()), grid64)
    coeffs = np.array([f.coeffs] * 5)
    aff = AffinePeriodicField(np.array([1.0]), f)
    dc = dc_norms(np.ones((5, 1)), coeffs, 0.4, part64)
    assert np.array_equal(dc, [dc_norm(aff, 0.4, part64)] * 5)
    from besovpde import c1plus_norm
    c1 = c1plus_norms(coeffs, 0.4, part64)
    assert np.array_equal(c1, [c1plus_norm(f, 0.4, part64)] * 5)
    for norms in (dc, c1):
        assert np.exp(rho_time_norm_log(norms, mesh, 0.0)) == pytest.approx(
            norms[0], rel=1e-15)


def test_holder_two_dimensional_vs_dense_enumeration():
    import itertools
    grid = TorusGrid(d=2, n=16)
    xs = np.meshgrid(*[grid.axis_points()] * 2, indexing="ij")
    vals = np.sin(xs[0]) * np.cos(2 * xs[1]) + 0.3 * np.cos(3 * xs[0] + xs[1])
    f = to_fourier(vals, grid)
    gamma, n = 0.5, grid.n
    semi = 0.0
    for da, db in itertools.product(range(n), range(n)):
        if da == 0 and db == 0:
            continue
        wa = (da + n // 2) % n - n // 2
        wb = (db + n // 2) % n - n // 2
        h = grid.dx * np.hypot(wa, wb)
        if not 0.0 < h < 1.0:
            continue
        diff = np.abs(vals - np.roll(np.roll(vals, da, axis=0),
                                     db, axis=1)).max()
        semi = max(semi, diff / h**gamma)
    dense = np.abs(vals).max() + semi
    impl = holder_norm(f, gamma)
    assert impl <= dense + 1e-12
    assert impl >= 0.9 * dense  # structured sampling hits the sup closely
