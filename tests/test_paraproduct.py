import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovpde import (
    GridError,
    SpectralField,
    TimeField,
    TorusGrid,
    besov_norm,
    bony_product,
    dealiased_product,
    drift_term,
    dyadic_partition,
    dyadic_random_field,
    interior_mode_field,
    to_fourier,
)
from besovpde import paraproduct
from besovpde.grid import _padded_samples
from besovpde.lp import besov_norms, rho_time_norm_log
from besovpde.paraproduct import drift_terms
from oracles import bony_drift_pairing, per_node_drift_terms


def test_unit_of_the_product(grid128, part128):
    one = to_fourier(np.ones(grid128.shape), grid128)
    g = dyadic_random_field(grid128, -0.3, seed=4, part=part128)
    bp = bony_product(one, 0.6, g, 0.3, part128)
    assert (bp.total - g).sup_norm() < 1e-13


def test_sin_times_cos(grid128, part128):
    x = grid128.axis_points()
    bp = bony_product(to_fourier(np.sin(x), grid128), 0.6,
                      to_fourier(np.cos(x), grid128), 0.3, part128)
    ref = to_fourier(0.5 * np.sin(2 * x), grid128)
    assert (bp.total - ref).sup_norm() < 1e-10


def test_total_equals_dealiased_product_smooth(grid128, part128):
    x = grid128.axis_points()
    f = to_fourier(np.sin(3 * x) + 0.3 * np.cos(7 * x), grid128)
    g = to_fourier(np.cos(2 * x) - 0.5 * np.sin(5 * x), grid128)
    bp = bony_product(f, 0.6, g, 0.3, part128)
    assert (bp.total - dealiased_product(f, g)).sup_norm() < 1e-10


def test_total_equals_dealiased_product_rough(grid128, part128):
    f = dyadic_random_field(grid128, 0.6, seed=1, part=part128)
    g = dyadic_random_field(grid128, -0.3, seed=2, part=part128)
    bp = bony_product(f, 0.6, g, 0.3, part128)
    assert (bp.total - dealiased_product(f, g)).sup_norm() < 1e-10


@pytest.mark.parametrize("d, n, rows", [(1, 128, 40), (2, 32, 5)])
def test_stacked_products_match_one_row_products(d, n, rows):
    # dealiased_products of one-component stacks, chunks of grid.chunk_rows rows
    # (32 in 1D, 2 in 2D here), against one product per row as a single
    # field, padded and truncated on its own: bit for bit
    grid = TorusGrid(d=d, n=n)
    part = dyadic_partition(grid)
    f = np.array([dyadic_random_field(grid, 0.35, (5, i), part=part).coeffs
                  for i in range(rows)])
    g = np.array([dyadic_random_field(grid, -0.3, (6, i), part=part).coeffs
                  for i in range(rows)])
    stacked = paraproduct.dealiased_products(f[:, None], g[:, None], grid)
    for a, b, c in zip(f, g, stacked):
        one = paraproduct._truncate_to_grid(
            _padded_samples(a, grid, 2) * _padded_samples(b, grid, 2), grid)
        assert np.array_equal(c, one)
        assert np.array_equal(
            dealiased_product(SpectralField(grid, a),
                              SpectralField(grid, b)).coeffs, one)


def test_paraproduct_ring_geometry(grid256, part256):
    # block-3 f against a block-6 g: only the low-high paraproduct sees the
    # pair, and its content stays in rings adjacent to block 6
    f = interior_mode_field(grid256, {3: 1.0}, seed=3, part=part256)
    g = interior_mode_field(grid256, {6: 1.0}, seed=4, part=part256)
    bp = bony_product(f, 0.6, g, 0.3, part256)
    assert bp.para_low_high.sup_norm() > 0.1
    assert bp.para_high_low.sup_norm() < 1e-12
    assert bp.resonant.sup_norm() < 1e-12
    sups = besov_norm(bp.para_low_high, 0.0, part256).block_sups
    live = {int(j) for j, s in zip(part256.j_indices, sups) if s > 1e-12}
    assert live <= {5, 6, 7}


def test_adjacent_blocks_feed_resonant_part(grid256, part256):
    f = interior_mode_field(grid256, {4: 1.0}, seed=5, part=part256)
    g = interior_mode_field(grid256, {5: 1.0}, seed=6, part=part256)
    bp = bony_product(f, 0.6, g, 0.3, part256)
    assert bp.resonant.sup_norm() > 0.1
    assert bp.para_low_high.sup_norm() < 1e-12
    assert bp.para_high_low.sup_norm() < 1e-12


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(-3.0, 3.0), seed=st.integers(0, 500))
def test_bilinearity(scale, seed):
    grid = TorusGrid(d=1, n=32)
    part = dyadic_partition(grid)
    a1 = dyadic_random_field(grid, 0.6, seed=(seed, 1), part=part)
    a2 = dyadic_random_field(grid, 0.6, seed=(seed, 2), part=part)
    b = dyadic_random_field(grid, -0.3, seed=(seed, 3), part=part)
    lhs = bony_product(a1 + scale * a2, 0.6, b, 0.3, part).total
    rhs = (bony_product(a1, 0.6, b, 0.3, part).total
           + scale * bony_product(a2, 0.6, b, 0.3, part).total)
    scale_ref = max(lhs.sup_norm(), 1.0)
    assert (lhs - rhs).sup_norm() < 1e-12 * scale_ref


def test_hypothesis_violation_warns(grid64, part64):
    f = dyadic_random_field(grid64, 0.3, seed=1, part=part64)
    g = dyadic_random_field(grid64, -0.6, seed=2, part=part64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bp = bony_product(f, 0.3, g, 0.6, part64)
    assert len(caught) == 1
    assert not bp.hypothesis_ok
    assert np.isfinite(bp.total.sup_norm())


def test_drift_term_zero_drift(grid64):
    w = to_fourier(np.ones((1,) + grid64.shape), grid64)
    b = SpectralField.zero(grid64, (1,))
    assert drift_term(w, b).sup_norm() < 1e-14


def test_drift_term_constant_gradient(grid128):
    x = grid128.axis_points()
    w = to_fourier(np.ones((1,) + grid128.shape), grid128)
    b = to_fourier(np.sin(x)[None, :], grid128)
    out = drift_term(w, b)
    assert (out - to_fourier(np.sin(x), grid128)).sup_norm() < 1e-13


def test_drift_term_matches_grid_dot_product(grid2d, rng):
    xs = np.meshgrid(*[grid2d.axis_points()] * 2, indexing="ij")
    w = to_fourier(np.stack([np.sin(xs[0]), np.cos(xs[1])]), grid2d)
    b = to_fourier(np.stack([np.cos(2 * xs[0]), np.sin(xs[0] + xs[1])]), grid2d)
    out = drift_term(w, b)
    ref = dealiased_product(w.component(0), b.component(0)) \
        + dealiased_product(w.component(1), b.component(1))
    assert (out - ref).sup_norm() < 1e-10


# grids on which a handful of rows spans several chunks of the pairing:
# 4 rows a chunk in 1D and 2D, 1 in 3D
_CHUNKED_GRIDS = {1: TorusGrid(d=1, n=1024), 2: TorusGrid(d=2, n=16),
                  3: TorusGrid(d=3, n=8)}


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), rows=st.integers(1, 7),
       seed=st.integers(0, 10_000))
def test_drift_terms_match_per_node_loop(d, rows, seed):
    # the stacked, chunked pairing against the per-node drift_term loop it
    # replaced; tolerance: exact equality
    grid = _CHUNKED_GRIDS[d]
    chunk = {1: 4, 2: 4, 3: 1}[d]
    rng = np.random.default_rng(seed)
    shape = (rows, d) + grid.shape
    # Hermitian coefficients: transforms of real samples
    w, b = (np.fft.fftn(rng.standard_normal(shape),
                        axes=tuple(range(2, 2 + d))) / grid.n**d
            for _ in range(2))
    oracle = per_node_drift_terms(w, b, grid)
    sizes = []

    def spy(coeffs, *args):
        sizes.append(len(coeffs))
        return _padded_samples(coeffs, *args)

    with mock.patch.object(paraproduct, "_padded_samples", spy):
        fast = drift_terms(w, b, grid)
    assert sizes == [n for n in [chunk] * (rows // chunk) + [rows % chunk]
                     if n for _ in range(2)]
    assert np.array_equal(fast, oracle)


def test_drift_terms_rejects_mismatched_stacks(grid2d):
    w = np.zeros((3, 2) + grid2d.shape, dtype=complex)
    with pytest.raises(GridError):
        drift_terms(w, w[:2], grid2d)
    with pytest.raises(GridError):
        drift_terms(w[:, :1], w[:, :1], grid2d)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2]), gamma_w=st.floats(-0.5, 1.5),
       gamma_b=st.floats(-1.0, 0.5), log_amp=st.floats(-3.0, 3.0),
       seed=st.integers(0, 10_000))
def test_drift_term_matches_bony_sum(d, gamma_w, gamma_b, log_amp, seed):
    # the one-product pairing against the three-term Bony sum it replaced;
    # tolerance 1e-12 * (1 + sup |oracle|)
    grid = TorusGrid(d=d, n=64 if d == 1 else 16)
    part = dyadic_partition(grid)
    w = dyadic_random_field(grid, gamma_w, seed=(seed, 0), comp_shape=(d,),
                            part=part)
    b = dyadic_random_field(grid, gamma_b, seed=(seed, 1),
                            amplitude=10.0**log_amp, comp_shape=(d,),
                            part=part)
    ref = bony_drift_pairing(w, b, gamma_w, -gamma_b, part)
    gap = (drift_term(w, b) - ref).sup_norm()
    assert gap <= 1e-12 * (1.0 + ref.sup_norm())


def test_bony_estimate_seed_stability(grid128, part128):
    consts = []
    for s in range(5):
        worst = 0.0
        for pair in range(16):
            f = dyadic_random_field(grid128, 0.6, seed=(s, pair, 0),
                                    part=part128)
            g = dyadic_random_field(grid128, -0.3, seed=(s, pair, 1),
                                    part=part128)
            total = bony_product(f, 0.6, g, 0.3, part128).total
            worst = max(worst, besov_norm(total, -0.3, part128).value
                        / (besov_norm(f, 0.6, part128).value
                           * besov_norm(g, -0.3, part128).value))
        consts.append(worst)
    spread = (max(consts) - min(consts)) / np.mean(consts)
    assert spread <= 0.20


def _random_timefield(grid, part, gamma, seed, M=6, T=1.0):
    fields = [dyadic_random_field(grid, gamma, seed=(seed, m), part=part)
              for m in range(M + 1)]
    return TimeField(TimeField.uniform_mesh(T, M), fields)


def _sup_in_time(tf, gamma, part):
    """The unweighted C_T C^gamma norm of a path from its stacked norms."""
    norms = besov_norms(np.array([s.coeffs for s in tf.slices]), gamma, part)
    return float(np.exp(rho_time_norm_log(norms, tf.t_grid, 0.0)))


def test_time_sliced_product_bound(grid64, part64):
    # calibrated slice-wise constant controls the sup-in-time product norm
    alpha, beta = 0.6, 0.3
    c_cal = 0.0
    pairs = []
    for s in range(4):
        f = _random_timefield(grid64, part64, alpha, (900, s))
        g = _random_timefield(grid64, part64, -beta, (901, s))
        pairs.append((f, g))
        for fs, gs in zip(f.slices, g.slices):
            total = bony_product(fs, alpha, gs, beta, part64).total
            c_cal = max(c_cal, besov_norm(total, -beta, part64).value
                        / (besov_norm(fs, alpha, part64).value
                           * besov_norm(gs, -beta, part64).value))
    for f, g in pairs:
        prod = TimeField(f.t_grid, [
            bony_product(fs, alpha, gs, beta, part64).total
            for fs, gs in zip(f.slices, g.slices)])
        lhs = _sup_in_time(prod, -beta, part64)
        rhs = (c_cal * _sup_in_time(f, alpha, part64)
               * _sup_in_time(g, -beta, part64))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_rho_weighted_product_bound(grid64, part64):
    # weighted f-factor, unweighted g-factor, same slice-wise constant
    alpha, beta, rho = 0.6, 0.3, 4.0
    f = _random_timefield(grid64, part64, alpha, 77)
    g = _random_timefield(grid64, part64, -beta, 78)
    c_cal = 0.0
    prod_norms, f_norms, g_norms = [], [], []
    for fs, gs in zip(f.slices, g.slices):
        total = bony_product(fs, alpha, gs, beta, part64).total
        pn = besov_norm(total, -beta, part64).value
        fn = besov_norm(fs, alpha, part64).value
        gn = besov_norm(gs, -beta, part64).value
        c_cal = max(c_cal, pn / (fn * gn))
        prod_norms.append(pn)
        f_norms.append(fn)
        g_norms.append(gn)
    lhs = np.exp(rho_time_norm_log(prod_norms, f.t_grid, rho))
    rhs = (c_cal * np.exp(rho_time_norm_log(f_norms, f.t_grid, rho))
           * max(g_norms))
    assert lhs <= rhs * (1.0 + 1e-12)
