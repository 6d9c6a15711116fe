"""Metamorphic tests: relations the exact equation obeys, on the discrete
solver.

The drift equation commutes with translations, with a reflection of one
axis (that drift component negated) and, in 2D, with swapping the axes
(and the drift components); it is linear in the source and the terminal
data.  The discrete solver inherits each relation up to rounding, so
they need no second implementation: they keep checking the solver after
an old path is deleted.  Every relation is checked on the manufactured
problem of ``oracles.manufactured_problem`` (a C^-0.3 drift) in 1D and
2D, through both marches, with periodic and affine terminal data and
with lam in the integrand and in the kernel.
"""

import functools

import numpy as np
import pytest

from besovpde import (AffinePeriodicField, PDEData, SolverConfig,
                      SpectralField, TimeField, TorusGrid, solve_mild)
from besovpde.grid import sup_norms
from oracles import manufactured_problem

# largest gap between the transformed solve and the transformed solution,
# relative to the largest sup norm over the nodes of that solution
TOLERANCE = 1e-13

CASES = {
    # name: (d, n, modulated drift, affine terminal data, lambda_kernel)
    "1d-dense-periodic-integrand": (1, 64, False, False, "never"),
    "1d-iterative-affine-kernel": (1, 64, True, True, "always"),
    "2d-dense-affine-integrand": (2, 16, False, True, "never"),
    "2d-iterative-periodic-kernel": (2, 16, True, False, "always"),
}
M = 16


@functools.lru_cache(maxsize=None)
def _problem(case):
    d, n, modulated, affine, kernel = CASES[case]
    grid = TorusGrid(d=d, n=n)
    data, _ = manufactured_problem(grid, M, 2.0, affine=affine,
                                   modulated=modulated)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=M, lam=2.0, rho=8.0,
                       lambda_kernel=kernel)
    result = _solve(data, cfg)
    assert result.march == ("iterative" if modulated else "dense")
    return data, cfg, result.v


def _solve(data, cfg):
    return solve_mild(data, cfg, compute_weak_residual=False)


def _mapped(data, scalar, vector, slope, terminal_shift=0.0):
    """The data with every scalar stack mapped by ``scalar``, the drift by
    ``vector`` and the terminal slope by ``slope``; ``terminal_shift`` is
    added to the terminal data's periodic part."""
    g, t = data.grid, data.b.t_grid
    periodic = scalar(data.v_T.periodic.coeffs[None])[0]
    periodic[(0,) * g.d] += terminal_shift
    return PDEData(
        b=TimeField.from_stacks(t, g, vector(data.b.coeffs)),
        g=TimeField.from_stacks(t, g, scalar(data.g.coeffs)),
        v_T=AffinePeriodicField(slope(data.v_T.slope),
                                SpectralField(g, periodic)))


def _assert_same(v, coeffs, slopes):
    """v has these periodic coefficients and slopes, to TOLERANCE."""
    scale = sup_norms(coeffs, v.grid).max()
    gap = sup_norms(v.coeffs - coeffs, v.grid).max()
    assert gap <= TOLERANCE * scale, gap / scale
    assert np.abs(_slopes(v) - slopes).max() <= TOLERANCE * max(
        1.0, np.abs(slopes).max())


def _slopes(v):
    return np.zeros((len(v), v.grid.d)) if v.slopes is None else v.slopes


def _translate(coeffs, grid, cells):
    """f(x - cells dx) for every row: a phase factor on the coefficients."""
    phase = 1.0
    for k, s in zip(grid.k_mesh(), cells):
        phase = phase * np.exp(-1j * k * s * grid.dx)
    return coeffs * phase


def _zero_source(data):
    return TimeField.from_stacks(data.b.t_grid, data.grid,
                                 np.zeros_like(data.g.coeffs))


@pytest.mark.parametrize("case", list(CASES))
def test_translation(case):
    # shifting b, g and v_T by whole cells shifts v.  An affine v_T = a . x
    # + p shifts to a . x + p(x - h) - a . h, and by linearity the
    # constant -a . h adds the solve of that constant terminal datum
    data, cfg, v = _problem(case)
    grid = data.grid
    cells = (5, 3)[:grid.d]
    shift = functools.partial(_translate, grid=grid, cells=cells)
    offset = -float(data.v_T.slope @ (np.asarray(cells) * grid.dx))
    moved_data = _mapped(data, shift, shift, lambda a: a, offset)
    expected = shift(v.coeffs)
    if offset:
        constant = np.zeros(grid.shape, dtype=complex)
        constant[(0,) * grid.d] = offset
        expected = expected + _solve(PDEData(
            b=moved_data.b, g=_zero_source(data),
            v_T=SpectralField(grid, constant)), cfg).v.coeffs
    _assert_same(_solve(moved_data, cfg).v, expected, _slopes(v))


def _reflect(coeffs, grid, axis=0):
    """f(R x) for every row, R negating grid axis ``axis``."""
    ax = coeffs.ndim - grid.d + axis
    return np.roll(np.flip(coeffs, ax), 1, axis=ax)


@pytest.mark.parametrize("case", list(CASES))
def test_reflection(case):
    # x_0 -> -x_0 with b_0 negated: v(t, R x) solves the reflected problem
    data, cfg, v = _problem(case)
    grid = data.grid
    sign = np.ones(grid.d)
    sign[0] = -1.0

    def drift(b):
        return _reflect(b, grid) * sign.reshape((1, -1) + (1,) * grid.d)

    moved = _solve(_mapped(data, lambda c: _reflect(c, grid), drift,
                           lambda a: a * sign), cfg).v
    _assert_same(moved, _reflect(v.coeffs, grid), _slopes(v) * sign)


@pytest.mark.parametrize("case", list(CASES))
def test_linearity_in_source_and_terminal_data(case):
    # v(g, v_T) = v(g, 0) + v(0, v_T)
    data, cfg, v = _problem(case)
    source_only = _solve(PDEData(b=data.b, g=data.g,
                                 v_T=SpectralField.zero(data.grid)), cfg).v
    terminal_only = _solve(PDEData(b=data.b, g=_zero_source(data),
                                   v_T=data.v_T), cfg).v
    _assert_same(v, source_only.coeffs + terminal_only.coeffs,
                 _slopes(source_only) + _slopes(terminal_only))


@pytest.mark.parametrize("case", [c for c in CASES if CASES[c][0] == 2])
def test_axis_swap(case):
    # swapping the axes of every field and the components of b swaps v's
    data, cfg, v = _problem(case)

    def swap(c):
        return np.swapaxes(c, -1, -2)

    moved = _solve(_mapped(data, swap, lambda b: swap(b)[:, ::-1],
                           lambda a: a[::-1]), cfg).v
    _assert_same(moved, swap(v.coeffs), _slopes(v)[:, ::-1])
