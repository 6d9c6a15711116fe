"""Known-answer tests: the solver against a manufactured smooth solution.

``oracles.manufactured_problem`` builds the source from a smooth v under a
rough C^-0.3 drift, so the only error left is the time quadrature's.  It
must be O(dt^2): halving dt divides it by 4 (observed order 2 +- 0.05),
and the solver's own ``quad_tolerance`` must bound it.
"""

import math

import pytest

from besovpde import PicardError, SolverConfig, TorusGrid, solve_mild
from besovpde.grid import sup_norms
from oracles import manufactured_problem


def solve_error(grid, M, lam, kernel, rho=8.0, **problem):
    """The solve of a manufactured problem and its largest node error."""
    data, exact = manufactured_problem(grid, M, lam, **problem)
    cfg = SolverConfig(beta=0.3, eps=0.1, T=0.5, M=M, lam=lam, rho=rho,
                       lambda_kernel=kernel)
    result = solve_mild(data, cfg, compute_weak_residual=False)
    return result, float(sup_norms(result.v.coeffs - exact, grid).max())


@pytest.mark.parametrize("d, n, kernel, affine, modulated, pairing, march", [
    (1, 64, "never", True, False, "dealiased", "dense"),
    (1, 64, "always", False, True, "dealiased", "iterative"),
    (2, 16, "always", False, False, "dealiased", "dense"),
    (2, 16, "never", True, True, "dealiased", "iterative"),
    (1, 64, "never", True, False, "bony", "dense"),
], ids=["1d-affine-dense-integrand", "1d-periodic-iterative-kernel",
        "2d-periodic-dense-kernel", "2d-affine-iterative-integrand",
        "1d-bony-source"])
def test_known_answer_second_order(d, n, kernel, affine, modulated, pairing,
                                   march):
    # lam = 2 in the integrand ("never") and in the kernel ("always"); a
    # static drift on at most 256 points takes the dense march, a
    # modulated one the iterative march.  The Bony-sum source differs
    # from the solver's pairing by rounding only
    grid = TorusGrid(d=d, n=n)
    errors = []
    for M in (16, 32):
        result, error = solve_error(grid, M, 2.0, kernel, affine=affine,
                                    modulated=modulated, pairing=pairing)
        assert result.march == march
        assert result.norm_kind == ("dc" if affine else "c1plus")
        assert 1e3 * 1e-10 < error <= result.quad_tolerance
        errors.append(error)
    assert abs(math.log2(errors[0] / errors[1]) - 2.0) <= 0.05


@pytest.mark.xfail(raises=PicardError, strict=True,
                   reason="ROADMAP item 1: the global Picard prefix does not "
                          "contract at rho = 1 with lam = 20 and stops the "
                          "solve, although the march needs no contraction")
def test_known_answer_without_a_contracting_prefix():
    # the solve-1d shape (n = 128, M = 64) with lam = 20 in the integrand
    grid = TorusGrid(d=1, n=128)
    result, error = solve_error(grid, 64, 20.0, "auto", rho=1.0)
    assert not result.used_lambda_kernel
    assert error <= result.quad_tolerance
