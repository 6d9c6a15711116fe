"""Pseudospectral solver for parabolic PDEs with negative-Besov drift.

The package solves d_t v + (1/2) Lap v + grad(v) . b = lam v + g backward
from v(T) = v_T on a periodic torus, for drifts b that are distributions
of negative regularity.  Besides the solver it exports what its commands
run: dyadic Besov and linear-growth norms, heat-semigroup smoothing fits,
the dealiased product and drift pairing, and the calibration of the
estimate constants that parameter selection reads.  Proof machinery no
command runs, such as the Bony three-term split and the Holder norm,
lives in the test oracles (``tests/oracles.py``).
"""

from .grid import (
    AffinePeriodicField,
    GridError,
    SpectralField,
    TimeField,
    TorusGrid,
    evaluate_at,
    gradient,
    load_field,
    save_field,
    to_fourier,
)
from .lp import (
    BesovNorm,
    DyadicPartition,
    besov_norm,
    c1plus_norm,
    dc_norm,
    dyadic_partition,
    dyadic_random_field,
)
from .heat import (
    EstimateReport,
    apply_heat,
    bernstein_check,
    heat_increment_fit,
    heat_weights,
    schauder_fit,
)
from .paraproduct import dealiased_product, drift_term
from .solver import (
    NewtonError,
    PDEData,
    PhiResult,
    PicardError,
    SolveResult,
    SolverConfig,
    SolverError,
    apply_T,
    build_phi,
    invert_phi,
    lambda_threshold,
    mild_residual,
    rlambda_bound_check,
    select_rho,
    solve_mild,
    solve_u,
    weak_residual,
)
from .experiments import (
    ConvergenceStudy,
    DriftSpec,
    bernstein_path,
    continuity_study_phi,
    continuity_study_v,
    gen_drift,
    mollification_density_check,
    mollify_timefield,
    smooth_cutoff,
)
from .calibration import (
    calibrate,
    contraction_constant,
    lambda_constant,
    load_calibration,
    save_calibration,
)

__version__ = "0.1.0"
