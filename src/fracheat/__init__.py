"""Numerics for the semilinear fractional heat equation on a 1D lattice.

Discretizes (-Laplacian)^s by its explicit lattice convolution kernel,
the Caputo derivative by backward Euler / L1 marching, and provides the
subordinated semigroup solution operators plus a convergence-study
harness with manufactured solutions.
"""

from .grid import GridFunction, Mesh
from .kernel import (
    SymmetricKernel,
    consistency_error,
    frac_laplacian_constant,
    kernel_weights,
    toeplitz_matvec,
)
from .special import (
    SeriesConvergenceError,
    mittag_leffler,
    wright_phi,
)
from .semigroup import (
    frac_semigroup_kernel,
    subordinate_scalar_P,
    subordinate_scalar_S,
    subordination_quadrature,
)
from .evolution import (
    EvolutionProblem,
    Nonlinearity,
    SchemeConfig,
    Trajectory,
    caputo_l1_weights,
    evaluate_mild,
    solve,
    solve_scalar_l1,
)
from .problems import (
    ManufacturedSolution,
    example1,
    example2,
    gaussian_frac_laplacian,
    gaussian_profile,
    getoor_constant,
    semilinear_variant,
    to_evolution_problem,
)
from .study import (
    DESK_SCALE,
    PAPER_SCALE,
    ErrorRecord,
    RateEstimate,
    StudyConfig,
    StudyResult,
    emit_csv,
    fit_rates,
    run_consistency_study,
    run_study,
)

__version__ = "0.1.0"
