"""Numerical Littlewood-Paley machinery for finite-dimensional model operators.

The package builds finite model operators (1d Dirichlet Laplacian, graph
Laplacian, Hermite expansion, Schroedinger, synthetic non-normal), equips
them with a functional calculus (spectral and contour-quadrature routes),
and measures the classical norm equivalences of dyadic spectral
decompositions: square-function and randomized block norms, fractional
power norms, continuous square functions, Besov-type block norms and real
interpolation K-functional norms.
"""

from .measure import MeasureSpace, lp_norm, solve_complex, weighted_symmetric_eig
from .operators import (
    ModelOperator,
    build_dirichlet_laplacian_1d,
    build_graph_laplacian,
    build_hermite_operator,
    build_nonnormal_sectorial,
    build_schrodinger_1d,
    operator_from_spec,
    resolvent_apply,
)
from .partitions import (
    PartitionOfUnity,
    SmoothBump,
    build_equidistant,
    build_homogeneous_dyadic,
    even_extension,
    to_inhomogeneous,
    tilde,
    validate_partition,
)
from .symbols import (
    NormEstimate,
    NormStabilityError,
    Symbol,
    besov_norm_inf_1,
    make_symbol,
    mihlin_norm,
    window_symbol,
)
from .calculus import (
    ContourSpec,
    apply_contour,
    apply_spectral,
    bisectorial_projections,
    default_contour_spec,
    fractional_power_apply,
    semigroup_apply,
)
from .norms import (
    QuadratureSpec,
    RandomEnsemble,
    besov_continuous_norm,
    besov_discrete_norm,
    continuous_square_norm,
    k_functional,
    pl_inhomogeneous_norm,
    pl_random_norm,
    pl_square_norm,
    real_interpolation_norm,
)
from .experiments import (
    EquivalenceReport,
    convergence_check,
    mcintosh_check,
    multiplier_bound_check,
    resolvent_scan,
    run_equivalence,
)

__version__ = "0.1.0"
