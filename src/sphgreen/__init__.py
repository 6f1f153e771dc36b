"""Fundamental solution of Laplace's equation on the d-dimensional hypersphere.

Evaluates the spherically symmetric Green's function of the Laplace-Beltrami
operator on the radius-R hypersphere through several equivalent routes
(defining integral, closed-form finite sums, an antiderivative recurrence,
Gauss hypergeometric series and a Ferrers-function form) and cross-validates
them against quadrature and finite-difference oracles.

All functions are pure; everything here is safe to call concurrently.
"""

from .geometry import (
    HyperPoint,
    embed,
    embed_direction,
    geodesic_distance,
    separation_angle,
    volume_weight,
)
from .harmonics import (
    DegenerateBranchError,
    QuantumNumbers,
    RadialSolutionKind,
    angular_eigenvalue,
    degeneracy,
    ode_convergence_order,
    ode_residual,
    radial_harmonic,
)
from .kernel import (
    KernelValue,
    Representation,
    SeriesWindowError,
    euclidean_fundamental,
    fundamental_solution,
    i_d_ferrers,
    i_d_finite_sum,
    i_d_hyp2f1,
    i_d_quadrature,
    i_d_recurrence,
    normalization_constant,
    radial_kernel,
    solution_scale,
)
from .oracle import (
    CheckReport,
    check_cross_representation,
    check_delta_identity,
    check_distance_oracle,
    check_euclidean_limit,
    check_laplace_annihilation,
    check_volume,
)
from .quadrature import ToleranceNotMetError, integrate
from .specfun import (
    FerrersOrderDegree,
    GammaPoleError,
    NonConvergenceError,
    double_factorial,
    ferrers_p,
    ferrers_q,
    gamma_real,
    gauss_2f1,
    pochhammer,
    reciprocal_gamma,
)

__version__ = "0.1.0"
