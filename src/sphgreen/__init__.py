"""Fundamental solution of Laplace's equation on the d-dimensional hypersphere.

Evaluates the spherically symmetric Green's function of the Laplace-Beltrami
operator on the radius-R hypersphere through several equivalent routes
(defining integral, closed-form finite sums, an antiderivative recurrence,
Gauss hypergeometric series and a Ferrers-function form) and cross-validates
them against quadrature and finite-difference oracles.

All functions are pure; everything here is safe to call concurrently.
``import sphgreen`` loads none of its modules: each public name imports the
module that defines it on first use (PEP 562).
"""

import importlib

# module -> the names the package re-exports from it
_EXPORTS = {
    "geometry": ("HyperPoint", "embed", "geodesic_distance", "separation_angle"),
    "harmonics": ("DegenerateBranchError", "QuantumNumbers", "RadialSolutionKind",
                  "ode_convergence_order", "radial_harmonic"),
    "kernel": ("KernelValue", "NonConvergenceError", "Representation", "SeriesWindowError",
               "ToleranceNotMetError", "double_factorial", "euclidean_fundamental",
               "fundamental_solution", "radial_kernel", "solution_scale"),
    "oracle": ("CheckReport", "check_cross_representation", "check_delta_identity",
               "check_distance_oracle", "check_laplace_annihilation", "check_volume"),
    "specfun": ("FerrersOrderDegree", "GammaPoleError", "ferrers_p", "ferrers_q", "gamma_real",
                "gauss_2f1", "reciprocal_gamma"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # a submodule, such as sphgreen.kernel, is an attribute once imported
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
