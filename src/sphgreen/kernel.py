"""Radial kernel of the hypersphere fundamental solution.

I_d(theta) = integral of 1/sin^{d-1} from theta to pi/2, evaluated through
several equivalent routes (defining integral, closed-form finite sums, the
antiderivative recurrence, two hypergeometric series and a Ferrers-Q form),
plus the normalized fundamental solution on the sphere and the Euclidean
reference solution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .quadrature import QuadratureSpec, integrate
from .specfun import (
    DEFAULT_SERIES,
    FerrersOrderDegree,
    NonConvergenceError,
    SeriesControl,
    double_factorial,
    ferrers_q,
    gamma_real,
    gauss_2f1,
)

__all__ = [
    "Representation",
    "KernelValue",
    "SeriesWindowError",
    "RadiusRangeError",
    "THETA_EDGE",
    "SERIES_WINDOW",
    "i_d_quadrature",
    "i_d_finite_sum",
    "i_d_recurrence",
    "i_d_hyp2f1",
    "i_d_ferrers",
    "radial_kernel",
    "normalization_constant",
    "fundamental_solution",
    "solution_scale",
    "euclidean_fundamental",
    "log_cot_half",
]

# polar angles closer than this to 0 or pi are rejected: the kernel genuinely
# diverges at both poles
THETA_EDGE = 1e-12
# direct series routes are only offered while cos^2(theta) stays below this
SERIES_WINDOW = 0.98


class SeriesWindowError(ValueError):
    """Series route refused outside its reliability window.

    Callers should fall back to the finite-sum, recurrence or quadrature
    representation, which are valid on all of (0, pi).
    """


class RadiusRangeError(ValueError):
    """A radius R whose power R^{d-2} leaves the double range."""


class Representation(enum.Enum):
    """Evaluation route for the radial kernel; FINITE_SUM is the default."""

    QUADRATURE = "quadrature"
    FINITE_SUM = "finite_sum"
    RECURRENCE = "recurrence"
    HYP2F1 = "hyp2f1"
    HYP2F1_EULER = "hyp2f1_euler"
    FERRERS_Q = "ferrers"


@dataclass(frozen=True)
class KernelValue:
    """Kernel value with the route that produced it and a rough error bound.

    ``overflowed`` flags saturation to +/-inf in the cot/log terms very close
    to the poles.
    """

    value: float
    method: Representation
    est_error: float
    overflowed: bool = False


def _check_dimension(d: int) -> None:
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")


def _check_theta(theta: float) -> None:
    if not THETA_EDGE <= theta <= math.pi - THETA_EDGE:
        raise ValueError(
            f"polar angle {theta} outside [{THETA_EDGE}, pi - {THETA_EDGE}]")


def log_cot_half(theta: float) -> float:
    """log cot(theta/2), the d = 2 kernel."""
    return -math.log(math.tan(0.5 * theta))


def _wrap(value: float, method: Representation, est_error: float) -> KernelValue:
    overflowed = not math.isfinite(value)
    return KernelValue(value, method, est_error if math.isfinite(est_error) else math.inf,
                       overflowed)


def _saturated(theta: float, method: Representation) -> KernelValue:
    # the kernel tends to +inf at the near pole and -inf at the far one
    sign = 1.0 if theta < 0.5 * math.pi else -1.0
    return KernelValue(sign * math.inf, method, math.inf, True)


def i_d_quadrature(d: int, theta: float, tol: float = 1e-11) -> KernelValue:
    """Adaptive quadrature of the defining integral; the verification route."""
    _check_dimension(d)
    _check_theta(theta)
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    half_pi = 0.5 * math.pi
    if theta == half_pi:
        return KernelValue(0.0, Representation.QUADRATURE, 0.0)
    a, b, sign = (theta, half_pi, 1.0) if theta < half_pi else (half_pi, theta, -1.0)
    spec = QuadratureSpec(abs_tol=tol, rel_tol=tol, max_subdivisions=200)
    value, estimate = integrate(lambda x: math.sin(x) ** (1 - d), a, b, spec)
    return _wrap(sign * value, Representation.QUADRATURE, estimate)


def i_d_finite_sum(d: int, theta: float) -> KernelValue:
    """Closed-form evaluation, exact in O(d) arithmetic operations.

    I_d = (d-3)!!/(d-2)!! [B + cos(theta) sum_j (j-1)!!/j!! sin^{-(j+1)}(theta)]
    over j = d-3, d-5, ... >= 0, with B = log cot(theta/2) for even d and
    B = 0 for odd d (the double-factorial inverse-sine variant).  The
    double-factorial ratios are int/int divisions, so they stay finite
    where the factorials themselves leave the double range.
    """
    _check_dimension(d)
    _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    base = log_cot_half(theta) if d % 2 == 0 else 0.0
    acc = 0.0
    try:
        for j in range(1 - d % 2, d - 2, 2):
            acc += double_factorial(j - 1) / double_factorial(j) / s ** (j + 1)
    except ZeroDivisionError:
        # sin(theta) ** (j + 1) underflows right next to a pole
        return _saturated(theta, Representation.FINITE_SUM)
    value = double_factorial(d - 3) / double_factorial(d - 2) * (base + c * acc)
    return _wrap(value, Representation.FINITE_SUM, 0.0)


def i_d_recurrence(d: int, theta: float) -> KernelValue:
    """Climb J_m = cos/((m-1) sin^{m-1}) + (m-2)/(m-1) J_{m-2} up to m = d-1.

    Bases: J_0 = pi/2 - theta and J_1 = log cot(theta/2).  All recurrence
    terms share the sign of cos(theta), so the climb is cancellation-free.
    """
    _check_dimension(d)
    _check_theta(theta)
    m = d - 1
    c, s = math.cos(theta), math.sin(theta)
    if m % 2 == 0:
        j = 0.5 * math.pi - theta
        start = 0
    else:
        j = log_cot_half(theta)
        start = 1
    try:
        for k in range(start + 2, m + 1, 2):
            j = c / ((k - 1) * s ** (k - 1)) + (k - 2) / (k - 1) * j
    except (OverflowError, ZeroDivisionError):
        return _saturated(theta, Representation.RECURRENCE)
    return _wrap(j, Representation.RECURRENCE, 0.0)


def i_d_hyp2f1(d: int, theta: float, euler: bool = False,
               ctl: SeriesControl = DEFAULT_SERIES) -> KernelValue:
    """Hypergeometric series route, valid while cos^2(theta) <= 0.98.

    Direct form: cos(theta) 2F1(1/2, d/2; 3/2; cos^2 theta).  With ``euler``
    the transformed series cos/sin^{d-2} 2F1(1, (3-d)/2; 3/2; cos^2 theta)
    is used instead.
    """
    _check_dimension(d)
    _check_theta(theta)
    c = math.cos(theta)
    z = c * c
    if z > SERIES_WINDOW:
        raise SeriesWindowError(
            f"cos^2(theta) = {z:.6f} > {SERIES_WINDOW}: use finite_sum, "
            "recurrence or quadrature here")
    if euler:
        value = c / math.sin(theta) ** (d - 2) * gauss_2f1(1.0, (3.0 - d) / 2.0, 1.5, z, ctl)
        method = Representation.HYP2F1_EULER
    else:
        value = c * gauss_2f1(0.5, d / 2.0, 1.5, z, ctl)
        method = Representation.HYP2F1
    return _wrap(value, method, abs(value) * ctl.rel_tol)


def _check_ferrers_series(d: int, z: float, ctl: SeriesControl) -> None:
    """Raise NonConvergenceError when 2F1(1/2, d/2; 3/2; z) provably cannot stop.

    The terms are t_k = z^k u_k / (2k+1) with u_k = (d/2)_k / k!, which does
    not decrease for d >= 2, so every partial sum obeys
    S_m <= u_m A(z) with A(z) = atanh(sqrt z) / sqrt z.  Hence
    t_m / S_m >= z^N / ((2N+1) A(z)) for all m <= N = ctl.max_terms; once that
    bound exceeds twice ctl.rel_tol (the factor covers rounding), no term
    can meet the stopping rule of ``gauss_2f1``.
    """
    n = ctl.max_terms
    zn = z**n
    if zn == 0.0:
        # the bound is 0 (z below about 0.993 at the default cap, or z = 0)
        return
    root = math.sqrt(z)
    # atanh(sqrt z) = log1p(sqrt z) - log1p(-z)/2 stays finite for every z < 1
    bound = zn / ((2 * n + 1) * (math.log1p(root) - 0.5 * math.log1p(-z)) / root)
    if bound > 2.0 * ctl.rel_tol:
        raise NonConvergenceError(
            f"Ferrers series 2F1(0.5,{d / 2.0};1.5;{z}) cannot converge in {n} terms: "
            f"each term is at least {bound:.3g} of its partial sum, more than "
            f"twice rel_tol={ctl.rel_tol:g}", math.nan, 0)


def i_d_ferrers(d: int, theta: float, ctl: SeriesControl = DEFAULT_SERIES) -> KernelValue:
    """Ferrers-Q route: prefactor times sin^{1-d/2} Q_{d/2-1}^{1-d/2}(cos)."""
    _check_dimension(d)
    _check_theta(theta)
    x = math.cos(theta)
    if x * x >= 1.0:
        raise SeriesWindowError(
            f"cos^2(theta) rounds to 1 in double precision at theta={theta}: "
            "use finite_sum, recurrence or quadrature here")
    _check_ferrers_series(d, x * x, ctl)
    nu = d / 2.0 - 1.0
    q = ferrers_q(FerrersOrderDegree(nu, -nu, x), ctl)
    prefactor = math.factorial(d - 2) / (gamma_real(d / 2.0) * 2.0 ** (d / 2.0 - 1.0))
    value = prefactor * math.sin(theta) ** (1.0 - d / 2.0) * q
    return _wrap(value, Representation.FERRERS_Q, abs(value) * ctl.rel_tol)


def radial_kernel(d: int, theta: float, rep: Representation = Representation.FINITE_SUM,
                  tol: float = 1e-11, ctl: SeriesControl = DEFAULT_SERIES) -> KernelValue:
    """Evaluate I_d(theta) through the requested representation."""
    if rep is Representation.QUADRATURE:
        return i_d_quadrature(d, theta, tol)
    if rep is Representation.FINITE_SUM:
        return i_d_finite_sum(d, theta)
    if rep is Representation.RECURRENCE:
        return i_d_recurrence(d, theta)
    if rep is Representation.HYP2F1:
        return i_d_hyp2f1(d, theta, euler=False, ctl=ctl)
    if rep is Representation.HYP2F1_EULER:
        return i_d_hyp2f1(d, theta, euler=True, ctl=ctl)
    if rep is Representation.FERRERS_Q:
        return i_d_ferrers(d, theta, ctl)
    raise ValueError(f"unknown representation {rep!r}")


def normalization_constant(d: int) -> float:
    """Gamma(d/2) / (2 pi^{d/2}), fixed by matching the local singularity.

    Raises ValueError naming d where c0 leaves the double range: Gamma(d/2)
    overflows from d = 344 and pi^{d/2} from about d = 1241.
    """
    _check_dimension(d)
    try:
        c0 = gamma_real(d / 2.0) / (2.0 * math.pi ** (d / 2.0))
    except OverflowError:
        c0 = math.inf
    if not math.isfinite(c0):
        raise ValueError(f"normalization constant c0(d) = Gamma(d/2) / (2 pi^(d/2)) "
                         f"leaves the double range at d={d}")
    return c0


def fundamental_solution(d: int, radius: float, theta: float,
                         rep: Representation = Representation.FINITE_SUM) -> float:
    """Spherically symmetric fundamental solution of -Laplace on the sphere.

    Value is c0(d) / R^{d-2} * I_d(theta) with theta the geodesic angle; it
    vanishes at theta = pi/2 and diverges to +inf/-inf at the two poles.
    """
    return solution_scale(d, radius) * radial_kernel(d, theta, rep).value


def solution_scale(d: int, radius: float) -> float:
    """c0(d) / R^{d-2}, the factor that turns I_d(theta) into the solution.

    Raises ValueError for a radius that is not positive and finite, and
    RadiusRangeError for one whose power R^{d-2} leaves the double range:
    underflow would divide by zero and overflow would raise, or the factor
    would silently become 0 or inf.  Only then is c0(d) computed, which
    raises ValueError for a d whose c0 leaves the double range.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    _check_dimension(d)
    try:
        power = radius ** (d - 2)
    except OverflowError:
        power = math.inf
    scale = normalization_constant(d) / power if 0.0 < power < math.inf else math.nan
    if not 0.0 < scale < math.inf:
        raise RadiusRangeError(
            f"radius ** (d - 2) leaves the double range at radius={radius!r}, d={d}")
    return scale


def euclidean_fundamental(d: int, r: float) -> float:
    """Fundamental solution of -Laplace in flat d-space at distance r."""
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")
    if not r > 0.0:
        raise ValueError(f"distance must be positive, got {r}")
    if d == 2:
        return math.log(1.0 / r) / (2.0 * math.pi)
    return gamma_real(d / 2.0) / (2.0 * math.pi ** (d / 2.0) * (d - 2)) * r ** (2 - d)
