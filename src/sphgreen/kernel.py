"""Radial kernel of the hypersphere fundamental solution.

I_d(theta) = integral of 1/sin^{d-1} from theta to pi/2, evaluated through
several equivalent routes (defining integral, closed-form finite sums, the
antiderivative recurrence, two hypergeometric series and a Ferrers-Q form),
plus the normalized fundamental solution on the sphere and the Euclidean
reference solution.

Every route computes the bounded kernel K_d = sin^{d-2}(theta) I_d(theta).
``_scaled`` multiplies it by the unbounded factors c0(d), R^{2-d} and
sin^{2-d}(theta), kept as (mantissa, exponent) pairs, and rounds once, so a
value is +-inf or 0.0 only where the exact one lies outside double range.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

from .quadrature import integrate
from .specfun import (
    DEFAULT_SERIES,
    FerrersOrderDegree,
    NonConvergenceError,
    double_factorial,
    ferrers_q,
    gauss_2f1,
)

__all__ = [
    "Representation",
    "KernelValue",
    "SeriesWindowError",
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

# a frexp mantissa in [1/2, 1) raised to at most this power stays within
# 2^(+-1000), inside the normal double range
_POWER_CHUNK = 1000
# (pi - math.pi) / math.pi
_PI_ROUNDING = 3.8981718325193755e-17
# distinct dimensions whose finite-sum coefficients stay cached
_COEFFICIENT_CACHE = 256


class SeriesWindowError(ValueError):
    """Series route refused outside its reliability window.

    Callers should fall back to the finite-sum, recurrence or quadrature
    representation, which are valid on all of (0, pi).
    """


class Representation(enum.Enum):
    """Evaluation route for the radial kernel; FINITE_SUM is the default."""

    QUADRATURE = "quadrature"
    FINITE_SUM = "finite_sum"
    RECURRENCE = "recurrence"
    HYP2F1 = "hyp2f1"
    HYP2F1_EULER = "hyp2f1_euler"
    FERRERS_Q = "ferrers"


def _int_pair(n: int) -> tuple[float, int]:
    """A positive integer of any size as a (mantissa, exponent) pair."""
    e = n.bit_length()
    return n / (1 << e), e  # int / int is correctly rounded


def _power(x: float, n: int) -> tuple[float, int]:
    """x^n for x > 0 as a (mantissa, exponent) pair, whatever its size."""
    m, e = math.frexp(x)
    pm, pe = 1.0, e * n
    while n:
        k = max(-_POWER_CHUNK, min(_POWER_CHUNK, n))
        pm, g = math.frexp(pm * m**k)
        pe += g
        n -= k
    return pm, pe


def _scaled(x: float, *pairs: tuple[float, int]) -> float:
    """x times the (mantissa, exponent) pairs, brought into double range once.

    The result is +-inf or 0.0 only where the exact product lies outside
    double range.  This is the one place where overflow is handled.
    """
    e = 0
    for m, k in pairs:
        x *= m
        e += k
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class KernelValue:
    """K_d(theta) = sin^{d-2}(theta) I_d(theta) from one route, with a rough error bound.

    ``sine_power`` is sin^{2-d}(theta) as a (mantissa, exponent) pair.
    ``value`` and ``est_error`` are I_d and its error bound; ``overflowed``
    says that I_d lies outside double range (``value`` is +-inf).
    """

    kernel: float
    kernel_error: float
    method: Representation
    sine_power: tuple[float, int]

    def scaled(self, scale: tuple[float, int]) -> tuple[float, float]:
        """(value, error bound) of scale * I_d, for a (mantissa, exponent) scale."""
        return (_scaled(self.kernel, scale, self.sine_power),
                _scaled(self.kernel_error, scale, self.sine_power))

    @property
    def value(self) -> float:
        return _scaled(self.kernel, self.sine_power)

    @property
    def est_error(self) -> float:
        return _scaled(self.kernel_error, self.sine_power)

    @property
    def overflowed(self) -> bool:
        return math.isinf(self.value)


def _kernel_value(method: Representation, d: int, sine: float, kernel: float,
                  error: float) -> KernelValue:
    """The one constructor of KernelValue; refuses a K that is not finite."""
    if not math.isfinite(kernel):
        raise NonConvergenceError(
            f"{method.value} route: the kernel sin^(d-2) I_d is {kernel} at d={d}",
            kernel, 0)
    return KernelValue(kernel, error, method, _power(sine, 2 - d))


def _check_dimension(d: int) -> None:
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")


def _check_theta(theta: float) -> None:
    if not THETA_EDGE <= theta <= math.pi - THETA_EDGE:
        raise ValueError(
            f"polar angle {theta} outside [{THETA_EDGE}, pi - {THETA_EDGE}]")


def log_cot_half(theta: float) -> float:
    """log cot(theta/2), the d = 2 kernel.

    Evaluated as asinh(cot theta), which keeps full relative accuracy both
    near the poles and near pi/2, where -log tan(theta/2) cancels.
    """
    return math.asinh(math.cos(theta) / math.sin(theta))


def i_d_quadrature(d: int, theta: float) -> KernelValue:
    """Adaptive quadrature of the defining integral; the verification route.

    With u = asinh(cot x), dx / sin x = -du and sin x = sech u, so
    K_d = +-integral from 0 to |u0| of (sin(theta) cosh u)^{d-2} du with
    u0 = asinh(cot theta).  The integrand is at most 1 and rises to 1 at |u0|
    over a width of about 1/(d-2); the interval is cut at |u0| - 2^k/(d-2)
    while that step is below |u0|/16, so that no piece hides the peak.
    """
    _check_dimension(d)
    _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    u0 = abs(math.asinh(c / s))
    points = [u0]
    step = 1.0
    while step < (d - 2) * u0 / 16.0:
        points.append(u0 - step / (d - 2))
        step *= 2.0
    points.append(0.0)
    integrand = lambda u: (s * math.cosh(u)) ** (d - 2)
    value = estimate = 0.0
    for hi, lo in zip(points, points[1:]):
        piece, err = integrate(integrand, lo, hi)
        value += piece
        estimate += err
    return _kernel_value(Representation.QUADRATURE, d, s, math.copysign(value, c), estimate)


@functools.lru_cache(maxsize=_COEFFICIENT_CACHE)
def _finite_sum_coefficients(d: int) -> tuple[tuple[float, ...], float]:
    """The d-only factors of the finite sum: the ratios (j-1)!!/j!! for
    j = 1 - d%2, 3 - d%2, ..., d-3 in Horner order, and (d-3)!!/(d-2)!!.

    Each is a correctly rounded int/int quotient, finite where the factorials
    themselves leave the double range.  Both double factorials grow by one
    factor per step, so the fill takes O(d) integer products.
    """
    ratios = []
    numerator = denominator = 1  # (j-1)!! and j!! at j = 0 or 1
    for j in range(1 - d % 2, d - 2, 2):
        if j > 1:
            numerator *= j - 1
            denominator *= j
        ratios.append(numerator / denominator)
    return tuple(ratios), double_factorial(d - 3) / double_factorial(d - 2)


def i_d_finite_sum(d: int, theta: float) -> KernelValue:
    """Closed-form evaluation, exact in O(d) arithmetic operations.

    I_d = (d-3)!!/(d-2)!! [B + cos(theta) sum_j (j-1)!!/j!! s^{-(j+1)}] with
    s = sin(theta), over j = d-3, d-5, ... >= 0, and B = log cot(theta/2) for
    even d, B = 0 for odd d (the double-factorial inverse-sine variant).  So
    K_d = (d-3)!!/(d-2)!! [B s^{d-2} + cos(theta) sum_j (j-1)!!/j!! s^{d-3-j}],
    summed by Horner's rule in s^2.  The double-factorial ratios depend on d
    alone and are computed once per d (``_finite_sum_coefficients``, a
    bounded LRU cache).
    """
    _check_dimension(d)
    _check_theta(theta)
    ratios, prefactor = _finite_sum_coefficients(d)
    c, s = math.cos(theta), math.sin(theta)
    s2 = s * s
    acc = 0.0
    for ratio in ratios:
        acc = acc * s2 + ratio
    kernel = c * acc
    if d % 2 == 0:
        kernel += log_cot_half(theta) * s ** (d - 2)
    kernel *= prefactor
    return _kernel_value(Representation.FINITE_SUM, d, s, kernel, 0.0)


def i_d_recurrence(d: int, theta: float) -> KernelValue:
    """Climb K_m = cos/(m-1) + (m-2)/(m-1) sin^2 K_{m-2} up to m = d-1.

    K_m = sin^{m-1} J_m scales the antiderivative recurrence of J_m = integral
    of 1/sin^m.  Bases: K_1 = log cot(theta/2) and K_2 = cos(theta).  All
    terms share the sign of cos(theta), so the climb is cancellation-free.
    """
    _check_dimension(d)
    _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    s2 = s * s
    if d % 2 == 0:
        kernel, start = log_cot_half(theta), 1
    else:
        kernel, start = c, 2
    for m in range(start + 2, d, 2):
        kernel = c / (m - 1) + (m - 2) / (m - 1) * s2 * kernel
    return _kernel_value(Representation.RECURRENCE, d, s, kernel, 0.0)


def i_d_hyp2f1(d: int, theta: float, euler: bool = False) -> KernelValue:
    """Hypergeometric series route, valid while cos^2(theta) <= 0.98.

    Direct form: K_d = sin^{d-2} cos 2F1(1/2, d/2; 3/2; cos^2 theta).  With
    ``euler`` the transformed series K_d = cos 2F1(1, (3-d)/2; 3/2; cos^2 theta)
    is used instead.
    """
    _check_dimension(d)
    _check_theta(theta)
    c, s = math.cos(theta), math.sin(theta)
    z = c * c
    if z > SERIES_WINDOW:
        raise SeriesWindowError(
            f"cos^2(theta) = {z:.6f} > {SERIES_WINDOW}: use finite_sum, "
            "recurrence or quadrature here")
    if euler:
        kernel = c * gauss_2f1(1.0, (3.0 - d) / 2.0, 1.5, z)
        method = Representation.HYP2F1_EULER
    else:
        kernel = _scaled(c * gauss_2f1(0.5, d / 2.0, 1.5, z), _power(s, d - 2))
        method = Representation.HYP2F1
    return _kernel_value(method, d, s, kernel, abs(kernel) * DEFAULT_SERIES.rel_tol)


def _check_ferrers_series(d: int, z: float) -> None:
    """Raise NonConvergenceError when 2F1(1/2, d/2; 3/2; z) provably cannot stop.

    The terms are t_k = z^k u_k / (2k+1) with u_k = (d/2)_k / k!, which does
    not decrease for d >= 2, so every partial sum obeys
    S_m <= u_m A(z) with A(z) = atanh(sqrt z) / sqrt z.  Hence
    t_m / S_m >= z^N / ((2N+1) A(z)) for all m <= N = DEFAULT_SERIES.max_terms;
    once that bound exceeds twice DEFAULT_SERIES.rel_tol (the factor covers
    rounding), no term can meet the stopping rule of ``gauss_2f1``.
    """
    n, rel_tol = DEFAULT_SERIES.max_terms, DEFAULT_SERIES.rel_tol
    zn = z**n
    if zn == 0.0:
        # the bound is 0 (z below about 0.993 at the default cap, or z = 0)
        return
    root = math.sqrt(z)
    # atanh(sqrt z) = log1p(sqrt z) - log1p(-z)/2 stays finite for every z < 1
    bound = zn / ((2 * n + 1) * (math.log1p(root) - 0.5 * math.log1p(-z)) / root)
    if bound > 2.0 * rel_tol:
        raise NonConvergenceError(
            f"Ferrers series 2F1(0.5,{d / 2.0};1.5;{z}) cannot converge in {n} terms: "
            f"each term is at least {bound:.3g} of its partial sum, more than "
            f"twice rel_tol={rel_tol:g}", math.nan, 0)


def i_d_ferrers(d: int, theta: float) -> KernelValue:
    """Ferrers-Q route: K_d = p(d) sin^{d/2-1} Q_{d/2-1}^{1-d/2}(cos theta).

    The prefactor p(d) = (d-2)! / (Gamma(d/2) 2^{d/2-1}) equals (d-3)!! for
    even d and (d-3)!! sqrt(2/pi) for odd d.  Where Q underflows below the
    normal double range (from d = 343 at theta = 1) the route is refused.
    """
    _check_dimension(d)
    _check_theta(theta)
    x, s = math.cos(theta), math.sin(theta)
    if x * x >= 1.0:
        raise SeriesWindowError(
            f"cos^2(theta) rounds to 1 in double precision at theta={theta}: "
            "use finite_sum, recurrence or quadrature here")
    _check_ferrers_series(d, x * x)
    nu = d / 2.0 - 1.0
    q = ferrers_q(FerrersOrderDegree(nu, -nu, x))
    if abs(q) < sys.float_info.min:
        raise SeriesWindowError(
            f"Ferrers Q = {q} underflows the normal double range at d={d}, theta={theta}: "
            "use finite_sum, recurrence or quadrature here")
    if d % 2:
        q *= math.sqrt(2.0 * s / math.pi)
    kernel = _scaled(q, _int_pair(double_factorial(d - 3)), _power(s, (d - 2) // 2))
    return _kernel_value(Representation.FERRERS_Q, d, s, kernel,
                         abs(kernel) * DEFAULT_SERIES.rel_tol)


def radial_kernel(d: int, theta: float,
                  rep: Representation = Representation.FINITE_SUM) -> KernelValue:
    """Evaluate I_d(theta) through the requested representation."""
    if rep is Representation.QUADRATURE:
        return i_d_quadrature(d, theta)
    if rep is Representation.FINITE_SUM:
        return i_d_finite_sum(d, theta)
    if rep is Representation.RECURRENCE:
        return i_d_recurrence(d, theta)
    if rep is Representation.HYP2F1:
        return i_d_hyp2f1(d, theta, euler=False)
    if rep is Representation.HYP2F1_EULER:
        return i_d_hyp2f1(d, theta, euler=True)
    if rep is Representation.FERRERS_Q:
        return i_d_ferrers(d, theta)
    raise ValueError(f"unknown representation {rep!r}")


def normalization_constant(d: int) -> float:
    """Gamma(d/2) / (2 pi^{d/2}), fixed by matching the local singularity."""
    _check_dimension(d)
    return _scaled(1.0, solution_scale(d, 1.0))


def solution_scale(d: int, radius: float) -> tuple[float, int]:
    """c0(d) / R^{d-2}, the factor that turns I_d(theta) into the solution.

    c0(d) = Gamma(d/2) / (2 pi^{d/2}) comes from the exact integer in Gamma:
    it is (d/2-1)! / (2 pi^{d/2}) for even d and, as Gamma(d/2) = (d-2)!!
    sqrt(pi) / 2^{(d-1)/2}, (d-2)!! / (2^{(d+1)/2} pi^{(d-1)/2}) for odd d.
    The factor is a (mantissa, exponent) pair for ``KernelValue.scaled``, so
    it never overflows; d may be any integer >= 1.  Raises ValueError for a
    radius that is not positive and finite.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")
    if d % 2 == 0:
        n, twos, pis = math.factorial(d // 2 - 1), 1, d // 2
    else:
        n, twos, pis = double_factorial(d - 2), (d + 1) // 2, (d - 1) // 2
    m, e = _int_pair(n)
    pm, pe = _power(math.pi, -pis)
    rm, re = _power(radius, 2 - d)
    # pi = math.pi (1 + _PI_ROUNDING): correct the power of math.pi to first order
    return m * pm * rm * (1.0 - pis * _PI_ROUNDING), e + pe + re - twos


def fundamental_solution(d: int, radius: float, theta: float,
                         rep: Representation = Representation.FINITE_SUM) -> float:
    """Spherically symmetric fundamental solution of -Laplace on the sphere.

    Value is c0(d) / R^{d-2} * I_d(theta) with theta the geodesic angle; it
    vanishes at theta = pi/2 and diverges to +inf/-inf at the two poles.
    """
    scale = solution_scale(d, radius)
    return radial_kernel(d, theta, rep).scaled(scale)[0]


def euclidean_fundamental(d: int, r: float) -> float:
    """Fundamental solution of -Laplace in flat d-space at distance r."""
    if not r > 0.0:
        raise ValueError(f"distance must be positive, got {r}")
    if d == 2:
        return math.log(1.0 / r) / (2.0 * math.pi)
    return _scaled(1.0 / (d - 2), solution_scale(d, r))
