"""Radial kernel of the hypersphere fundamental solution.

I_d(theta) = integral of 1/sin^{d-1} from theta to pi/2, evaluated through
several equivalent routes (defining integral, closed-form finite sums, the
antiderivative recurrence, two hypergeometric series and a Ferrers-Q form,
which is the direct hypergeometric series where cos^2 theta <= 1/2 and the
finite sum elsewhere), plus the normalized fundamental solution on the
sphere and the Euclidean reference solution.

Every route computes the bounded kernel K_d = sin^{d-2}(theta) I_d(theta),
with an error bound, from cos theta and sin theta: one core per route in
``_ROUTES``, which ``radial_kernel`` runs for one route and ``_every_route``
for all of them at once.  ``_scaled`` multiplies it by the unbounded factors
c0(d), R^{2-d} and sin^{2-d}(theta), kept as (mantissa, exponent) pairs, and
rounds once, so a value is +-inf or 0.0 only where the exact one lies outside
double range.

The production path (finite sum, recurrence) needs no other module: ``specfun``
and ``quadrature`` load on the first call of a series or quadrature route.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from collections import namedtuple

# specfun and quadrature load on first use, through _specfun_module and _quadrature_module

__all__ = [
    "Representation",
    "KernelValue",
    "SeriesWindowError",
    "NonConvergenceError",
    "ToleranceNotMetError",
    "THETA_EDGE",
    "SERIES_WINDOW",
    "radial_kernel",
    "fundamental_solution",
    "solution_scale",
    "euclidean_fundamental",
    "double_factorial",
]

# polar angles closer than this to 0 or pi are rejected: the kernel genuinely
# diverges at both poles
THETA_EDGE = 1e-12
# direct series routes are only offered while cos^2(theta) stays below this
SERIES_WINDOW = 0.98
# the Ferrers route is the finite sum where cos^2(theta) exceeds this, and the
# Gauss series in cos^2(theta), which converges like 2^-n, elsewhere
_FERRERS_SWITCH = 0.5

# a frexp mantissa in [1/2, 1) raised to at most this power stays within
# 2^(+-1000), inside the normal double range
_POWER_CHUNK = 1000
# (pi - math.pi) / math.pi
_PI_ROUNDING = 3.8981718325193755e-17


class SeriesWindowError(ValueError):
    """Series route refused outside its reliability window.

    Callers should fall back to the finite-sum, recurrence or quadrature
    representation, which are valid on all of (0, pi).
    """


class NonConvergenceError(ArithmeticError):
    """Series truncation cap reached before the stopping rule was met."""

    def __init__(self, message: str, partial_sum: float, terms: int):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms = terms


class ToleranceNotMetError(ArithmeticError):
    """Requested accuracy not reached; carries the best available estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


# what a route raises where it refuses an angle or does not converge
_REFUSALS = (SeriesWindowError, NonConvergenceError, ToleranceNotMetError)


class Representation(enum.Enum):
    """Evaluation route for the radial kernel; FINITE_SUM is the default."""

    QUADRATURE = "quadrature"
    FINITE_SUM = "finite_sum"
    RECURRENCE = "recurrence"
    HYP2F1 = "hyp2f1"
    HYP2F1_EULER = "hyp2f1_euler"
    FERRERS_Q = "ferrers"


@functools.cache
def _specfun_module():
    from . import specfun
    return specfun


@functools.cache
def _quadrature_module():
    from . import quadrature
    return quadrature


def _int_pair(n: int) -> tuple[float, int]:
    """A positive integer of any size as a (mantissa, exponent) pair."""
    e = n.bit_length()
    return n / (1 << e), e  # int / int is correctly rounded


def _power(x: float, n: int) -> tuple[float, int]:
    """x^n for x > 0 (or x = 0 and n > 0) as a (mantissa, exponent) pair, whatever its size."""
    m, e = math.frexp(x)
    pm, pe = 1.0, e * n
    while n:
        k = n if abs(n) <= _POWER_CHUNK else (_POWER_CHUNK if n > 0 else -_POWER_CHUNK)
        pm, g = math.frexp(pm * m**k)
        pe += g
        n -= k
    return pm, pe


def _pair_product(pairs) -> tuple[float, int]:
    """The product of any number of (mantissa, exponent) pairs as one pair,
    renormalised after each factor so that no partial product leaves range."""
    pm, pe = 1.0, 0
    for m, e in pairs:
        pm, g = math.frexp(pm * m)
        pe += g + e
    return pm, pe


def _deviation(a: float, b: float, scale: float) -> float:
    """|a - b| / scale; 0 for equal values (equal infinities too), and inf for
    any other pair whose quotient is not finite (NaN included)."""
    if a == b:
        return 0.0
    deviation = abs(a - b) / scale
    return deviation if math.isfinite(deviation) else math.inf


def _scaled(x: float, *pairs: tuple[float, int]) -> float:
    """x times the (mantissa, exponent) pairs, brought into double range once.

    The result is +-inf or 0.0 only where the exact product lies outside
    double range.  It does not renormalise per factor, on purpose: that nearly
    doubles its cost, and it runs twice per value.  So many factors go through
    ``_pair_product`` first.
    """
    e = 0
    for m, k in pairs:
        x *= m
        e += k
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scale_with_error(kernel: float, error: float, scale, power) -> tuple[float, float]:
    """``_scaled(x, scale, power)`` for x = kernel and error, by one ``ldexp`` each
    and through ``_scaled`` itself only where that overflows."""
    (sm, se), (pm, pe) = scale, power
    try:
        return math.ldexp(kernel * sm * pm, se + pe), math.ldexp(error * sm * pm, se + pe)
    except OverflowError:
        return _scaled(kernel, scale, power), _scaled(error, scale, power)


class KernelValue(namedtuple("KernelValue", "kernel kernel_error method sine_power")):
    """K_d(theta) = sin^{d-2}(theta) I_d(theta) from one route, with a rough error bound.

    ``kernel`` and ``kernel_error`` are floats, ``method`` the Representation
    and ``sine_power`` sin^{2-d}(theta) as a (mantissa, exponent) pair.
    ``value`` and ``est_error`` are I_d and its error bound; ``value`` is +-inf
    where I_d lies outside double range.
    """

    __slots__ = ()

    def scaled(self, scale: tuple[float, int]) -> tuple[float, float]:
        """(value, error bound) of scale * I_d, for a (mantissa, exponent) scale."""
        return _scale_with_error(self.kernel, self.kernel_error, scale, self.sine_power)

    @property
    def value(self) -> float:
        return _scaled(self.kernel, self.sine_power)

    @property
    def est_error(self) -> float:
        return _scaled(self.kernel_error, self.sine_power)


def _kernel_value(method: Representation, d: int, sine_power: tuple[float, int],
                  kernel: float, error: float) -> KernelValue:
    """The one constructor of KernelValue; refuses a K that is not finite."""
    if not math.isfinite(kernel):
        raise NonConvergenceError(
            f"{method.value} route: the kernel sin^(d-2) I_d is {kernel} at d={d}",
            kernel, 0)
    return KernelValue(kernel, error, method, sine_power)


def _check_integer(x: int, name: str, minimum: int) -> None:
    """ValueError unless x is an integer >= minimum.  An integer is what
    ``range()`` accepts (``operator.index``), so 3.0, inf and nan are not."""
    try:
        whole = operator.index(x) >= minimum
    except TypeError:
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {x}")


def _check_dimension(d: int) -> None:
    _check_integer(d, "dimension", 2)


def _check_radius(radius: float, name: str = "radius") -> None:
    if not radius > 0.0:
        raise ValueError(f"{name} must be positive, got {radius}")
    if not math.isfinite(radius):
        raise ValueError(f"{name} must be finite, got {radius}")


def _check_theta(theta: float) -> None:
    if not THETA_EDGE <= theta <= math.pi - THETA_EDGE:
        raise ValueError(
            f"polar angle {theta} outside [{THETA_EDGE}, pi - {THETA_EDGE}]")


def _cos_sin(d: int, theta: float) -> tuple[float, float]:
    """(cos theta, sin theta) once d and theta pass their rules: every route's prologue."""
    _check_dimension(d)
    _check_theta(theta)
    return math.cos(theta), math.sin(theta)


def _quadrature(d: int, c: float, s: float) -> tuple[float, float]:
    """Adaptive quadrature of the defining integral; the verification route.

    With u = asinh(cot x), dx / sin x = -du and sin x = sech u, so
    K_d = +-integral from 0 to |u0| of (sin(theta) cosh u)^{d-2} du with
    u0 = asinh(cot theta).  The integrand is at most 1 and rises to 1 at |u0|
    over a width of about 1/(d-2); the interval is cut at |u0| - 2^k/(d-2)
    while that step is below |u0|/16, so that no piece hides the peak.
    The error adds (d-2) (1 + |u0|) eps |K| to the integration estimate: the
    rounding of u0 and of sin(theta), both raised to the power d - 2.
    """
    u0 = abs(math.asinh(c / s))
    points = [u0]
    step = 1.0
    while step < (d - 2) * u0 / 16.0:
        points.append(u0 - step / (d - 2))
        step *= 2.0
    points.append(0.0)
    integrand = lambda u: (s * math.cosh(u)) ** (d - 2)
    integrate = _quadrature_module().integrate
    value = estimate = 0.0
    for hi, lo in zip(points, points[1:]):
        piece, err = integrate(integrand, lo, hi)
        value += piece
        estimate += err
    estimate += (d - 2) * (1.0 + u0) * sys.float_info.epsilon * value
    return math.copysign(value, c), estimate


@functools.lru_cache(maxsize=256)
def _finite_sum_table(d: int) -> tuple[float, ...]:
    """The coefficients of P(w) / (d-2), highest power first (none at d = 2).

    P(w) = 1 + w (d-3)/(d-4) + w^2 (d-3)(d-5)/((d-4)(d-6)) + ...: from 1/(d-2)
    each coefficient is the previous one times k/(k-1), k = d-3, d-5, ... >= 2,
    so O(d) float products, none out of double range, up to r = (d-3)!!/(d-2)!!.
    """
    table = [1.0 / (d - 2)] if d > 2 else []
    for k in range(d - 3, 1, -2):
        table.append(table[-1] * (k / (k - 1)))
    return tuple(reversed(table))


def _rounding_bound(d: int, kernel: float) -> float:
    """2 d eps |K| for a sum of about d/2 terms of one sign: each coefficient,
    its power of the rounded sin^2 theta and Horner's rule (or the recurrence's
    climb) carry about d/2 roundings of eps/2 each (Higham 2002, ch. 3 and 5)."""
    return 2.0 * d * sys.float_info.epsilon * abs(kernel)


def _finite_sum_kernel(d, c, s, table=None, asinh=math.asinh):
    """The finite sum K_d of ``_finite_sum`` from c = cos theta, s = sin theta, its
    even-d B = log cot(theta/2) included as asinh(c / s), which keeps full relative accuracy
    near the poles and near pi/2, where -log tan(theta/2) cancels.  Arithmetic and ``asinh``
    only, so c and s may be arrays (with ``asinh=np.arcsinh``).  A caller with many angles
    passes ``_finite_sum_table(d)``.
    """
    table = _finite_sum_table(d) if table is None else table
    s2 = s * s
    acc = 0.0
    for coef in table:
        acc = acc * s2 + coef
    if d % 2:
        return c * acc
    return c * acc + (table[0] if table else 1.0) * asinh(c / s) * s ** (d - 2)


def _finite_sum(d: int, c: float, s: float) -> tuple[float, float]:
    """Closed-form evaluation in O(d) arithmetic operations.

    I_d = (d-3)!!/(d-2)!! [B + cos(theta) sum_j (j-1)!!/j!! s^{-(j+1)}] with
    s = sin(theta), over j = d-3, d-5, ... >= 0, and B = log cot(theta/2) for
    even d, B = 0 for odd d (the double-factorial inverse-sine variant).  So
    K_d = cos(theta) P(s^2)/(d-2) + r B s^{d-2} with r = (d-3)!!/(d-2)!!: the
    products of the two double-factorial ratios are the coefficients of
    ``_finite_sum_table``.
    """
    kernel = _finite_sum_kernel(d, c, s)
    return kernel, _rounding_bound(d, kernel)


def _recurrence(d: int, c: float, s: float) -> tuple[float, float]:
    """Climb K_m = cos/(m-1) + (m-2)/(m-1) sin^2 K_{m-2} up to m = d-1.

    K_m = sin^{m-1} J_m scales the antiderivative recurrence of J_m = integral
    of 1/sin^m.  Bases: K_1 = log cot(theta/2) and K_2 = cos(theta).  All
    terms share the sign of cos(theta), so the climb is cancellation-free and
    its error is within ``_rounding_bound``.
    """
    s2 = s * s
    kernel, start = (c, 2) if d % 2 else (math.asinh(c / s), 1)
    for m in range(start + 2, d, 2):
        kernel = c / (m - 1) + (m - 2) / (m - 1) * s2 * kernel
    return kernel, _rounding_bound(d, kernel)


def _series_argument(c: float) -> float:
    """z = cos^2 theta of the series routes, refused outside ``SERIES_WINDOW``."""
    z = c * c
    if z > SERIES_WINDOW:
        raise SeriesWindowError(
            f"cos^2(theta) = {z:.6f} > {SERIES_WINDOW}: use finite_sum, "
            "recurrence or quadrature here")
    return z


def _hyp2f1(d: int, c: float, s: float) -> tuple[float, float]:
    """Hypergeometric series route, valid while cos^2(theta) <= 0.98.

    Direct form: K_d = sin^{d-2} cos 2F1(1/2, d/2; 3/2; cos^2 theta).  The
    error bound adds (d-2) eps |K| to the series tolerance: sin^{d-2} comes
    from the rounded sin theta and 2F1 from the rounded cos^2 theta, and the
    power d - 2 amplifies both roundings.
    """
    z, specfun = _series_argument(c), _specfun_module()
    kernel = _scaled(c * specfun.gauss_2f1(0.5, d / 2.0, 1.5, z), _power(s, d - 2))
    return kernel, abs(kernel) * (specfun.TOLERANCE + (d - 2) * sys.float_info.epsilon)


def _hyp2f1_euler(d: int, c: float, s: float) -> tuple[float, float]:
    """The transformed series of the ``hyp2f1`` route, in the same window.

    K_d = cos 2F1(1, (3-d)/2; 3/2; cos^2 theta), whose terms t_n alternate and
    cancel for large d, reports |cos| sum |t_n| (TOLERANCE + 2 n eps) over its
    n terms and is refused where that exceeds 1e-9 |K| (``check xrep``'s tolerance).
    """
    z, specfun = _series_argument(c), _specfun_module()
    total, magnitude, terms = specfun._gauss_2f1_sums(1.0, (3.0 - d) / 2.0, 1.5, z)
    kernel = c * total
    error = abs(c) * magnitude * (specfun.TOLERANCE + 2 * terms * sys.float_info.epsilon)
    if not error <= 1e-9 * abs(kernel):
        raise SeriesWindowError(
            f"hyp2f1_euler: error bound {error:.3g} > 1e-9 |K| for K = {kernel:.6g} "
            "(the series cancels): use finite_sum, recurrence or quadrature here")
    return kernel, error


def _ferrers_source(c: float) -> Representation:
    """The route whose (kernel, error) the Ferrers route is at c = cos theta."""
    return Representation.FINITE_SUM if c * c > _FERRERS_SWITCH else Representation.HYP2F1


def _ferrers(d: int, c: float, s: float) -> tuple[float, float]:
    """Ferrers-Q route: K_d = p(d) sin^{d/2-1} Q_{d/2-1}^{1-d/2}(cos theta).

    The prefactor is p(d) = (d-2)! / (Gamma(d/2) 2^{d/2-1}), and the product
    is sin^{d-2} cos theta 2F1(1/2, d/2; 3/2; cos^2 theta): by Legendre's
    duplication formula (DLMF 5.5.5), Gamma((d-1)/2) Gamma(d/2) =
    2^{2-d} sqrt(pi) (d-2)!, so the gamma and power-of-two factors of Q and
    p(d) multiply to exactly 1.  Where cos^2 theta exceeds ``_FERRERS_SWITCH``
    it is the finite sum (the z -> 1-z connection, A&S 15.3.6 and 15.3.10),
    equal to ``_finite_sum`` bit for bit; elsewhere it is the Gauss series
    that the ``hyp2f1`` route sums, with the same error bound.
    """
    return _ROUTES[_ferrers_source(c)](d, c, s)


# each route's core: (d, cos theta, sin theta) -> (K_d, its error bound), or a refusal
_ROUTES = {
    Representation.QUADRATURE: _quadrature,
    Representation.FINITE_SUM: _finite_sum,
    Representation.RECURRENCE: _recurrence,
    Representation.HYP2F1: _hyp2f1,
    Representation.HYP2F1_EULER: _hyp2f1_euler,
    Representation.FERRERS_Q: _ferrers,
}


def radial_kernel(d: int, theta: float,
                  rep: Representation = Representation.FINITE_SUM) -> KernelValue:
    """Evaluate I_d(theta) through the requested representation: the one way to run a
    route.  Each route's core in ``_ROUTES`` states its mathematics and its error bound."""
    if not isinstance(rep, Representation):
        raise ValueError(f"unknown representation {rep!r}")
    c, s = _cos_sin(d, theta)
    return _kernel_value(rep, d, _power(s, 2 - d), *_ROUTES[rep](d, c, s))


def _every_route(d: int, theta: float) -> list:
    """[(rep, ``radial_kernel(d, theta, rep)`` or the refusal it raises)] for every rep,
    in ``Representation`` order, with the same bits and messages.  The angle is checked
    and its cosine, sine and sin^(2-d) computed once, and the Ferrers route takes the
    (kernel, error) of the route it equals, which has run before it, instead of summing
    it again.
    """
    c, s = _cos_sin(d, theta)
    power = _power(s, 2 - d)
    pairs, routes = {}, []
    for rep, route in _ROUTES.items():
        try:
            # where the route it equals refused, the Ferrers route runs and refuses alike
            pair = pairs.get(_ferrers_source(c)) if route is _ferrers else None
            pair = pairs[rep] = pair or route(d, c, s)
            routes.append((rep, _kernel_value(rep, d, power, *pair)))
        except _REFUSALS as refusal:
            routes.append((rep, refusal))
    return routes


def _kernel_rows(d: int, thetas, rep: Representation, scale: tuple[float, int]):
    """``radial_kernel(d, theta, rep).scaled(scale)`` bit for bit, or (nan, nan) where
    the route refuses, at each angle of ``thetas``, which the caller keeps in [THETA_EDGE,
    pi - THETA_EDGE].  The finite sum checks d and looks up its table once; each angle then
    costs a cosine, a sine, the sum and one power of sin theta.  Other routes run their
    scalar function.
    """
    _check_dimension(d)
    if rep is not Representation.FINITE_SUM:
        for theta in thetas:
            try:
                row = radial_kernel(d, theta, rep).scaled(scale)
            except _REFUSALS:
                row = math.nan, math.nan
            yield row
        return
    table = _finite_sum_table(d)
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        kernel = _finite_sum_kernel(d, c, s, table)
        row = _scale_with_error(kernel, _rounding_bound(d, kernel), scale, _power(s, 2 - d))
        yield row if math.isfinite(kernel) else (math.nan, math.nan)  # as _kernel_value refuses


def double_factorial(n: int) -> int:
    """n!! = n(n-2)... down to 1 or 2, with (-1)!! = 0!! = 1.  The top of n's range keeps
    n // 2 within sys.maxsize, ``math.factorial``'s limit, and is checked before any work."""
    if not -1 <= n <= 2 * sys.maxsize + 1:
        raise ValueError(f"double factorial requires -1 <= n <= {2 * sys.maxsize + 1}, got {n}")
    if n % 2 == 0:
        return math.factorial(n // 2) << (n // 2)
    return _odd_product(1, n)


def _odd_product(lo: int, hi: int) -> int:
    """lo (lo + 2) ... hi for odd lo, split in halves so that big factors stay balanced
    (one running product is quadratic in the number of factors)."""
    if hi - lo < 128:
        return math.prod(range(lo, hi + 1, 2))
    mid = (lo + hi) // 4 * 2 + 1
    return _odd_product(lo, mid) * _odd_product(mid + 2, hi)


def solution_scale(d: int, radius: float) -> tuple[float, int]:
    """c0(d) / R^{d-2}, the factor that turns I_d(theta) into the solution.

    c0(d) = Gamma(d/2) / (2 pi^{d/2}) = (d-2)!! / (2^{floor((d+1)/2)}
    pi^{floor(d/2)}) for either parity, from the exact integer (d-2)!!: Gamma(d/2)
    is (d-2)!! / 2^{d/2-1} for even d and (d-2)!! sqrt(pi) / 2^{(d-1)/2} for odd d.
    The factor is a (mantissa, exponent) pair for ``KernelValue.scaled``, so
    it never overflows.  Raises ValueError for a radius that is not positive
    and finite, and for d < 1 or (d - 2) // 2 > sys.maxsize (``double_factorial``).
    """
    _check_radius(radius)
    _check_integer(d, "dimension", 1)
    m, e = _int_pair(double_factorial(d - 2))
    pm, pe = _power(math.pi, -(d // 2))
    rm, re = _power(radius, 2 - d)
    # pi = math.pi (1 + _PI_ROUNDING): correct the power of math.pi to first order
    return m * pm * rm * (1.0 - d // 2 * _PI_ROUNDING), e + pe + re - (d + 1) // 2


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
    _check_radius(r, "distance")
    _check_integer(d, "dimension", 1)
    if d == 2:
        return math.log(1.0 / r) / (2.0 * math.pi)
    return _scaled(1.0 / (d - 2), solution_scale(d, r))
