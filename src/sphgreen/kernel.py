"""Radial kernel of the hypersphere fundamental solution.

I_d(theta) = integral of 1/sin^{d-1} from theta to pi/2 through six equivalent
routes (defining integral, closed-form finite sum, antiderivative recurrence, two
hypergeometric series and a Ferrers-Q form), plus the normalized fundamental
solution on the sphere and the Euclidean reference solution.

Each route's core in ``_ROUTES`` computes the bounded kernel K_d = sin^{d-2}(theta)
I_d(theta) from cos theta and sin theta, with a bound on its truncation and its own
arithmetic; ``radial_kernel`` (one angle) and ``_kernel_rows`` (many) add the
rounding all routes share (``_shared_rounding``).  ``_scaled`` multiplies K by the
unbounded factors c0(d), R^{2-d} and sin^{2-d}(theta), kept as (mantissa, exponent)
pairs and renormalised after each factor (``_pair_product``), and brings the product
into double range once: +-inf or 0.0 only where the exact one lies outside it.

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
_EPS = sys.float_info.epsilon


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

    # members are singletons that Enum compares by identity, so hash in C, not by name
    __hash__ = object.__hash__


# every route and its name, in order (iterating the Enum and ``rep.value`` run Python code)
_ROUTE_NAMES = {rep: rep.value for rep in Representation}


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
    """x times the (mantissa, exponent) pairs through ``_pair_product``, brought into double
    range once: +-inf or 0.0 only where the exact product lies outside it."""
    m, e = _pair_product(((x, 0), *pairs))
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _scale_with_error(kernel: float, error: float, scale, power) -> tuple[float, float]:
    """``_scaled(x, scale, power)`` for x = kernel and error, by one ``ldexp`` each
    and through ``_scaled`` itself only where that overflows.  The error covers the final
    rounding: it is inf beside +-inf, and at least ``math.ulp(0.0)`` beside a subnormal
    value or a 0.0 from a nonzero kernel."""
    (sm, se), (pm, pe) = scale, power
    try:
        value, error = math.ldexp(kernel * sm * pm, se + pe), math.ldexp(error * sm * pm, se + pe)
    except OverflowError:
        value = _scaled(kernel, scale, power)
        error = math.inf if math.isinf(value) else _scaled(error, scale, power)
    if -2.2250738585072014e-308 < value < 2.2250738585072014e-308 and kernel:  # not normal
        error = max(error, 5e-324)
    return value, error


def _shared_rounding(d: int) -> float:
    """((2 + 1/128) d + 12) eps: the rounding that every route owes outside its core,
    relative to |K|; a core bounds its truncation and its own arithmetic.  Each operation
    rounds within eps/2, each libm call within an ulp (Higham 2002, ch. 3).  cos theta and
    sin theta, each within eps, move I = K s^(2-d) by (|k_c| + |k_s|) eps, k the relative
    condition numbers of the route's form: 1 + max(1, d-2) for the finite sum and the
    recurrence (c s^-j, j <= d-2, and asinh(c/s), of one sign); 2 max(1, d-2) for the
    quadrature, a function of c/s with k_c = c/K and |K| >= |c|/(d-2) (>= |c| at d = 2);
    1 for hyp2f1 and d-1 for hyp2f1_euler, whose part in z = c^2 is in the series
    engine's n-term allowance: at most 2d.  Each ``_power`` (sin^(2-d), hyp2f1's
    sin^(d-2), pi^-floor(d/2), R^(2-d)) adds 1.5 eps a chunk, below (0.00525 d + 6) eps
    in all; ``solution_scale``'s (d-2)!!, ``_PI_ROUNDING`` correction (and its second
    order, d^2 eps / 1.1e18) and products 2.5 eps; K's products by the scale and the
    power, and hyp2f1's by sin^(d-2), 2 eps.  The sum is within the factor for d < 2e15.
    """
    return ((2.0 + 1.0 / 128) * d + 12.0) * _EPS


class KernelValue(namedtuple("KernelValue", "kernel kernel_error method sine_power")):
    """K_d(theta) = sin^{d-2}(theta) I_d(theta) from one route, with its error bound: the
    core's own plus ``_shared_rounding(d)`` |K|.  ``method`` is the Representation and
    ``sine_power`` sin^{2-d}(theta) as a (mantissa, exponent) pair.  ``value`` and
    ``est_error`` are I_d and its bound; ``value`` is +-inf where I_d lies outside double
    range."""

    __slots__ = ()

    def scaled(self, scale: tuple[float, int]) -> tuple[float, float]:
        """(value, error bound) of scale * I_d, for a (mantissa, exponent) scale."""
        return _scale_with_error(self.kernel, self.kernel_error, scale, self.sine_power)

    @property
    def value(self) -> float:
        return self.scaled((1.0, 0))[0]

    @property
    def est_error(self) -> float:
        return self.scaled((1.0, 0))[1]


def _finite_kernel(rep: Representation, d: int, kernel: float) -> float:
    """A route's K, or the refusal of one that is not finite."""
    if not math.isfinite(kernel):
        raise NonConvergenceError(
            f"{rep.value} route: the kernel sin^(d-2) I_d is {kernel} at d={d}", kernel, 0)
    return kernel


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


def _quadrature(d: int, c: float, s: float) -> tuple[float, float]:
    """The defining integral, the verification route: ``quadrature.kernel_integral``."""
    return _quadrature_module().kernel_integral(d, c, s)


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


def _finite_sum(d: int, c: float, s: float, table=None) -> tuple[float, float]:
    """Closed-form evaluation in O(d) arithmetic operations: (K_d, 1.25 d eps |K|).

    I_d = (d-3)!!/(d-2)!! [B + cos(theta) sum_j (j-1)!!/j!! s^{-(j+1)}] with s = sin(theta),
    over j = d-3, d-5, ... >= 0, and B = log cot(theta/2) for even d, 0 for odd d.  So
    K_d = cos(theta) P(s^2)/(d-2) + r B s^{d-2} with r = (d-3)!!/(d-2)!!, P's coefficients
    from ``_finite_sum_table`` (which a caller with many angles passes).  B is asinh(c/s),
    of full relative accuracy near the poles and near pi/2, where -log tan(theta/2) cancels.

    Its roundings of eps/2: the term in w^i, i <= (d-3)/2, has 1 + 2i in its coefficient,
    2i + 1 in Horner's rule (Higham 2002, ch. 5) and i in w = s^2, and c P one: 2.5 d - 4.5;
    the log cot term d - 3 in r, five in asinh(c/s) and s^(d-2), and three: d + 5.
    """
    table = _finite_sum_table(d) if table is None else table
    s2 = s * s
    acc = 0.0
    for coef in table:
        acc = acc * s2 + coef
    kernel = c * acc
    if not d % 2:
        kernel += (table[0] if table else 1.0) * math.asinh(c / s) * s ** (d - 2)
    return kernel, 1.25 * d * _EPS * abs(kernel)


def _recurrence(d: int, c: float, s: float) -> tuple[float, float]:
    """Climb K_m = cos/(m-1) + (m-2)/(m-1) sin^2 K_{m-2} up to m = d-1.

    K_m = sin^{m-1} J_m scales the antiderivative recurrence of J_m = integral
    of 1/sin^m.  Bases: K_1 = log cot(theta/2) and K_2 = cos(theta).  All
    terms share the sign of cos(theta), so the climb is cancellation-free: each of
    its <= (d-2)/2 steps adds five roundings of eps/2 (a quotient, two products, the
    sum and s^2) to the three of asinh(c/s): 1.25 d eps |K| bounds them.
    """
    s2 = s * s
    kernel, start = (c, 2) if d % 2 else (math.asinh(c / s), 1)
    for m in range(start + 2, d, 2):
        kernel = c / (m - 1) + (m - 2) / (m - 1) * s2 * kernel
    return kernel, 1.25 * d * _EPS * abs(kernel)


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
    error bound is the series error times |cos| sin^{d-2}; the power and the
    products are in ``_shared_rounding``.
    """
    z, specfun = _series_argument(c), _specfun_module()
    total, error, _ = specfun._gauss_2f1_sums(0.5, d / 2.0, 1.5, z)
    return _scale_with_error(c * total, abs(c) * error, (1.0, 0), _power(s, d - 2))


def _hyp2f1_euler(d: int, c: float, s: float) -> tuple[float, float]:
    """The transformed series of the ``hyp2f1`` route, in the same window.

    K_d = cos 2F1(1, (3-d)/2; 3/2; cos^2 theta), whose terms alternate and
    cancel for large d, reports |cos| times the series error.  It is refused where
    that exceeds 1e-9 |K|: cancellation has then taken seven of the sixteen digits,
    and a printed value is to be good to nine.
    """
    z, specfun = _series_argument(c), _specfun_module()
    total, error, _ = specfun._gauss_2f1_sums(1.0, (3.0 - d) / 2.0, 1.5, z)
    kernel, error = c * total, abs(c) * error
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

    With p(d) = (d-2)! / (Gamma(d/2) 2^{d/2-1}) the product is sin^{d-2} cos theta
    2F1(1/2, d/2; 3/2; cos^2 theta): by Legendre's duplication formula (DLMF 5.5.5)
    the gamma and power-of-two factors of Q and p(d) multiply to exactly 1.  Where
    cos^2 theta exceeds ``_FERRERS_SWITCH`` it is the finite sum (the z -> 1-z
    connection, A&S 15.3.6 and 15.3.10), bit for bit; elsewhere the ``hyp2f1`` series.
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
    _check_dimension(d)
    _check_theta(theta)
    s = math.sin(theta)
    kernel, error = _ROUTES[rep](d, math.cos(theta), s)
    kernel = _finite_kernel(rep, d, kernel)
    return KernelValue(kernel, error + _shared_rounding(d) * abs(kernel), rep, _power(s, 2 - d))


def _angle_grid(lo: float, hi: float, n: int):
    """n >= 2 angles from lo to hi, each made as it is asked for: lo + i (hi - lo)/(n - 1)
    for i < n - 1, then hi itself, which (n - 1) times the step can miss by an ulp.  These
    are the doubles of numpy's linspace."""
    step = (hi - lo) / (n - 1)
    for i in range(n - 1):
        yield lo + i * step
    yield hi


def _kernel_rows(d: int, thetas, reps: list[Representation], scale: tuple[float, int] = (1.0, 0)):
    """(theta, rep, result) for each angle of ``thetas`` and each route of ``reps`` in
    order, lazily: result is ``radial_kernel(d, theta, rep).scaled(scale)`` bit for bit, or
    the refusal that call raises.  d and ``_shared_rounding(d)`` are taken once, and an
    angle's cosine, sine and sin^(2-d) once; the Ferrers route takes the (kernel, error) of
    the route it equals where that ran before it.  The finite sum alone looks up its table
    once and skips the route dispatch."""
    _check_dimension(d)
    shared = _shared_rounding(d)
    if reps == [Representation.FINITE_SUM]:
        rep, table = reps[0], _finite_sum_table(d)
        for theta in thetas:
            _check_theta(theta)
            c, s = math.cos(theta), math.sin(theta)
            kernel, error = _finite_sum(d, c, s, table)
            try:
                result = _scale_with_error(_finite_kernel(rep, d, kernel),
                                           error + shared * abs(kernel), scale, _power(s, 2 - d))
            except NonConvergenceError as refusal:
                result = refusal
            yield theta, rep, result
        return
    for theta in thetas:
        _check_theta(theta)
        c, s = math.cos(theta), math.sin(theta)
        power, pairs = _power(s, 2 - d), {}
        for rep in reps:
            route = _ROUTES[rep]
            try:
                # where the route it equals refused or did not run, the Ferrers route runs
                pair = pairs.get(_ferrers_source(c)) if route is _ferrers else None
                kernel, error = pairs[rep] = pair or route(d, c, s)
                result = _scale_with_error(_finite_kernel(rep, d, kernel),
                                           error + shared * abs(kernel), scale, power)
            except _REFUSALS as refusal:
                result = refusal
            yield theta, rep, result


def _odd_range_product(lo: int, hi: int) -> int:
    """lo (lo + 2) (lo + 4) ... up to below hi, for odd lo <= hi, split into halves of
    equal length so that big integers are multiplied with big integers of like size."""
    count = (hi - lo) // 2
    if count <= 16:
        return math.prod(range(lo, hi, 2))
    mid = lo + count // 2 * 2
    return _odd_range_product(lo, mid) * _odd_range_product(mid, hi)


def double_factorial(n: int) -> int:
    """n!! = n(n-2)... down to 1 or 2, with (-1)!! = 0!! = 1: (n/2)! 2^(n/2) for even n,
    and a balanced product of the odd factors for odd n (``math.perm``, the other exact
    route, is quadratic in n on CPython 3.10).  The top of n's range keeps n // 2 within
    sys.maxsize, the limit of ``math.factorial``, and is checked before any work."""
    if not -1 <= n <= 2 * sys.maxsize:
        raise ValueError(f"double factorial requires -1 <= n <= {2 * sys.maxsize}, got {n}")
    if n % 2 == 0:
        return math.factorial(n // 2) << (n // 2)
    return _odd_range_product(1, n + 2)


def solution_scale(d: int, radius: float) -> tuple[float, int]:
    """c0(d) / R^{d-2}, the factor that turns I_d(theta) into the solution.

    c0(d) = Gamma(d/2) / (2 pi^{d/2}) = (d-2)!! / (2^{floor((d+1)/2)} pi^{floor(d/2)}) for
    either parity, since Gamma(d/2) is (d-2)!! / 2^{d/2-1} for even d and (d-2)!! sqrt(pi) /
    2^{(d-1)/2} for odd d.  A (mantissa, exponent) pair for ``KernelValue.scaled``, it never
    overflows.  Raises ValueError for a radius that is not positive and finite, and for
    d < 1 or d - 2 > 2 sys.maxsize (``double_factorial``).
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
