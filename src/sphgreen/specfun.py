"""Real-argument special functions used by the hypersphere kernel.

Gamma (exact on integers and half-integers), the Gauss 2F1 series on (-1, 1),
and Ferrers functions of the first and second kind (associated Legendre
functions on the cut).
``double_factorial`` and ``NonConvergenceError`` are ``kernel``'s, which the
production path loads alone.

The 2F1 series reads its term ratios (a+n)(b+n) / ((c+n)(n+1)) from a table
kept for each (a, b, c) of the 256 most recently used, and makes the ratios
past its end as the loop reads them, to extend it; a term then costs one
product with z, with the bits of the ratio computed in place.  The Ferrers
functions keep their Gamma(g) / Gamma(r) prefactors per (g, r) the same way.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple

from .kernel import NonConvergenceError, double_factorial

__all__ = [
    "TOLERANCE",
    "MAX_TERMS",
    "FerrersOrderDegree",
    "GammaPoleError",
    "gamma_real",
    "reciprocal_gamma",
    "gauss_2f1",
    "ferrers_p",
    "ferrers_q",
]

TOLERANCE = 1e-15
MAX_TERMS = 100000

_SQRT_PI = math.sqrt(math.pi)
# largest argument before Gamma overflows a double
_GAMMA_OVERFLOW = 171.62


class GammaPoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


def _is_integer(z: float) -> bool:
    return z == round(z)


def gamma_real(z: float) -> float:
    """Gamma function for real z outside the nonpositive integers.

    Integer and half-integer arguments (the only ones reached by the rest of
    the library) are evaluated exactly by recursion from Gamma(1) = 1 and
    Gamma(1/2) = sqrt(pi); other real arguments fall through to the C-library
    approximation.  NaN and -inf raise a ValueError that names them.
    """
    if not z > -math.inf:
        raise ValueError(f"gamma argument must not be NaN or -inf, got z={z}")
    if z <= 0.0 and _is_integer(z):
        raise GammaPoleError(f"gamma pole at z={z}")
    if z > _GAMMA_OVERFLOW:
        return math.inf
    if _is_integer(2.0 * z) and z <= 170.5:
        if _is_integer(z):
            return float(math.factorial(int(round(z)) - 1))
        m = int(round(z - 0.5))
        if m >= 0:
            # int / int is correctly rounded where (2m-1)!! alone overflows a double
            return double_factorial(2 * m - 1) / 2**m * _SQRT_PI
        # negative half-integer: climb to Gamma(1/2) with Gamma(z+1) = z Gamma(z),
        # dividing by the rising factorial z (z+1) ... (-1/2)
        return _SQRT_PI / math.prod(z + i for i in range(int(round(0.5 - z))))
    return math.gamma(z)


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z), defined as 0 at the nonpositive-integer poles."""
    if -math.inf < z <= 0.0 and _is_integer(z):
        return 0.0
    g = gamma_real(z)
    return 0.0 if math.isinf(g) else 1.0 / g


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric series sum_n (a)_n (b)_n / ((c)_n n!) z^n.

    Summation stops once three consecutive terms fall below ``TOLERANCE``
    relative to the running sum; hitting ``MAX_TERMS`` first raises
    NonConvergenceError (expected as z -> 1 with c - a - b <= 0).  A NaN or
    infinite a, b or c raises a ValueError that names it.
    """
    return _gauss_2f1_sums(a, b, c, z)[0]


def _gauss_2f1_sums(a: float, b: float, c: float, z: float) -> tuple[float, float, int]:
    """The series of ``gauss_2f1``: its sum, the sum of the terms' magnitudes
    and the number of terms summed."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"2F1 parameters must be finite, got a={a}, b={b}, c={c}")
    if c <= 0.0 and _is_integer(c):
        raise GammaPoleError(f"2F1 undefined for nonpositive integer c={c}")
    if not abs(z) < 1.0:
        raise ValueError(f"series requires |z| < 1, got z={z}")
    # tol * max(|total|, 1e-300) == max(tol * |total|, floor) exactly, because
    # multiplying by tol > 0 preserves order after rounding; this form makes
    # no builtin call per term.  Each term is the last one times r_n z, with
    # r_n from the triple's table: the bits of ((a+n)(b+n) / ((c+n)(n+1))) z.
    tol, max_terms = TOLERANCE, MAX_TERMS
    floor = tol * 1e-300
    total = magnitude = term = 1.0
    below = 0
    # every term of an all-positive series is >= 0 (z = -0.0 gives -0.0 terms,
    # which add nothing), so the sum of magnitudes is the sum bit for bit, and
    # the total stays >= 1, where tol * total >= tol > floor: the same stop
    # rule, less work
    lean = a > 0.0 and b > 0.0 and c > 0.0 and z >= 0.0
    slot = _ratio_slot(a, b, c)
    ratios = table = slot[0]
    if len(table) > max_terms:
        ratios = table[:max_terms]  # a lowered MAX_TERMS (tests only)
    first, made = 2, None
    try:
        # read the cached table to its end, then ratios made as they are read
        while True:
            if lean:
                for count, r in enumerate(ratios, first):
                    term *= r * z
                    total += term
                    if term <= tol * total:
                        below += 1
                        if below == 3:
                            return total, total, count
                    else:
                        below = 0
            else:
                for count, r in enumerate(ratios, first):
                    term *= r * z
                    total += term
                    mag = term if term >= 0.0 else -term
                    magnitude += mag
                    if mag <= tol * (total if total >= 0.0 else -total) or mag <= floor:
                        below += 1
                        if below == 3:
                            return total, magnitude, count
                    else:
                        below = 0
            if made is not None:
                break
            made = array("d")
            first, ratios = len(table) + 2, _made_ratios(a, b, c, len(table), max_terms, made)
    finally:
        if made and len(table) < _MAX_CACHED_RATIOS:
            slot[0] = table + made[:_MAX_CACHED_RATIOS - len(table)]
    raise NonConvergenceError(f"2F1({a},{b};{c};{z}) did not converge in {max_terms} terms",
                              total, max_terms)


# A table keeps no more than its first _MAX_CACHED_RATIOS (128 KiB), so the 256
# cached tables never hold more than 32 MiB.
_MAX_CACHED_RATIOS = 1 << 14


@functools.lru_cache(maxsize=256)
def _ratio_slot(a: float, b: float, c: float) -> list:
    """A one-item list holding the term-ratio table of (a, b, c).

    A call that reads past the table's end stores the table and the ratios it
    made as a new object, so a thread iterating the old one never sees it
    change.  Threads that extend one table at once
    each store their own, and the last one stored stays: every table holds
    the same ratios as far as it goes.  0.0 and -0.0 share a key: a + 0.0 is
    +0.0 for either, so their tables are the same."""
    return [array("d")]


def _made_ratios(a: float, b: float, c: float, start: int, stop: int, made: array):
    """The term ratios r_n = (a+n)(b+n) / ((c+n)(n+1)) for start <= n < stop,
    each appended to ``made`` before it is yielded.

    The index n is a float, so every operation is float-float, with the bits
    of an int n: float(n) is exact below 2^53 and a + n rounds once.  A running
    counter (an += 1.0) would round at every step and drift from a + n."""
    for n in map(float, range(start, stop)):
        r = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        made.append(r)
        yield r


class FerrersOrderDegree(namedtuple("FerrersOrderDegree", "degree order argument")):
    """Degree nu, order mu and argument x of a Ferrers function.

    The argument must lie strictly inside (-1, 1) and nu + mu must not be a
    negative integer (the two-term hypergeometric definitions below break
    down there).
    """

    __slots__ = ()

    def __new__(cls, degree: float, order: float, argument: float):
        if not -1.0 < argument < 1.0:
            raise ValueError(f"argument must lie in (-1, 1), got {argument}")
        if not (math.isfinite(degree) and math.isfinite(order)):
            raise ValueError(f"degree and order must be finite, got {degree} and {order}")
        s = degree + order
        if s < -0.5 and _is_integer(s):
            raise ValueError(
                f"degree + order = {s} is a negative integer; "
                "Ferrers definitions used here require nu + mu not in -N")
        return super().__new__(cls, degree, order, argument)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def _half_pi_sin_cos(v: float) -> tuple[float, float]:
    """sin(pi v / 2) and cos(pi v / 2), exact at integer v."""
    if _is_integer(v):
        return ((0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0))[int(round(v)) % 4]
    return math.sin(0.5 * math.pi * v), math.cos(0.5 * math.pi * v)


def _two_term_sum(pd: FerrersOrderDegree, odd_weight: float | None,
                  even_weight: float | None) -> float:
    """odd_weight times the odd block plus even_weight times the even block of
    the two-term P and Q definitions (DLMF 14.3).  A block is Gamma(g) / Gamma(r)
    (1 - x^2)^(-mu/2) 2F1(a, b; c; x^2), the odd one times x.  A None weight
    (its trigonometric factor vanishes) skips its block, so the gamma poles
    that the definitions implicitly cancel never raise."""
    nu, mu, x = pd.degree, pd.order, pd.argument
    pow_fac = (1.0 - x * x) ** (-mu / 2.0)
    value = 0.0
    for weight, g, r, lead, a, b, c in (
            (odd_weight, (nu + mu + 2.0) / 2.0, (nu - mu + 1.0) / 2.0, x,
             (1.0 - nu - mu) / 2.0, (nu - mu + 2.0) / 2.0, 1.5),
            (even_weight, (nu + mu + 1.0) / 2.0, (nu - mu + 2.0) / 2.0, 1.0,
             (-nu - mu) / 2.0, (nu - mu + 1.0) / 2.0, 0.5)):
        if weight is not None:
            value += weight * (_gamma_ratio(g, r) * lead * pow_fac * gauss_2f1(a, b, c, x * x))
    return value


@functools.lru_cache(maxsize=256)
def _gamma_ratio(g: float, r: float) -> float:
    """Gamma(g) / Gamma(r) as the product Gamma(g) * (1 / Gamma(r)) that leads
    a block of ``_two_term_sum``.  A Ferrers call needs two; ``check ode``
    reaches only a few (g, r), so they are kept (an error is not)."""
    return gamma_real(g) * reciprocal_gamma(r)


def ferrers_p(pd: FerrersOrderDegree) -> float:
    """Ferrers function of the first kind P_nu^mu(x) on the cut."""
    mu = pd.order
    s, c = _half_pi_sin_cos(pd.degree + mu)
    return _two_term_sum(pd, 2.0 ** (mu + 1.0) / _SQRT_PI * s if s else None,
                         2.0**mu / _SQRT_PI * c if c else None)


def ferrers_q(pd: FerrersOrderDegree) -> float:
    """Ferrers function of the second kind Q_nu^mu(x) on the cut."""
    mu = pd.order
    s, c = _half_pi_sin_cos(pd.degree + mu)
    return _two_term_sum(pd, _SQRT_PI * 2.0**mu * c if c else None,
                         -_SQRT_PI * 2.0 ** (mu - 1.0) * s if s else None)
