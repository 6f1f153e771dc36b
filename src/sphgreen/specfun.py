"""Real-argument special functions used by the hypersphere kernel.

Gamma (exact on integers and half-integers, through the rising factorial
``pochhammer``), the Gauss 2F1 series on (-1, 1), and Ferrers functions of the
first and second kind (associated Legendre functions on the cut).
``double_factorial`` and ``NonConvergenceError`` are ``kernel``'s, which the
production path loads alone.
"""

from __future__ import annotations

import math
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


def pochhammer(z: float, n: int) -> float:
    """Rising factorial (z)_n = z(z+1)...(z+n-1); empty product is 1."""
    if n < 0:
        raise ValueError(f"pochhammer requires n >= 0, got {n}")
    out = 1.0
    for i in range(n):
        out *= z + i
    return out


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
        # negative half-integer: climb to Gamma(1/2) with Gamma(z+1) = z Gamma(z)
        k = int(round(0.5 - z))
        return _SQRT_PI / pochhammer(z, k)
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
    # no builtin call per term.  The index n is a float, so every operation is
    # float-float, with the bits of an int n: float(n) is exact below 2^53 and
    # a + n rounds once.  A running counter (an += 1.0) would round at every
    # step and drift from a + n.
    tol, max_terms = TOLERANCE, MAX_TERMS
    floor = tol * 1e-300
    total = magnitude = term = 1.0
    below = 0
    n = 0.0
    if a > 0.0 and b > 0.0 and c > 0.0 and z >= 0.0:
        # every term is >= 0 (z = -0.0 gives -0.0 terms, which add nothing), so
        # the sum of magnitudes is the sum bit for bit, and the total stays
        # >= 1, where tol * total >= tol > floor: the same stop rule, less work
        for count in range(2, max_terms + 2):
            n1 = n + 1.0
            term *= (a + n) * (b + n) / ((c + n) * n1) * z
            n = n1
            total += term
            if term <= tol * total:
                below += 1
                if below == 3:
                    return total, total, count
            else:
                below = 0
    else:
        for count in range(2, max_terms + 2):
            n1 = n + 1.0
            term *= (a + n) * (b + n) / ((c + n) * n1) * z
            n = n1
            total += term
            mag = term if term >= 0.0 else -term
            magnitude += mag
            if mag <= tol * (total if total >= 0.0 else -total) or mag <= floor:
                below += 1
                if below == 3:
                    return total, magnitude, count
            else:
                below = 0
    raise NonConvergenceError(
        f"2F1({a},{b};{c};{z}) did not converge in {max_terms} terms",
        total, max_terms)


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
            value += weight * (gamma_real(g) * reciprocal_gamma(r) * lead * pow_fac
                               * gauss_2f1(a, b, c, x * x))
    return value


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
