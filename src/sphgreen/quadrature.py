"""The defining integral of the kernel, enclosed between two quadrature rules.

On [0, u0] every derivative of (s cosh u)^p is >= 0 (it is a positive
combination of e^(+-ku)), so on each panel an n-point Gauss-Legendre sum lies
below the integral and an m-point Lobatto sum above it: their errors are
positive multiples of f^(2n) and negative multiples of f^(2m-2) at an interior
point (Davis and Rabinowitz, *Methods of Numerical Integration*, 2nd ed.,
1984; Abramowitz and Stegun section 25.4).
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from .kernel import ToleranceNotMetError

__all__ = ["TOLERANCE", "legendre_roots", "cosh_power_integral"]

# a panel is accepted when its Lobatto - Gauss gap is at most this share of the integral so far
TOLERANCE = 1e-11


def legendre_roots(n: int, derivative: bool = False) -> list[tuple[float, float, float]]:
    """The roots x in [0, 1) of P_n, or of P_n' where ``derivative``, from 0
    outward, each as (x, P_n, P_n') with P_n and P_n' at the last Newton iterate but one.

    Newton's method runs on the three-term recurrence (Hale and Townsend, SIAM
    J. Sci. Comput. 35 (2013) A652), with P_n' = n (P_(n-1) - x P_n) / (1 - x^2)
    and 1 - x^2 as (1 - x)(1 + x), which does not cancel near the ends.  A root
    of P_n starts at Tricomi's estimate, and two steps reach almost every one.
    A root of P_n' starts midway between the two roots of P_n it separates and
    steps by P_n' / P_n'', with P_n'' = (2 x P_n' - n (n + 1) P_n) / (1 - x^2).
    """
    steps = [((2 * k + 1) / (k + 1), k / (k + 1)) for k in range(1, n)]
    if derivative:
        gauss = [x for x, _, _ in legendre_roots(n)]
        between = [-x for x in reversed(gauss) if x] + gauss
        starts = [0.5 * (a + b) for a, b in zip(between, between[1:]) if a + b >= 0.0]
    else:
        # cos((4k - 1) pi / (4n + 2)) as a sine, which is exactly 0 at the middle root
        starts = [(1.0 - (n - 1) / (8.0 * n**3)) * math.sin(math.pi * (2 * n + 2 - 4 * k) / (4 * n + 2))
                  for k in range((n + 1) // 2, 0, -1)]
    roots = []
    for x in starts:
        for _ in range(8):
            p0, p1 = 1.0, x  # P_(m-1)(x), P_m(x) up to m = n
            for a, b in steps:
                p0, p1 = p1, a * x * p1 - b * p0
            slope = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
            if derivative:
                step = slope * (1.0 - x) * (1.0 + x) / (2.0 * x * slope - n * (n + 1) * p1)
            else:
                step = p1 / slope
            x -= step
            if abs(step) <= 1e-16:
                break
        roots.append((x, p1, slope))
    return roots


# (x, w) for the nodes x > 0 on [-1, 1] of the 12-point Gauss rule, w = 2 / ((1 - x^2) P_12'(x)^2),
# and of the 14-point Lobatto rule, whose inner nodes are the roots of P_13', with w = 2 / (182
# P_13(x)^2), and whose ends +-1 weigh 2/182.  Of the pairs 8/10, 10/12, 12/14, 15/17 and 20/22,
# this one integrated the angles of a ``verify`` pass fastest.
_GAUSS = tuple((x, 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)) for x, _, slope in legendre_roots(12))
_LOBATTO_END = 2.0 / 182
_LOBATTO = tuple((x, _LOBATTO_END / (p * p)) for x, p, _ in legendre_roots(13, True))
# in eps: one rule sum (7 products, 13 sums of positive terms, the product by h, the weights'
# own few ulps) and the power's rounding
_SUM_ROUNDING = 17


def cosh_power_integral(s: float, p: float, points: Sequence[float]) -> tuple[float, float]:
    """(value, bound) of the integral of (s cosh u)^p over [points[-1], points[0]],
    for 0 < s <= 1, p >= 0 and cut points falling from points[0] >= 0.

    Panels are taken from points[0], the integrand's peak, outward.  On each,
    the 12-point Gauss sum G lies below the integral and the 14-point Lobatto
    sum L above it; the panel is accepted when L - G <= ``TOLERANCE`` (value
    so far + G) and bisected otherwise, so that panels holding a negligible
    share of the integral are not refined.  The value is the sum of (G + L)/2.

    The bound is the sum of |L - G|/2 plus a rounding allowance (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3 and 4), with
    cosh and the power each within an ulp.  With a = points[0] >= u, the node
    c +- h x is within 1.5 a eps (the rounding of x, c, h x and the sum), which
    the slope p tanh u <= p of log f turns into 1.5 a p eps relative; cosh and
    the product by s put 1.5 eps on the power's argument, which the power
    multiplies by p.  The power itself and each rule sum of positive terms are
    within ``_SUM_ROUNDING`` eps, and the running sum within k eps over k
    panels: (1.5 (1 + a) p + ``_SUM_ROUNDING`` + k) eps value in all.

    Raises ToleranceNotMetError, with the value and bound of one pass over
    what is left, when a panel narrows to a few ulps without closing its gap.
    """
    cosh = math.cosh
    end, gauss, lobatto, tolerance = _LOBATTO_END, _GAUSS, _LOBATTO, TOLERANCE
    narrowest = 4.0 * math.ulp(points[0])
    refused = ""
    value = gap = 0.0
    panels = 0
    stack = list(zip(points[1:], points))[::-1]  # the panel nearest the peak last
    while stack:
        lo, hi = stack.pop()
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        g = 0.0
        for x, w in gauss:
            g += w * ((s * cosh(c - h * x)) ** p + (s * cosh(c + h * x)) ** p)
        l = end * ((s * cosh(lo)) ** p + (s * cosh(hi)) ** p)
        for x, w in lobatto:
            l += w * ((s * cosh(c - h * x)) ** p + (s * cosh(c + h * x)) ** p)
        g *= h
        l *= h
        if l - g <= tolerance * (value + g) or refused:
            value += 0.5 * (g + l)
            gap += 0.5 * abs(l - g)
            panels += 1
        elif h > narrowest:
            stack += ((lo, c), (c, hi))
        else:  # what is left is accepted in one pass each, for the estimate the refusal carries
            refused = f"[{lo!r}, {hi!r}]"
            stack.append((lo, hi))
    allowance = 1.5 * (1.0 + points[0]) * p + _SUM_ROUNDING + panels
    bound = gap + allowance * sys.float_info.epsilon * value
    if refused:
        raise ToleranceNotMetError(
            f"tolerance {TOLERANCE} not met on the panel {refused} (bound {bound:.3g})", value, bound)
    return value, bound
