"""The ``quadrature`` route: the defining integral of the kernel, enclosed between
two quadrature rules, in one function (``kernel_integral``).

On [0, u0] every derivative of (s cosh u)^p is >= 0 (it is a positive
combination of e^(+-ku)), so on each panel an n-point Gauss-Legendre sum lies
below the integral and an m-point Lobatto sum above it: their errors are
positive multiples of f^(2n) and negative multiples of f^(2m-2) at an interior
point (Davis and Rabinowitz, *Methods of Numerical Integration*, 2nd ed.,
1984; Abramowitz and Stegun section 25.4).
"""

from __future__ import annotations

import math

from .kernel import _EPS, ToleranceNotMetError, _shared_rounding

__all__ = ["TOLERANCE", "legendre_roots", "kernel_integral"]

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


def kernel_integral(d: int, c: float, s: float) -> tuple[float, float]:
    """The ``quadrature`` route: (K_d, bound) from c = cos theta and s = sin theta.

    With u = asinh(cot x), dx / sin x = -du and sin x = sech u, so K_d is the integral
    from 0 to u0 = |asinh(c/s)| of (s cosh u)^(d-2) du, with the sign of c.  The integrand
    is at most 1 and rises to 1 at u0 over a width of about 1/(d-2); the interval is cut
    at u0 - 2^k/(d-2) while that step is below u0/16, so that no piece hides the peak.
    Panels are taken from u0 outward.  On each, the Gauss sum G lies below the integral
    and the Lobatto sum L above it; the panel is accepted when L - G <= ``TOLERANCE``
    (value so far + G), so that panels holding a negligible share are not refined, and
    bisected otherwise.  The value is sum (G + L)/2.

    The bound is the sum of |L - G|/2 plus a rounding allowance (Higham 2002, ch. 3
    and 4), with cosh and the power each within an ulp.  A node m +- h x is within
    1.5 u0 eps, which the slope (d-2) tanh u <= d-2 of log f turns into 1.5 u0 (d-2) eps
    relative; cosh and the product by s put 1.5 eps on the power's argument, times d-2.
    The power and each rule sum are within ``_SUM_ROUNDING`` eps, and the running sum
    within k eps over k panels: (1.5 (1 + u0) (d-2) + ``_SUM_ROUNDING`` + k) eps value.
    Last comes the rounding of u0, (|c|/2 + u0) eps <= 1.5 u0 eps (c/s and asinh),
    times the integrand there, 1.

    Raises ToleranceNotMetError when a panel narrows to a few ulps without closing its
    gap, with the signed value and the whole bound (``kernel._shared_rounding`` too)
    of one pass over what is left.
    """
    u0 = abs(math.asinh(c / s))
    points = [u0]
    step = 1.0
    while step < (d - 2) * u0 / 16.0:
        points.append(u0 - step / (d - 2))
        step *= 2.0
    points.append(0.0)
    cosh, p = math.cosh, d - 2.0
    end, gauss, lobatto, tolerance = _LOBATTO_END, _GAUSS, _LOBATTO, TOLERANCE
    narrowest = 4.0 * math.ulp(u0)
    refused = ""
    value = gap = 0.0
    panels = 0
    stack = list(zip(points[1:], points))[::-1]  # the panel nearest the peak last
    while stack:
        lo, hi = stack.pop()
        m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        g = 0.0
        for x, w in gauss:
            g += w * ((s * cosh(m - h * x)) ** p + (s * cosh(m + h * x)) ** p)
        l = end * ((s * cosh(lo)) ** p + (s * cosh(hi)) ** p)
        for x, w in lobatto:
            l += w * ((s * cosh(m - h * x)) ** p + (s * cosh(m + h * x)) ** p)
        g *= h
        l *= h
        if l - g <= tolerance * (value + g) or refused:
            value += 0.5 * (g + l)
            gap += 0.5 * abs(l - g)
            panels += 1
        elif h > narrowest:
            stack += ((lo, m), (m, hi))
        else:  # what is left is accepted in one pass each, for the estimate the refusal carries
            refused = f"[{lo!r}, {hi!r}]"
            stack.append((lo, hi))
    allowance = 1.5 * (1.0 + u0) * p + _SUM_ROUNDING + panels
    bound = gap + allowance * _EPS * value
    endpoint = 1.5 * u0 * _EPS
    if refused:
        bound += endpoint + _shared_rounding(d) * value
        raise ToleranceNotMetError(f"tolerance {TOLERANCE} not met on the panel {refused} "
                                   f"(bound {bound:.3g})", math.copysign(value, c), bound)
    return math.copysign(value, c), bound + endpoint
