"""Adaptive one-dimensional quadrature with an embedded error estimate.

Globally adaptive Gauss-Kronrod quadrature in pure Python: QUADPACK's
21-point rule QK21 with its error scaling (Piessens et al., *QUADPACK*,
1983).  Each subinterval is integrated by the 21-point Kronrod rule K21,
whose ten Gauss nodes give the embedded 10-point Gauss rule G10.  The error
of a subinterval is QUADPACK's resasc * min(1, (200 |K21 - G10| / resasc)^1.5),
floored at 50 eps resabs, where resabs and resasc are the K21 integrals of
|f| and of |f - mean f|.  The subintervals wait in a heap ordered by error,
and the worst one is bisected until the sum of the errors is at most
max(TOLERANCE, TOLERANCE |value|), within ``MAX_SUBDIVISIONS`` subintervals.
There is no extrapolation.  Nodes are strictly interior, so integrands may
blow up at the interval endpoints as long as the integral exists.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

__all__ = ["TOLERANCE", "MAX_SUBDIVISIONS", "ToleranceNotMetError", "integrate"]

TOLERANCE = 1e-11
MAX_SUBDIVISIONS = 200

# QUADPACK qk21: xgk are the Kronrod abscissae on [0, 1], wgk their weights;
# xgk[1], xgk[3], ..., xgk[9] are the nodes of the 10-point Gauss rule, with
# the weights wg.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# The ten nodes +-x of K21 off the centre as (x, Kronrod weight, Gauss
# weight) triples; the Gauss weight is 0.0 where only K21 uses the node.
_RULE = tuple((x, wk, _WG[i // 2] if i % 2 else 0.0)
              for i, (x, wk) in enumerate(zip(_XGK[:10], _WGK)))
_CENTER_WEIGHT = _WGK[10]


class ToleranceNotMetError(ArithmeticError):
    """Requested accuracy not reached; carries the best available estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(K21, QUADPACK's error estimate) of the integral of f over [a, b]."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(center)
    kronrod = _CENTER_WEIGHT * fc
    gauss = 0.0
    resabs = abs(kronrod)
    samples = []
    for x, wk, wg in _RULE:
        dx = half * x
        y1 = f(center - dx)
        y2 = f(center + dx)
        samples.append((wk, y1, y2))
        pair = y1 + y2
        kronrod += wk * pair
        gauss += wg * pair
        resabs += wk * (abs(y1) + abs(y2))
    mean = 0.5 * kronrod
    resasc = _CENTER_WEIGHT * abs(fc - mean)
    for wk, y1, y2 in samples:
        resasc += wk * (abs(y1 - mean) + abs(y2 - mean))
    resasc *= half
    error = abs((kronrod - gauss) * half)
    if resasc and error:
        error = resasc * min(1.0, (200.0 * error / resasc) ** 1.5)
    return kronrod * half, max(error, 50.0 * sys.float_info.epsilon * resabs * half)


def integrate(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Integrate f over (a, b); returns (value, error estimate).

    Raises ToleranceNotMetError when the subdivision budget is exhausted
    before ``TOLERANCE`` is met.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    value, estimate = _qk21(f, a, b)
    heap = [(-estimate, a, b, value)]
    while not estimate <= max(TOLERANCE, TOLERANCE * abs(value)):
        if len(heap) >= MAX_SUBDIVISIONS:
            raise ToleranceNotMetError(
                f"tolerance {TOLERANCE} not met in {MAX_SUBDIVISIONS} subintervals "
                f"(error estimate {estimate:.3g})", value, estimate)
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for left, right in ((lo, mid), (mid, hi)):
            piece, error = _qk21(f, left, right)
            heapq.heappush(heap, (-error, left, right, piece))
        estimate = math.fsum(-e for e, _, _, _ in heap)
        value = math.fsum(v for _, _, _, v in heap)
    return value, estimate
