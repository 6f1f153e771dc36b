"""Adaptive one-dimensional quadrature with an embedded error estimate.

Thin contract layer over QUADPACK's globally adaptive Gauss-Kronrod scheme:
nodes are strictly interior, so integrands may blow up at the interval
endpoints as long as the integral exists.  The accuracy is fixed: absolute
and relative tolerance ``TOLERANCE`` within ``MAX_SUBDIVISIONS`` subintervals.
SciPy is imported on the first call of ``integrate``, so importing this
module costs only the standard library.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["TOLERANCE", "MAX_SUBDIVISIONS", "ToleranceNotMetError", "integrate"]

TOLERANCE = 1e-11
MAX_SUBDIVISIONS = 200


class ToleranceNotMetError(ArithmeticError):
    """Requested accuracy not reached; carries the best available estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def integrate(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Integrate f over (a, b); returns (value, error estimate).

    Raises ToleranceNotMetError when the subdivision budget is exhausted
    before ``TOLERANCE`` is met.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=TOLERANCE, epsrel=TOLERANCE,
               limit=MAX_SUBDIVISIONS, full_output=True)
    value, estimate = out[0], out[1]
    if len(out) > 3:
        raise ToleranceNotMetError(str(out[3]), value, estimate)
    return value, estimate
