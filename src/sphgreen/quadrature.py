"""Adaptive one-dimensional quadrature with an embedded error estimate.

Thin contract layer over QUADPACK's globally adaptive Gauss-Kronrod scheme:
nodes are strictly interior, so integrands may blow up at the interval
endpoints as long as the integral exists.  SciPy is imported on the first
call of ``integrate``, so importing this module costs only the standard
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["QuadratureSpec", "ToleranceNotMetError", "DEFAULT_QUADRATURE", "integrate"]


class ToleranceNotMetError(ArithmeticError):
    """Requested accuracy not reached; carries the best available estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate(f: Callable[[float], float], a: float, b: float,
              spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """Integrate f over (a, b); returns (value, error estimate).

    Raises ToleranceNotMetError when the adaptive subdivision budget is
    exhausted before the requested tolerance is met.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    from scipy.integrate import quad

    out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=True)
    value, estimate = out[0], out[1]
    if len(out) > 3:
        raise ToleranceNotMetError(str(out[3]), value, estimate)
    return value, estimate
