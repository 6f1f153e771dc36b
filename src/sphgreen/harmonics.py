"""Radial solutions of the separated Laplace equation on the hypersphere.

The four formal radial solutions sin^{1-d/2}(theta) {P,Q}_{d/2-1}^{+/-(d/2-1+l)},
the angular Laplacian eigenvalue and the degeneracy count for each angular
quantum number l.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .kernel import _check_dimension, _check_integer
from .specfun import FerrersOrderDegree, ferrers_p, ferrers_q

__all__ = [
    "RadialSolutionKind",
    "QuantumNumbers",
    "DegenerateBranchError",
    "radial_harmonic",
    "ode_residual",
    "ode_convergence_order",
    "angular_eigenvalue",
    "degeneracy",
]

# a radial branch whose magnitude stays below this over the probe interval is
# treated as identically zero (degenerate integer-parameter combination)
DEGENERATE_FLOOR = 1e-8


class DegenerateBranchError(ArithmeticError):
    """Skip-signal: the selected branch is identically (near-)zero."""


class RadialSolutionKind(enum.Enum):
    U1_PLUS = "u1+"
    U1_MINUS = "u1-"
    U2_PLUS = "u2+"
    U2_MINUS = "u2-"

    @property
    def second_kind(self) -> bool:
        return self in (RadialSolutionKind.U2_PLUS, RadialSolutionKind.U2_MINUS)

    @property
    def order_sign(self) -> int:
        return 1 if self in (RadialSolutionKind.U1_PLUS, RadialSolutionKind.U2_PLUS) else -1


class QuantumNumbers(namedtuple("QuantumNumbers", "dimension angular")):
    """Dimension d >= 2 and angular quantum number l >= 0, both integers."""

    __slots__ = ()

    def __new__(cls, dimension: int, angular: int):
        _check_dimension(dimension)
        _check_integer(angular, "angular number", 0)
        return super().__new__(cls, dimension, angular)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def radial_harmonic(q: QuantumNumbers, kind: RadialSolutionKind, theta: float) -> float:
    """sin^{1-d/2}(theta) times the selected Ferrers function of cos(theta).

    Degree is d/2 - 1 and order is +/-(d/2 - 1 + l).  Minus-order branches
    with l >= 1 fall outside the Ferrers parameter domain (degree + order is
    then a negative integer) and raise ValueError.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"polar angle must lie in (0, pi), got {theta}")
    d, l = q.dimension, q.angular
    nu = d / 2.0 - 1.0
    mu = kind.order_sign * (nu + l)
    pd = FerrersOrderDegree(nu, mu, math.cos(theta))
    f = ferrers_q if kind.second_kind else ferrers_p
    return math.sin(theta) ** (1.0 - d / 2.0) * f(pd)


def angular_eigenvalue(q: QuantumNumbers) -> float:
    """Eigenvalue -l(l + d - 2) of the direction-sphere Laplacian."""
    return -float(q.angular * (q.angular + q.dimension - 2))


def degeneracy(q: QuantumNumbers) -> int:
    """Number of linearly independent angular harmonics for this l and d.

    (2l + d - 2)(d - 3 + l)! / (l! (d - 2)!); the circle (d = 2) is handled
    by its continuation values 1 (l = 0) and 2 (l >= 1).
    """
    d, l = q.dimension, q.angular
    if d == 2:
        return 1 if l == 0 else 2
    return (2 * l + d - 2) * math.factorial(d - 3 + l) // (
        math.factorial(l) * math.factorial(d - 2))


def ode_residual(q: QuantumNumbers, kind: RadialSolutionKind, theta: float, h: float) -> float:
    """Central-difference residual of u'' + (d-1) cot u' - l(l+d-2)/sin^2 u.

    Raises DegenerateBranchError when the branch magnitude over
    [theta-h, theta+h] is below the degeneracy floor.
    """
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if not (0.0 < theta - h and theta + h < math.pi):
        raise ValueError(f"[theta-h, theta+h] must stay inside (0, pi)")
    d, l = q.dimension, q.angular
    up = radial_harmonic(q, kind, theta + h)
    u0 = radial_harmonic(q, kind, theta)
    um = radial_harmonic(q, kind, theta - h)
    if max(abs(up), abs(u0), abs(um)) < DEGENERATE_FLOOR:
        raise DegenerateBranchError(
            f"branch {kind.value} at d={d}, l={l} is identically small")
    second = (up - 2.0 * u0 + um) / (h * h)
    first = (up - um) / (2.0 * h)
    return (second + (d - 1) * first / math.tan(theta)
            - l * (l + d - 2) * u0 / math.sin(theta) ** 2)


def ode_convergence_order(q: QuantumNumbers, kind: RadialSolutionKind, theta: float):
    """log2 ratio of residuals at steps 0.01 and 0.005; expected 2 for true solutions.

    Returns None when both residuals sit at the rounding floor (the operator
    annihilates the branch to machine precision, e.g. the constant solutions),
    in which case there is no truncation error left to measure.
    """
    r1 = abs(ode_residual(q, kind, theta, 1e-2))
    r2 = abs(ode_residual(q, kind, theta, 5e-3))
    scale = max(1.0, abs(radial_harmonic(q, kind, theta)))
    if max(r1, r2) <= 1e-9 * scale:
        return None
    return math.log2(r1 / r2)
