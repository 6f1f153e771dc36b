"""Radial solutions of the separated Laplace equation on the hypersphere.

The four formal radial solutions sin^{1-d/2}(theta) {P,Q}_{d/2-1}^{+/-(d/2-1+l)}
for each angular quantum number l, whose angular Laplacian eigenvalue is
-l(l+d-2), and the central-difference radial operator whose convergence order
checks these solutions and the fundamental solution.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple

from .kernel import _check_dimension, _check_integer
from .specfun import _ferrers_blocks, _two_term_sum

__all__ = [
    "RadialSolutionKind",
    "QuantumNumbers",
    "DegenerateBranchError",
    "radial_harmonic",
    "ode_convergence_order",
]


class DegenerateBranchError(ArithmeticError):
    """Skip-signal: the selected branch is identically zero."""


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
    then a negative integer) and raise ValueError, as does an angle whose
    cosine rounds to +-1.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError(f"polar angle must lie in (0, pi), got {theta}")
    x = math.cos(theta)
    if not -1.0 < x < 1.0:
        raise ValueError(f"cos(theta) rounds to {x} at theta={theta}; "
                         "the Ferrers functions need it inside (-1, 1)")
    blocks, mu, power = _branch(q, kind)
    return math.sin(theta) ** power * _two_term_sum(blocks, mu, x)


@functools.lru_cache(maxsize=256)
def _branch(q: QuantumNumbers, kind: RadialSolutionKind):
    """All of ``radial_harmonic`` that theta leaves alone: the Ferrers blocks of degree
    nu = d/2 - 1 and order mu = +/-(nu + l) (checked there), mu and the power 1 - d/2."""
    nu = q.dimension / 2.0 - 1.0
    mu = kind.order_sign * (nu + q.angular)
    return _ferrers_blocks(kind.second_kind, nu, mu), mu, 1.0 - q.dimension / 2.0


def _radial_residual(d: int, l: int, theta: float, h: float,
                     up: float, u0: float, um: float) -> tuple[float, float]:
    """u'' + (d-1) cot u' - l(l+d-2) u / sin^2 at theta by central differences from
    up, u0, um = u(theta + h), u(theta), u(theta - h), and its rounding floor.

    Raises DegenerateBranchError where all three are exactly 0.0 (a pole of
    1/Gamma or a skipped block of the Ferrers sum): no residual is left to measure.
    """
    if up == u0 == um == 0.0:
        raise DegenerateBranchError(f"u is exactly 0.0 at d={d}, l={l}, theta={theta} +/- {h}")
    residual = ((up - 2.0 * u0 + um) / (h * h) + (d - 1) * (up - um) / (2.0 * h * math.tan(theta))
                - l * (l + d - 2) * u0 / math.sin(theta) ** 2)
    return residual, 2.0**-42 * (abs(up) + 2.0 * abs(u0) + abs(um)) / (h * h)  # 2^10 eps


def convergence_order(u, d: int, l: int, theta: float):
    """log2 of the ratio of the ``_radial_residual``s of u at steps h and h/2, with
    h = min(theta, pi - theta) / (4d): 2 for a solution of the radial equation.

    The truncation grows like (d h / theta)^2, so this h keeps it small at every d.
    Both steps share u(theta): five samples.  None where both residuals sit at
    their rounding floors (u is annihilated to rounding, e.g. a constant).
    """
    u0 = u(theta)
    h = min(theta, math.pi - theta) / (4 * d)
    (r1, floor1), (r2, floor2) = (_radial_residual(d, l, theta, s, u(theta + s), u0,
                                                   u(theta - s)) for s in (h, 0.5 * h))
    if abs(r1) <= floor1 and abs(r2) <= floor2:
        return None
    return math.log2(abs(r1 / r2))


def ode_convergence_order(q: QuantumNumbers, kind: RadialSolutionKind, theta: float):
    """``convergence_order`` of the branch: 2, or None for the constant solutions;
    DegenerateBranchError where the branch is exactly 0.0 at theta and its neighbours."""
    return convergence_order(functools.partial(radial_harmonic, q, kind), *q, theta)
