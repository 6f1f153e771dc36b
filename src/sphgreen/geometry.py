"""Points on the d-dimensional radius-R hypersphere.

Standard hyperspherical coordinates, ambient (d+1)-space embedding,
separation angle between directions, geodesic distance and the volume-measure
weight.

Direction-angle convention: a point of the unit direction sphere S^{d-1} is
held as the tuple (alpha_1, alpha_2, ..., alpha_{d-1}) where alpha_1 = phi in
[0, 2pi) is the azimuth and alpha_2..alpha_{d-1} in [0, pi] are the polar-type
angles, innermost first.  The embedding consumes them outermost-in (the last
entry produces the leading Cartesian component after x0), and the
separation-angle product formula enumerates them in that same outermost-first
order.

Only the embeddings build arrays: ``_embed_rows`` embeds many points at once,
and ``embed`` wraps it for one.  It imports NumPy when first called, so the
rest of the module, ``geodesic_distance`` included, runs on the standard
library alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .kernel import _check_dimension, _check_radius, _pair_product, _power, _scaled

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HyperPoint",
    "embed",
    "separation_angle",
    "geodesic_distance",
    "volume_weight",
]

_TWO_PI = 2.0 * math.pi


def _clamped_acos(x: float) -> float:
    # floating drift at near-coincident/antipodal points pushes |x| past 1
    return math.acos(min(1.0, max(-1.0, x)))


class HyperPoint(namedtuple("HyperPoint", "dimension radius polar direction")):
    """A point of the dimension-d, radius-R hypersphere.

    ``polar`` is the geodesic angle theta in [0, pi] from the origin
    (R, 0, ..., 0); ``direction`` holds the d-1 direction angles described in
    the module docstring, as a tuple of floats.
    """

    __slots__ = ()

    def __new__(cls, dimension: int, radius: float, polar: float,
                direction: tuple[float, ...]):
        _check_dimension(dimension)
        _check_radius(radius)
        if not 0.0 <= polar <= math.pi:
            raise ValueError(f"polar angle must lie in [0, pi], got {polar}")
        self = super().__new__(cls, int(dimension), float(radius), float(polar),
                               tuple(float(a) for a in direction))
        self.__post_init__()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __post_init__(self):
        """The direction checks, run once per construction by ``__new__``."""
        direction = self.direction
        if len(direction) != self.dimension - 1:
            raise ValueError(
                f"need {self.dimension - 1} direction angles, got {len(direction)}")
        if not 0.0 <= direction[0] < _TWO_PI:
            raise ValueError(f"azimuth must lie in [0, 2pi), got {direction[0]}")
        for a in direction[1:]:
            if not 0.0 <= a <= math.pi:
                raise ValueError(f"direction angle must lie in [0, pi], got {a}")


def _embed_rows(radius, polar, direction) -> np.ndarray:
    """Ambient coordinates of n points as an (n, d+1) array.

    ``radius`` and ``polar`` hold one value per point (shape (n,)) and
    ``direction`` one row of d-1 direction angles per point.  Column 0 is
    R cos(theta); the rest is R sin(theta) times the direction unit vector,
    whose entries take the direction angles outermost first.
    """
    import numpy as np

    direction = np.asarray(direction, dtype=float)
    n, k = direction.shape
    out = np.empty((n, k + 2))
    out[:, 0] = radius * np.cos(polar)
    sin_prod = np.ones(n)
    for i in range(k - 1):
        ang = direction[:, k - 1 - i]
        out[:, i + 1] = sin_prod * np.cos(ang)
        sin_prod = sin_prod * np.sin(ang)
    out[:, k] = sin_prod * np.cos(direction[:, 0])
    out[:, k + 1] = sin_prod * np.sin(direction[:, 0])
    out[:, 1:] *= (radius * np.sin(polar)).reshape(n, 1)
    return out


def embed(p: HyperPoint) -> np.ndarray:
    """Cartesian coordinates (x0, ..., xd) in the ambient Euclidean space.

    x0 = R cos(theta) and the remaining block is R sin(theta) times the
    direction unit vector, so (x, x) = R^2.
    """
    return _embed_rows(p.radius, p.polar, [p.direction])[0]


def separation_angle(u: tuple[float, ...], v: tuple[float, ...]) -> float:
    """Angle gamma in [0, pi] between two directions on the same S^{d-1}.

    Product formula: cos(gamma) accumulates cos*cos terms weighted by the
    running product of outer sines, plus cos(phi - phi') times the full sine
    product.  For d = 2 it degenerates to cos(gamma) = cos(phi - phi').
    """
    if len(u) != len(v):
        raise ValueError(f"direction lists differ in length: {len(u)} vs {len(v)}")
    if len(u) < 1:
        raise ValueError("need at least the azimuth angle")
    cos_g, sin_prod = 0.0, 1.0
    try:
        for a, b in zip(reversed(u[1:]), reversed(v[1:])):
            cos_g += math.cos(a) * math.cos(b) * sin_prod
            sin_prod *= math.sin(a) * math.sin(b)
        cos_g += math.cos(u[0] - v[0]) * sin_prod
    except ValueError:  # math.cos of an infinite angle
        cos_g = math.nan
    if math.isnan(cos_g):  # a NaN angle, which the clamp would turn into pi
        raise ValueError(f"direction angles must be finite, got {u} and {v}")
    return _clamped_acos(cos_g)


def geodesic_distance(x: HyperPoint, xp: HyperPoint) -> float:
    """Geodesic distance R * arccos(cos t cos t' + sin t sin t' cos gamma)."""
    if x.dimension != xp.dimension:
        raise ValueError("points live on spheres of different dimension")
    if x.radius != xp.radius:
        raise ValueError("points live on spheres of different radius")
    gamma = separation_angle(x.direction, xp.direction)
    inner = (math.cos(x.polar) * math.cos(xp.polar)
             + math.sin(x.polar) * math.sin(xp.polar) * math.cos(gamma))
    return x.radius * _clamped_acos(inner)


def volume_weight(p: HyperPoint) -> float:
    """Density of the volume measure w.r.t. the coordinate differentials.

    R^d sin^{d-1}(theta) times sin^{k-1}(alpha_k) for k = 2..d-1; the azimuth
    carries no weight.  The factors are (mantissa, exponent) pairs rounded
    once, so the weight holds at any d and R.
    """
    d = p.dimension
    factors = [_power(p.radius, d), _power(math.sin(p.polar), d - 1)]
    factors += (_power(math.sin(ang), k - 1) for k, ang in enumerate(p.direction[1:], start=2))
    return _scaled(1.0, _pair_product(factors))
