"""Every route's kernel against the 40-digit reference, within the bound it reports.

The grid covers d = 2..60 and a few large d of both parities, at angles near
both poles, near pi/2, on each side of ``_FERRERS_SWITCH`` (where the Ferrers
route changes from the finite sum to the Gauss series) and at
cos^2 theta = ``SERIES_WINDOW``, and at theta = 0.142 and 0.2436, where the
direct series sums 1690 terms at d = 6 and 453 at d = 2, each mirrored.
A series route may refuse (``SeriesWindowError``, or ``NonConvergenceError``
where its series overflows); a value it does return must hold its bound.
"""

import math
import time

import pytest

from sphgreen.kernel import (
    _FERRERS_SWITCH,
    SERIES_WINDOW,
    Representation,
    SeriesWindowError,
    _finite_sum_table,
    radial_kernel,
)
from sphgreen.specfun import NonConvergenceError

DIMENSIONS = [*range(2, 61), 100, 101, 200, 1000, 3000, 3001]
_SWITCH = math.acos(math.sqrt(_FERRERS_SWITCH))
_NORTH = [1e-12, 1e-6, 0.142, 0.2436, _SWITCH - 1e-9, _SWITCH + 1e-9,
          math.acos(math.sqrt(SERIES_WINDOW)), math.pi / 2 - 1e-9]
ANGLES = _NORTH + [math.pi - t for t in _NORTH]

ROUTES = {
    "quadrature": Representation.QUADRATURE,
    "finite_sum": Representation.FINITE_SUM,
    "recurrence": Representation.RECURRENCE,
    "ferrers": Representation.FERRERS_Q,
    "hyp2f1": Representation.HYP2F1,
    "hyp2f1_euler": Representation.HYP2F1_EULER,
}
# the routes valid on all of (0, pi) never refuse
REFUSALS = {"quadrature": (), "finite_sum": (), "recurrence": (),
            "ferrers": NonConvergenceError,
            "hyp2f1": (SeriesWindowError, NonConvergenceError),
            "hyp2f1_euler": (SeriesWindowError, NonConvergenceError)}
# the series routes, which refuse outside their window
SERIES = ("hyp2f1", "hyp2f1_euler")

_references = {}


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize("route", list(ROUTES))
def test_within_reported_error(route, d, kernel_reference):
    kept = 0
    for theta in ANGLES:
        if (d, theta) not in _references:
            _references[d, theta] = kernel_reference(d, theta)
        want = _references[d, theta]
        try:
            kv = radial_kernel(d, theta, ROUTES[route])
        except REFUSALS[route]:
            continue
        kept += 1
        assert abs(kv.kernel - want) <= kv.kernel_error + 4.0 * math.ulp(want), (theta, kv, want)
    # a route that refused everywhere would test nothing
    assert kept >= (2 if route in SERIES else len(ANGLES) - 2)


def test_euler_refuses_where_the_series_cancels():
    # 2F1(1, -98.5; 3/2; 0.913) sums to -3.3e9 from 102 terms whose magnitudes sum to 7.1e26
    with pytest.raises(SeriesWindowError, match="hyp2f1_euler"):
        radial_kernel(200, 0.3, Representation.HYP2F1_EULER)
    kv = radial_kernel(20, 0.3, Representation.HYP2F1_EULER)
    assert 0.0 < kv.kernel_error <= 1e-9 * abs(kv.kernel)


@pytest.mark.parametrize("d", [100000, 100001])
def test_cold_large_d_is_fast(d):
    # the coefficient table is O(d) float products, no big integers
    _finite_sum_table.cache_clear()
    start = time.perf_counter()
    kv = radial_kernel(d, 1.0, Representation.FINITE_SUM)
    assert time.perf_counter() - start < 1.0
    want = radial_kernel(d, 1.0, Representation.RECURRENCE)
    assert abs(kv.kernel - want.kernel) <= kv.kernel_error + want.kernel_error
