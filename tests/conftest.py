"""40-digit mpmath references shared by the test modules."""

import math
import sys

import pytest


def _kernel_mp(d, theta):
    """(I_d(theta), sin theta) at the working precision.

    Climbs the antiderivative recurrence J_m = cos/((m-1) sin^{m-1}) +
    (m-2)/(m-1) J_{m-2} from J_0 = pi/2 - theta or J_1 = log cot(theta/2);
    every term shares the sign of cos(theta), so nothing cancels.
    """
    from mpmath import mp, mpf

    t = mpf(theta)
    c, s = mp.cos(t), mp.sin(t)
    j, start = (mp.pi / 2 - t, 0) if d % 2 else (mp.log(mp.cot(t / 2)), 1)
    for k in range(start + 2, d, 2):
        j = c / ((k - 1) * s ** (k - 1)) + mpf(k - 2) / (k - 1) * j
    return j, s


@pytest.fixture
def kernel_reference():
    """K_d(theta) = sin^{d-2}(theta) I_d(theta), rounded to double."""
    from mpmath import mp

    def reference(d, theta):
        with mp.workdps(40):
            j, s = _kernel_mp(d, theta)
            return float(s ** (d - 2) * j)

    return reference


@pytest.fixture
def log_cot_half():
    """log cot(theta/2), the d = 2 kernel, at 40 digits and rounded to double."""
    from mpmath import mp, mpf

    def reference(theta):
        with mp.workdps(40):
            return float(mp.log(mp.cot(mpf(theta) / 2)))

    return reference


@pytest.fixture
def solution_reference():
    """Gamma(d/2) / (2 pi^{d/2} R^{d-2}) I_d(theta), rounded to double (+-inf past range)."""
    from mpmath import mp, mpf

    def reference(d, radius, theta):
        with mp.workdps(40):
            half = mpf(d) / 2
            j, _ = _kernel_mp(d, theta)
            return float(mp.gamma(half) / (2 * mp.pi**half * mpf(radius) ** (d - 2)) * j)

    return reference


@pytest.fixture
def mp_integral():
    """The integral of f over [a, b] by mpmath's tanh-sinh rule at 30 digits, rounded
    to double; f takes and returns mpmath numbers."""
    from mpmath import mp

    def integral(f, a, b):
        with mp.workdps(30):
            return float(mp.quad(f, [a, b]))

    return integral


def assert_nearest(got, want, rel=1e-13):
    """``got`` is ``want`` to ``rel``, or exactly ``want`` where that is +-inf or subnormal."""
    if math.isinf(want) or abs(want) < sys.float_info.min:
        assert got == want
    else:
        assert abs(got - want) <= rel * abs(want), (got, want)


@pytest.fixture
def nearest():
    return assert_nearest
