import functools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphgreen.kernel import (
    _FERRERS_SWITCH,
    _REFUSALS,
    SERIES_WINDOW,
    THETA_EDGE,
    Representation,
    SeriesWindowError,
    _kernel_rows,
    _scaled,
    euclidean_fundamental,
    fundamental_solution,
    radial_kernel,
    solution_scale,
)
from sphgreen.oracle import _finite_sum_cot
from sphgreen.quadrature import ToleranceNotMetError
from sphgreen.specfun import NonConvergenceError

# 20 angles away from the poles, on both sides of the equator
THETA_GRID = np.linspace(0.3, math.pi - 0.3, 20)


def closed_form(d, theta, lch):
    """The explicit low-dimension kernels, transcribed independently; lch = log cot(theta/2)."""
    c, s = math.cos(theta), math.sin(theta)
    cot = c / s
    return {
        2: lch,
        3: cot,
        4: 0.5 * lch + c / (2.0 * s**2),
        5: cot + cot**3 / 3.0,
        6: 3.0 / 8.0 * lch + 3.0 * c / (8.0 * s**2) + c / (4.0 * s**4),
        7: cot + 2.0 / 3.0 * cot**3 + cot**5 / 5.0,
    }[d]


# near both poles, near pi/2 and at 1.0 (mirrored in the test)
QUADRATURE_ANGLES = [1e-12, 1e-6, 0.013, 1.0, math.pi / 2 - 1e-9]


class TestQuadratureRoute:
    def test_equator_matches_finite_sum(self):
        # math.pi / 2 lies below pi/2, so I_d there is cos(math.pi / 2) =
        # 6.1e-17 to first order, not 0.0
        for d in (2, 3, 5, 9, 60):
            kv = radial_kernel(d, math.pi / 2.0, Representation.QUADRATURE)
            want = radial_kernel(d, math.pi / 2.0, Representation.FINITE_SUM).value
            assert want == pytest.approx(math.cos(math.pi / 2.0), rel=1e-12)
            assert abs(kv.value - want) <= kv.est_error + 4.0 * math.ulp(want)

    def test_d3_quarter(self):
        kv = radial_kernel(3, math.pi / 4.0, Representation.QUADRATURE)
        assert kv.value == pytest.approx(1.0, abs=1e-11)

    def test_d4_third(self):
        # closed form evaluated independently: (1/4) ln 3 + 1/3
        expected = 0.25 * math.log(3.0) + 1.0 / 3.0
        kv = radial_kernel(4, math.pi / 3.0, Representation.QUADRATURE)
        assert kv.value == pytest.approx(expected, rel=1e-11)

    def test_signed_past_equator(self):
        kv = radial_kernel(3, 2.0, Representation.QUADRATURE)
        assert kv.value == pytest.approx(math.cos(2.0) / math.sin(2.0), rel=1e-10)

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            radial_kernel(3, 0.0, Representation.QUADRATURE)
        with pytest.raises(ValueError):
            radial_kernel(3, math.pi, Representation.QUADRATURE)

    @pytest.mark.parametrize("d", [4, 60, 1000])
    @pytest.mark.parametrize("theta", [1e-12, 1e-6, math.pi - 1e-6, math.pi - 1e-12])
    def test_near_poles_against_mpmath(self, d, theta, kernel_reference):
        # the integrand peaks at the end of the u-interval, in a width of 1/(d-2)
        kv = radial_kernel(d, theta, Representation.QUADRATURE)
        want = kernel_reference(d, theta)
        assert abs(kv.kernel - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("d", [3, 10, 60, 1000, 3000])
    @pytest.mark.parametrize("theta", QUADRATURE_ANGLES + [math.pi - t for t in QUADRATURE_ANGLES]
                             + [math.pi / 2])
    def test_within_reported_error(self, d, theta, kernel_reference):
        # the estimate covers the rounding of u0 and sin(theta) as well as
        # the integration: at d = 3000, pi - 1e-12 the former is 1e3 times the latter
        kv = radial_kernel(d, theta, Representation.QUADRATURE)
        want = kernel_reference(d, theta)
        assert abs(kv.kernel - want) <= kv.kernel_error + 4.0 * sys.float_info.epsilon * abs(want)


class TestFiniteSumRoute:
    def test_d2_log_cot_half(self, log_cot_half):
        for theta in THETA_GRID:
            assert radial_kernel(2, theta, Representation.FINITE_SUM).value == pytest.approx(
                log_cot_half(theta), rel=1e-14)

    def test_d5_quarter(self):
        kv = radial_kernel(5, math.pi / 4.0, Representation.FINITE_SUM)
        assert kv.value == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_d7_equator(self):
        assert abs(radial_kernel(7, math.pi / 2.0, Representation.FINITE_SUM).value) <= 1e-12

    def test_matches_closed_forms(self, log_cot_half):
        for d in (2, 3, 4, 5, 6, 7):
            for theta in THETA_GRID:
                got = radial_kernel(d, theta, Representation.FINITE_SUM).value
                want = closed_form(d, theta, log_cot_half(theta))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_odd_variants_agree(self):
        for d in (3, 5, 7, 9, 11):
            for theta in THETA_GRID:
                kv = radial_kernel(d, theta, Representation.FINITE_SUM)
                assert kv.est_error <= 1e-12 * max(1.0, abs(kv.value))
                # the paper's other printed variant, kept as an oracle, with its own bound
                value, bound = _finite_sum_cot(d, theta)
                assert abs(value - kv.value) <= 1e-12 * max(1.0, abs(kv.value))
                assert abs(value - kv.value) <= bound + kv.est_error

    @pytest.mark.parametrize("d", [343, 345, 401, 1001])
    def test_large_odd_d_stays_finite(self, d):
        # factorial weights overflow a double from d = 343; double-factorial
        # ratios do not
        got = radial_kernel(d, 1.0, Representation.FINITE_SUM).value
        want = radial_kernel(d, 1.0, Representation.RECURRENCE).value
        assert math.isfinite(want)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestRecurrenceRoute:
    def test_d2_base(self, log_cot_half):
        for theta in (0.4, 1.3, 2.6):
            assert radial_kernel(2, theta, Representation.RECURRENCE).value == pytest.approx(
                log_cot_half(theta), rel=1e-14)

    def test_d3_is_cot(self):
        for theta in (0.4, 1.3, 2.6):
            assert radial_kernel(3, theta, Representation.RECURRENCE).value == pytest.approx(
                math.cos(theta) / math.sin(theta), rel=1e-13)

    def test_d6_equator(self):
        assert abs(radial_kernel(6, math.pi / 2.0, Representation.RECURRENCE).value) <= 1e-12


class TestHypergeometricRoutes:
    def test_equator_vanishes(self):
        for d in (2, 4, 7):
            assert abs(radial_kernel(d, math.pi / 2.0, Representation.HYP2F1).value) <= 1e-12
            assert abs(radial_kernel(d, math.pi / 2.0, Representation.HYP2F1_EULER).value) <= 1e-12

    def test_d3_binomial_reduction(self):
        got = radial_kernel(3, math.pi / 3.0, Representation.HYP2F1).value
        assert got == pytest.approx(1.0 / math.tan(math.pi / 3.0), rel=1e-13)

    def test_d4_matches_quadrature(self):
        reference = radial_kernel(4, math.pi / 3.0, Representation.QUADRATURE).value
        for rep in (Representation.HYP2F1, Representation.HYP2F1_EULER):
            assert radial_kernel(4, math.pi / 3.0, rep).value == pytest.approx(reference, rel=1e-11)

    def test_overflowing_series_is_refused(self):
        # 2F1(1/2, 200; 3/2; cos^2 0.15) overflows although K and S fit
        with pytest.raises(NonConvergenceError, match=r"2F1\(0\.5,200\.0;1\.5;.*\): a partial sum "
                           "left double range"):
            radial_kernel(400, 0.15, Representation.HYP2F1)

    @pytest.mark.parametrize("d, theta", [(1000, 1.0), (2000, 1.2)])
    def test_large_d_within_reported_error(self, d, theta, kernel_reference):
        # sin^(d-2) and 2F1 amplify the rounding of sin and cos^2 by about d - 2
        kv = radial_kernel(d, theta, Representation.HYP2F1)
        want = kernel_reference(d, theta)
        assert abs(kv.kernel - want) <= kv.kernel_error + 4.0 * sys.float_info.epsilon * abs(want)
        assert kv.kernel_error == radial_kernel(d, theta, Representation.FERRERS_Q).kernel_error

    def test_window_enforced(self):
        with pytest.raises(SeriesWindowError):
            radial_kernel(3, 0.05, Representation.HYP2F1)
        with pytest.raises(SeriesWindowError):
            radial_kernel(3, math.pi - 0.05, Representation.HYP2F1_EULER)


class TestFerrersRoute:
    def test_d2_reduces_to_log_cot_half(self, log_cot_half):
        for theta in (0.5, 1.0, 2.0):
            assert radial_kernel(2, theta, Representation.FERRERS_Q).value == pytest.approx(
                log_cot_half(theta), rel=1e-13)

    def test_d3_reduces_to_cot(self):
        for theta in (0.5, 1.0, 2.0):
            assert radial_kernel(3, theta, Representation.FERRERS_Q).value == pytest.approx(
                math.cos(theta) / math.sin(theta), rel=1e-13)

    def test_d4_matches_quadrature(self):
        reference = radial_kernel(4, math.pi / 3.0, Representation.QUADRATURE).value
        kv = radial_kernel(4, math.pi / 3.0, Representation.FERRERS_Q)
        assert kv.value == pytest.approx(reference, rel=1e-10)


    @pytest.mark.parametrize("d", [172, 173, 250])
    def test_large_d_prefactor(self, d):
        # (d-2)! leaves double range from d = 173; Q's factorial prefactor
        # cancels against its gamma factors, so the route never forms it
        want = radial_kernel(d, 1.0, Representation.RECURRENCE).kernel
        got = radial_kernel(d, 1.0, Representation.FERRERS_Q).kernel
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_large_d_solution(self):
        got = fundamental_solution(173, 1.0, 1.0, Representation.FERRERS_Q)
        assert got == pytest.approx(9.355749465546217e+96, rel=1e-13)

    @pytest.mark.parametrize("d, theta", [(343, 1.0), (290, math.pi / 2)])
    def test_evaluates_where_q_underflows(self, d, theta, kernel_reference):
        # Q_{d/2-1}^{1-d/2}(cos theta) lies below the normal double range here,
        # but the route sums the Gauss series that Q reduces to
        kv = radial_kernel(d, theta, Representation.FERRERS_Q)
        want = kernel_reference(d, theta)
        assert abs(kv.kernel - want) <= kv.kernel_error + 4.0 * sys.float_info.epsilon * abs(want)


# near both poles, where the series in cos^2(theta) cannot converge (up to
# 0.02 from a pole), and on both sides of cos^2(theta) = 1/2, where the
# Ferrers route changes series
FERRERS_ANGLES = [1e-12, 1e-6, 0.013, 0.0142, 0.0145, 0.02, 0.05,
                  math.pi / 4 - 1e-9, math.pi / 4 + 1e-9, 1.0]


# the angles of a k pi/200 grid, and 1e-12 and 1e-6 from each pole, where
# cos^2 theta exceeds the switch
SWITCH_ANGLES = [t for t in [1e-12, 1e-6, math.pi - 1e-6, math.pi - 1e-12]
                 + [k * math.pi / 200 for k in range(1, 200)]
                 if math.cos(t) ** 2 > _FERRERS_SWITCH]


@pytest.mark.parametrize("d", [*range(2, 61), 100, 101, 1000, 3001])
def test_ferrers_is_the_finite_sum_above_the_switch(d):
    for theta in SWITCH_ANGLES:
        kv = radial_kernel(d, theta, Representation.FERRERS_Q)
        want = radial_kernel(d, theta, Representation.FINITE_SUM)
        assert (kv.kernel, kv.kernel_error) == (want.kernel, want.kernel_error), theta


class TestFerrersAccuracy:
    """The Ferrers route against the 40-digit reference, both series included."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 40, 60])
    @pytest.mark.parametrize("theta", FERRERS_ANGLES + [math.pi - t for t in FERRERS_ANGLES])
    def test_within_reported_error(self, d, theta, kernel_reference):
        kv = radial_kernel(d, theta, Representation.FERRERS_Q)
        want = kernel_reference(d, theta)
        assert abs(kv.kernel - want) <= kv.kernel_error + 4.0 * sys.float_info.epsilon * abs(want)

    @pytest.mark.parametrize("d", [2, 3, 10, 60])
    def test_continuous_across_the_switch(self, d):
        # the step between the two series is the kernel's own change
        # between the two angles, to rounding
        a, b = math.pi / 4 - 1e-9, math.pi / 4 + 1e-9
        ferrers, recurrence = (
            [radial_kernel(d, t, rep).kernel for t in (a, b)]
            for rep in (Representation.FERRERS_Q, Representation.RECURRENCE))
        step = ferrers[0] - ferrers[1]
        want = recurrence[0] - recurrence[1]
        assert abs(step - want) <= 1e-14 * abs(recurrence[1])

    @pytest.mark.parametrize("d", [172, 173, 250, 343, 400, 1000])
    @pytest.mark.parametrize("theta", [0.1, math.pi - 0.1, 1e-6, 1.0, math.pi / 2])
    def test_large_d_matches_recurrence(self, d, theta):
        # no d-dependent coefficient leaves the double range: the route either
        # agrees with the recurrence or reports that its series did not converge.
        # Where cos^2 theta <= 1/2 its own bound, (d-2) eps |K|, exceeds 1e-14
        try:
            kv = radial_kernel(d, theta, Representation.FERRERS_Q)
        except NonConvergenceError:
            return
        want = radial_kernel(d, theta, Representation.RECURRENCE).kernel
        assert abs(kv.kernel - want) <= max(kv.kernel_error, 1e-14 * abs(want))


class TestKernelProperties:
    def test_value_fields_are_immutable(self):
        kv = radial_kernel(5, 1.1)
        for name in kv._fields:
            with pytest.raises(AttributeError):
                setattr(kv, name, getattr(kv, name))

    def test_odd_symmetry(self):
        for d in range(2, 11):
            for theta in np.linspace(0.3, math.pi / 2.0, 25):
                theta = float(theta)
                a = radial_kernel(d, theta, Representation.FINITE_SUM).value
                b = radial_kernel(d, math.pi - theta, Representation.FINITE_SUM).value
                assert abs(a + b) <= 1e-10

    def test_sign_pattern(self):
        for d in range(2, 11):
            assert radial_kernel(d, 0.7, Representation.FINITE_SUM).value > 0.0
            assert radial_kernel(d, math.pi - 0.7, Representation.FINITE_SUM).value < 0.0

    def test_singularity_matching(self):
        # (d-2) theta^{d-2} I_d -> 1 for d >= 3; I_2 / (-log theta) -> 1
        for d in (3, 4, 6, 9):
            errors = []
            for theta in (1e-2, 1e-3, 1e-4):
                kv = radial_kernel(d, theta, Representation.FINITE_SUM)
                value = (d - 2) * theta ** (d - 2) * kv.value
                errors.append(abs(value - 1.0))
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < 1e-3
        errors = [abs(radial_kernel(2, t, Representation.FINITE_SUM).value / (-math.log(t)) - 1.0)
                  for t in (1e-2, 1e-3, 1e-4)]
        assert errors[0] > errors[1] > errors[2]

    def test_dispatcher_default_is_finite_sum(self):
        kv = radial_kernel(5, 1.1)
        assert kv.method is Representation.FINITE_SUM
        assert kv.value == radial_kernel(5, 1.1, Representation.FINITE_SUM).value

    def test_a_route_named_by_string_is_refused(self):
        # a route is a Representation; its value string is not looked up
        with pytest.raises(ValueError, match="^unknown representation 'finite_sum'$"):
            radial_kernel(3, 1.0, "finite_sum")

    @pytest.mark.parametrize("rep", list(Representation), ids=lambda rep: rep.value)
    def test_a_route_hashes_by_identity_through_pickle_and_deepcopy(self, rep):
        import copy
        import pickle

        from sphgreen.kernel import _ROUTES

        for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert twin is rep and hash(twin) == object.__hash__(rep)
            assert _ROUTES[twin] is _ROUTES[rep] and {rep: 1}[twin] == 1

    def test_dimension_validation(self):
        for d in (1, 3.0, math.inf, math.nan, -10**400):
            with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
                radial_kernel(d, 1.0, Representation.FINITE_SUM)

    @pytest.mark.parametrize(
        "route", [*Representation, _kernel_rows],
        ids=lambda route: getattr(route, "value", None) or route.__name__)
    def test_every_route_rejects_bad_input_alike(self, route):
        if isinstance(route, Representation):
            calls = [functools.partial(radial_kernel, rep=route)]
        else:
            # the driver's finite-sum branch and its loop over any routes
            calls = [lambda d, theta, reps=reps: list(route(d, [theta], reps))
                     for reps in ([Representation.FINITE_SUM], list(Representation))]
        for call in calls:
            for d in (1, 3.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
                    call(d, 1.0)
            for theta in (0.0, 1e-13, math.pi, math.nan, math.inf):
                with pytest.raises(ValueError, match=r"polar angle \S+ outside"):
                    call(3, theta)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 400),
           thetas=st.lists(st.floats(THETA_EDGE, math.pi - THETA_EDGE), min_size=1, max_size=4),
           reps=st.lists(st.sampled_from(Representation), min_size=1, max_size=6, unique=True),
           radius=st.floats(-3.0, 3.0).map(lambda x: 10.0**x))
    # each side of the series window and of the Ferrers switch
    @example(d=6, thetas=[math.acos(math.sqrt(SERIES_WINDOW)) - 1e-9], reps=[*Representation],
             radius=1.0)
    @example(d=6, thetas=[math.acos(math.sqrt(SERIES_WINDOW)) + 1e-9], reps=[*Representation],
             radius=1.0)
    @example(d=60, thetas=[math.pi - math.acos(math.sqrt(SERIES_WINDOW)) + 1e-9],
             reps=[*Representation], radius=1.0)
    @example(d=7, thetas=[math.pi / 4 - 1e-9], reps=[*Representation], radius=1.0)
    @example(d=7, thetas=[math.pi / 4 + 1e-9], reps=[*Representation], radius=1.0)
    @example(d=2, thetas=[3 * math.pi / 4 + 1e-9], reps=[*Representation], radius=1.0)
    @example(d=3, thetas=[1e-12], reps=[*Representation], radius=1.0)
    @example(d=400, thetas=[0.15], reps=[*Representation], radius=1.0)  # hyp2f1 overflows
    @example(d=200, thetas=[0.3], reps=[*Representation], radius=1.0)  # hyp2f1_euler refuses
    # Ferrers ahead of the route it equals, on both sides of the switch
    @example(d=9, thetas=[0.5, 1.0, 2.9], reps=[Representation.FERRERS_Q, Representation.HYP2F1,
                                                Representation.FINITE_SUM], radius=1.0)
    # the finite-sum branch, where the scaled values overflow and underflow
    @example(d=300, thetas=[1e-12, 1.0, math.pi - 1e-12], reps=[Representation.FINITE_SUM],
             radius=1e-3)
    @example(d=300, thetas=[0.5, 1.5], reps=[Representation.FINITE_SUM], radius=1e3)
    def test_kernel_rows_are_each_route_alone(self, d, thetas, reps, radius):
        def bits(outcome):
            # repr tells -0.0 from 0.0 and shows every bit of a double
            if isinstance(outcome, Exception):
                return type(outcome), str(outcome)
            return repr(tuple(outcome))

        scale = solution_scale(d, radius)
        rows = list(_kernel_rows(d, thetas, reps, scale))
        assert [(theta, rep) for theta, rep, _ in rows] == [
            (theta, rep) for theta in thetas for rep in reps]
        for theta, rep, outcome in rows:
            try:
                alone = radial_kernel(d, theta, rep).scaled(scale)
            except (SeriesWindowError, NonConvergenceError, ToleranceNotMetError) as refusal:
                alone = refusal
            assert bits(outcome) == bits(alone), (theta, rep)

    def test_ferrers_refuses_where_the_route_it_equals_refuses(self, monkeypatch):
        # below the switch the Ferrers route is the hyp2f1 series, and refuses where it does
        from sphgreen import kernel

        refusal = NonConvergenceError("refused", 0.0, 1)

        def refuse(d, c, s):
            raise refusal

        monkeypatch.setitem(kernel._ROUTES, Representation.HYP2F1, refuse)
        every, ferrers_first = (
            {rep: result for _, rep, result in _kernel_rows(5, [1.0], reps)}
            for reps in ([*Representation], [Representation.FERRERS_Q, Representation.HYP2F1]))
        for routes in (every, ferrers_first):
            assert routes[Representation.HYP2F1] is routes[Representation.FERRERS_Q] is refusal
        with pytest.raises(NonConvergenceError, match="refused"):
            radial_kernel(5, 1.0, Representation.FERRERS_Q)
        assert isinstance(every[Representation.FINITE_SUM], tuple)

    @pytest.mark.parametrize("reps", [[Representation.HYP2F1],
                                      [Representation.RECURRENCE, Representation.FINITE_SUM,
                                       Representation.HYP2F1]])
    def test_a_kernel_that_is_not_finite_is_refused_alike(self, reps):
        # 2F1(1/2, 200; 3/2; cos^2 0.15) overflows; radial_kernel and the driver refuse it
        # with the series engine's one refusal, and every other route still yields its pair
        with pytest.raises(NonConvergenceError, match="double range") as alone:
            radial_kernel(400, 0.15, Representation.HYP2F1)
        rows = {rep: result for _, rep, result in _kernel_rows(400, [0.15], reps)}
        refused = rows[Representation.HYP2F1]
        assert type(refused) is NonConvergenceError and str(refused) == str(alone.value)
        for rep, result in rows.items():
            if rep is not Representation.HYP2F1:
                assert result == radial_kernel(400, 0.15, rep).scaled((1.0, 0)), rep

    @pytest.mark.parametrize("d", [*range(2, 13), 40, 239, 400, 1000, 2200, 3001])
    def test_every_route_is_finite_or_refused(self, d):
        # at the angle limits, 1e-6 from a pole, the series window's edge, the Ferrers
        # switch, pi/2 and their mirrors
        angles = [THETA_EDGE, 1e-6, math.acos(math.sqrt(SERIES_WINDOW)),
                  math.acos(math.sqrt(_FERRERS_SWITCH))]
        for theta in [*angles, math.pi / 2.0, *(math.pi - theta for theta in angles)]:
            for rep in Representation:
                try:
                    kv = radial_kernel(d, theta, rep)
                except _REFUSALS:
                    continue
                assert math.isfinite(kv.kernel) and math.isfinite(kv.kernel_error), (theta, rep)

    def test_pole_adjacent_overflow_saturates(self):
        # far past double range the cot/inverse-sine powers saturate to +-inf
        # instead of raising
        for d in (29, 40):
            assert radial_kernel(d, 1e-12, Representation.FINITE_SUM).value == math.inf
            far = radial_kernel(d, math.pi - 1e-12, Representation.FINITE_SUM)
            assert far.value == -math.inf
            assert radial_kernel(d, 1e-12, Representation.RECURRENCE).value == math.inf
            assert radial_kernel(d, math.pi - 1e-12, Representation.RECURRENCE).value == -math.inf


# radii whose solution is subnormal, 0.0 or inf at theta = 1 for d = 3 or 7, or near that
RANGE_END_RADII = ([10.0**k for k in range(300, 309)] + [10.0**-k for k in range(300, 309)]
                   + [1e-310, 1e-320, 5e-324])


class TestBoundsAtRangeEnds:
    """A printed bound covers the final rounding of its value at both ends of double range."""

    @pytest.mark.parametrize("d", [3, 7])
    @pytest.mark.parametrize("radius", RANGE_END_RADII)
    def test_radius_sweep(self, d, radius):
        scale = solution_scale(d, radius)
        for rep in Representation:
            value, bound = radial_kernel(d, 1.0, rep).scaled(scale)
            if math.isinf(value):
                assert bound == math.inf, rep
            elif abs(value) < sys.float_info.min:  # subnormal, or 0.0 from a nonzero kernel
                assert bound >= math.ulp(0.0), rep
            else:
                assert bound > 0.0, rep

    def test_value_and_est_error_agree(self):
        # sin^(2-d) alone takes the value past double range, and not its error
        kv = radial_kernel(100, 6.5e-4)
        assert kv.value == kv.est_error == math.inf
        for kv in (kv, radial_kernel(3, 1.0), radial_kernel(1200, 0.3)):
            assert (kv.value, kv.est_error) == kv.scaled((1.0, 0))


class TestFundamentalSolution:
    def test_d3_quarter_is_inverse_4pi(self):
        got = fundamental_solution(3, 1.0, math.pi / 4.0)
        assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)

    def test_equator_vanishes(self):
        for d, radius in ((2, 1.0), (5, 2.0), (8, 0.5)):
            assert abs(fundamental_solution(d, radius, math.pi / 2.0)) <= 1e-12

    def test_d2_form(self, log_cot_half):
        for theta in (0.4, 1.5, 2.8):
            expected = log_cot_half(theta) / (2.0 * math.pi)
            assert fundamental_solution(2, 1.0, theta) == pytest.approx(expected, rel=1e-13)

    def test_radius_scaling(self):
        base = fundamental_solution(4, 1.0, 0.9)
        assert fundamental_solution(4, 2.0, 0.9) == pytest.approx(base / 4.0, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60), st.floats(0.5, 4.0),
           st.floats(1e-6, math.pi - 1e-6))
    def test_matches_plain_product_in_range(self, d, radius, theta):
        c0 = _scaled(1.0, solution_scale(d, 1.0))
        plain = c0 / radius ** (d - 2) * radial_kernel(d, theta).value
        if math.isfinite(plain) and abs(plain) >= sys.float_info.min:
            got = fundamental_solution(d, radius, theta)
            assert abs(got - plain) <= 1e-14 * abs(plain)

    def test_normalization_constants(self):
        c0 = {d: _scaled(1.0, solution_scale(d, 1.0)) for d in (2, 3)}
        assert c0[2] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert c0[3] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fundamental_solution(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            fundamental_solution(3, 1.0, 4.0)

    def test_rejects_non_finite_radius(self):
        for radius in (math.inf, math.nan):
            with pytest.raises(ValueError):
                fundamental_solution(3, radius, 1.0)

    def test_radius_power_out_of_double_range_is_nearest(self, solution_reference, nearest):
        # R ** (d - 2) underflows to 0, is subnormal, or overflows, yet the
        # solution is the double nearest its exact value (inf, or subnormal)
        for d, radius in ((10, 1e-300), (10, 1e-40), (1000, 10.0), (10, 1e40)):
            nearest(fundamental_solution(d, radius, 1.0), solution_reference(d, radius, 1.0))

    @pytest.mark.parametrize("d", [344, 400, 1240, 1241, 2000])
    def test_normalization_past_double_range_is_nearest(self, d):
        # Gamma(d/2) overflows from d = 344, c0 from d = 439 and pi ** (d/2)
        # from d = 1241; c0 is the double nearest its exact value, and its
        # scaled pair keeps that accuracy past double range
        from mpmath import mp, mpf

        with mp.workdps(40):
            exact = mp.gamma(mpf(d) / 2) / (2 * mp.pi ** (mpf(d) / 2))
            pair = mp.ldexp(mpf(solution_scale(d, 1.0)[0]), solution_scale(d, 1.0)[1])
            assert abs(pair / exact - 1) <= 1e-14
        want = float(exact)
        got = _scaled(1.0, solution_scale(d, 1.0))
        assert (got == want) if math.isinf(want) else abs(got - want) <= 1e-14 * want

    def test_scale_of_either_parity_against_mpmath(self):
        # one (d-2)!! formula serves even and odd d
        from mpmath import mp, mpf

        with mp.workdps(40):
            for d in range(1, 401):
                m, e = solution_scale(d, 1.0)
                exact = mp.gamma(mpf(d) / 2) / (2 * mp.pi ** (mpf(d) / 2))
                assert abs(mp.ldexp(mpf(m), e) / exact - 1) <= 4 * sys.float_info.epsilon, d

    def test_scale_is_the_kernel_factor(self):
        c0 = {d: _scaled(1.0, solution_scale(d, 1.0)) for d in (2, 4)}
        assert math.ldexp(*solution_scale(4, 2.0)) == c0[4] / 4.0
        assert math.ldexp(*solution_scale(2, 1e-300)) == c0[2]

    def test_large_odd_scale_is_fast(self):
        # (d - 2)!! of an odd d is a product tree, not one running product
        start = time.perf_counter()
        solution_scale(100001, 1.0)
        assert time.perf_counter() - start < 1.0


class TestPairProduct:
    def test_many_pairs_stay_in_range(self):
        from sphgreen.kernel import _pair_product

        # 0.5^2000 and 3^1000 each leave double range long before the end
        assert _pair_product([(0.5, 0)] * 2000) == (0.5, -1999)
        m, e = _pair_product([math.frexp(3.0)] * 1000)
        assert abs(math.log2(m) + e - 1000 * math.log2(3.0)) <= 1e-12
        assert _pair_product([]) == (1.0, 0)
        assert _pair_product([(0.75, 2), (0.0, 0)]) == (0.0, 2)

    def test_scaled_renormalises_after_each_factor(self):
        # 2^3000 * 0.5^3000 = 1, though the running product of the mantissas leaves range
        assert _scaled(1.0, *[(0.5, 1)] * 3000) == 1.0


class TestEuclideanFundamental:
    def test_three_dimensional(self):
        assert euclidean_fundamental(3, 1.0) == pytest.approx(1.0 / (4.0 * math.pi),
                                                              rel=1e-15)

    def test_two_dimensional_log(self):
        assert euclidean_fundamental(2, 1.0) == 0.0
        assert euclidean_fundamental(2, 0.5) == pytest.approx(
            math.log(2.0) / (2.0 * math.pi), rel=1e-14)

    def test_one_dimensional(self):
        assert euclidean_fundamental(1, 2.0) == pytest.approx(-1.0, rel=1e-15)

    def test_large_dimensions(self):
        # c0(d) and r^(2-d) are combined as scaled pairs
        assert euclidean_fundamental(344, 2.0) == pytest.approx(6.26160089702119e+117, rel=1e-14)
        assert euclidean_fundamental(344, 1.0) == pytest.approx(5.609755074687614e+220, rel=1e-14)
        assert euclidean_fundamental(1300, 1.0) == math.inf

    def test_rejects_bad_inputs(self):
        for d in (0, 2.0, 3.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
                solution_scale(d, 1.0)
            with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
                euclidean_fundamental(d, 1.0)
        with pytest.raises(ValueError):
            euclidean_fundamental(3, 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_infinite_distance(self, d):
        with pytest.raises(ValueError, match="finite"):
            euclidean_fundamental(d, math.inf)
