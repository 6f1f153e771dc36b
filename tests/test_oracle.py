import math
import operator
import random
import re

import pytest

from sphgreen import oracle, quadrature
from sphgreen.geometry import HyperPoint
from sphgreen.harmonics import QuantumNumbers, RadialSolutionKind
from sphgreen.kernel import (
    KernelValue,
    Representation,
    ToleranceNotMetError,
    _angle_grid,
    fundamental_solution,
    radial_kernel,
)
from sphgreen.oracle import (
    DISTANCE_PAIRS,
    CheckReport,
    check_cross_representation,
    check_delta_identity,
    check_distance_oracle,
    check_laplace_annihilation,
    check_ode_order,
    check_volume,
    euclidean_limit_errors,
    hypersphere_volume,
)


class TestIntegrate:
    """The analytic integrals the oracles rely on, by mpmath's tanh-sinh rule, and
    the Gauss-below/Lobatto-above enclosure of the quadrature route."""

    def test_polynomial(self, mp_integral):
        assert mp_integral(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_inverse_sine_squared(self, mp_integral):
        from mpmath import mp

        value = mp_integral(lambda x: mp.sin(x) ** -2, math.pi / 4.0, math.pi / 2.0)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_log_cot_half_moment(self, mp_integral):
        # antiderivative oracle: the integral reduces to
        # int_{-1}^{1} u atanh(u) du = [ (u^2-1)/2 atanh(u) + u/2 ] = 1
        from mpmath import mp

        value = mp_integral(lambda t: mp.sin(t) * mp.cos(t) * (-mp.log(mp.tan(t / 2))),
                            0.0, math.pi)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_endpoint_singularity(self, mp_integral):
        assert mp_integral(lambda x: x**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("k", range(34))
    def test_rule_literals_integrate_monomials(self, k):
        # on [-1, 1], the 12-point Gauss rule is exact for x^k to k = 23 and the
        # 14-point Lobatto rule to k = 25 (odd k by symmetry), so each built node and
        # weight is right to rounding; x^24 and x^26 show that the degrees are sharp
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        gauss = math.fsum(w * (x**k + (-x) ** k) for x, w in quadrature._GAUSS)
        lobatto = math.fsum([quadrature._LOBATTO_END * (1.0 + (-1.0) ** k)]
                            + [w * (x**k + (-x) ** k) for x, w in quadrature._LOBATTO])
        ulp = math.ulp(1.0)
        assert (abs(gauss - exact) <= 2 * ulp) == (k <= 23 or k % 2 == 1)
        assert (abs(lobatto - exact) <= 2 * ulp) == (k <= 25 or k % 2 == 1)

    # check xrep's 50 angles, and angles near both poles and on either side of pi/2
    ANGLES = [*_angle_grid(0.05, math.pi - 0.05, 50), 1e-12, 1e-6, math.pi / 2 - 1e-9,
              math.pi / 2 + 1e-9, math.pi - 1e-6, math.pi - 1e-12]

    @staticmethod
    def outside_their_bound(d, kernel_reference):
        """The angles where |K_quad - K_ref| exceeds the route's bound plus 4 ulp."""
        outside = []
        for theta in TestIntegrate.ANGLES:
            got = radial_kernel(d, theta, Representation.QUADRATURE)
            want = kernel_reference(d, theta)
            if abs(got.kernel - want) > got.kernel_error + 4 * math.ulp(want):
                outside.append((theta, got.kernel, got.kernel_error, want))
        return outside

    @pytest.mark.parametrize("d", [*range(2, 13), 20, 60, 200, 1000])
    def test_the_bracket_encloses_the_reference(self, d, kernel_reference):
        assert self.outside_their_bound(d, kernel_reference) == []

    def test_a_zero_gap_misses_the_reference(self, kernel_reference, monkeypatch):
        # the Gauss rule in place of the Lobatto rule closes every gap at once: what
        # is left of the bound is rounding, which the truncation error exceeds
        monkeypatch.setattr(quadrature, "_LOBATTO_END", 0.0)
        monkeypatch.setattr(quadrature, "_LOBATTO", quadrature._GAUSS)
        assert self.outside_their_bound(6, kernel_reference) != []

    def test_tolerance_not_met(self, monkeypatch):
        # no gap is at most 0: the peak panel narrows to a few ulps and the route
        # refuses, with one pass over what is left, instead of bisecting for ever
        met = radial_kernel(1000, 0.05, Representation.QUADRATURE)
        monkeypatch.setattr(quadrature, "TOLERANCE", 0.0)
        with pytest.raises(ToleranceNotMetError) as failure:
            radial_kernel(1000, 0.05, Representation.QUADRATURE)
        refused = failure.value
        assert "not met on the panel" in str(refused)
        assert math.isfinite(refused.value) and math.isfinite(refused.error_estimate)
        assert abs(refused.value - met.kernel) <= refused.error_estimate + met.kernel_error

    def test_a_refusal_carries_the_signed_kernel_and_the_whole_bound(self, monkeypatch):
        # below pi/2 K is negative; the refusal's interval is the route's, shared term included
        theta = math.pi - 0.05
        other = radial_kernel(1000, theta, Representation.FINITE_SUM)
        monkeypatch.setattr(quadrature, "TOLERANCE", 0.0)
        with pytest.raises(ToleranceNotMetError) as failure:
            radial_kernel(1000, theta, Representation.QUADRATURE)
        refused = failure.value
        assert refused.value < 0.0
        assert abs(refused.value - other.kernel) <= refused.error_estimate + other.kernel_error

    def test_a_refusal_prints_the_bound_it_carries(self, monkeypatch):
        # the message states the whole bound of the exception, not the integral's own
        monkeypatch.setattr(quadrature, "TOLERANCE", 0.0)
        with pytest.raises(ToleranceNotMetError) as failure:
            radial_kernel(1000, math.pi - 0.05, Representation.QUADRATURE)
        refused = failure.value
        assert f"(bound {refused.error_estimate:.3g})" in str(refused)
        assert refused.value < 0.0


class TestCheckReport:
    def test_detail_defaults_to_empty(self):
        report = CheckReport("x", 1.0, 1.0, 0.1, True)
        assert report.detail == ""
        assert report.line() == "PASS x: measured=1.0 expected=1.0 tol=0.1"

    def test_fields_are_immutable(self):
        report = CheckReport("x", 1.0, 1.0, 0.1, False, "why")
        for name in report._fields:
            with pytest.raises(AttributeError):
                setattr(report, name, getattr(report, name))


class TestLaplaceAnnihilation:
    GRID = [(d, radius, theta) for d in range(2, 8) for radius in (1.0, 2.0)
                for theta in (0.5, 1.5, 2.5)]

    def test_d3_example(self):
        report = check_laplace_annihilation(3, 1.0, 1.0)
        assert report.passed and report.expected == 2.0 and report.tolerance == 0.2
        assert report.name == "laplace-annihilation d=3 R=1.0 theta=1.0"

    def test_d2_radius_two(self):
        report = check_laplace_annihilation(2, 2.0, 2.0)
        assert report.passed and abs(report.measured - 2.0) <= 0.2

    def test_halving_h_quarters_residual(self):
        # the measure is the log2 ratio of the residuals at steps h and h/2
        report = check_laplace_annihilation(4, 1.0, 0.8)
        assert report.measured == pytest.approx(2.0, abs=0.2)

    def test_full_grid(self):
        for point in self.GRID:
            report = check_laplace_annihilation(*point)
            assert report.passed, report.line()

    @pytest.mark.parametrize("d, radius, theta", [
        (7, 1.0, 0.3), (40, 1.0, 0.3), (40, 1.0, 1.0), (40, 1.0, 2.0), (200, 1.0, 0.5)])
    def test_passes_where_a_fixed_step_failed(self, d, radius, theta):
        # a fixed step h = 1e-3 FAILs here: its truncation grows like (d h / theta)^2
        report = check_laplace_annihilation(d, radius, theta)
        assert report.passed, report.line()

    @pytest.mark.parametrize("d", [500, 1000, 3000, 10000])
    def test_holds_where_the_solution_leaves_double_range(self, d):
        # S itself is inf or 0.0 here; the check samples S 2^-E, E the exponent of S(theta)
        for theta in (0.5, 1.0, 2.0):
            report = check_laplace_annihilation(d, 1.0, theta)
            assert report.passed, report.line()

    @pytest.mark.parametrize("d, theta", [(3, 1e-12), (1000, 1e-12), (3, math.pi - 1.05e-12)])
    def test_a_stencil_past_the_pole_edge_names_the_callers_angle(self, d, theta):
        # radial_kernel accepts theta, but theta - h or theta + h leaves its range
        radial_kernel(d, theta)
        with pytest.raises(ValueError, match=re.escape(f"polar angle {theta}: its stencil")):
            check_laplace_annihilation(d, 1.0, theta)

    @pytest.mark.parametrize("wrong", [
        lambda d, theta: radial_kernel(d, theta)._replace(
            kernel=radial_kernel(d, theta).kernel * (1.0 + 1e-5 * theta**2)),
        lambda d, theta: KernelValue(math.cos(theta), 0.0, Representation.FINITE_SUM, (1.0, 0)),
    ], ids=["perturbed-solution", "cosine"])
    def test_fails_on_a_function_the_operator_does_not_annihilate(self, monkeypatch, wrong):
        # the check samples radial_kernel(d, t).scaled(...); make that kernel a wrong one
        monkeypatch.setattr(oracle, "radial_kernel", wrong)
        assert not all(check_laplace_annihilation(*point).passed for point in self.GRID)


class TestOdeOrder:
    def test_measured_branch(self):
        report = check_ode_order(QuantumNumbers(3, 0), RadialSolutionKind.U1_PLUS)
        assert report.name == "ode-order d=3 l=0 u1+"
        assert report.passed and report.measured != 2.0
        assert abs(report.measured - 2.0) <= 0.2 and report.tolerance == 0.2
        assert report.detail.startswith("worst convergence order over theta in (0.5, 1.0, 2.0)")

    def test_annihilated_branch(self):
        report = check_ode_order(QuantumNumbers(3, 0), RadialSolutionKind.U1_MINUS)
        assert report.passed and report.measured == 2.0
        assert report.detail == "operator annihilates branch to rounding"

    def test_skipped_branches(self):
        degenerate = check_ode_order(QuantumNumbers(3, 1), RadialSolutionKind.U2_PLUS)
        outside = check_ode_order(QuantumNumbers(3, 1), RadialSolutionKind.U1_MINUS)
        for report in (degenerate, outside):
            assert report.passed and report.tolerance == math.inf
        assert degenerate.detail.startswith("skipped: degenerate branch (")
        assert outside.detail.startswith("skipped: outside Ferrers parameter domain (")


class TestDeltaIdentity:
    def test_analytic_oracles(self, mp_integral):
        # both reductions recomputed here, independently of the product rule
        from mpmath import mp

        moment = mp_integral(lambda u: u * mp.atanh(u), -1.0, 1.0)
        assert moment == pytest.approx(1.0, abs=1e-9)
        assert 2.0 * moment == pytest.approx(2.0, abs=1e-8)
        zonal = mp_integral(lambda t: 3.0 * mp.cos(t) ** 2 * mp.sin(t), 0.0, math.pi)
        assert zonal == pytest.approx(2.0, rel=1e-12)

    def test_d2(self):
        report = check_delta_identity(2, 1.0)
        assert abs(report.measured - 2.0) <= 1e-6
        assert report.passed
        assert "phi(x)-phi(antipode)" in report.detail

    def test_d3(self):
        report = check_delta_identity(3, 1.0)
        assert abs(report.measured - 2.0) <= 1e-5
        assert report.passed

    def test_radius_invariance(self):
        a = check_delta_identity(2, 1.0).measured
        b = check_delta_identity(2, 5.0).measured
        assert abs(a - b) <= 1e-9
        a3 = check_delta_identity(3, 1.0).measured
        b3 = check_delta_identity(3, 5.0).measured
        assert abs(a3 - b3) <= 1e-9

    @staticmethod
    def _scalar_loop(d, radius, rule):
        # the check's sum with one fundamental_solution call per node of the folded
        # rule, whose weights count each node's mirror too: the integrand is even about pi/2
        from sphgreen.kernel import Representation, fundamental_solution

        theta, w_theta, s, _ = rule
        total = 0.0
        for t, wt, st in zip(theta, w_theta, s):
            value = fundamental_solution(d, radius, t, Representation.FINITE_SUM)
            total += wt * d * math.cos(t) / radius**2 * value * radius**d * st ** (d - 1)
        if d == 3:
            total *= math.fsum(map(operator.mul, w_theta, s))
        return total * 2.0 * math.pi

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("radius", [1.0, 5.0])
    def test_matches_scalar_loop(self, d, radius):
        # the check's sum of the finite-sum core against one
        # fundamental_solution call per node
        from sphgreen.oracle import _rule_for

        total = self._scalar_loop(d, radius, _rule_for(d)[1])
        assert check_delta_identity(d, radius).measured == pytest.approx(total, rel=1e-14)

    def test_node_doubling_stability(self):
        from sphgreen.oracle import _polar_rule

        a = check_delta_identity(2, 1.0)
        assert "nodes=256/axis" in a.detail
        b = self._scalar_loop(2, 1.0, _polar_rule(512))
        assert abs(a.measured - b) <= 1e-7

    @pytest.mark.parametrize("d", [4, 5, 60, 100, 1000, 3000])
    def test_any_dimension(self, d):
        # c0(d), R^(2-d) and the product of the axis sums leave the double
        # range from d in the low hundreds; as scaled pairs they never do
        a = check_delta_identity(d, 1.0)
        b = check_delta_identity(d, 5.0)
        assert a.passed and b.passed
        assert abs(a.measured - 2.0) <= 1e-9
        assert abs(a.measured - b.measured) <= 1e-13

    def test_validation(self):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            check_delta_identity(1, 1.0)

    def test_rule_grows_with_d(self):
        # sin^(d-1) is about 1/sqrt(d) wide: at d = 10000, 400 nodes per axis
        # left |m - 2| = 6e-3, the 6 sqrt(d) = 600 of the rule leave 2.7e-9
        for radius in (1.0, 5.0):
            report = check_delta_identity(10000, radius)
            assert "nodes=600/axis" in report.detail
            assert report.passed and abs(report.measured - 2.0) <= 1e-8


class TestGaussLegendre:
    """``_polar_rule``, the rule folded at pi/2, against one 34-digit mpmath Newton
    step from its nodes."""

    SIZES = [256, 257, 329, 600]  # _rule_for: d <= 1821, 1822, 3000 and 10000

    @staticmethod
    def _reference(n, theta):
        # the true node pi/2 (1 + x*) and weight pi / ((1 - x*^2) P_n'(x*)^2),
        # from P_n and P_n' at x = 2 theta / pi - 1 and P_n'' by Legendre's equation
        from mpmath import mp, mpf

        x = 2 * mpf(theta) / mp.pi - 1
        p0, p1 = mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        slope = n * (p0 - x * p1) / (1 - x * x)
        step = p1 / slope
        slope -= (2 * x * slope - n * (n + 1) * p1) / (1 - x * x) * step
        root = x - step
        return mp.pi / 2 * (1 + root), mp.pi / ((1 - root * root) * slope * slope)

    @pytest.mark.parametrize("n", SIZES)
    def test_nodes_and_weights_match_mpmath(self, n):
        # measured: nodes within 2.6e-16 of the true ones, weights within 1.2e-12
        # relative (the node nearest the pole at n = 257; 3.0e-13 at n = 256), where
        # the weight's slope 2/(1 - x^2) turns the node's rounding into 1e-12.  A
        # folded weight is twice the true one, but for the middle node of odd n
        from mpmath import mp

        from sphgreen.oracle import _polar_rule

        theta, w, _, _ = _polar_rule(n)
        m = len(theta)
        with mp.workdps(34):
            # every node of the 8 nearest the pole, where the weights err most, then every 8th
            for i in [*range(m - 8, m), *range(0, m - 8, 8)]:
                node, weight = self._reference(n, theta[i])
                folds = 1 if n % 2 and i == 0 else 2
                assert abs(theta[i] - node) <= 3e-16, (n, i)
                assert abs(w[i] / (folds * weight) - 1) <= 2e-12, (n, i)

    @pytest.mark.parametrize("n", SIZES)
    def test_symmetry_and_weight_sum(self, n):
        from sphgreen.oracle import _polar_rule

        theta, w, s, c = _polar_rule(n)
        assert len(theta) == len(w) == len(s) == len(c) == (n + 1) // 2
        # from pi/2 outward, largest sine first
        assert list(theta) == sorted(theta, reverse=True)
        assert 0.0 < theta[-1] and theta[0] <= 0.5 * math.pi
        assert list(s) == sorted(s, reverse=True)
        for t, si, ci in zip(theta, s, c):
            assert si == math.sin(t) and ci == math.cos(t)
        if n % 2:
            # the middle node stands for itself alone: half its doubled neighbour's weight
            assert theta[0] == 0.5 * math.pi
            assert abs(w[0] / w[1] - 0.5) <= 1e-3
        else:
            assert abs(w[0] / w[1] - 1.0) <= 1e-3
        # the weights of [-1, 1] sum to 2, so those of [0, pi] to pi
        assert abs(math.fsum(w) - math.pi) <= 4 * math.ulp(math.pi)

    @pytest.mark.parametrize("n", SIZES)
    def test_integrates_polynomials_below_degree_2n(self, n):
        # u = 2 theta / pi - 1: the rule integrates u^k, which is even about pi/2 for
        # even k, over [0, pi] as pi / (k + 1), to 5.6e-14 relative (measured) up to k = 2n - 2
        from sphgreen.oracle import _polar_rule

        theta, w, _, _ = _polar_rule(n)
        u = [2.0 * t / math.pi - 1.0 for t in theta]
        terms = list(w)
        for k in range(2 * n - 1):
            if not k % 2:
                exact = math.pi / (k + 1)
                assert abs(math.fsum(terms) - exact) <= 1e-13 * exact, (n, k)
            terms = list(map(operator.mul, terms, u))


class TestEuclideanLimit:
    RADII = [10.0, 100.0, 1000.0, 10000.0]

    def test_d3_converges(self):
        report = oracle._euclidean_limit_reports(3, 1.0, self.RADII)[0]
        assert report.passed
        assert report.measured <= 1e-6

    def test_d3_slope(self):
        errors = euclidean_limit_errors(3, 1.0, self.RADII)
        slope = (math.log(errors[-1]) - math.log(errors[0])) / math.log(1000.0)
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_d3_limit_value(self):
        from sphgreen.kernel import fundamental_solution

        got = fundamental_solution(3, 1e6, 1.0 / 1e6)
        assert got == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-9)

    def test_d2_difference_grows(self):
        # the 2-d solutions differ by an R-dependent additive constant
        # ~ log(2R)/(2 pi), so the plain difference increases with R; the
        # acceptance clause checks the decrease after removing that offset
        errors = euclidean_limit_errors(2, 1.0, self.RADII)
        assert all(b > a for a, b in zip(errors, errors[1:]))
        for radius, err in zip(self.RADII, errors):
            predicted = math.log(2.0 * radius) / (2.0 * math.pi)
            assert err == pytest.approx(predicted, abs=1e-3)
        report = oracle._euclidean_limit_reports(2, 1.0, self.RADII)[0]
        assert not report.passed

    def test_validation(self):
        for radii in ([100.0, 10.0], [0.5, 10.0], []):
            with pytest.raises(ValueError, match="radii must be strictly increasing"):
                oracle._euclidean_limit_reports(3, 1.0, radii)


class TestCrossRepresentation:
    def test_d2_and_d5(self):
        for d in (2, 5):
            report = check_cross_representation(d)
            assert report.passed, report.line()

    @pytest.mark.parametrize("d", [239, 1000])
    def test_large_d(self, d):
        # d = 239: cot^(d-2) of the cotangent variant overflows at theta = 0.05
        # and is skipped; d = 1000: hyp2f1 does not converge and is skipped, as
        # `eval --method all` skips it
        report = check_cross_representation(d)
        assert report.passed, report.line()

    @staticmethod
    def _patch(monkeypatch, reference=None, recurrence=None, every_route=None):
        """Replace the value of the quadrature reference, of the recurrence
        route or of every other route by the given value.  The value replaces
        what the driver yielded, because the driver refuses a route's own
        kernel that is not finite."""
        import sphgreen.oracle as oracle
        from sphgreen.kernel import Representation, _kernel_rows

        def replacement(rep):
            if rep is Representation.QUADRATURE:
                return reference
            if every_route is not None:
                return every_route
            return recurrence if rep is Representation.RECURRENCE else None

        def rows(d, thetas, reps, scale=(1.0, 0)):
            for theta, rep, result in _kernel_rows(d, thetas, reps, scale):
                if replacement(rep) is not None and not isinstance(result, Exception):
                    result = replacement(rep), result[1]
                yield theta, rep, result

        monkeypatch.setattr(oracle, "_kernel_rows", rows)

    def test_nan_route_fails(self, monkeypatch):
        self._patch(monkeypatch, recurrence=math.nan)
        report = check_cross_representation(4)
        assert not report.passed and report.measured == math.inf
        assert "recurrence" in report.detail

    def test_finite_route_against_infinite_reference_fails(self, monkeypatch):
        self._patch(monkeypatch, reference=math.inf)
        report = check_cross_representation(4)
        assert not report.passed and report.measured == math.inf

    def test_equal_infinities_deviate_by_zero(self, monkeypatch):
        self._patch(monkeypatch, reference=math.inf, every_route=math.inf)
        report = check_cross_representation(4)
        assert report.passed and report.measured == 0.0

    @pytest.mark.parametrize("rep", [rep for rep in Representation
                                     if rep is not Representation.QUADRATURE],
                             ids=operator.attrgetter("value"))
    def test_a_kernel_off_by_1e_12_fails(self, rep, monkeypatch):
        # 1e-12 relative is far inside a 1e-9 tolerance, and tens of times both bounds
        from sphgreen import kernel

        core = kernel._ROUTES[rep]

        def off(d, c, s):
            k, error = core(d, c, s)
            return k * (1.0 + 1e-12), error

        monkeypatch.setitem(kernel._ROUTES, rep, off)
        report = check_cross_representation(4)
        assert not report.passed and report.measured > 10.0, report.line()
        assert rep.value in report.detail


class TestGeometryChecks:
    def test_distance_oracle(self):
        report = check_distance_oracle(3)
        assert report.passed and report.measured <= 1e-10
        assert report.detail.startswith(f"{DISTANCE_PAIRS} random pairs")

    def test_distance_oracle_tests_the_cli_function(self, monkeypatch):
        # the check measures the geodesic_distance that `sphgreen distance` runs
        import sphgreen.oracle as oracle
        from sphgreen.geometry import geodesic_distance

        monkeypatch.setattr(oracle, "geodesic_distance",
                            lambda a, b: geodesic_distance(a, b) + 1e-9)
        report = check_distance_oracle(3)
        assert not report.passed
        assert report.measured == pytest.approx(1e-9, rel=1e-3)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_block_draws_match_random_hyperpoint(self, d, monkeypatch):
        # the check's pairs: a radius, then two random_hyperpoint draws, from one
        # random.Random(seed) stream
        from sphgreen.geometry import geodesic_distance
        from sphgreen.oracle import random_hyperpoint

        pairs = []
        monkeypatch.setattr(oracle, "geodesic_distance",
                            lambda a, b: pairs.append((a, b)) or geodesic_distance(a, b))
        seed = 20260809 + d
        assert check_distance_oracle(d).passed and len(pairs) == DISTANCE_PAIRS
        rng = random.Random(seed)
        scalar = random.Random(seed)
        for a, b in pairs:
            radius = rng.uniform(0.5, 3.0)
            assert a.radius == b.radius == radius == scalar.uniform(0.5, 3.0)
            for point in (a, b):
                assert point == random_hyperpoint(rng, d, radius)
                # and the stream of one scalar draw per angle
                azimuth = scalar.uniform(0.0, 2.0 * math.pi)
                angles = [scalar.uniform(0.0, math.pi) for _ in range(d - 1)]
                assert point == HyperPoint(d, radius, angles[-1], (azimuth, *angles[:-1]))

    def test_volume(self):
        report = check_volume(3)
        assert report.passed

    @pytest.mark.parametrize("d", [448, 455, 1000, 1821, 4000])
    def test_volume_past_double_range(self, d):
        # the volume is subnormal at d = 448 and underflows to 0 from d = 455;
        # the check's relative error comes from the (mantissa, exponent) pairs.
        # From d = 1821 the rule has more than 256 nodes per axis.
        from mpmath import mp, mpf

        from sphgreen.oracle import _rule_for, _sphere_area

        report = check_volume(d)
        assert report.passed, report.line()
        n, (_, w, s, _) = _rule_for(d)
        assert f"{n} nodes/axis" in report.detail
        m, e = _sphere_area(d, w, s)
        with mp.workdps(40):
            half = mpf(d + 1) / 2
            exact = 2 * mp.pi**half / mp.gamma(half)
            assert abs(mp.ldexp(mpf(m), e) / exact - 1) <= 1e-9
            want = float(exact)
        assert report.expected == want
        assert abs(report.measured - want) <= 1e-9 * want + 4 * 5e-324

    @pytest.mark.parametrize("d", [2, 3, 10, 200, 400, 1000])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_hypersphere_volume_against_mpmath(self, d, radius):
        from mpmath import mp, mpf

        with mp.workdps(40):
            half = mpf(d + 1) / 2
            want = float(2 * mp.pi**half * mpf(radius) ** d / mp.gamma(half))
        got = hypersphere_volume(d, radius)
        if want == 0.0:  # the exact value underflows
            assert got == 0.0
        else:
            assert abs(got - want) <= 4.0 * math.ulp(want), (got, want)

    def test_hypersphere_volume_rejects_bad_inputs(self):
        # the same rules as box_volume: an integer d >= 2, a positive finite radius
        for d in (-1, 0, 1, 3.0, math.nan):
            with pytest.raises(ValueError, match=f"dimension must be an integer >= 2, got {d}"):
                hypersphere_volume(d, 1.0)
        for d, radius in ((3, -1.0), (2, -1.0), (2, 0.0), (2, math.nan), (2, math.inf)):
            with pytest.raises(ValueError, match="radius must be"):
                hypersphere_volume(d, radius)
