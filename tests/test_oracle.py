import math

import pytest

from sphgreen.harmonics import QuantumNumbers, RadialSolutionKind
from sphgreen.oracle import (
    check_cross_representation,
    check_delta_identity,
    check_distance_oracle,
    check_euclidean_limit,
    check_laplace_annihilation,
    check_ode_order,
    check_volume,
    euclidean_limit_errors,
)
from sphgreen.quadrature import ToleranceNotMetError, integrate


class TestIntegrate:
    def test_polynomial(self):
        value, err = integrate(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert err < 1e-10

    def test_inverse_sine_squared(self):
        value, _ = integrate(lambda x: math.sin(x) ** -2, math.pi / 4.0, math.pi / 2.0)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_log_cot_half_moment(self):
        # antiderivative oracle: the integral reduces to
        # int_{-1}^{1} u atanh(u) du = [ (u^2-1)/2 atanh(u) + u/2 ] = 1
        value, _ = integrate(
            lambda t: math.sin(t) * math.cos(t) * (-math.log(math.tan(t / 2.0))),
            0.0, math.pi)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_endpoint_singularity(self):
        value, _ = integrate(lambda x: x**-0.5, 0.0, 1.0)
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_reversed_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_tolerance_not_met(self):
        # the oscillation piles up at 0 faster than the subdivision budget
        with pytest.raises(ToleranceNotMetError) as failure:
            integrate(lambda x: math.sin(1.0 / x), 1e-9, 1.0)
        assert math.isfinite(failure.value.value)
        assert failure.value.error_estimate > 0.0


class TestLaplaceAnnihilation:
    def test_d3_example(self):
        report = check_laplace_annihilation(3, 1.0, 1.0, 1e-3)
        assert report.passed and report.measured <= 1e-5

    def test_d2_radius_two(self):
        report = check_laplace_annihilation(2, 2.0, 2.0, 1e-3)
        assert report.passed and report.measured <= 1e-5

    def test_halving_h_quarters_residual(self):
        r1 = check_laplace_annihilation(4, 1.0, 0.8, 2e-3).measured
        r2 = check_laplace_annihilation(4, 1.0, 0.8, 1e-3).measured
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.2)

    def test_full_grid(self):
        for d in range(2, 8):
            for radius in (1.0, 2.0):
                for theta in (0.5, 1.5, 2.5):
                    report = check_laplace_annihilation(d, radius, theta, 1e-3)
                    assert report.passed, report.line()


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
    def test_analytic_oracles(self):
        # both reductions recomputed here, independently of the product rule
        moment, _ = integrate(lambda u: u * math.atanh(u), -1.0, 1.0)
        assert moment == pytest.approx(1.0, abs=1e-9)
        assert 2.0 * moment == pytest.approx(2.0, abs=1e-8)
        zonal, _ = integrate(lambda t: 3.0 * math.cos(t) ** 2 * math.sin(t), 0.0, math.pi)
        assert zonal == pytest.approx(2.0, rel=1e-12)

    def test_d2(self):
        report = check_delta_identity(2, 1.0, nodes=400)
        assert abs(report.measured - 2.0) <= 1e-6
        assert report.passed
        assert "phi(x)-phi(antipode)" in report.detail

    def test_d3(self):
        report = check_delta_identity(3, 1.0, nodes=400)
        assert abs(report.measured - 2.0) <= 1e-5
        assert report.passed

    def test_radius_invariance(self):
        a = check_delta_identity(2, 1.0, nodes=400).measured
        b = check_delta_identity(2, 5.0, nodes=400).measured
        assert abs(a - b) <= 1e-9
        a3 = check_delta_identity(3, 1.0, nodes=400).measured
        b3 = check_delta_identity(3, 5.0, nodes=400).measured
        assert abs(a3 - b3) <= 1e-9

    def test_node_doubling_stability(self):
        a = check_delta_identity(2, 1.0, nodes=200).measured
        b = check_delta_identity(2, 1.0, nodes=400).measured
        assert abs(a - b) <= 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            check_delta_identity(4, 1.0)
        with pytest.raises(ValueError):
            check_delta_identity(2, 1.0, nodes=10)


class TestEuclideanLimit:
    RADII = [10.0, 100.0, 1000.0, 10000.0]

    def test_d3_converges(self):
        report = check_euclidean_limit(3, 1.0, self.RADII)
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
        report = check_euclidean_limit(2, 1.0, self.RADII)
        assert not report.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_euclidean_limit(3, 1.0, [100.0, 10.0])
        with pytest.raises(ValueError):
            check_euclidean_limit(3, 1.0, [0.5, 10.0])


class TestCrossRepresentation:
    def test_d2_and_d5(self):
        for d in (2, 5):
            report = check_cross_representation(d)
            assert report.passed, report.line()


class TestGeometryChecks:
    def test_distance_oracle(self):
        report = check_distance_oracle(3, pairs=300)
        assert report.passed and report.measured <= 1e-10

    def test_volume(self):
        report = check_volume(3)
        assert report.passed
