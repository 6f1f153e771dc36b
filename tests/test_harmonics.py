import math

import pytest

from sphgreen.harmonics import (
    DegenerateBranchError,
    QuantumNumbers,
    RadialSolutionKind,
    ode_convergence_order,
    radial_harmonic,
)
from sphgreen.kernel import Representation, radial_kernel
from sphgreen.specfun import gamma_real


class TestQuantumNumbers:
    def test_validation(self):
        for d in (1, 3.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
                QuantumNumbers(d, 0)
        for l in (-1, 3.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="angular number must be an integer >= 0"):
                QuantumNumbers(3, l)

    def test_fields_are_immutable_and_replace_checks(self):
        q = QuantumNumbers(3, 1)
        for name in q._fields:
            with pytest.raises(AttributeError):
                setattr(q, name, getattr(q, name))
        assert q._replace(angular=2) == (3, 2)
        with pytest.raises(ValueError, match="angular number"):
            q._replace(angular=-1)


class TestRadialHarmonic:
    def test_circle_second_kind(self, log_cot_half):
        q = QuantumNumbers(2, 0)
        for theta in (0.5, 1.2, 2.4):
            got = radial_harmonic(q, RadialSolutionKind.U2_PLUS, theta)
            assert got == pytest.approx(log_cot_half(theta), rel=1e-13)

    def test_d3_minus_order_table_value(self):
        q = QuantumNumbers(3, 0)
        for theta in (0.5, 1.2, 2.4):
            got = radial_harmonic(q, RadialSolutionKind.U2_MINUS, theta)
            expected = math.sqrt(math.pi / 2.0) / math.tan(theta)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_even_d_minus_order_vanishes_at_equator(self):
        for d in (4, 6):
            got = radial_harmonic(QuantumNumbers(d, 0), RadialSolutionKind.U2_MINUS,
                                  math.pi / 2.0)
            assert abs(got) <= 1e-12

    def test_minus_order_proportional_to_kernel(self):
        # sin^{1-d/2} Q_{d/2-1}^{1-d/2} times (d-2)!/(Gamma(d/2) 2^{d/2-1}) is I_d
        for d in range(2, 8):
            scale = math.factorial(d - 2) / (gamma_real(d / 2.0) * 2.0 ** (d / 2.0 - 1.0))
            for theta in (0.4, 1.0, 1.9, 2.7):
                u = radial_harmonic(QuantumNumbers(d, 0), RadialSolutionKind.U2_MINUS, theta)
                expected = radial_kernel(d, theta, Representation.FINITE_SUM).value
                assert abs(scale * u - expected) / max(1.0, abs(expected)) <= 1e-9

    def test_odd_d_plus_order_is_constant(self):
        # at l = 0 the plus-order second-kind branch solves the equation as a
        # constant when d is odd
        values = [radial_harmonic(QuantumNumbers(3, 0), RadialSolutionKind.U2_PLUS, t)
                  for t in (0.4, 1.0, 2.0)]
        for v in values:
            assert v == pytest.approx(-math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_minus_order_with_angular_momentum_rejected(self):
        with pytest.raises(ValueError):
            radial_harmonic(QuantumNumbers(3, 1), RadialSolutionKind.U2_MINUS, 1.0)
        with pytest.raises(ValueError):
            radial_harmonic(QuantumNumbers(4, 2), RadialSolutionKind.U1_MINUS, 1.0)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            radial_harmonic(QuantumNumbers(3, 0), RadialSolutionKind.U2_PLUS, 0.0)

    @pytest.mark.parametrize("theta", [1e-9, math.pi - 1e-9])
    def test_an_angle_whose_cosine_rounds_to_one_is_named(self, theta):
        # theta lies in (0, pi), but cos(theta) rounds to +-1, where no Ferrers function is
        message = rf"^cos\(theta\) rounds to -?1\.0 at theta={theta!r};"
        with pytest.raises(ValueError, match=message):
            radial_harmonic(QuantumNumbers(3, 0), RadialSolutionKind.U2_PLUS, theta)


class TestOdeResidual:
    """The radial operator's residual on the branches, through its convergence order."""

    def test_exact_solution_small_residual(self):
        # the d = 3 constant branch is annihilated to rounding; the cot branch leaves
        # only the truncation error, which falls like h^2
        q = QuantumNumbers(3, 0)
        assert ode_convergence_order(q, RadialSolutionKind.U2_PLUS, 1.0) is None
        order = ode_convergence_order(q, RadialSolutionKind.U2_MINUS, 1.0)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_equator_circle_case(self):
        # log cot(theta/2) is odd about pi/2, so both residuals sit at their rounding floors
        q = QuantumNumbers(2, 0)
        assert ode_convergence_order(q, RadialSolutionKind.U2_PLUS, math.pi / 2.0) is None

    def test_second_order_convergence(self):
        order = ode_convergence_order(QuantumNumbers(5, 2), RadialSolutionKind.U1_PLUS, 1.0)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_degenerate_branch_raises(self):
        # even d, plus order, l >= 1: the first-kind branch is identically zero
        with pytest.raises(DegenerateBranchError):
            ode_convergence_order(QuantumNumbers(4, 1), RadialSolutionKind.U1_PLUS, 1.0)

    def test_tiny_branch_is_not_degenerate(self):
        # |u2-(1)| is about 4e-14 at d = 30, but not zero: the kernel's own branch
        q, kind = QuantumNumbers(30, 0), RadialSolutionKind.U2_MINUS
        assert ode_convergence_order(q, kind, 1.0) == pytest.approx(2.0, abs=0.2)


class TestConvergenceOrderSweep:
    def test_all_admissible_branches(self):
        # order 2 +/- 0.2 for every branch the Ferrers definitions admit;
        # constants annihilated to rounding report None.  Of the 216 combos:
        # 72 minus-order branches with l >= 1 sit outside the parameter
        # domain, 36 plus-order branches are identically zero (first kind for
        # even d, second kind for odd d, l >= 1), 36 are exact constants, and
        # the remaining 72 carry measurable truncation error.
        tested = 0
        for d in range(2, 8):
            for l in range(0, 3):
                q = QuantumNumbers(d, l)
                for kind in RadialSolutionKind:
                    for theta in (0.5, 1.0, 2.0):
                        try:
                            order = ode_convergence_order(q, kind, theta)
                        except (ValueError, DegenerateBranchError):
                            continue
                        if order is None:
                            continue
                        tested += 1
                        assert abs(order - 2.0) <= 0.2, (d, l, kind, theta, order)
        assert tested == 72
