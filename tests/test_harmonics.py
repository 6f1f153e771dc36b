import math

import pytest

from sphgreen.harmonics import (
    DegenerateBranchError,
    QuantumNumbers,
    RadialSolutionKind,
    angular_eigenvalue,
    degeneracy,
    ode_convergence_order,
    ode_residual,
    radial_harmonic,
)
from sphgreen.kernel import i_d_finite_sum, log_cot_half
from sphgreen.specfun import gamma_real


class TestAngularEigenvalue:
    def test_l_zero(self):
        for d in (2, 5, 9):
            assert angular_eigenvalue(QuantumNumbers(d, 0)) == 0.0

    def test_d3_l1(self):
        assert angular_eigenvalue(QuantumNumbers(3, 1)) == -2.0

    def test_d10_l3(self):
        assert angular_eigenvalue(QuantumNumbers(10, 3)) == -33.0


class TestDegeneracy:
    def test_l_zero_is_one(self):
        for d in range(3, 10):
            assert degeneracy(QuantumNumbers(d, 0)) == 1

    def test_sphere_family(self):
        assert degeneracy(QuantumNumbers(3, 2)) == 5

    def test_d4_l1(self):
        assert degeneracy(QuantumNumbers(4, 1)) == 4

    def test_circle_continuation(self):
        assert degeneracy(QuantumNumbers(2, 0)) == 1
        for l in (1, 2, 5):
            assert degeneracy(QuantumNumbers(2, l)) == 2

    def test_combinatorial_oracle(self):
        # dimension of degree-l harmonic polynomials: C(d-1+l, l) - C(d-3+l, l-2)
        for d in range(3, 7):
            for l in range(0, 7):
                expected = math.comb(d - 1 + l, l) - (
                    math.comb(d - 3 + l, l - 2) if l >= 2 else 0)
                assert degeneracy(QuantumNumbers(d, l)) == expected

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
    def test_circle_second_kind(self):
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
                expected = i_d_finite_sum(d, theta).value
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


class TestOdeResidual:
    def test_exact_solution_small_residual(self):
        res = ode_residual(QuantumNumbers(3, 0), RadialSolutionKind.U2_MINUS, 1.0, 1e-3)
        assert abs(res) <= 1e-5

    def test_equator_circle_case(self):
        res = ode_residual(QuantumNumbers(2, 0), RadialSolutionKind.U2_PLUS,
                           math.pi / 2.0, 1e-3)
        assert abs(res) <= 1e-6

    def test_second_order_convergence(self):
        q = QuantumNumbers(5, 2)
        r1 = abs(ode_residual(q, RadialSolutionKind.U1_PLUS, 1.0, 2e-2))
        r2 = abs(ode_residual(q, RadialSolutionKind.U1_PLUS, 1.0, 1e-2))
        assert math.log2(r1 / r2) == pytest.approx(2.0, abs=0.2)

    def test_degenerate_branch_raises(self):
        # even d, plus order, l >= 1: the first-kind branch is identically zero
        with pytest.raises(DegenerateBranchError):
            ode_residual(QuantumNumbers(4, 1), RadialSolutionKind.U1_PLUS, 1.0, 1e-3)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match=r"got theta=0\.001, h=0\.01"):
            ode_residual(QuantumNumbers(3, 0), RadialSolutionKind.U2_PLUS, 0.001, 0.01)

    def test_tiny_branch_is_not_degenerate(self):
        # |u2-(1)| is about 4e-14 at d = 30, but not zero: the kernel's own branch
        q, kind = QuantumNumbers(30, 0), RadialSolutionKind.U2_MINUS
        assert math.isfinite(ode_residual(q, kind, 1.0, 1e-3))
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
