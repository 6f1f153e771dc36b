import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphgreen import specfun
from sphgreen.specfun import (
    FerrersOrderDegree,
    GammaPoleError,
    NonConvergenceError,
    double_factorial,
    ferrers_p,
    ferrers_q,
    gamma_real,
    gauss_2f1,
    reciprocal_gamma,
)

SQRT_PI = math.sqrt(math.pi)


def brute_force_2f1(a, b, c, z, terms=100000):
    """Independent oracle: plain partial sum with explicit Pochhammer ratios."""
    total = 1.0
    term = 1.0
    for n in range(terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if term == 0.0 or abs(term) < 1e-18 * abs(total):
            break
    return total


def reference_gauss_2f1(a, b, c, z):
    """The abs/max summation loop ``gauss_2f1`` used to run, frozen as the bit reference.

    It reads the same module constants as ``gauss_2f1``, so a test that
    patches them changes both loops.
    """
    if c <= 0.0 and c == round(c):
        raise GammaPoleError(f"2F1 undefined for nonpositive integer c={c}")
    if not abs(z) < 1.0:
        raise ValueError(f"series requires |z| < 1, got z={z}")
    total = 1.0
    term = 1.0
    below = 0
    for n in range(specfun.MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= specfun.TOLERANCE * max(abs(total), 1e-300):
            below += 1
            if below == 3:
                return total
        else:
            below = 0
    raise NonConvergenceError("reference loop did not converge", total, specfun.MAX_TERMS)


def reference_gauss_2f1_sums(a, b, c, z):
    """The int-index loop ``_gauss_2f1_sums`` used to run, frozen as the bit
    reference for its whole triple (sum, sum of magnitudes, term count).

    It reads the same module constants as ``_gauss_2f1_sums``, so a test that
    patches them changes both loops.
    """
    if c <= 0.0 and c == round(c):
        raise GammaPoleError(f"2F1 undefined for nonpositive integer c={c}")
    if not abs(z) < 1.0:
        raise ValueError(f"series requires |z| < 1, got z={z}")
    tol, max_terms = specfun.TOLERANCE, specfun.MAX_TERMS
    floor = tol * 1e-300
    total = magnitude = term = 1.0
    below = 0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        mag = term if term >= 0.0 else -term
        magnitude += mag
        if mag <= tol * (total if total >= 0.0 else -total) or mag <= floor:
            below += 1
            if below == 3:
                return total, magnitude, n + 2
        else:
            below = 0
    raise NonConvergenceError("reference loop did not converge", total, max_terms)


def outcome(fn, *args):
    """repr of the value, or of the error with its partial sum and term count.

    repr tells -0.0 from 0.0 and compares NaN equal to NaN.
    """
    try:
        return repr(fn(*args))
    except NonConvergenceError as exc:
        return ("NonConvergenceError", repr(exc.partial_sum), exc.terms)
    except (GammaPoleError, ValueError) as exc:
        return type(exc).__name__


class TestGamma:
    def test_integers(self):
        assert gamma_real(1.0) == 1.0
        assert gamma_real(5.0) == 24.0

    def test_half_integers(self):
        assert gamma_real(0.5) == pytest.approx(1.7724538509055160, rel=1e-15)
        assert gamma_real(2.5) == pytest.approx(0.75 * SQRT_PI, rel=1e-15)
        assert gamma_real(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)

    def test_negative_half_integers_keep_the_rising_factorial_bits(self):
        # the reference is the running product sqrt(pi) / (z (z+1) ... (-1/2))
        for k in range(1, 32):
            z = 0.5 - k
            product = 1.0
            for i in range(k):
                product *= z + i
            assert gamma_real(z) == SQRT_PI / product, z

    def test_pole_raises(self):
        for z in (0.0, -1.0, -4.0):
            with pytest.raises(GammaPoleError):
                gamma_real(z)

    def test_large_arguments(self):
        assert gamma_real(171.5) == pytest.approx(math.gamma(171.5), rel=1e-14)
        # (2m-1)!! alone leaves double range from z = 151.5
        for z in (151.5, 170.5):
            assert gamma_real(z) == pytest.approx(math.gamma(z), rel=1e-14)
        assert gamma_real(200.0) == math.inf
        assert reciprocal_gamma(200.0) == 0.0

    def test_reciprocal_vanishes_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.0) == 1.0

    @pytest.mark.parametrize("z", [math.nan, -math.inf])
    @pytest.mark.parametrize("f", [gamma_real, reciprocal_gamma])
    def test_nan_and_minus_inf_rejected_by_name(self, f, z):
        with pytest.raises(ValueError, match=r"must not be NaN or -inf, got z=(nan|-inf)") as info:
            f(z)
        assert not isinstance(info.value, GammaPoleError)

    def test_duplication_formula(self):
        # relative agreement on the half-integer ladder
        for z in np.arange(0.5, 10.25, 0.5):
            z = float(z)
            lhs = gamma_real(2 * z)
            rhs = 2 ** (2 * z - 1) / SQRT_PI * gamma_real(z) * gamma_real(z + 0.5)
            assert abs(lhs - rhs) / abs(lhs) <= 1e-12

    def test_reflection_formula(self):
        for z in np.arange(0.05, 1.0, 0.05):
            z = float(z)
            value = gamma_real(z) * gamma_real(1.0 - z) * math.sin(math.pi * z) / math.pi
            assert value == pytest.approx(1.0, abs=1e-12)


class TestDoubleFactorial:
    def test_definition_cases(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-2)

    def test_rejects_an_odd_n_past_math_perm(self):
        # n // 2 must fit math.factorial: n = 2 sys.maxsize + 1 is refused by name, before
        # any product of odd factors starts
        top = 2 * sys.maxsize
        with pytest.raises(ValueError, match=f"requires -1 <= n <= {top}, got {top + 1}$"):
            double_factorial(top + 1)

    def test_even_identity(self):
        for n in range(16):
            assert double_factorial(2 * n) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("ns", [range(-1, 401), (9999, 10000, 99999)])
    def test_equals_the_running_product(self, ns):
        for n in ns:
            assert double_factorial(n) == math.prod(range(n, 1, -2)), n


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.7, 1.3, 2.1, 0.0) == 1.0

    def test_binomial_identity(self):
        assert gauss_2f1(0.5, 2.0, 2.0, 0.25) == pytest.approx(0.75**-0.5, rel=1e-14)

    def test_log_case_against_brute_force(self):
        # 2F1(1/2, 1; 3/2; x^2) = atanh(x)/x; at x = 1/2 this is ln 3
        value = gauss_2f1(0.5, 1.0, 1.5, 0.25)
        assert value == pytest.approx(brute_force_2f1(0.5, 1.0, 1.5, 0.25), rel=1e-14)
        assert 2.0 * value * 0.5 == pytest.approx(1.0986122886681098, rel=1e-14)

    def test_negative_argument(self):
        # 2F1(1, 1; 2; -z) = log(1 + z)/z, alternating series
        assert gauss_2f1(1.0, 1.0, 2.0, -0.5) == pytest.approx(
            math.log(1.5) / 0.5, rel=1e-13)

    def test_nonpositive_integer_c_rejected(self):
        with pytest.raises(GammaPoleError):
            gauss_2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(GammaPoleError):
            gauss_2f1(1.0, 1.0, -2.0, 0.5)

    def test_argument_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            gauss_2f1(1.0, 1.0, 1.5, 1.0)

    def test_nonconvergence_near_one(self):
        with mock.patch.object(specfun, "MAX_TERMS", 60), pytest.raises(NonConvergenceError):
            gauss_2f1(0.5, 5.0, 1.5, 0.999)

    @pytest.mark.parametrize("d", [2, 3, 40, 60])
    def test_kernel_series_exhausts_its_cap_near_a_pole(self, d):
        # 0.013 from a pole the series in cos^2 theta cannot meet its stopping
        # rule in MAX_TERMS terms; the Ferrers route sums in sin^2 theta there
        # instead
        with pytest.raises(NonConvergenceError):
            gauss_2f1(0.5, d / 2.0, 1.5, math.cos(0.013) ** 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("f", [gauss_2f1, specfun._gauss_2f1_sums])
    def test_non_finite_parameter_rejected_by_name(self, f, slot, value):
        # NaN used to sum MAX_TERMS terms, -inf in c to raise OverflowError and
        # +inf in a to return inf
        args = [0.5, 1.0, 1.5]
        args[slot] = value
        with pytest.raises(ValueError, match="2F1 parameters must be finite") as info:
            f(*args, 0.5)
        assert not isinstance(info.value, GammaPoleError)

    def test_euler_transformation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.uniform(0.1, 2.5)
            b = rng.uniform(0.1, 2.5)
            c = rng.uniform(0.5, 3.0)
            z = rng.uniform(0.0, 0.9)
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-11

    def test_contiguous_relation(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.uniform(0.1, 2.5)
            b = rng.uniform(0.1, 2.5)
            c = rng.uniform(0.5, 3.0)
            z = rng.uniform(0.0, 0.9)
            lhs = gauss_2f1(a, b + 1.0, c, z)
            rhs = ((b - a) / b * gauss_2f1(a, b, c, z)
                   + a / b * gauss_2f1(a + 1.0, b, c, z))
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-11


class TestFerrersDomain:
    def test_argument_must_be_inside_cut(self):
        with pytest.raises(ValueError):
            FerrersOrderDegree(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FerrersOrderDegree(1.0, 0.0, -1.5)

    def test_negative_integer_degree_plus_order_rejected(self):
        with pytest.raises(ValueError):
            FerrersOrderDegree(0.5, -1.5, 0.3)
        with pytest.raises(ValueError):
            FerrersOrderDegree(0.0, -2.0, 0.3)
        # zero and positive integers are fine
        FerrersOrderDegree(0.5, -0.5, 0.3)
        FerrersOrderDegree(1.0, 1.0, 0.3)

    @pytest.mark.parametrize("degree, order", [(math.nan, 1.0), (math.inf, 1.0),
                                               (-math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_degree_or_order_rejected(self, degree, order):
        with pytest.raises(ValueError, match="degree and order must be finite"):
            FerrersOrderDegree(degree, order, 0.5)

    def test_fields_are_immutable_and_replace_checks(self):
        pd = FerrersOrderDegree(1.0, 1.0, 0.3)
        for name in pd._fields:
            with pytest.raises(AttributeError):
                setattr(pd, name, getattr(pd, name))
        assert pd._replace(argument=0.5) == (1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="argument must lie in"):
            pd._replace(argument=1.0)


class TestFerrersP:
    def test_degree_zero_is_one(self):
        for x in (-0.8, 0.0, 0.5):
            assert ferrers_p(FerrersOrderDegree(0.0, 0.0, x)) == pytest.approx(1.0, abs=1e-15)

    def test_degree_one_is_argument(self):
        for x in (-0.7, 0.2, 0.9):
            assert ferrers_p(FerrersOrderDegree(1.0, 0.0, x)) == pytest.approx(x, rel=1e-14)

    def test_half_half_at_origin(self):
        # the odd block carries the x prefactor and the even block's
        # trigonometric coefficient vanishes, so the value is exactly 0
        assert ferrers_p(FerrersOrderDegree(0.5, 0.5, 0.0)) == 0.0


class TestFerrersQ:
    def test_zero_zero_is_log_cot_half(self):
        assert ferrers_q(FerrersOrderDegree(0.0, 0.0, 0.0)) == 0.0
        for theta in (0.4, 1.0, 2.2):
            expected = math.log(1.0 / math.tan(theta / 2.0))
            got = ferrers_q(FerrersOrderDegree(0.0, 0.0, math.cos(theta)))
            assert got == pytest.approx(expected, rel=1e-13)

    def test_half_minus_half_table_value(self):
        theta = math.pi / 4.0
        got = ferrers_q(FerrersOrderDegree(0.5, -0.5, math.cos(theta)))
        expected = math.sqrt(math.pi / 2.0) * math.sin(theta) ** 0.5 / math.tan(theta)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_one_minus_one_at_origin(self):
        assert ferrers_q(FerrersOrderDegree(1.0, -1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_order_negated_degree_specialization(self):
        # Q_nu^{-nu}(x) = sqrt(pi)/2^nu * x (1-x^2)^{nu/2} / Gamma(nu+1/2)
        #                 * 2F1(1/2, nu+1; 3/2; x^2)
        for nu in (0.5, 1.0, 1.5, 2.0, 3.5):
            for x in (-0.6, 0.2, 0.8):
                direct = ferrers_q(FerrersOrderDegree(nu, -nu, x))
                closed = (SQRT_PI / 2.0**nu * x * (1.0 - x * x) ** (nu / 2.0)
                          / gamma_real(nu + 0.5)
                          * gauss_2f1(0.5, nu + 1.0, 1.5, x * x))
                assert abs(direct - closed) / max(1.0, abs(closed)) <= 1e-11


# derandomized and without a database, so Tier-1 is repeatable and writes nothing
BIT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
PARAMETER = st.one_of(
    st.floats(-30.0, 30.0, allow_nan=False),
    st.integers(-30, 30).map(float),
    st.integers(-60, 60).map(lambda k: k / 2.0),
)


class TestGauss2F1BitIdentity:
    """The summation loop returns exactly what the reference loop returns, and
    raises NonConvergenceError in exactly the same cases."""

    @BIT_SETTINGS
    @given(a=PARAMETER, b=PARAMETER, c=PARAMETER,
           z=st.floats(-1.0, 1.0, allow_nan=False),
           max_terms=st.integers(1, 3000),
           rel_tol=st.sampled_from([1e-15, 1e-12, 1e-8, 1e-3, 0.5]))
    @example(a=0.5, b=5.0, c=1.5, z=0.999, max_terms=60, rel_tol=1e-15)
    @example(a=-3.0, b=1.0, c=1.5, z=0.9, max_terms=100, rel_tol=1e-15)
    @example(a=1e300, b=1e300, c=1.0, z=0.5, max_terms=10, rel_tol=1e-15)
    @example(a=0.0, b=0.0, c=1.0, z=-0.0, max_terms=1, rel_tol=1e-15)
    def test_random_parameters(self, a, b, c, z, max_terms, rel_tol):
        with mock.patch.multiple(specfun, TOLERANCE=rel_tol, MAX_TERMS=max_terms):
            assert outcome(gauss_2f1, a, b, c, z) == outcome(reference_gauss_2f1, a, b, c, z)

    @BIT_SETTINGS
    @given(a=PARAMETER, b=PARAMETER, c=PARAMETER,
           z=st.floats(-1.0, 1.0, allow_nan=False),
           max_terms=st.integers(1, 3000),
           rel_tol=st.sampled_from([1e-15, 1e-12, 1e-8, 1e-3, 0.5]))
    # a running counter (a + n as a += 1.0) first rounds differently at n = 143
    @example(a=-14.4649949824222, b=20.0, c=1.5, z=0.95, max_terms=3000, rel_tol=1e-15)
    @example(a=0.5, b=5.0, c=1.5, z=0.999, max_terms=60, rel_tol=1e-15)
    @example(a=1e300, b=1e300, c=1.0, z=0.5, max_terms=10, rel_tol=1e-15)
    # a, b, c > 0 and z >= 0 take the loop without magnitudes; a = 0.0 does not
    @example(a=5e-324, b=2.0, c=1.5, z=0.5, max_terms=3000, rel_tol=1e-15)
    @example(a=0.5, b=3.0, c=1.5, z=-0.0, max_terms=3000, rel_tol=1e-15)
    @example(a=0.5, b=3.0, c=1.5, z=0.0, max_terms=3000, rel_tol=1e-15)
    @example(a=0.0, b=2.0, c=1.5, z=0.5, max_terms=3000, rel_tol=1e-15)
    @example(a=1.0, b=5e-324, c=0.5, z=0.9, max_terms=3000, rel_tol=1e-15)
    def test_sums_random_parameters(self, a, b, c, z, max_terms, rel_tol):
        # the sum of magnitudes and the term count feed hyp2f1_euler's bound
        with mock.patch.multiple(specfun, TOLERANCE=rel_tol, MAX_TERMS=max_terms):
            assert (outcome(specfun._gauss_2f1_sums, a, b, c, z)
                    == outcome(reference_gauss_2f1_sums, a, b, c, z))

    @BIT_SETTINGS
    @given(d=st.integers(2, 60), z=st.floats(0.0, 0.98, allow_nan=False))
    @example(d=60, z=0.98)
    @example(d=2, z=0.98)
    @example(d=45, z=0.0)
    def test_kernel_series(self, d, z):
        # the direct and Euler-transformed series of the hypergeometric routes
        for args in ((0.5, d / 2.0, 1.5, z), (1.0, (3.0 - d) / 2.0, 1.5, z)):
            assert outcome(gauss_2f1, *args) == outcome(reference_gauss_2f1, *args)
            assert (outcome(specfun._gauss_2f1_sums, *args)
                    == outcome(reference_gauss_2f1_sums, *args))


def cold(fn, *args):
    """``outcome`` of fn with every term-ratio table dropped first."""
    specfun._ratio_slot.cache_clear()
    return outcome(fn, *args)


def table(args):
    """The term-ratio table kept for the (a, b, c) of args."""
    return specfun._ratio_slot(*args[:3])[0]


def warm(args, size):
    """Drop every table, then leave args' triple one of ``size`` ratios: the
    ratios read by its series at z = 0.999 cut at MAX_TERMS = size."""
    specfun._ratio_slot.cache_clear()
    with mock.patch.object(specfun, "MAX_TERMS", size):
        outcome(specfun._gauss_2f1_sums, *args[:3], 0.999)
    assert len(table(args)) == size


class TestRatioTables:
    """Each (a, b, c) keeps a table of its term ratios, which grows as calls
    need more terms; whatever the tables hold, every call returns the frozen
    reference's bits, cold or warm."""

    LEAN = (0.5, 20.0, 1.5, 0.999)
    GENERAL = (0.5, 20.0, 1.5, -0.999)

    def test_a_table_holds_the_ratios_its_longest_call_read(self):
        # a call that sums n terms reads n - 1 ratios; one that ends inside
        # the table leaves the same table in the slot
        specfun._ratio_slot.cache_clear()
        for z, n in ((0.5, 103), (0.9, 687)):
            args = (0.5, 20.0, 1.5, z)
            assert (outcome(specfun._gauss_2f1_sums, *args)
                    == outcome(reference_gauss_2f1_sums, *args))
            assert specfun._gauss_2f1_sums(*args)[2] == n
            assert len(table(args)) == n - 1
        kept = table(args)
        for z in (0.5, 0.9, -0.5, 0.0, -0.0):
            args = (0.5, 20.0, 1.5, z)
            assert (outcome(specfun._gauss_2f1_sums, *args)
                    == outcome(reference_gauss_2f1_sums, *args))
            assert table(args) is kept

    @pytest.mark.parametrize("m", [1, 10, 40, 60])
    def test_terminating_series_at_the_table_end(self, m):
        # 2F1(-m, 5/2; 3/2; z) reads m + 3 ratios at 0.7 and at 0.999, so its
        # table never grows past them: a call reads past the end of a table
        # one ratio short, then to the end of one it left
        args = (-float(m), 2.5, 1.5, 0.7)
        want = outcome(reference_gauss_2f1_sums, *args)
        assert specfun._gauss_2f1_sums(*args)[2] == m + 4
        assert cold(specfun._gauss_2f1_sums, *args) == want
        assert len(table(args)) == m + 3
        for size in (m + 2, m + 3):
            warm(args, size)
            assert outcome(specfun._gauss_2f1_sums, *args) == want
            assert outcome(specfun._gauss_2f1_sums, *args) == want
            assert len(table(args)) == m + 3

    @pytest.mark.parametrize("args", [(0.5, 20.0, 1.5, 0.5), (0.5, 20.0, 1.5, -0.5),
                                      (0.5, 20.0, 1.5, 0.9), (-3.5, 0.25, 0.5, -0.9)])
    def test_series_stopping_at_the_table_end(self, args):
        # a series that reads k ratios, cold and from a table of k + 1, k and
        # k - 1: it stops short of the table's end, at it, and one past it
        want = outcome(reference_gauss_2f1_sums, *args)
        k = specfun._gauss_2f1_sums(*args)[2] - 1
        assert cold(specfun._gauss_2f1_sums, *args) == want
        assert len(table(args)) == k
        for size in (k + 1, k, k - 1):
            warm(args, size)
            assert outcome(specfun._gauss_2f1_sums, *args) == want
            assert len(table(args)) == max(size, k)

    @pytest.mark.parametrize("args", [LEAN, GENERAL])
    def test_series_cut_at_the_table_end(self, args):
        # MAX_TERMS = len - 1 stops inside a warmed table, len at its end and
        # len + 1 one ratio past it; each is also run cold, and a call cut
        # at MAX_TERMS leaves no more ratios than it read
        for size in (1, 16, 100, 1000):
            for max_terms in (size - 1, size, size + 1):
                with mock.patch.object(specfun, "MAX_TERMS", max_terms):
                    want = outcome(reference_gauss_2f1_sums, *args)
                    assert want[0] == "NonConvergenceError"
                    assert cold(specfun._gauss_2f1_sums, *args) == want
                    assert len(table(args)) == max_terms
                warm(args, size)
                with mock.patch.object(specfun, "MAX_TERMS", max_terms):
                    assert outcome(specfun._gauss_2f1_sums, *args) == want
                assert len(table(args)) == max(size, max_terms)

    @pytest.mark.parametrize("max_terms", [1, 2, 15, 16, 17, 100, 255])
    def test_max_terms_below_a_cached_table(self, max_terms):
        # a table that grew under the default cap is read no further than a
        # lower MAX_TERMS, and keeps its length for the next call
        args = (0.5, 20.0, 1.5, 0.95)
        assert cold(specfun._gauss_2f1_sums, *args) == outcome(reference_gauss_2f1_sums, *args)
        size = len(specfun._ratio_slot(*args[:3])[0])
        assert size >= 256
        for z in (0.95, 0.5):
            with mock.patch.object(specfun, "MAX_TERMS", max_terms):
                assert (outcome(specfun._gauss_2f1_sums, *args[:3], z)
                        == outcome(reference_gauss_2f1_sums, *args[:3], z))
        assert len(specfun._ratio_slot(*args[:3])[0]) == size

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zeros_share_a_table(self, first):
        specfun._ratio_slot.cache_clear()
        for a, b in ((first, 2.0), (-first, 2.0), (2.0, first), (2.0, -first)):
            for z in (0.5, -0.5, 0.99):
                args = (a, b, 1.5, z)
                assert (outcome(specfun._gauss_2f1_sums, *args)
                        == outcome(reference_gauss_2f1_sums, *args))
        assert specfun._ratio_slot(0.0, 2.0, 1.5) is specfun._ratio_slot(-0.0, 2.0, 1.5)
        assert specfun._ratio_slot(2.0, 0.0, 1.5) is specfun._ratio_slot(2.0, -0.0, 1.5)

    def test_interleaved_triples(self):
        # calls on different triples, each growing its own table in turn
        triples = [(0.5, 20.0, 1.5), (1.0, -18.5, 1.5), (-3.5, 0.25, 0.5), (0.5, 2.0, 1.5)]
        specfun._ratio_slot.cache_clear()
        for z in (0.1, -0.6, 0.9, 0.3, 0.99, -0.999, 0.999):
            for args in (t + (z,) for t in triples):
                assert (outcome(specfun._gauss_2f1_sums, *args)
                        == outcome(reference_gauss_2f1_sums, *args))

    def test_threads_growing_one_triple(self):
        # more threads than cores, switching every microsecond, each extending
        # the one table from cold, z by z, to 13774 ratios
        import sys
        import threading

        zs = [0.5 + 0.495 * k / 40 for k in range(41)]
        want = [outcome(reference_gauss_2f1_sums, 0.5, 20.0, 1.5, z) for z in zs]
        got = [[] for _ in range(4)]
        start = threading.Barrier(len(got))

        def run(out):
            start.wait(timeout=60)
            for z in zs:
                out.append(outcome(specfun._gauss_2f1_sums, 0.5, 20.0, 1.5, z))

        specfun._ratio_slot.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * len(got)

    def test_more_triples_than_the_cache_holds(self):
        info = specfun._ratio_slot.cache_info()
        assert info.maxsize == 256
        specfun._ratio_slot.cache_clear()
        for k in range(300):
            args = (0.5, 1.0 + k / 8.0, 1.5, 0.9)
            assert (outcome(specfun._gauss_2f1_sums, *args)
                    == outcome(reference_gauss_2f1_sums, *args))
        assert specfun._ratio_slot.cache_info().currsize == 256

    def test_a_table_keeps_only_its_first_max_cached_ratios(self):
        # a call that reads past _MAX_CACHED_RATIOS stores no more of them,
        # and one that reads past a full table stores nothing
        args = (0.5, 20.0, 1.5, 0.999)
        with mock.patch.object(specfun, "_MAX_CACHED_RATIOS", 64):
            want = outcome(reference_gauss_2f1_sums, *args)
            assert cold(specfun._gauss_2f1_sums, *args) == want
            kept = table(args)
            assert outcome(specfun._gauss_2f1_sums, *args) == want
            assert len(kept) == 64 and table(args) is kept

    @BIT_SETTINGS
    @given(a=PARAMETER, b=PARAMETER, c=PARAMETER, z=st.floats(-1.0, 1.0, allow_nan=False))
    def test_a_cold_call_gives_the_bits_of_a_warm_one(self, a, b, c, z):
        with mock.patch.object(specfun, "MAX_TERMS", 3000):
            first = cold(specfun._gauss_2f1_sums, a, b, c, z)
            assert outcome(specfun._gauss_2f1_sums, a, b, c, z) == first
            assert first == outcome(reference_gauss_2f1_sums, a, b, c, z)

def reference_ferrers(pd, second_kind):
    """The closure-based Ferrers P and Q that the two-term sum replaced, frozen
    as the bit reference.  It calls the special functions through the module,
    so a test that wraps them sees both codes' calls."""
    nu, mu, x = pd.degree, pd.order, pd.argument
    pow_fac = (1.0 - x * x) ** (-mu / 2.0)

    def odd_term():
        return (specfun.gamma_real((nu + mu + 2.0) / 2.0)
                * specfun.reciprocal_gamma((nu - mu + 1.0) / 2.0)
                * x * pow_fac
                * specfun.gauss_2f1((1.0 - nu - mu) / 2.0, (nu - mu + 2.0) / 2.0, 1.5, x * x))

    def even_term():
        return (specfun.gamma_real((nu + mu + 1.0) / 2.0)
                * specfun.reciprocal_gamma((nu - mu + 2.0) / 2.0)
                * pow_fac
                * specfun.gauss_2f1((-nu - mu) / 2.0, (nu - mu + 1.0) / 2.0, 0.5, x * x))

    v = nu + mu
    if v == round(v):
        s = (0.0, 1.0, 0.0, -1.0)[int(round(v)) % 4]
        c = (1.0, 0.0, -1.0, 0.0)[int(round(v)) % 4]
    else:
        s, c = math.sin(0.5 * math.pi * v), math.cos(0.5 * math.pi * v)
    value = 0.0
    if second_kind:
        if c != 0.0:
            value += SQRT_PI * 2.0**mu * c * odd_term()
        if s != 0.0:
            value -= SQRT_PI * 2.0 ** (mu - 1.0) * s * even_term()
    else:
        if s != 0.0:
            value += 2.0 ** (mu + 1.0) / SQRT_PI * s * odd_term()
        if c != 0.0:
            value += 2.0**mu / SQRT_PI * c * even_term()
    return value


def traced_outcome(fn, *args):
    """``outcome`` of fn (ZeroDivisionError and OverflowError included) and the
    calls it made to gamma_real, reciprocal_gamma and gauss_2f1, in order.

    The kept Gamma prefactors are dropped first, so that every call is made."""
    specfun._gamma_ratio.cache_clear()
    calls = []

    def recording(name):
        real = getattr(specfun, name)
        return lambda *a: calls.append((name, *map(repr, a))) or real(*a)

    with mock.patch.multiple(specfun, **{name: recording(name) for name in
                                         ("gamma_real", "reciprocal_gamma", "gauss_2f1")}):
        try:
            result = outcome(fn, *args)
        except (ZeroDivisionError, OverflowError) as exc:
            result = type(exc).__name__
    return result, calls


class TestFerrersBitIdentity:
    """ferrers_p and ferrers_q return the bits of the closure code they
    replaced, or raise the same error, after the same special-function calls."""

    @BIT_SETTINGS
    @given(nu=PARAMETER, mu=PARAMETER,
           x=st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                       st.sampled_from([0.0, -0.0, 0.5, -0.8, 1.0 - 2.0**-53])))
    @example(nu=0.5, mu=1023.5, x=0.5)  # 2^(mu+1) overflows, 2^mu does not
    @example(nu=1.5, mu=1024.5, x=0.1)
    @example(nu=1200.0, mu=-1100.0, x=0.3)  # a weight underflows to 0.0
    @example(nu=0.5, mu=0.5, x=-0.0)
    def test_random_records(self, nu, mu, x):
        try:
            pd = FerrersOrderDegree(nu, mu, x)
        except ValueError:
            return
        with mock.patch.object(specfun, "MAX_TERMS", 3000):
            assert traced_outcome(ferrers_p, pd) == traced_outcome(reference_ferrers, pd, False)
            assert traced_outcome(ferrers_q, pd) == traced_outcome(reference_ferrers, pd, True)

    def test_calls_are_recorded(self):
        # the comparison above is of calls as well as of values; reciprocal_gamma
        # calls gamma_real through the module too
        _, calls = traced_outcome(ferrers_q, FerrersOrderDegree(0.5, 0.25, 0.3))
        block = ["gamma_real", "reciprocal_gamma", "gamma_real", "gauss_2f1"]
        assert [c[0] for c in calls] == block * 2

    def test_gamma_prefactors_are_kept(self):
        # a second call with the same (nu, mu) reuses both blocks' Gamma(g) /
        # Gamma(r) and returns the same bits; only the series are summed again
        pd = FerrersOrderDegree(2.5, -2.5, 0.3)
        other = pd._replace(argument=-0.7)
        want = [traced_outcome(reference_ferrers, p, True)[0] for p in (pd, other)]
        assert traced_outcome(ferrers_q, pd)[0] == want[0]
        calls = []
        real = specfun.gamma_real
        with mock.patch.object(specfun, "gamma_real", lambda z: calls.append(z) or real(z)):
            assert [outcome(ferrers_q, p) for p in (pd, other)] == want
        assert calls == []


# the (nu, mu) of the radial harmonics that ``sphgreen check ode`` runs, where
# nu + mu is not a negative integer
ODE_DEGREE_ORDERS = sorted({(d / 2.0 - 1.0, sign * (d / 2.0 - 1.0 + l))
                            for d in range(2, 8) for l in range(3) for sign in (1, -1)
                            if sign == 1 or l == 0})


class TestFerrersAgainstMpmath:
    @pytest.mark.parametrize("nu, mu", ODE_DEGREE_ORDERS)
    def test_ode_parameters(self, nu, mu):
        from mpmath import legenp, legenq, mp

        for x in (-0.8, 0.8, -0.3, 0.3, 0.1, 0.5, 0.9):
            pd = FerrersOrderDegree(nu, mu, x)
            for got, ref in ((ferrers_p(pd), legenp), (ferrers_q(pd), legenq)):
                with mp.workdps(25):
                    want = ref(nu, mu, x, type=2)
                assert abs(got - want) <= 1e-12 * abs(want), (ref.__name__, x, got, want)
