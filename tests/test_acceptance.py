"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import operator
import random
import time

import numpy as np
import pytest

from sphgreen.geometry import embed, geodesic_distance
from sphgreen.harmonics import (
    DegenerateBranchError,
    QuantumNumbers,
    RadialSolutionKind,
    ode_convergence_order,
)
from sphgreen.kernel import Representation, radial_kernel
from sphgreen.oracle import (
    box_volume,
    check_cross_representation,
    check_delta_identity,
    check_laplace_annihilation,
    euclidean_limit_errors,
    hypersphere_volume,
    random_hyperpoint,
)
from sphgreen.specfun import (
    FerrersOrderDegree,
    double_factorial,
    ferrers_q,
    gamma_real,
    gauss_2f1,
)


def report(number: int, passed: bool, summary: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {summary}")
    assert passed, f"criterion {number}: {summary}"


def test_criterion_1_cross_representation_agreement():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 11):
        result = check_cross_representation(d)
        worst = max(worst, result.measured)
        assert result.passed, result.line()
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(1, ok, f"worst relative deviation {worst:.3e} (tol 1e-9) over d=2..10, "
                  f"50 angles; runtime {elapsed:.2f}s (budget 10s)")


def test_criterion_2_closed_form_table(log_cot_half):
    thetas = np.linspace(0.3, math.pi - 0.3, 20)
    printed = {
        2: lambda t: log_cot_half(t),
        3: lambda t: 1.0 / math.tan(t),
        4: lambda t: 0.5 * log_cot_half(t) + math.cos(t) / (2.0 * math.sin(t) ** 2),
        5: lambda t: 1.0 / math.tan(t) + (1.0 / math.tan(t)) ** 3 / 3.0,
        7: lambda t: (1.0 / math.tan(t) + 2.0 / 3.0 * (1.0 / math.tan(t)) ** 3
                      + (1.0 / math.tan(t)) ** 5 / 5.0),
    }
    worst = 0.0
    for d, form in printed.items():
        for theta in thetas:
            got = radial_kernel(d, theta, Representation.FINITE_SUM).value
            want = form(theta)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-12

    # d = 6: the corrected final term has a fourth power of sine
    def d6_corrected(t):
        c, s = math.cos(t), math.sin(t)
        return 3.0 / 8.0 * log_cot_half(t) + 3.0 * c / (8.0 * s**2) + c / (4.0 * s**4)

    def d6_alternate(t):
        c, s = math.cos(t), math.sin(t)
        return 3.0 / 8.0 * log_cot_half(t) + 3.0 * c / (8.0 * s**2) + c / (4.0 * s**2)

    worst6 = 0.0
    alt_gap = 0.0
    for theta in thetas:
        got = radial_kernel(6, theta, Representation.FINITE_SUM).value
        want = d6_corrected(theta)
        worst6 = max(worst6, abs(got - want) / max(1.0, abs(want)))
        quad = radial_kernel(6, theta, Representation.QUADRATURE).value
        assert abs(got - quad) / max(1.0, abs(quad)) <= 1e-9
        alt_gap = max(alt_gap, abs(got - d6_alternate(theta)))
    assert worst6 <= 1e-12
    print("note: the d=6 closed form ends in cos(theta)/(4 sin^4 theta); a "
          "transcription with sin^2 in that term deviates from quadrature by "
          f"up to {alt_gap:.3e} on this grid and is rejected")
    report(2, True, f"finite sum matches printed forms for d in (2,3,4,5,7) to 1e-12 "
                    f"(worst {worst:.3e}); d=6 matches the corrected form "
                    f"(worst {worst6:.3e}) and quadrature")


def test_criterion_3_ferrers_table(log_cot_half):
    thetas = np.linspace(0.15, math.pi - 0.15, 20)  # inside the series window
    sqrt_pi_2 = math.sqrt(math.pi / 2.0)

    def lhs(d, t):
        nu = d / 2.0 - 1.0
        q = ferrers_q(FerrersOrderDegree(nu, -nu, math.cos(t)))
        return q / math.sin(t) ** nu

    identities = {
        2: lambda t: log_cot_half(t),
        3: lambda t: sqrt_pi_2 / math.tan(t),
        4: lambda t: 0.5 * log_cot_half(t) + math.cos(t) / (2.0 * math.sin(t) ** 2),
        5: lambda t: 0.5 * sqrt_pi_2 * (1.0 / math.tan(t)
                                        + (1.0 / math.tan(t)) ** 3 / 3.0),
        6: lambda t: (log_cot_half(t) / 8.0 + math.cos(t) / (8.0 * math.sin(t) ** 2)
                      + math.cos(t) / (12.0 * math.sin(t) ** 4)),
        7: lambda t: sqrt_pi_2 / 8.0 * (1.0 / math.tan(t)
                                        + 2.0 / 3.0 * (1.0 / math.tan(t)) ** 3
                                        + (1.0 / math.tan(t)) ** 5 / 5.0),
    }
    worst = 0.0
    for d, form in identities.items():
        for theta in thetas:
            got = lhs(d, theta)
            want = form(theta)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    report(3, worst <= 1e-9,
           f"six Ferrers-Q identities (d=2..7) hold to {worst:.3e} (tol 1e-9)")


def test_criterion_4_vanishing_and_symmetry():
    half_pi = math.pi / 2.0
    worst_mid = 0.0
    for d in range(2, 11):
        for rep in Representation:
            worst_mid = max(worst_mid, abs(radial_kernel(d, half_pi, rep).value))
    worst_sym = 0.0
    for d in range(2, 11):
        for theta in np.linspace(0.3, half_pi - 0.05, 25):
            theta = float(theta)
            total = (radial_kernel(d, theta, Representation.FINITE_SUM).value
                     + radial_kernel(d, math.pi - theta, Representation.FINITE_SUM).value)
            worst_sym = max(worst_sym, abs(total))
    ok = worst_mid <= 1e-12 and worst_sym <= 1e-10
    report(4, ok, f"|I_d(pi/2)| <= {worst_mid:.3e} (tol 1e-12) across all routes; "
                  f"|I_d(pi-theta) + I_d(theta)| <= {worst_sym:.3e} (tol 1e-10)")


def test_criterion_5_euclidean_limit():
    start = time.perf_counter()
    radii = [10.0, 100.0, 1000.0, 10000.0]
    errors3 = euclidean_limit_errors(3, 1.0, radii)
    final_ok = errors3[-1] <= 1e-6
    slope = (math.log(errors3[-1]) - math.log(errors3[0])) / math.log(1000.0)
    slope_ok = abs(slope + 2.0) <= 0.2
    monotone3 = all(b < a for a, b in zip(errors3, errors3[1:]))

    # 2-d Green's functions agree only modulo an additive constant: with
    # theta = r/R, log cot(theta/2) = log(2/theta) - theta^2/12 + O(theta^4)
    # gives S_R(2, r/R) - G_2(r) = log(2R)/(2 pi) - r^2/(24 pi R^2) + O(R^-4),
    # so the limit is checked on the difference minus that analytic offset.
    offsets2 = euclidean_limit_errors(2, 1.0, radii)
    residuals2 = [abs(e - math.log(2.0 * radius) / (2.0 * math.pi))
                  for e, radius in zip(offsets2, radii)]
    final2_ok = residuals2[-1] <= 1e-9
    slope2 = (math.log(residuals2[-1]) - math.log(residuals2[0])) / math.log(1000.0)
    slope2_ok = abs(slope2 + 2.0) <= 0.2
    monotone2 = all(b < a for a, b in zip(residuals2, residuals2[1:]))
    elapsed = time.perf_counter() - start

    ok = (final_ok and slope_ok and monotone3
          and final2_ok and slope2_ok and monotone2 and elapsed <= 1.0)
    report(5, ok,
           f"d=3: relative error {errors3[-1]:.3e} at R=1e4 (tol 1e-6), "
           f"log-log slope {slope:.3f} (want -2 +/- 0.2), monotone={monotone3}; "
           f"d=2: raw differences {['%.3f' % e for e in offsets2]}, "
           f"residuals after removing log(2R)/(2 pi) "
           f"{['%.3e' % e for e in residuals2]} (tol 1e-9 at R=1e4), "
           f"log-log slope {slope2:.3f} (want -2 +/- 0.2), monotone={monotone2}; "
           f"runtime {elapsed:.2f}s (budget 1s)")


def test_criterion_6_delta_identity(mp_integral):
    from mpmath import mp

    start = time.perf_counter()
    # analytic oracle values, computed independently of the product rule
    moment = mp_integral(lambda u: u * mp.atanh(u), -1.0, 1.0)
    zonal = mp_integral(lambda t: 3.0 * mp.cos(t) ** 2 * mp.sin(t), 0.0, math.pi)
    assert moment == pytest.approx(1.0, abs=1e-9)
    assert zonal == pytest.approx(2.0, rel=1e-12)

    results = {}
    for d in (2, 3):
        for radius in (1.0, 5.0):
            results[(d, radius)] = check_delta_identity(d, radius).measured
    dev2 = max(abs(results[(2, r)] - 2.0) for r in (1.0, 5.0))
    dev3 = max(abs(results[(3, r)] - 2.0) for r in (1.0, 5.0))
    inv2 = abs(results[(2, 1.0)] - results[(2, 5.0)])
    inv3 = abs(results[(3, 1.0)] - results[(3, 5.0)])
    elapsed = time.perf_counter() - start
    ok = (dev2 <= 1e-6 and dev3 <= 1e-5 and inv2 <= 1e-6 and inv3 <= 1e-5
          and elapsed <= 30.0)
    report(6, ok, f"measured 2.0 within {dev2:.3e} (d=2, tol 1e-6) and {dev3:.3e} "
                  f"(d=3, tol 1e-5); radius invariance {inv2:.2e}/{inv3:.2e}; "
                  f"oracle: int u atanh u = {moment:.12f}, 3 int cos^2 sin = {zonal:.12f}; "
                  f"runtime {elapsed:.2f}s (budget 30s)")


def test_criterion_7_ode_residual_orders():
    tested = 0
    skipped = 0
    annihilated = 0
    worst = 2.0
    for d in range(2, 8):
        for l in range(0, 3):
            q = QuantumNumbers(d, l)
            for kind in RadialSolutionKind:
                for theta in (0.5, 1.0, 2.0):
                    try:
                        order = ode_convergence_order(q, kind, theta)
                    except (ValueError, DegenerateBranchError):
                        skipped += 1
                        continue
                    if order is None:
                        annihilated += 1
                        continue
                    tested += 1
                    if abs(order - 2.0) > abs(worst - 2.0):
                        worst = order
                    assert abs(order - 2.0) <= 0.2, (d, l, kind.value, theta, order)
    ok = tested >= 72
    report(7, ok, f"{tested} branch/angle combinations at order {worst:.3f} worst "
                  f"(want 2 +/- 0.2); {annihilated} annihilated to rounding; "
                  f"{skipped} skipped (degenerate or outside Ferrers domain)")


def test_criterion_8_laplace_annihilation():
    worst = 2.0
    for d in range(2, 8):
        for radius in (1.0, 2.0):
            for theta in (0.5, 1.5, 2.5):
                result = check_laplace_annihilation(d, radius, theta)
                if abs(result.measured - 2.0) > abs(worst - 2.0):
                    worst = result.measured
                assert result.passed, result.line()
    report(8, abs(worst - 2.0) <= 0.2,
           f"radial-Laplacian residual of the fundamental solution at order {worst:.3f} "
           f"worst (want 2 +/- 0.2) over d=2..7, R in (1,2), theta in (0.5,1.5,2.5)")


def test_criterion_9_geometry_oracle():
    rng = random.Random(20260809)
    worst_dist = 0.0
    for d in range(2, 7):
        for _ in range(1000):
            radius = rng.uniform(0.5, 3.0)
            a = random_hyperpoint(rng, d, radius)
            b = random_hyperpoint(rng, d, radius)
            inner = math.fsum(map(operator.mul, embed(a), embed(b))) / radius**2
            oracle = radius * math.acos(min(1.0, max(-1.0, inner)))
            worst_dist = max(worst_dist, abs(geodesic_distance(a, b) - oracle))
    worst_vol = 0.0
    for d in (2, 3, 4):
        expected = hypersphere_volume(d, 1.0)
        worst_vol = max(worst_vol, abs(box_volume(d, 1.0) - expected) / expected)
    ok = worst_dist <= 1e-10 and worst_vol <= 1e-6
    report(9, ok, f"polar vs ambient distance deviation {worst_dist:.3e} "
                  f"(tol 1e-10, 1000 pairs per d=2..6); volume relative error "
                  f"{worst_vol:.3e} (tol 1e-6, d=2..4)")


def test_criterion_10_special_function_identities():
    sqrt_pi = math.sqrt(math.pi)
    worst_dup = 0.0
    for z in np.arange(0.5, 10.25, 0.5):
        z = float(z)
        lhs = gamma_real(2.0 * z)
        rhs = 2.0 ** (2.0 * z - 1.0) / sqrt_pi * gamma_real(z) * gamma_real(z + 0.5)
        worst_dup = max(worst_dup, abs(lhs - rhs) / abs(lhs))
    worst_ref = 0.0
    for z in np.arange(0.05, 1.0, 0.05):
        z = float(z)
        value = gamma_real(z) * gamma_real(1.0 - z) * math.sin(math.pi * z) / math.pi
        worst_ref = max(worst_ref, abs(value - 1.0))
    for n in range(16):
        assert double_factorial(2 * n) == 2**n * math.factorial(n)
    rng = np.random.default_rng(42)
    worst_euler = 0.0
    worst_contig = 0.0
    for _ in range(25):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.5, 3.0)
        z = rng.uniform(0.0, 0.9)
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        worst_euler = max(worst_euler, abs(lhs - rhs) / max(1.0, abs(lhs)))
        lhs = gauss_2f1(a, b + 1.0, c, z)
        rhs = (b - a) / b * gauss_2f1(a, b, c, z) + a / b * gauss_2f1(a + 1.0, b, c, z)
        worst_contig = max(worst_contig, abs(lhs - rhs) / max(1.0, abs(lhs)))
    worst_binom = 0.0
    for a, b, z in ((0.5, 2.0, 0.25), (1.5, 0.7, 0.6), (2.0, 3.0, 0.1)):
        got = gauss_2f1(a, b, b, z)
        worst_binom = max(worst_binom, abs(got - (1.0 - z) ** -a) / (1.0 - z) ** -a)
    ok = (worst_dup <= 1e-12 and worst_ref <= 1e-12 and worst_euler <= 1e-11
          and worst_contig <= 1e-11 and worst_binom <= 1e-12)
    report(10, ok, f"duplication {worst_dup:.2e} (tol 1e-12), reflection "
                   f"{worst_ref:.2e} (tol 1e-12), (2n)!! = 2^n n! exact, Euler "
                   f"{worst_euler:.2e} / contiguous {worst_contig:.2e} (tol 1e-11), "
                   f"binomial reduction {worst_binom:.2e}")
