"""Independent verification engines for the hypersphere kernel.

The convergence order of one central-difference radial operator
(``harmonics.convergence_order``) on the radial harmonics and, at l = 0, on
the fundamental solution, which the operator annihilates; the distributional
(test-function) identity by product quadrature, the zero-curvature limit
against the Euclidean solution, and the cross-representation sweep against
adaptive quadrature.  ``SUITES`` groups them into the suites of
``sphgreen check``.

Every check runs on the standard library alone, through the library's own
code: the delta identity sums ``kernel._finite_sum``, the core of the
``finite_sum`` route, over an owned Gauss-Legendre rule (``_polar_rule``), and
the distance check sets ``geometry.embed`` against the ``geodesic_distance``
that ``sphgreen distance`` runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import namedtuple
from typing import Sequence

from .geometry import HyperPoint, _clamped_acos, embed, geodesic_distance
from .harmonics import (DegenerateBranchError, QuantumNumbers, RadialSolutionKind,
                        convergence_order, ode_convergence_order)
from .kernel import (
    _ROUTE_NAMES,
    _angle_grid,
    _check_dimension,
    _check_radius,
    _check_theta,
    _deviation,
    _finite_sum,
    _finite_sum_table,
    _kernel_rows,
    _pair_product,
    _power,
    _scaled,
    euclidean_fundamental,
    fundamental_solution,
    radial_kernel,
    solution_scale,
)
from .quadrature import TOLERANCE, legendre_roots

__all__ = [
    "SUITES",
    "CheckReport",
    "check_laplace_annihilation",
    "check_ode_order",
    "check_delta_identity",
    "euclidean_limit_errors",
    "check_cross_representation",
    "check_distance_oracle",
    "check_volume",
    "random_hyperpoint",
    "hypersphere_volume",
    "box_volume",
]


@functools.cache
def _polar_rule(n: int) -> tuple[tuple[float, ...], ...]:
    """The n-node Gauss-Legendre rule on [0, pi] folded at pi/2, computed once
    per n: the nodes theta up to pi/2, from pi/2 outward (largest sine first),
    their weights, sin theta and cos theta.  Each node stands for itself and
    its mirror pi - theta, so its weight is doubled, but for the middle node
    pi/2 of odd n.  It integrates what is symmetric about pi/2, as every polar
    integrand of the oracles is (sin^j, and d cos theta K sin theta with K odd).

    Each root x of P_n in [0, 1) comes from ``quadrature.legendre_roots``, its
    weight is 2 / ((1 - x^2) P_n'(x)^2), with 1 - x^2 as (1 - x)(1 + x), which
    does not cancel near the ends, and its node pi/2 (1 - x).
    """
    nodes, weights = [], []
    for x, _, slope in legendre_roots(n):
        nodes.append(0.5 * math.pi * (1.0 - x))
        weights.append(2.0 * math.pi / ((1.0 - x) * (1.0 + x) * slope * slope))
    if n % 2:
        weights[0] *= 0.5
    return (tuple(nodes), tuple(weights), tuple(map(math.sin, nodes)), tuple(map(math.cos, nodes)))


def _rule_for(d: int) -> tuple[int, tuple[tuple[float, ...], ...]]:
    """n and ``_polar_rule(n)``, n resolving sin^(d-1), whose peak is about 1/sqrt(d) wide."""
    n = max(256, math.ceil(6.0 * math.sqrt(d)))
    return n, _polar_rule(n)


def _sphere_area(n: int, w: Sequence[float], s: Sequence[float]) -> tuple[float, int]:
    """The product-rule area of the unit n-sphere as a (mantissa, exponent) pair:
    sin^j over [0, pi] by the folded weights w at sines s for j = 1..n-1, times
    2 pi.  w sin^j is a running product per node, and each sum adds the largest
    terms (sin nearest 1) first."""
    terms, sums = w, []
    azimuth = 2.0 * functools.reduce(operator.add, w)
    for _ in range(1, n):
        terms = list(map(operator.mul, terms, s))
        sums.append(functools.reduce(operator.add, terms))
    sums.append(azimuth)
    return _pair_product(map(math.frexp, sums))


class CheckReport(namedtuple(
        "CheckReport", "name measured expected tolerance passed detail", defaults=("",))):
    """Outcome of one verification run."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: measured={self.measured!r} "
                f"expected={self.expected!r} tol={self.tolerance!r}"
                + (f" [{self.detail}]" if self.detail else ""))


def _order_report(name: str, orders: list, detail: str) -> CheckReport:
    """The convergence order farthest from 2 against 2 +/- 0.2; a None order (both
    residuals at their rounding floors) has no truncation error to measure."""
    measured = [order for order in orders if order is not None]
    if not measured:
        return CheckReport(name, 2.0, 2.0, 0.2, True, "operator annihilates branch to rounding")
    worst = max(measured, key=lambda order: abs(order - 2.0))
    note = "; some residuals at rounding floor" if len(measured) < len(orders) else ""
    return CheckReport(name, worst, 2.0, 0.2, abs(worst - 2.0) <= 0.2, detail + note)


def check_laplace_annihilation(d: int, radius: float, theta: float) -> CheckReport:
    """The radial Laplacian annihilates the fundamental solution S, the l = 0
    second-kind radial harmonic: ``harmonics.convergence_order`` at l = 0 must be
    2 +/- 0.2, as in ``check_ode_order``.  A function that it does not
    annihilate leaves a residual that does not shrink with h: its order tends to 0.
    S 2^-E, E the binary exponent of S(theta), stays in range at any d, with the same orders.
    """
    m, _ = solution_scale(d, radius)
    _check_theta(theta)  # before math.sin, which raises an unnamed error at +-inf
    scale = m, -_power(math.sin(theta), 2 - d)[1]
    order = convergence_order(lambda t: radial_kernel(d, t).scaled(scale)[0], d, 0, theta)
    return _order_report(f"laplace-annihilation d={d} R={radius} theta={theta}", [order],
                         "convergence order at steps min(theta, pi - theta)/(4d) and half that")


ODE_ANGLES = (0.5, 1.0, 2.0)


def check_ode_order(q: QuantumNumbers, kind: RadialSolutionKind) -> CheckReport:
    """Convergence order of the radial-harmonic ODE residual for one branch at
    ``ODE_ANGLES`` (``_order_report``).  A branch outside the Ferrers parameter
    domain, or exactly 0.0 at every sampled angle, is reported as skipped."""
    name = f"ode-order d={q.dimension} l={q.angular} {kind.value}"
    try:
        orders = [ode_convergence_order(q, kind, theta) for theta in ODE_ANGLES]
    except (ValueError, DegenerateBranchError) as exc:
        reason = ("degenerate branch" if isinstance(exc, DegenerateBranchError)
                  else "outside Ferrers parameter domain")
        return CheckReport(name, 0.0, 0.0, math.inf, True, f"skipped: {reason} ({exc})")
    return _order_report(name, orders, f"worst convergence order over theta in {ODE_ANGLES}")


def check_delta_identity(d: int, radius: float) -> CheckReport:
    """Test-function identity by open-node product quadrature.

    With the source at the coordinate origin and the zonal test function
    phi = cos(theta'), for which -Laplace(phi) = d cos(theta')/R^2 exactly,
    the integral of (-Laplace phi) * S over the sphere is accumulated on a
    Gauss-Legendre product grid.  The integrand factorizes over the
    coordinate axes, so the tensor-product sum is the polar sum times the
    area of the direction sphere S^(d-1) (``_sphere_area``).  S = c0(d)
    R^(2-d) sin^(2-d) K times the weight R^d sin^(d-1) is K sin times c0(d)
    R^(2-d) and R^(d-2): those two and the area stay (mantissa, exponent)
    pairs for ``kernel._scaled``, and the rule grows with d (``_rule_for``),
    so the check holds at any d.  The measured value is reported against
    both candidates phi(origin) = 1 and phi(origin) - phi(antipode) = 2.
    """
    return _delta_reports(d, (radius,))[0]


def _delta_reports(d: int, radii: Sequence[float]) -> list[CheckReport]:
    """``check_delta_identity`` at each radius, from one polar sum over the
    folded rule and one area."""
    _check_dimension(d)
    tolerance = 1e-6 if d == 2 else 1e-5
    n, (_, w, s, c) = _rule_for(d)
    table = _finite_sum_table(d)
    polar = math.fsum([wi * d * ci * _finite_sum(d, ci, si, table)[0] * si
                       for wi, si, ci in zip(w, s, c)])
    area = _sphere_area(d - 1, w, s)
    reports = []
    for radius in radii:
        measured = _scaled(polar, solution_scale(d, radius), _power(radius, d - 2), area)
        dist_one = abs(measured - 1.0)
        dist_two = abs(measured - 2.0)
        matched = "phi(x)-phi(antipode)=2" if dist_two <= dist_one else "phi(x)=1"
        reports.append(CheckReport(
            name=f"delta-identity d={d} R={radius}",
            measured=measured,
            expected=2.0,
            tolerance=tolerance,
            passed=dist_two <= tolerance,
            detail=(f"nodes={n}/axis; |m-1|={dist_one:.3e}; |m-2|={dist_two:.3e}; "
                    f"matches {matched}")))
    return reports


def euclidean_limit_errors(d: int, r: float, radii: Sequence[float]) -> list[float]:
    """Per-radius deviation of the sphere solution from the flat-space one.

    |S(d, R, r/R) - G(d, r)|, divided by |G| except for d = 2 where the
    Euclidean value may vanish.  For d = 2 the absolute difference tends to
    log(2R)/(2 pi), not to 0, because 2-d Green's functions agree only modulo
    an additive constant; a limit comparison must remove that offset.
    """
    radii = list(radii)
    if not radii or radii[0] <= r or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing and each exceed r")
    g = euclidean_fundamental(d, r)
    errors = []
    for radius in radii:
        s = fundamental_solution(d, radius, r / radius)
        errors.append(abs(s - g) if d == 2 else abs(s - g) / abs(g))
    return errors


def _euclidean_limit_reports(d: int, r: float,
                             radii: Sequence[float]) -> tuple[CheckReport, CheckReport]:
    """Compare the sphere solution at geodesic distance r against flat space.

    The first check passes when the differences decrease monotonically along
    the (increasing) radii and the last one meets the tolerance; both facts are
    recorded in the detail field.  The second checks that the differences fall
    like R^-2 (log-log slope -2 +/- 0.2), from the same set of differences.
    """
    radii = list(radii)
    errors = euclidean_limit_errors(d, r, radii)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    slope = float("nan")
    if len(radii) >= 2 and all(e > 0.0 for e in errors):
        slope = ((math.log(errors[-1]) - math.log(errors[0]))
                 / (math.log(radii[-1]) - math.log(radii[0])))
    tolerance = 1e-6 if d == 3 else math.inf
    passed = monotone and errors[-1] <= tolerance
    kind = "absolute" if d == 2 else "relative"
    limit = CheckReport(
        name=f"euclidean-limit d={d} r={r}",
        measured=errors[-1],
        expected=0.0,
        tolerance=tolerance,
        passed=passed,
        detail=(f"{kind} differences {['%.3e' % e for e in errors]} at radii {radii}; "
                f"monotone decrease={monotone}; log-log slope={slope:.3f}"))
    return limit, CheckReport(f"euclidean-limit-slope d={d}", slope, -2.0, 0.2,
                              abs(slope + 2.0) <= 0.2, f"log-log slope across radii {radii}")


def _finite_sum_cot(d: int, theta: float) -> float:
    """Odd-d I_d by the paper's factorial-weighted cotangent powers.

    ((d-3)/2)! sum_{k=1}^{(d-1)/2} cot^{2k-1} / ((2k-1) (k-1)! ((d-2k-1)/2)!),
    the printed variant that the ``finite_sum`` route does not evaluate.  It raises
    OverflowError from d = 239, where cot^(d-2) at theta = 0.05 leaves range.
    """
    cot = math.cos(theta) / math.sin(theta)
    total = 0.0
    for k in range(1, (d - 1) // 2 + 1):
        total += cot ** (2 * k - 1) / (
            (2 * k - 1) * math.factorial(k - 1) * math.factorial((d - 2 * k - 1) // 2))
    return math.factorial((d - 3) // 2) * total


def check_cross_representation(d: int) -> CheckReport:
    """Every other kernel route against the quadrature oracle at 50 angles
    evenly spaced over [0.05, pi - 0.05] (``kernel._angle_grid``).

    Every route is evaluated once per angle through ``kernel._kernel_rows``, as
    ``eval --method all`` does, and skipped only at the angles it refuses
    (``kernel._REFUSALS``); a refused quadrature reference is raised.
    For odd d the cotangent variant of the closed form is compared too, as
    ``finite_sum_cot``, where it stays in double range.  Measured value is
    the worst relative deviation (``kernel._deviation``).
    """
    angles = 50
    worst = 0.0
    worst_at = ""
    routes = 0
    rows = _kernel_rows(d, _angle_grid(0.05, math.pi - 0.05, angles), list(_ROUTE_NAMES))
    for theta, _, quadrature in rows:  # each angle's quadrature row heads its other routes
        if isinstance(quadrature, Exception):
            raise quadrature
        reference = quadrature[0]
        denom = max(abs(reference), 1e-300)
        candidates = {_ROUTE_NAMES[rep]: result[0]
                      for _, rep, result in itertools.islice(rows, len(_ROUTE_NAMES) - 1)
                      if not isinstance(result, Exception)}
        if d % 2:
            try:
                candidates["finite_sum_cot"] = _finite_sum_cot(d, theta)
            except OverflowError:
                pass
        for name, value in candidates.items():
            routes += 1
            dev = _deviation(value, reference, denom)
            if dev > worst:
                worst = dev
                worst_at = f"{name} at theta={theta:.4f}"
    return CheckReport(
        name=f"cross-representation d={d}",
        measured=worst,
        expected=0.0,
        tolerance=1e-9,
        passed=worst <= 1e-9,
        detail=f"{routes} route evaluations over {angles} angles; "
               f"worst: {worst_at}; quadrature tol={TOLERANCE}")


def random_hyperpoint(rng: random.Random, d: int, radius: float) -> HyperPoint:
    """Uniform-in-coordinates random point (adequate for identity testing).

    Its d draws from ``rng.random()`` are, in order, the azimuth in [0, 2 pi),
    the d-2 other direction angles and the polar angle, each in [0, pi)."""
    draw = rng.random
    row = [math.pi * draw() for _ in range(d)]
    row[0] *= 2.0
    return HyperPoint(d, radius, row.pop(), row)


# random point pairs per dimension of the distance check
DISTANCE_PAIRS = 200


def check_distance_oracle(d: int) -> CheckReport:
    """Polar-form geodesic distance against the ambient-embedding distance at
    ``DISTANCE_PAIRS`` random pairs: from ``random.Random(seed)``, a radius
    uniform in [0.5, 3), then two ``random_hyperpoint`` on that sphere.

    The ambient side is R arccos((x, x') / R^2) of the embeddings (``embed``);
    the polar side calls ``geodesic_distance``, the function under test.
    """
    seed = 20260809 + d
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(DISTANCE_PAIRS):
        radius = rng.uniform(0.5, 3.0)
        a, b = random_hyperpoint(rng, d, radius), random_hyperpoint(rng, d, radius)
        inner = math.fsum(map(operator.mul, embed(a), embed(b))) / radius**2
        worst = max(worst, abs(geodesic_distance(a, b) - radius * _clamped_acos(inner)))
    return CheckReport(
        name=f"distance-oracle d={d}",
        measured=worst,
        expected=0.0,
        tolerance=1e-10,
        passed=worst <= 1e-10,
        detail=f"{DISTANCE_PAIRS} random pairs, radius in [0.5, 3.0], seed={seed}")


def hypersphere_volume(d: int, radius: float) -> float:
    """R^d / c0(d+1), the d-sphere's total volume: the unit d-sphere's area is
    the reciprocal of the solution constant.  Rounded once, the value is inf
    or 0.0 only where the exact one lies outside double range."""
    _check_dimension(d)
    _check_radius(radius)
    m, e = solution_scale(d + 1, 1.0)
    return _scaled(1.0 / m, (1.0, -e), _power(radius, d))


def box_volume(d: int, radius: float) -> float:
    """Integral of the volume weight over the full coordinate box.

    The weight R^d sin^{d-1}(theta) prod_k sin^{k-1}(alpha_k) is a product of
    single-angle factors, so the Gauss-Legendre product rule collapses to
    R^d times a product of per-axis sums: sin^{d-1} over theta in [0, pi],
    sin^{k-1} over alpha_k in [0, pi] for k = 2..d-1, and 1 over the azimuth
    in [0, 2 pi]: the product-rule area of the unit d-sphere (``_sphere_area``)
    on a rule that grows with d (``_rule_for``).  Kept as (mantissa, exponent)
    pairs, the product holds at any d and R.
    """
    _check_dimension(d)
    _check_radius(radius)
    _, (_, w, s, _) = _rule_for(d)
    return _scaled(1.0, _sphere_area(d, w, s), _power(radius, d))


def check_volume(d: int) -> CheckReport:
    """Volume-weight integral over the unit coordinate box vs the known volume
    1 / c0(d+1): the relative error |box c0(d+1) - 1| holds past double range."""
    _check_dimension(d)
    n, (_, w, s, _) = _rule_for(d)
    box = _sphere_area(d, w, s)
    rel = abs(_scaled(1.0, box, solution_scale(d + 1, 1.0)) - 1.0)
    return CheckReport(
        name=f"volume d={d} R=1.0",
        measured=_scaled(1.0, box),
        expected=hypersphere_volume(d, 1.0),
        tolerance=1e-6,
        passed=rel <= 1e-6,
        detail=f"relative error {rel:.3e}; {n} nodes/axis")


LIMIT_RADII = (10.0, 100.0, 1000.0, 10000.0)

# suite name -> the checks that ``sphgreen check <suite>`` runs, in print order
SUITES = {
    "ode": lambda: [check_ode_order(QuantumNumbers(d, l), kind)
                    for d in range(2, 8) for l in range(3) for kind in RadialSolutionKind],
    "delta": lambda: [report for d in (2, 3, 4, 60) for report in _delta_reports(d, (1.0, 5.0))],
    "limit": lambda: [*_euclidean_limit_reports(3, 1.0, LIMIT_RADII),
                      _euclidean_limit_reports(2, 1.0, LIMIT_RADII)[0]],
    "xrep": lambda: [check_cross_representation(d) for d in range(2, 11)],
    "laplace": lambda: [check_laplace_annihilation(d, radius, theta)
                        for d in (*range(2, 13), 60, 200) for radius in (1.0, 5.0)
                        for theta in ODE_ANGLES],
    "geometry": lambda: ([check_distance_oracle(d) for d in range(2, 7)]
                         + [check_volume(d) for d in (2, 3, 4)]),
}
