"""Independent verification engines for the hypersphere kernel.

Finite-difference annihilation of the fundamental solution by the radial
Laplacian, the convergence order of the radial-harmonic ODE residual, the
distributional (test-function) identity by product quadrature, the
zero-curvature limit against the Euclidean solution, and the
cross-representation sweep against adaptive quadrature.  ``SUITES`` groups
them into the suites that ``sphgreen check`` runs.  NumPy is imported by the
checks that use it, when they are first called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .geometry import HyperPoint, embed, geodesic_distance, volume_weight
from .harmonics import DegenerateBranchError, QuantumNumbers, RadialSolutionKind, ode_convergence_order
from .kernel import (
    Representation,
    SeriesWindowError,
    euclidean_fundamental,
    fundamental_solution,
    i_d_quadrature,
    radial_kernel,
)
from .quadrature import TOLERANCE
from .specfun import gamma_real

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SUITES",
    "CheckReport",
    "check_laplace_annihilation",
    "check_ode_order",
    "check_delta_identity",
    "check_euclidean_limit",
    "euclidean_limit_errors",
    "check_cross_representation",
    "check_distance_oracle",
    "check_volume",
    "random_hyperpoint",
    "hypersphere_volume",
    "box_volume",
]


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared by every caller, so they are made read-only.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass
class CheckReport:
    """Outcome of one verification run."""

    name: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: measured={self.measured!r} "
                f"expected={self.expected!r} tol={self.tolerance!r}"
                + (f" [{self.detail}]" if self.detail else ""))


def check_laplace_annihilation(d: int, radius: float, theta: float,
                               h: float = 1e-3, tolerance: float = 1e-5) -> CheckReport:
    """Central-difference radial Laplacian applied to the fundamental solution.

    The reported value is the residual divided by max(1, |term|) over the two
    difference terms, i.e. a relative residual: the raw residual scales like
    the solution's fourth derivative, which spans many orders of magnitude
    across d.  Truncation is O(h^2), so halving h quarters the measure.
    """
    f = lambda t: fundamental_solution(d, radius, t)
    fp, f0, fm = f(theta + h), f(theta), f(theta - h)
    r2 = radius * radius
    second = (fp - 2.0 * f0 + fm) / (h * h) / r2
    first = (d - 1) / math.tan(theta) * (fp - fm) / (2.0 * h) / r2
    scale = max(1.0, abs(second), abs(first))
    measured = abs(second + first) / scale
    return CheckReport(
        name=f"laplace-annihilation d={d} R={radius} theta={theta}",
        measured=measured,
        expected=0.0,
        tolerance=tolerance,
        passed=measured <= tolerance,
        detail=f"h={h}; relative: residual scaled by max(1,|terms|)={scale:.6g}")


ODE_ANGLES = (0.5, 1.0, 2.0)


def check_ode_order(q: QuantumNumbers, kind: RadialSolutionKind) -> CheckReport:
    """Convergence order of the radial-harmonic ODE residual for one branch.

    The order farthest from 2 over ``ODE_ANGLES`` must lie within 0.2 of 2.
    A branch outside the Ferrers parameter domain, or identically
    (near-)zero, is reported as skipped; one that the operator annihilates
    to rounding at every angle passes.
    """
    name = f"ode-order d={q.dimension} l={q.angular} {kind.value}"
    worst = None
    note = ""
    for theta in ODE_ANGLES:
        try:
            order = ode_convergence_order(q, kind, theta)
        except ValueError as exc:
            return CheckReport(name, 0.0, 0.0, math.inf, True,
                               f"skipped: outside Ferrers parameter domain ({exc})")
        except DegenerateBranchError as exc:
            return CheckReport(name, 0.0, 0.0, math.inf, True,
                               f"skipped: degenerate branch ({exc})")
        if order is None:
            note = "; some residuals at rounding floor"
        elif worst is None or abs(order - 2.0) > abs(worst - 2.0):
            worst = order
    if worst is None:
        return CheckReport(name, 2.0, 2.0, 0.2, True, "operator annihilates branch to rounding")
    return CheckReport(name, worst, 2.0, 0.2, abs(worst - 2.0) <= 0.2,
                       f"worst convergence order over theta in {ODE_ANGLES}{note}")


def check_delta_identity(d: int, radius: float, nodes: int = 400,
                         tolerance: float | None = None) -> CheckReport:
    """Test-function identity by open-node product quadrature.

    With the source at the coordinate origin and the zonal test function
    phi = cos(theta'), for which -Laplace(phi) = d cos(theta')/R^2 exactly,
    the integral of (-Laplace phi) * S over the sphere is accumulated on a
    Gauss-Legendre product grid.  The integrand factorizes over the
    coordinate axes, so the tensor-product sum is taken as the product of the
    per-axis sums.  The measured value is reported against both candidates
    phi(origin) = 1 and phi(origin) - phi(antipode) = 2.
    """
    if d not in (2, 3):
        raise ValueError(f"delta identity check supports d in {{2, 3}}, got {d}")
    if nodes < 50:
        raise ValueError(f"need at least 50 nodes per axis, got {nodes}")
    if tolerance is None:
        tolerance = 1e-6 if d == 2 else 1e-5
    import numpy as np

    x, w = _gauss_legendre(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    w_theta = 0.5 * math.pi * w
    measured = 0.0
    for t, wt in zip(theta, w_theta):
        s_val = fundamental_solution(d, radius, t, Representation.FINITE_SUM)
        minus_lap_phi = d * math.cos(t) / radius**2
        measured += wt * minus_lap_phi * s_val * radius**d * math.sin(t) ** (d - 1)
    for k in range(2, d):
        measured *= float(w_theta @ np.sin(theta) ** (k - 1))
    measured *= float(np.sum(math.pi * w))  # azimuth carries no weight
    measured = float(measured)
    dist_one = abs(measured - 1.0)
    dist_two = abs(measured - 2.0)
    matched = "phi(x)-phi(antipode)=2" if dist_two <= dist_one else "phi(x)=1"
    return CheckReport(
        name=f"delta-identity d={d} R={radius}",
        measured=measured,
        expected=2.0,
        tolerance=tolerance,
        passed=dist_two <= tolerance,
        detail=(f"nodes={nodes}/axis; |m-1|={dist_one:.3e}; |m-2|={dist_two:.3e}; "
                f"matches {matched}"))


def euclidean_limit_errors(d: int, r: float, radii: Sequence[float]) -> list[float]:
    """Per-radius deviation of the sphere solution from the flat-space one.

    |S(d, R, r/R) - G(d, r)|, divided by |G| except for d = 2 where the
    Euclidean value may vanish.  For d = 2 the absolute difference tends to
    log(2R)/(2 pi), not to 0, because 2-d Green's functions agree only modulo
    an additive constant; a limit comparison must remove that offset.
    """
    if not r > 0.0:
        raise ValueError(f"distance must be positive, got {r}")
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or radii[0] <= r:
        raise ValueError("radii must be strictly increasing and each exceed r")
    g = euclidean_fundamental(d, r)
    errors = []
    for radius in radii:
        s = fundamental_solution(d, radius, r / radius)
        errors.append(abs(s - g) if d == 2 else abs(s - g) / abs(g))
    return errors


def check_euclidean_limit(d: int, r: float, radii: Sequence[float],
                          tolerance: float | None = None) -> CheckReport:
    """Compare the sphere solution at geodesic distance r against flat space.

    The check passes when the differences decrease monotonically along the
    (increasing) radii and the last one meets the tolerance; both facts are
    recorded in the detail field.
    """
    return _euclidean_limit_reports(d, r, radii, tolerance)[0]


def _euclidean_limit_reports(d: int, r: float, radii: Sequence[float],
                             tolerance: float | None = None) -> tuple[CheckReport, CheckReport]:
    """``check_euclidean_limit`` and the check that the differences fall like
    R^-2 (log-log slope -2 +/- 0.2), both from one set of differences."""
    radii = list(radii)
    errors = euclidean_limit_errors(d, r, radii)
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    slope = float("nan")
    if len(radii) >= 2 and all(e > 0.0 for e in errors):
        slope = ((math.log(errors[-1]) - math.log(errors[0]))
                 / (math.log(radii[-1]) - math.log(radii[0])))
    if tolerance is None:
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
    the printed variant that ``i_d_finite_sum`` does not evaluate.  The
    factorials overflow a double from d = 343.
    """
    cot = math.cos(theta) / math.sin(theta)
    total = 0.0
    for k in range(1, (d - 1) // 2 + 1):
        total += cot ** (2 * k - 1) / (
            (2 * k - 1) * math.factorial(k - 1) * math.factorial((d - 2 * k - 1) // 2))
    return math.factorial((d - 3) // 2) * total


def check_cross_representation(d: int, thetas: Sequence[float] | None = None,
                               tolerance: float = 1e-9) -> CheckReport:
    """Every other kernel route against the quadrature oracle.

    Each route is evaluated through ``radial_kernel`` and skipped only at the
    angles it refuses with SeriesWindowError (the hypergeometric series
    outside their window).  For odd d the cotangent variant of the closed
    form is compared too, as ``finite_sum_cot``.  Measured value is the worst
    relative deviation.
    """
    if thetas is None:
        import numpy as np

        thetas = np.linspace(0.05, math.pi - 0.05, 50)
    worst = 0.0
    worst_at = ""
    routes = 0
    for theta in thetas:
        reference = i_d_quadrature(d, theta).value
        denom = max(abs(reference), 1e-300)
        candidates = {}
        for rep in Representation:
            if rep is not Representation.QUADRATURE:
                try:
                    candidates[rep.value] = radial_kernel(d, theta, rep).value
                except SeriesWindowError:
                    pass
        if d % 2:
            candidates["finite_sum_cot"] = _finite_sum_cot(d, theta)
        for name, value in candidates.items():
            routes += 1
            dev = abs(value - reference) / denom
            if dev > worst:
                worst = dev
                worst_at = f"{name} at theta={theta:.4f}"
    return CheckReport(
        name=f"cross-representation d={d}",
        measured=worst,
        expected=0.0,
        tolerance=tolerance,
        passed=worst <= tolerance,
        detail=f"{routes} route evaluations over {len(list(thetas))} angles; "
               f"worst: {worst_at}; quadrature tol={TOLERANCE}")


def random_hyperpoint(rng: np.random.Generator, d: int, radius: float) -> HyperPoint:
    """Uniform-in-coordinates random point (adequate for identity testing)."""
    direction = (rng.uniform(0.0, 2.0 * math.pi),) + tuple(
        rng.uniform(0.0, math.pi) for _ in range(d - 2))
    return HyperPoint(d, radius, rng.uniform(0.0, math.pi), direction)


def check_distance_oracle(d: int, pairs: int = 1000, seed: int = 20260809,
                          tolerance: float = 1e-10) -> CheckReport:
    """Polar-form geodesic distance against the ambient-embedding distance."""
    import numpy as np

    rng = np.random.default_rng(seed + d)
    worst = 0.0
    for _ in range(pairs):
        radius = rng.uniform(0.5, 3.0)
        a = random_hyperpoint(rng, d, radius)
        b = random_hyperpoint(rng, d, radius)
        via_polar = geodesic_distance(a, b)
        inner = float(embed(a) @ embed(b)) / radius**2
        via_ambient = radius * math.acos(min(1.0, max(-1.0, inner)))
        worst = max(worst, abs(via_polar - via_ambient))
    return CheckReport(
        name=f"distance-oracle d={d}",
        measured=worst,
        expected=0.0,
        tolerance=tolerance,
        passed=worst <= tolerance,
        detail=f"{pairs} random pairs, radius in [0.5, 3.0], seed={seed + d}")


def hypersphere_volume(d: int, radius: float) -> float:
    """2 pi^{(d+1)/2} R^d / Gamma((d+1)/2), the d-sphere's total volume."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) * radius**d / gamma_real((d + 1) / 2.0)


def box_volume(d: int, radius: float, nodes: int = 256) -> float:
    """Integral of the volume weight over the full coordinate box.

    The weight is a product of single-angle factors, so the Gauss-Legendre
    product rule collapses to a product of per-axis sums; each axis is sampled
    by evaluating the weight with every other coordinate held at pi/2 (where
    all sine factors equal 1), then the shared R^d factor is divided back out.
    """
    x, w = _gauss_legendre(nodes)
    ref_direction = tuple(0.5 * math.pi for _ in range(d - 1))
    axis_sums = []

    theta_nodes = 0.5 * math.pi * (x + 1.0)
    axis_sums.append(sum(
        0.5 * math.pi * wi * volume_weight(HyperPoint(d, radius, t, ref_direction))
        for wi, t in zip(w, theta_nodes)))
    for k in range(1, d - 1):  # direction angles alpha_2 .. alpha_{d-1}
        total = 0.0
        for wi, a in zip(w, theta_nodes):
            direction = ref_direction[:k] + (a,) + ref_direction[k + 1:]
            total += 0.5 * math.pi * wi * volume_weight(
                HyperPoint(d, radius, 0.5 * math.pi, direction))
        axis_sums.append(total)
    phi_nodes = math.pi * (x + 1.0)
    axis_sums.append(sum(
        math.pi * wi * volume_weight(
            HyperPoint(d, radius, 0.5 * math.pi, (p,) + ref_direction[1:]))
        for wi, p in zip(w, phi_nodes)))

    reference_weight = volume_weight(HyperPoint(d, radius, 0.5 * math.pi, ref_direction))
    return math.prod(axis_sums) / reference_weight ** (len(axis_sums) - 1)


def check_volume(d: int, radius: float = 1.0, nodes: int = 256,
                 tolerance: float = 1e-6) -> CheckReport:
    """Volume-weight integral over the coordinate box vs the known volume."""
    measured = float(box_volume(d, radius, nodes))
    expected = hypersphere_volume(d, radius)
    rel = abs(measured - expected) / expected
    return CheckReport(
        name=f"volume d={d} R={radius}",
        measured=measured,
        expected=expected,
        tolerance=tolerance,
        passed=rel <= tolerance,
        detail=f"relative error {rel:.3e}; {nodes} nodes/axis")


LIMIT_RADII = (10.0, 100.0, 1000.0, 10000.0)

# suite name -> the checks that ``sphgreen check <suite>`` runs, in print order
SUITES = {
    "ode": lambda: [check_ode_order(QuantumNumbers(d, l), kind)
                    for d in range(2, 8) for l in range(3) for kind in RadialSolutionKind],
    "delta": lambda: [check_delta_identity(d, radius) for d in (2, 3) for radius in (1.0, 5.0)],
    "limit": lambda: [*_euclidean_limit_reports(3, 1.0, LIMIT_RADII),
                      check_euclidean_limit(2, 1.0, LIMIT_RADII)],
    "xrep": lambda: [check_cross_representation(d) for d in range(2, 11)],
    "geometry": lambda: ([check_distance_oracle(d, pairs=200) for d in range(2, 7)]
                         + [check_volume(d) for d in (2, 3, 4)]),
}
