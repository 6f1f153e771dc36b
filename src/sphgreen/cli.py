"""Command-line front end.

Subcommands:
  eval      evaluate the fundamental solution at one angle, by one route or all
  table     tabulate values over an angle range to CSV
  check     run a named verification suite (ode | delta | limit | xrep | geometry)
  distance  geodesic distance and separation angle between two points

Exit codes: 0 ok, 1 check failure, 2 bad arguments, 3 convergence failure,
4 I/O error.  Angles are radians; floats print in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import sys

from .geometry import HyperPoint, geodesic_distance, separation_angle
from .kernel import (
    THETA_EDGE,
    Representation,
    SeriesWindowError,
    radial_kernel,
    solution_scale,
)
from .oracle import SUITES
from .quadrature import ToleranceNotMetError
from .specfun import NonConvergenceError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

METHOD_ORDER = tuple(rep.value for rep in Representation)

CSV_HEADER = ("d", "R", "theta", "method", "value", "est_error")


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the double (<= 17 significant digits)."""
    return repr(float(x))


def _validate_common(d: int, radius: float, theta: float | None = None) -> None:
    if d < 2:
        raise ValueError(f"--d must be >= 2, got {d}")
    if not radius > 0.0:
        raise ValueError(f"--radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise ValueError(f"--radius must be finite, got {radius}")
    if theta is not None and not THETA_EDGE <= theta <= math.pi - THETA_EDGE:
        raise ValueError(f"--theta must lie inside (0, pi), got {theta}")


def _solution_value(scale: tuple[float, int], d: int, theta: float, method: str, tol: float):
    """(value, est_error) of the fundamental solution through one route."""
    return radial_kernel(d, theta, Representation(method), tol=tol).scaled(scale)


def _relative_deviation(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|); 0 for equal values (equal infinities too),
    inf for any other pair whose quotient is not finite."""
    if a == b:
        return 0.0
    deviation = abs(a - b) / max(1.0, abs(a), abs(b))
    return deviation if math.isfinite(deviation) else math.inf


def cmd_eval(args) -> int:
    _validate_common(args.d, args.radius, args.theta)
    scale = solution_scale(args.d, args.radius)
    if args.method != "all":
        value, _ = _solution_value(scale, args.d, args.theta, args.method, args.tol)
        print(fmt(value))
        return EXIT_OK
    values = {}
    for method in METHOD_ORDER:
        try:
            value, err = _solution_value(scale, args.d, args.theta, method, args.tol)
        except SeriesWindowError:
            print(f"{method} skipped series-window")
            continue
        except (NonConvergenceError, ToleranceNotMetError):
            # one route failing to converge must not take down the others
            print(f"{method} skipped no-convergence")
            continue
        values[method] = value
        print(f"{method} {fmt(value)} {fmt(err)}")
    deviation = max((_relative_deviation(a, b)
                     for a, b in itertools.combinations(values.values(), 2)), default=0.0)
    print(f"max_pairwise_relative_deviation {fmt(deviation)}")
    return EXIT_OK


def _parse_methods(spec: str) -> list[Representation]:
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if "all" in names:
        return list(Representation)
    for name in names:
        if name not in METHOD_ORDER:
            raise ValueError(f"unknown method {name!r}")
    if not names:
        raise ValueError("no methods given")
    # canonical order keeps output deterministic
    return [rep for rep in Representation if rep.value in names]


def cmd_table(args) -> int:
    _validate_common(args.d, args.radius)
    if not (THETA_EDGE < args.theta_min < args.theta_max < math.pi - THETA_EDGE):
        raise ValueError("need 0 < theta-min < theta-max < pi")
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    reps = _parse_methods(args.methods)
    scale = solution_scale(args.d, args.radius)
    step = (args.theta_max - args.theta_min) / (args.n - 1)
    d, radius = str(args.d), fmt(args.radius)
    rows = []
    for i in range(args.n):
        theta = args.theta_min + i * step
        angle = fmt(theta)
        for rep in reps:
            try:
                value, err = radial_kernel(args.d, theta, rep, tol=args.tol).scaled(scale)
            except (SeriesWindowError, NonConvergenceError, ToleranceNotMetError):
                value, err = math.nan, math.nan
            rows.append((d, radius, angle, rep.value, fmt(value), fmt(err)))
    try:
        stream = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as exc:
        print(f"error: cannot open {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    except OSError as exc:
        print(f"error: write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if stream is not sys.stdout:
            stream.close()
    return EXIT_OK


def cmd_check(args) -> int:
    reports = SUITES[args.suite]()
    for report in reports:
        print(report.line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _parse_point(d: int, radius: float, text: str) -> HyperPoint:
    try:
        angles = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed angle list {text!r}: {exc}") from None
    if len(angles) != d:
        raise ValueError(f"need {d} angles (theta, phi, alpha_2..) for d={d}, "
                         f"got {len(angles)}")
    return HyperPoint(d, radius, angles[0], tuple(angles[1:]))


def cmd_distance(args) -> int:
    _validate_common(args.d, args.radius)
    a = _parse_point(args.d, args.radius, args.point_a)
    b = _parse_point(args.d, args.radius, args.point_b)
    print(f"separation_angle {fmt(separation_angle(a.direction, b.direction))}")
    print(f"distance {fmt(geodesic_distance(a, b))}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="sphgreen",
        description="Fundamental solution of Laplace's equation on the "
                    "d-dimensional radius-R hypersphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate at one angle")
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--radius", type=float, default=1.0)
    p_eval.add_argument("--theta", type=float, required=True)
    p_eval.add_argument("--method", choices=METHOD_ORDER + ("all",), default="finite_sum")
    p_eval.add_argument("--tol", type=float, default=1e-11)
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="tabulate values to CSV")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--radius", type=float, default=1.0)
    p_table.add_argument("--theta-min", type=float, required=True)
    p_table.add_argument("--theta-max", type=float, required=True)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--methods", default="all",
                         help="comma-separated subset of "
                              f"{','.join(METHOD_ORDER)} or 'all'")
    p_table.add_argument("--tol", type=float, default=1e-11)
    p_table.add_argument("--out", default="-", help="output path (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.set_defaults(func=cmd_check)

    p_dist = sub.add_parser("distance", help="geodesic distance between two points")
    p_dist.add_argument("--d", type=int, required=True)
    p_dist.add_argument("--radius", type=float, default=1.0)
    p_dist.add_argument("--point-a", required=True,
                        help="comma-separated angles theta,phi[,alpha_2,...]")
    p_dist.add_argument("--point-b", required=True)
    p_dist.set_defaults(func=cmd_distance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SeriesWindowError, NonConvergenceError, ToleranceNotMetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
