"""Command-line front end.

Subcommands:
  eval      evaluate the fundamental solution at one angle, by one route or all
  table     tabulate values over an angle range to CSV
  check     run a verification suite (ode | laplace | delta | limit | xrep | geometry)
  distance  geodesic distance and separation angle between two points

Exit codes: 0 ok, 1 check failure, 2 bad arguments, 3 convergence failure,
4 I/O error (silent when the reader of stdout stops early).  Angles are
radians; floats print in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys

from .kernel import (
    _REFUSALS,
    _ROUTE_NAMES,
    Representation,
    SeriesWindowError,
    _angle_grid,
    _check_dimension,
    _check_radius,
    _check_theta,
    _deviation,
    _kernel_rows,
    radial_kernel,
    solution_scale,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

METHOD_ORDER = tuple(_ROUTE_NAMES.values())
# the names of ``oracle.SUITES``, so that parsing ``check`` does not import the oracles
SUITE_NAMES = ("delta", "geometry", "laplace", "limit", "ode", "xrep")

CSV_HEADER = ("d", "R", "theta", "method", "value", "est_error")


def fmt(x: float) -> str:
    """Shortest decimal that round-trips the double (<= 17 significant digits)."""
    return repr(float(x))


def _checked(convert, check):
    """An argparse ``type`` that converts a flag value and applies a kernel rule.

    A failed conversion keeps argparse's "invalid int value" message (it names
    the type by ``__name__``); a broken rule is reported with the flag's name.
    """
    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__
    return parse


def cmd_eval(args) -> int:
    scale = solution_scale(args.d, args.radius)
    if args.method != "all":
        value, _ = radial_kernel(args.d, args.theta, Representation(args.method)).scaled(scale)
        print(fmt(value))
        return EXIT_OK
    values, lines = [], []
    for _, rep, result in _kernel_rows(args.d, [args.theta], list(_ROUTE_NAMES), scale):
        if isinstance(result, Exception):
            # one route refusing must not take down the others
            reason = "series-window" if isinstance(result, SeriesWindowError) else "no-convergence"
            lines.append(f"{_ROUTE_NAMES[rep]} skipped {reason}")
            continue
        value, err = result
        values.append(value)
        lines.append(f"{_ROUTE_NAMES[rep]} {fmt(value)} {fmt(err)}")
    deviation = max((_deviation(a, b, max(1.0, abs(a), abs(b)))
                     for a, b in itertools.combinations(values, 2)), default=0.0)
    lines.append(f"max_pairwise_relative_deviation {fmt(deviation)}")
    print("\n".join(lines))
    return EXIT_OK


def _parse_methods(text: str) -> list[Representation]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    for name in names:
        if name not in METHOD_ORDER + ("all",):
            raise ValueError(f"unknown method {name!r}")
    if not names:
        raise ValueError("no methods given")
    if "all" in names:
        return list(_ROUTE_NAMES)
    # canonical order keeps output deterministic
    return [rep for rep, name in _ROUTE_NAMES.items() if name in names]


def _table_rows(args, reps: list[Representation], scale: tuple[float, int]):
    """The CSV lines of ``table``, theta-major, as computed; no field needs quoting."""
    head = f"{args.d},{args.radius!r},"
    thetas = _angle_grid(args.theta_min, args.theta_max, args.n)
    for theta, rep, result in _kernel_rows(args.d, thetas, reps, scale):
        value, err = (math.nan, math.nan) if isinstance(result, Exception) else result
        yield f"{head}{theta!r},{_ROUTE_NAMES[rep]},{value!r},{err!r}\n"


def cmd_table(args) -> int:
    # every argument is checked before --out is opened: a bad call leaves it untouched
    if not args.theta_min < args.theta_max:
        raise ValueError("need --theta-min < --theta-max")
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    reps = _parse_methods(args.methods)
    scale = solution_scale(args.d, args.radius)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", newline="")) as stream:
        stream.write(",".join(CSV_HEADER) + "\n")
        stream.writelines(_table_rows(args, reps, scale))
    return EXIT_OK


def cmd_check(args) -> int:
    from .oracle import SUITES

    reports = SUITES[args.suite]()
    for report in reports:
        print(report.line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _parse_point(d: int, text: str) -> tuple[float, tuple[float, ...]]:
    """The polar angle and the direction angles of a point given as d comma-separated angles."""
    try:
        angles = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed angle list {text!r}: {exc}") from None
    if len(angles) != d:
        raise ValueError(f"need {d} angles (theta, phi, alpha_2..) for d={d}, "
                         f"got {len(angles)}")
    return angles[0], tuple(angles[1:])


def cmd_distance(args) -> int:
    from .geometry import HyperPoint, geodesic_distance, separation_angle

    a = HyperPoint(args.d, args.radius, *_parse_point(args.d, args.point_a))
    b = HyperPoint(args.d, args.radius, *_parse_point(args.d, args.point_b))
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
    sphere = argparse.ArgumentParser(add_help=False)
    sphere.add_argument("--d", type=_checked(int, _check_dimension), required=True)
    sphere.add_argument("--radius", type=_checked(float, _check_radius), default=1.0)
    angle = _checked(float, _check_theta)

    p_eval = sub.add_parser("eval", parents=[sphere], help="evaluate at one angle")
    p_eval.add_argument("--theta", type=angle, required=True)
    p_eval.add_argument("--method", choices=METHOD_ORDER + ("all",), default="finite_sum")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", parents=[sphere], help="tabulate values to CSV")
    p_table.add_argument("--theta-min", type=angle, required=True)
    p_table.add_argument("--theta-max", type=angle, required=True)
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--methods", default="all",
                         help="comma-separated subset of "
                              f"{','.join(METHOD_ORDER)} or 'all'")
    p_table.add_argument("--out", default="-", help="output path (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.set_defaults(func=cmd_check)

    p_dist = sub.add_parser("distance", parents=[sphere],
                            help="geodesic distance between two points")
    p_dist.add_argument("--point-a", required=True,
                        help="comma-separated angles theta,phi[,alpha_2,...]")
    p_dist.add_argument("--point-b", required=True)
    p_dist.set_defaults(func=cmd_distance)
    parser.subcommands = sub.choices  # each subcommand's parser by name, for ``_parse``
    return parser


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the top-level pass skipped where it adds
    nothing: when argv[0] names a subcommand, that subcommand's parser alone parses the
    rest.  Anything it leaves over, and any other argv, goes to the whole parser, so that
    argparse writes every message, usage line and exit code as before."""
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = build_parser().subcommands.get(argv[0]) if argv else None
    if subparser is not None:
        args, extra = subparser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except _REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except BrokenPipeError:
        # the reader stopped early (`| head`): point stdout at os.devnull, so
        # that the flush at exit does not fail again, as the Python docs' "Note
        # on SIGPIPE" does, and say nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
