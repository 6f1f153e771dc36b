"""Correctness gate: 40-digit mpmath references and checks of sphgreen output.

A printed value passes when |v - ref| <= 1e-9 |ref|, the tolerance of the
package's own ``xrep`` suite.  +-inf passes only where the reference itself
exceeds double range.  Every other value, every unexpected exit code and every
FAIL line of a ``check`` suite is a failed operation.

Failures are counted whatever their cause.  Only the known-red clause of the
``limit`` suite (``KNOWN_DEFECTS``) leaves a run ``correct``; any other failure
marks it incorrect.

mpmath is imported only when a reference is computed, so processes that only
compare output against references handed to them stay free of it.
"""

from __future__ import annotations

import csv
import io
import math

REL_TOL = 1e-9
DIGITS = 40

# Routes valid on all of (0, pi); the others may refuse (series window, no
# convergence) and print "skipped" or a nan row, which the CLI documents.
TOTAL_ROUTES = ("finite_sum", "recurrence")
METHOD_ORDER = ("quadrature", "finite_sum", "recurrence", "hyp2f1", "hyp2f1_euler", "ferrers")
SKIP_REASONS = ("series-window", "no-convergence")

KNOWN_DEFECTS = {
    # README, "Known-red acceptance item": 2-D Green's functions agree only up
    # to an R-dependent constant, so this clause fails by design.
    "known-red": "FAIL of check 'euclidean-limit d=2' (README known-red clause)",
}
KNOWN_RED_PREFIX = "euclidean-limit d=2 "


# --------------------------------------------------------------- references

def _kernel_mp(d: int, theta: float):
    """I_d(theta) at the working precision: the antiderivative recurrence.

    All terms share the sign of cos(theta), so at 40 digits the climb is exact
    to far below the gate's tolerance; selftest.py checks it against mpmath's
    own quadrature and 2F1 at sample points.
    """
    from mpmath import mp, mpf

    t = mpf(theta)
    c, s = mp.cos(t), mp.sin(t)
    if d % 2 == 1:
        j, start = mp.pi / 2 - t, 0
    else:
        j, start = mp.log(mp.cot(t / 2)), 1
    for k in range(start + 2, d, 2):
        j = c / ((k - 1) * s ** (k - 1)) + mpf(k - 2) / (k - 1) * j
    return j


def reference(d: int, radius: float, theta: float) -> float:
    """The fundamental solution at (d, R, theta), rounded to double.

    The solution is Gamma(d/2) / (2 pi^(d/2) R^(d-2)) I_d(theta); a value past
    double range rounds to +-inf.
    """
    from mpmath import mp, mpf

    with mp.workdps(DIGITS):
        kernel = _kernel_mp(d, theta)
        half = mpf(d) / 2
        c0 = mp.gamma(half) / (2 * mp.pi ** half * mpf(radius) ** (d - 2))
        return float(c0 * kernel)


def _unit_direction(direction):
    """Unit vector of a direction tuple (phi, alpha_2, ..) in the package's convention."""
    from mpmath import mp, mpf

    phi, rest = mpf(direction[0]), [mpf(a) for a in direction[1:]]
    v, sin_prod = [], mpf(1)
    for ang in reversed(rest):
        v.append(sin_prod * mp.cos(ang))
        sin_prod *= mp.sin(ang)
    return v + [sin_prod * mp.cos(phi), sin_prod * mp.sin(phi)]


def _angle(u, v):
    from mpmath import mp

    dot = mp.fsum(a * b for a, b in zip(u, v))
    norm = mp.sqrt(mp.fsum(a * a for a in u) * mp.fsum(b * b for b in v))
    return mp.acos(max(-1, min(1, dot / norm)))


def distance_reference(radius: float, a: list[float], b: list[float]) -> dict:
    """Separation angle and geodesic distance of two points (theta, phi, alpha..).

    Computed from the ambient embeddings, not from the package's product
    formula.
    """
    from mpmath import mp, mpf

    with mp.workdps(DIGITS):
        ua, ub = _unit_direction(a[1:]), _unit_direction(b[1:])
        ta, tb = mpf(a[0]), mpf(b[0])
        xa = [mp.cos(ta)] + [mp.sin(ta) * c for c in ua]
        xb = [mp.cos(tb)] + [mp.sin(tb) * c for c in ub]
        return {"separation_angle": float(_angle(ua, ub)),
                "distance": float(mpf(radius) * _angle(xa, xb))}


def table_thetas(theta_min: float, theta_max: float, n: int) -> list[float]:
    """The angles `sphgreen table` prints (same double arithmetic)."""
    step = (theta_max - theta_min) / (n - 1)
    return [theta_min + i * step for i in range(n)]


# ------------------------------------------------------------------- checks

class Outcome:
    """Tally of one command's output: verified records and failed operations."""

    __slots__ = ("attempted", "failed", "refused", "unknown", "kinds", "problems")

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.unknown = 0          # failures that are not a documented known defect
        self.kinds: dict[str, int] = {}
        self.problems: list[str] = []

    def ok(self):
        self.attempted += 1

    def fail(self, kind: str | None, text: str):
        self.attempted += 1
        self.failed += 1
        key = kind or "unknown"
        self.kinds[key] = self.kinds.get(key, 0) + 1
        if kind is None:
            self.unknown += 1
        if len(self.problems) < 5:
            self.problems.append(text)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.unknown += other.unknown
        for k, n in other.kinds.items():
            self.kinds[k] = self.kinds.get(k, 0) + n
        for problem in other.problems:
            if len(self.problems) < 5 and problem not in self.problems:
                self.problems.append(problem)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_json(cls, data: dict) -> "Outcome":
        out = cls()
        for name in cls.__slots__:
            setattr(out, name, data[name])
        return out


def _value(out: Outcome, text: str, ref: float, what: str):
    """Check one printed value against its double-rounded reference."""
    try:
        v = float(text)
    except ValueError:
        out.fail(None, f"{what}: unparseable {text!r}")
        return
    if math.isinf(ref):
        passed = v == ref
    else:
        passed = math.isfinite(v) and abs(v - ref) <= REL_TOL * abs(ref)
    if passed:
        out.ok()
    else:
        out.fail(None, f"{what}: got {text}, reference {ref!r}")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_output(cmd: dict, rc, text: str) -> Outcome:
    """Verify what one command printed (stdout, or the CSV it wrote).

    ``cmd`` is a command record from run.py: ``argv`` plus its references.
    ``rc`` is the exit code, or a string naming an exception that escaped.
    """
    out = Outcome()
    argv = cmd["argv"]
    lines = text.splitlines()
    expected_rc = 0
    try:
        if argv[0] == "eval":
            _check_eval(out, cmd, lines)
        elif argv[0] == "table":
            _check_table(out, cmd, text)
        elif argv[0] == "distance":
            _check_distance(out, cmd, lines)
        elif argv[0] == "check":
            expected_rc = _check_suite(out, lines)
    except (ValueError, IndexError, KeyError) as exc:
        out.fail(None, f"{' '.join(argv[:3])}: malformed output ({exc})")
    if rc != expected_rc:
        out.fail(None, f"{' '.join(argv[:3])}: exit {rc}, expected {expected_rc}")
    return out


def _check_eval(out: Outcome, cmd: dict, lines: list[str]):
    ref = cmd["ref"]
    if _flag(cmd["argv"], "--method") != "all":
        if len(lines) != 1:
            raise ValueError(f"{len(lines)} lines")
        _value(out, lines[0], ref, "eval")
        return
    seen = []
    for line in lines[:-1]:
        name, first, second = line.split()
        seen.append(name)
        if first == "skipped":
            if name in TOTAL_ROUTES or second not in SKIP_REASONS:
                out.fail(None, f"eval {name}: {line}")
            else:
                out.refused += 1
            continue
        _value(out, first, ref, f"eval {name}")
    if seen != list(METHOD_ORDER) or not lines[-1].startswith("max_pairwise_relative_deviation "):
        raise ValueError(f"routes {seen}")


def _check_table(out: Outcome, cmd: dict, text: str):
    argv = cmd["argv"]
    d, radius = int(_flag(argv, "--d")), float(_flag(argv, "--radius"))
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["d", "R", "theta", "method", "value", "est_error"]:
        raise ValueError(f"header {rows[0]}")
    refs = dict(cmd["rows"])
    methods = cmd["methods"]
    if len(rows) - 1 != len(refs) * len(methods):
        out.fail(None, f"table d={d}: {len(rows) - 1} rows, expected {len(refs) * len(methods)}")
    for row in rows[1:]:
        theta = float(row[2])
        if int(row[0]) != d or float(row[1]) != radius or row[3] not in methods:
            out.fail(None, f"table row {row}")
            continue
        if theta not in refs:  # the CLI spaced its grid differently: compute afresh
            refs[theta] = reference(d, radius, theta)
        ref = refs[theta]
        if row[4] == "nan" and row[3] not in TOTAL_ROUTES:
            out.refused += 1
            continue
        _value(out, row[4], ref, f"table d={d} theta={row[2]} {row[3]}")


def _check_distance(out: Outcome, cmd: dict, lines: list[str]):
    got = dict(line.split() for line in lines)
    if sorted(got) != ["distance", "separation_angle"]:
        raise ValueError(f"keys {sorted(got)}")
    for key in ("separation_angle", "distance"):
        _value(out, got[key], cmd["ref"][key], f"distance {key}")


def _check_suite(out: Outcome, lines: list[str]) -> int:
    """Count PASS/FAIL lines; the CLI exits 1 exactly when a line FAILs."""
    if not lines:
        raise ValueError("no report lines")
    any_fail = False
    for line in lines:
        status, rest = line.split(" ", 1)
        name = rest.split(":", 1)[0]
        if status == "PASS":
            out.ok()
        elif status == "FAIL":
            any_fail = True
            known = name.startswith(KNOWN_RED_PREFIX)
            out.fail("known-red" if known else None, f"check {line[:120]}")
        else:
            raise ValueError(f"status {status!r}")
    return 1 if any_fail else 0
