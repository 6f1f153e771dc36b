import argparse
import csv
import io
import json
import math
import sys
import time

import pytest

from sphgreen.cli import METHOD_ORDER, _parse, _parse_methods, _table_rows, build_parser, fmt, main
from sphgreen.kernel import _REFUSALS, Representation, radial_kernel, solution_scale


SERIES_ROUTES = ("hyp2f1", "hyp2f1_euler", "ferrers")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli(tmp_path, *argv, timeout=60):
    """(exit code, stdout, stderr, package modules in ``sys.modules`` at exit) of
    ``sphgreen.cli ARGV`` run as __main__ in a fresh interpreter, as ``python -m``
    runs it; sphgreen.cli itself is __main__ there, so it is not listed."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import json, runpy, sys\n"
        f"sys.argv[1:] = {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module('sphgreen.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    with open('modules.json', 'w') as out:\n"
        "        json.dump(sorted(sys.modules), out)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=timeout)
    modules = json.loads((tmp_path / "modules.json").read_text())
    return (proc.returncode, proc.stdout, proc.stderr,
            {name for name in modules if name.startswith("sphgreen.")})


def assert_prints_reference(capsys, d, radius, reference, nearest):
    """`eval` at theta = 1 and a two-row `table` print the reference values."""
    code, out, err = run(capsys, "eval", "--theta", "1", "--d", d, "--radius", radius)
    assert code == 0 and err == ""
    nearest(float(out), reference(int(d), float(radius), 1.0))
    code, out, err = run(capsys, "table", "--n", "2", "--theta-min", "0.5", "--theta-max", "1.0",
                         "--methods", "finite_sum", "--d", d, "--radius", radius)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[2] for row in rows] == ["0.5", "1.0"]
    for row in rows:
        nearest(float(row[4]), reference(int(d), float(radius), float(row[2])))


class TestEval:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", "3", "--radius", "1",
                           "--theta", "0.7853981633974483", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        values = {}
        for line in lines[:-1]:
            name, value, _err = line.split()
            values[name] = float(value)
        assert set(values) == {"quadrature", "finite_sum", "recurrence",
                               "hyp2f1", "hyp2f1_euler", "ferrers"}
        for v in values.values():
            assert v == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-10)
        tag, dev = lines[-1].split()
        assert tag == "max_pairwise_relative_deviation"
        assert float(dev) <= 1e-9

    def test_equator_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", "2", "--radius", "1",
                           "--theta", "1.5707963267948966")
        assert code == 0
        assert abs(float(out.strip())) <= 1e-12

    def test_theta_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--d", "3", "--theta", "4.0")
        assert code == 2
        assert "theta" in err

    def test_bad_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--d", "3", "--theta", "1.0",
                         "--method", "bogus")
        assert code == 2

    def test_window_violation_single_method_exits_3(self, capsys):
        code, _, err = run(capsys, "eval", "--d", "3", "--theta", "0.05",
                           "--method", "hyp2f1")
        assert code == 3
        assert "0.98" in err

    def test_infinite_radius_exits_2(self, capsys):
        # a non-finite radius would scale every value to 0.0
        for argv in (("eval", "--d", "3", "--theta", "1"),
                     ("table", "--d", "3", "--n", "2", "--theta-min", "0.5",
                      "--theta-max", "1.0"),
                     ("distance", "--d", "2", "--point-a", "0.5,1.0",
                      "--point-b", "1.0,2.0")):
            code, out, err = run(capsys, *argv, "--radius", "inf")
            assert code == 2
            assert out == ""
            assert "argument --radius: radius must be finite, got inf" in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("eval", "--d", "1", "dimension must be an integer >= 2, got 1"),
        pytest.param("eval", "--d", "-1" + "0" * 400, "dimension must be an integer >= 2",
                     id="eval---d-beyond-float-range"),
        ("eval", "--d", "2.5", "invalid int value: '2.5'"),
        ("eval", "--radius", "abc", "invalid float value: 'abc'"),
        ("eval", "--radius", "0", "radius must be positive, got 0.0"),
        ("eval", "--theta", "4", "polar angle 4.0 outside [1e-12, pi - 1e-12]"),
        ("table", "--theta-min", "0", "polar angle 0.0 outside"),
        ("table", "--theta-max", "nan", "polar angle nan outside"),
        ("distance", "--d", "1", "dimension must be an integer >= 2"),
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, command, flag, value, message):
        # argparse applies the kernel's own rule and names the flag
        argv = {"eval": ("--d", "3", "--theta", "1"),
                "table": ("--d", "3", "--n", "2", "--theta-min", "0.5", "--theta-max", "1"),
                "distance": ("--d", "2", "--point-a", "0.5,1", "--point-b", "1,2")}[command]
        code, out, err = run(capsys, command, *argv, flag, value)
        assert code == 2 and out == ""
        assert f"sphgreen {command}: error: argument {flag}: {message}" in err

    @pytest.mark.parametrize("d, radius", [("10", "1e-300"), ("1000", "10")])
    def test_radius_power_out_of_range_prints_reference(self, capsys, d, radius,
                                                        solution_reference, nearest):
        # radius ** (d - 2) underflows to 0 or overflows, yet eval and table
        # print the double nearest the exact solution (inf for d = 10)
        assert_prints_reference(capsys, d, radius, solution_reference, nearest)

    @pytest.mark.parametrize("d", ["344", "400", "2000"])
    def test_normalization_out_of_range_prints_reference(self, capsys, d, solution_reference,
                                                         nearest):
        # c0(d) = Gamma(d/2) / (2 pi^(d/2)) needs no double of its own: d = 344
        # and 400 print finite values, d = 2000 prints inf
        assert_prints_reference(capsys, d, "1", solution_reference, nearest)

    @pytest.mark.parametrize("command", ["eval", "table"])
    @pytest.mark.parametrize("d", ["20000000000000000000", "20000000000000000001",
                                   "18446744073709551617"])
    def test_dimension_past_the_exact_double_factorial_exits_2(self, tmp_path, command, d):
        # (d-2)!! needs (d - 1) // 2 <= sys.maxsize; an odd d past that once ran
        # without end (d = 2 sys.maxsize + 3 did, before the limit moved below
        # it), so each call runs in a fresh process with a timeout
        argv = {"eval": ("--theta", "1"),
                "table": ("--theta-min", "0.5", "--theta-max", "1", "--n", "2")}[command]
        code, out, err, _ = fresh_cli(tmp_path, command, "--d", d, *argv, timeout=20)
        assert (code, out) == (2, "")
        assert err == ("error: double factorial requires -1 <= n <= 18446744073709551614, "
                       f"got {int(d) - 2}\n")

    @pytest.mark.parametrize("argv, want", [
        (("--d", "100", "--radius", "1e6", "--theta", "1e-5"), 4.3087883596284905e-63),
        (("--d", "10", "--radius", "1e40", "--theta", "1"), 4.15e-322),
        (("--d", "173", "--theta", "1", "--method", "ferrers"), 9.355749465546217e+96),
    ])
    def test_prints_nearest_double(self, capsys, argv, want, nearest):
        # 40-digit reference values; the subnormal must come out exactly
        # (d = 344, 400, 2000 and the radii 1e-300 and 10 are checked above)
        code, out, err = run(capsys, "eval", *argv)
        assert code == 0 and err == ""
        nearest(float(out), want)

    def test_all_routes_far_beyond_range(self, capsys):
        # S = e^5254 at the pole: every route prints inf or a skip line
        code, out, err = run(capsys, "eval", "--d", "200", "--theta", "1e-11", "--method", "all")
        assert code == 0 and err == ""
        lines = [line.split() for line in out.strip().splitlines()[:-1]]
        assert [line[0] for line in lines] == list(METHOD_ORDER)
        for name, first, second in lines:
            assert first == "inf" or (first == "skipped" and name in SERIES_ROUTES)

    @pytest.mark.parametrize("radius, subnormal", [("1e308", True), ("5e-324", False)])
    def test_bounds_at_the_ends_of_double_range(self, capsys, radius, subnormal):
        # every route's value is subnormal at R = 1e308 and inf at R = 5e-324: the bound
        # covers the final rounding, with at least ulp(0.0) beside a subnormal value and
        # inf beside inf
        code, out, err = run(capsys, "eval", "--d", "3", "--radius", radius, "--theta", "1",
                             "--method", "all")
        assert code == 0 and err == ""
        lines = [line.split() for line in out.splitlines()[:-1]]
        assert [line[0] for line in lines] == list(METHOD_ORDER)
        for name, value, bound in lines:
            value, bound = float(value), float(bound)
            if subnormal:
                assert 0.0 < value < sys.float_info.min and bound >= math.ulp(0.0), name
            else:
                assert value == bound == math.inf, name

    def test_deviation_sees_disagreeing_infinities(self, capsys, monkeypatch):
        # every printed value is +-inf; inf against -inf is a NaN quotient,
        # which must not read as agreement, while equal infinities agree.
        # Every route now gets the sign right, so the recurrence's is flipped
        # at theta = 0.3 to make a disagreeing pair
        from sphgreen import kernel
        from sphgreen.kernel import Representation

        recurrence = kernel._ROUTES[Representation.RECURRENCE]

        def flipped(d, c, s):
            k, err = recurrence(d, c, s)
            return (-k, err) if c == math.cos(0.3) else (k, err)

        monkeypatch.setitem(kernel._ROUTES, Representation.RECURRENCE, flipped)
        for theta, want in (("0.3", "inf"), ("1e-11", "0.0")):
            argv = ("eval", "--d", "340", "--theta", theta, "--method", "all")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            lines = out.strip().splitlines()
            values = {float(line.split()[1]) for line in lines[:-1] if "skipped" not in line}
            assert all(math.isinf(v) for v in values)
            assert len(values) == (2 if want == "inf" else 1)
            assert lines[-1] == f"max_pairwise_relative_deviation {want}"

    @pytest.mark.parametrize("d", ["2", "3", "10", "60", "340"])
    @pytest.mark.parametrize("theta", ["1e-11", "0.1", "0.5", "1.0", "2.9"])
    def test_all_prints_what_each_route_prints(self, capsys, d, theta):
        # every route is evaluated once per angle for --method all; a skipped
        # route is one that exits 3 on its own
        code, out, err = run(capsys, "eval", "--d", d, "--theta", theta, "--method", "all")
        assert code == 0 and err == ""
        lines = out.splitlines()[:-1]
        assert [line.split()[0] for line in lines] == list(METHOD_ORDER)
        for line in lines:
            name, value = line.split()[:2]
            alone = run(capsys, "eval", "--d", d, "--theta", theta, "--method", name)
            if value == "skipped":
                assert alone[:2] == (3, "")
            else:
                assert alone == (0, value + "\n", "")

    @pytest.mark.parametrize("d, theta", [(6, 0.142), (2, 0.2436)])
    def test_series_pairs_hold_their_bound_near_the_window(self, capsys, d, theta,
                                                           solution_reference):
        # the direct series sums 1690 and 453 terms here; a bound of the stop rule's
        # tolerance alone left hyp2f1's printed values 24.6x and 8.8x their bound off
        code, out, _ = run(capsys, "eval", "--d", str(d), "--theta", repr(theta),
                           "--method", "all")
        assert code == 0
        want = solution_reference(d, 1.0, theta)
        printed = {line.split()[0]: line.split()[1:] for line in out.splitlines()[:-1]}
        for name in ("hyp2f1", "ferrers"):
            value, err = map(float, printed[name])
            assert abs(value - want) <= err + 4.0 * math.ulp(want), (name, value, err, want)

    def test_overflowing_series_is_skipped(self, capsys):
        # 2F1(1/2, 200; 3/2; cos^2 0.15) overflows although S = 6.8e200
        argv = ("eval", "--d", "400", "--radius", "10", "--theta", "0.15")
        code, out, err = run(capsys, *argv, "--method", "hyp2f1")
        assert code == 3 and out == "" and "a partial sum left double range" in err
        code, out, _ = run(capsys, *argv, "--method", "all")
        assert code == 0
        assert "hyp2f1 skipped no-convergence" in out.splitlines()

    @pytest.mark.parametrize("error", ["SeriesWindowError", "NonConvergenceError",
                                       "ToleranceNotMetError"])
    def test_every_refusal_is_handled_alike(self, capsys, monkeypatch, error):
        # eval --method all skips the route, table prints nan, a single route exits 3
        from sphgreen import kernel, quadrature, specfun

        exc = {"SeriesWindowError": kernel.SeriesWindowError("refused"),
               "NonConvergenceError": specfun.NonConvergenceError("refused", 0.0, 1),
               "ToleranceNotMetError": quadrature.ToleranceNotMetError("refused", 0.0, 1.0)}[error]

        def route(d, c, s):
            raise exc

        # eval --method all, table and a single route all reach the route through its entry
        monkeypatch.setitem(kernel._ROUTES, kernel.Representation.RECURRENCE, route)
        reason = "series-window" if error == "SeriesWindowError" else "no-convergence"
        code, out, _ = run(capsys, "eval", "--d", "5", "--theta", "1", "--method", "all")
        assert code == 0 and f"recurrence skipped {reason}" in out.splitlines()
        code, out, _ = run(capsys, "table", "--d", "5", "--theta-min", "0.5", "--theta-max", "1",
                           "--n", "2", "--methods", "recurrence")
        assert code == 0 and out.splitlines()[1].endswith(",recurrence,nan,nan")
        code, out, err = run(capsys, "eval", "--d", "5", "--theta", "1", "--method", "recurrence")
        assert (code, out, err) == (3, "", "error: refused\n")

    def test_large_d_ferrers_where_q_underflows(self, capsys):
        # the Ferrers Q of this route underflows, the Gauss series it reduces to does not
        code, out, _ = run(capsys, "eval", "--d", "343", "--theta", "1", "--method", "all")
        assert code == 0
        ferrers = [line.split() for line in out.splitlines() if line.startswith("ferrers ")]
        assert len(ferrers) == 1 and math.isfinite(float(ferrers[0][1]))

    def test_large_odd_d_matches_recurrence(self, capsys):
        # Gamma(151.5) once overflowed in the int-to-float conversion of 301!!
        values = []
        for method in ("finite_sum", "recurrence"):
            code, out, _ = run(capsys, "eval", "--d", "303", "--theta", "1", "--method", method)
            assert code == 0
            values.append(float(out))
        assert math.isfinite(values[1])
        assert abs(values[0] - values[1]) <= 1e-12 * abs(values[1])

    def test_window_violation_all_prints_skip(self, capsys):
        code, out, _ = run(capsys, "eval", "--d", "3", "--theta", "0.05",
                           "--method", "all")
        assert code == 0
        assert "hyp2f1 skipped series-window" in out

    def test_deterministic(self, capsys):
        args = ("eval", "--d", "4", "--theta", "1.1", "--method", "all")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_pole_adjacent_all_degrades_gracefully(self, capsys):
        # closed forms and the Ferrers route, which sums in sin^2 theta here,
        # keep answering right next to the pole; the hyp2f1 series skips with
        # a labelled line instead of aborting
        code, out, _ = run(capsys, "eval", "--d", "3", "--theta", "1e-12",
                           "--method", "all")
        assert code == 0
        lines = dict()
        for line in out.strip().splitlines()[:-1]:
            parts = line.split()
            lines[parts[0]] = parts[1]
        assert float(lines["finite_sum"]) == pytest.approx(
            1.0 / math.tan(1e-12) / (4.0 * math.pi), rel=1e-12)
        assert lines["hyp2f1"] == "skipped"
        assert float(lines["ferrers"]) == pytest.approx(float(lines["finite_sum"]), rel=1e-13)

    def test_large_d_ferrers_near_pole(self, capsys):
        # no Ferrers coefficient at d = 1000 leaves the double range, and the
        # route prints inf, the double nearest S = 1.7e1878, as the recurrence does
        code, out, err = run(capsys, "eval", "--d", "1000", "--theta", "0.1", "--method", "all")
        assert code == 0 and err == ""
        lines = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()[:-1]}
        assert lines["ferrers"] == lines["recurrence"] == "inf"


class TestTable:
    def test_row_count_and_order(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "4", "--n", "3",
                           "--theta-min", "1", "--theta-max", "2",
                           "--methods", "finite_sum")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,R,theta,method,value,est_error"
        assert len(lines) == 4

    def test_theta_major_method_minor(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "3", "--n", "2",
                           "--theta-min", "1", "--theta-max", "2",
                           "--methods", "recurrence,finite_sum")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[2], r[3]) for r in rows] == [
            ("1.0", "finite_sum"), ("1.0", "recurrence"),
            ("2.0", "finite_sum"), ("2.0", "recurrence")]

    def test_round_trip_bytes(self, capsys, tmp_path):
        # theta range crosses the series window so nan rows are exercised too
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--d", "5", "--n", "7",
                         "--theta-min", "0.05", "--theta-max", "2.9",
                         "--methods", "all", "--out", str(out_path))
        assert code == 0
        original = out_path.read_text()
        assert ",nan," in original
        lines = original.strip().splitlines()
        rebuilt = [lines[0]]
        for line in lines[1:]:
            d, radius, theta, method, value, err = line.split(",")
            rebuilt.append(",".join([
                str(int(d)), repr(float(radius)), repr(float(theta)), method,
                repr(float(value)), repr(float(err))]))
        assert "\n".join(rebuilt) + "\n" == original

    def test_all_methods_deviation_within_tolerance(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "4", "--n", "9",
                           "--theta-min", "0.05",
                           "--theta-max", str(math.pi - 0.05),
                           "--methods", "all")
        assert code == 0
        by_theta = {}
        for line in out.strip().splitlines()[1:]:
            _, _, theta, method, value, _ = line.split(",")
            by_theta.setdefault(theta, {})[method] = float(value)
        for theta, values in by_theta.items():
            finite = [v for v in values.values() if not math.isnan(v)]
            assert len(finite) >= 4
            spread = max(finite) - min(finite)
            assert spread <= 1e-9 * max(1.0, max(abs(v) for v in finite))

    def test_accepts_the_angle_range_of_eval(self, capsys):
        # THETA_EDGE and pi - THETA_EDGE, the ends that eval accepts
        code, out, err = run(capsys, "table", "--d", "3", "--n", "2", "--theta-min", "1e-12",
                             "--theta-max", "3.141592653588793", "--methods", "finite_sum")
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[2] for row in rows] == ["1e-12", "3.141592653588793"]

    def test_last_row_is_theta_max_where_the_grid_rounds_past_it(self, capsys, tmp_path):
        # theta_min + 160 * step rounds to 4.4e-16 past --theta-max, i.e. past pi - THETA_EDGE
        out_path = tmp_path / "t.csv"
        code, out, err = run(capsys, "table", "--d", "4", "--theta-min", "0.1537646852041436",
                             "--theta-max", "3.141592653588793", "--n", "161",
                             "--methods", "finite_sum", "--out", str(out_path))
        assert code == 0 and out == err == ""
        rows = list(csv.reader(io.StringIO(out_path.read_text())))[1:]
        assert len(rows) == 161 and rows[-1][2] == "3.141592653588793"

    def test_last_row_is_theta_max_where_the_grid_ends_under_it(self, capsys):
        # theta_min + 23 * step rounds to 1.538417566394774, an ulp under --theta-max;
        # every other row keeps theta_min + i * step
        lo, hi, n = 0.09291248952955893, 1.5384175663947741, 24
        step = (hi - lo) / (n - 1)
        assert lo + (n - 1) * step < hi
        code, out, err = run(capsys, "table", "--d", "5", "--theta-min", repr(lo),
                             "--theta-max", repr(hi), "--n", str(n), "--methods", "finite_sum")
        assert code == 0 and err == ""
        thetas = [float(row[2]) for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert thetas == [lo + i * step for i in range(n - 1)] + [hi]

    @pytest.mark.parametrize("radius", ["1e-300", "1", "1e300"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 40, 41, 173, 1000, 1001])
    def test_cells_are_the_scalar_api_bit_for_bit(self, capsys, d, radius):
        # ranges touching each pole and one across pi/2; nan where the scalar call refuses
        scale = solution_scale(d, float(radius))
        methods = ["finite_sum", "finite_sum,ferrers"] + (["all"] if d <= 40 else [])
        for lo, hi in [("1e-12", "0.4"), ("2.7", "3.141592653588793"), ("0.9", "2.2")]:
            for method in methods:
                code, out, err = run(capsys, "table", "--d", str(d), "--radius", radius,
                                     "--theta-min", lo, "--theta-max", hi, "--n", "9",
                                     "--methods", method)
                assert code == 0 and err == ""
                rows = [line.split(",") for line in out.splitlines()[1:]]
                assert len(rows) == 9 * len(_parse_methods(method))
                for row in rows:
                    try:
                        want = radial_kernel(d, float(row[2]), Representation(row[3])).scaled(scale)
                    except _REFUSALS:
                        want = math.nan, math.nan
                    assert row[4:] == [fmt(x) for x in want], (lo, hi, row)

    @pytest.mark.parametrize("d", [2, 5, 40])
    def test_all_methods_rows_are_the_lines_of_eval_all(self, capsys, d):
        # hyp2f1 and hyp2f1_euler refuse at 1e-6, and at 0.05 for d = 40
        def table(lo, hi, methods):
            code, out, err = run(capsys, "table", "--d", str(d), "--radius", "2.5", "--n", "2",
                                 "--theta-min", lo, "--theta-max", hi, "--methods", methods)
            assert code == 0 and err == ""
            return {(row[2], row[3]): row[4:] for row in list(csv.reader(io.StringIO(out)))[1:]}

        for lo, hi in [("1e-06", "0.05"), ("1.0", repr(math.pi - 1e-6))]:
            rows = table(lo, hi, "all")
            for theta in (lo, hi):
                code, out, err = run(capsys, "eval", "--d", str(d), "--radius", "2.5",
                                     "--theta", theta, "--method", "all")
                assert code == 0 and err == ""
                lines = [line.split() for line in out.splitlines()[:-1]]
                assert [line[0] for line in lines] == list(METHOD_ORDER)
                skipped = {line[0] for line in lines if line[1] == "skipped"}
                if theta == "1e-06" or (d == 40 and theta == "0.05"):
                    assert {"hyp2f1", "hyp2f1_euler"} <= skipped
                for method, *fields in lines:
                    want = ["nan", "nan"] if method in skipped else fields
                    assert rows[(theta, method)] == want, (theta, method)
            # the Ferrers rows do not depend on which routes run beside them
            for methods in ("ferrers", "ferrers,hyp2f1", "finite_sum,ferrers"):
                subset = table(lo, hi, methods)
                assert subset == {key: rows[key] for key in subset}

    def test_rows_stream(self):
        # a billion-row table yields its first line at once: no row is built ahead
        args = argparse.Namespace(d=5, radius=1.0, theta_min=1.0, theta_max=2.0, n=10**9)
        scale = solution_scale(5, 1.0)
        start = time.perf_counter()
        first = next(_table_rows(args, [Representation.FINITE_SUM], scale))
        assert time.perf_counter() - start < 1.0
        value, err = radial_kernel(5, 1.0).scaled(scale)
        assert first == f"5,1.0,1.0,finite_sum,{fmt(value)},{fmt(err)}\n"

    @pytest.mark.parametrize("buffered", [True, False])
    def test_a_reader_that_stops_early_gets_exit_4_and_no_message(self, tmp_path, buffered):
        # `sphgreen table ... | head -1`: the writes after the reader has gone
        # fail with EPIPE, and neither main nor the flush at exit says so
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "sphgreen.cli", "table", "--d", "7", "--theta-min", "0.1",
             "--theta-max", "3", "--n", "100000", "--methods", "finite_sum"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path)
        assert proc.stdout.readline() == b"d,R,theta,method,value,est_error\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 4
        assert err == b""

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "--d", "3", "--n", "3",
                         "--theta-min", "2", "--theta-max", "1")
        assert code == 2

    @pytest.mark.parametrize("bad", [("--methods", "bogus"), ("--methods", "all,bogus"),
                                     ("--n", "1"), ("--d", "1"), ("--theta-max", "4"),
                                     ("--theta-min", "2.5"), ("--radius", "inf")])
    def test_bad_arguments_leave_out_file_untouched(self, capsys, tmp_path, bad):
        out_path = tmp_path / "table.csv"
        out_path.write_text("kept\n")
        # a repeated option overrides the valid value before it
        code, out, _ = run(capsys, "table", "--d", "3", "--n", "2", "--theta-min", "1",
                           "--theta-max", "2", "--out", str(out_path), *bad)
        assert code == 2 and out == ""
        assert out_path.read_text() == "kept\n"

    @pytest.mark.parametrize("command", [
        ("eval", "--d", "3", "--theta", "1"),
        ("table", "--d", "3", "--n", "2", "--theta-min", "1", "--theta-max", "2"),
    ])
    def test_tol_option_is_gone(self, capsys, command):
        # each route has one fixed accuracy (see README)
        code, out, err = run(capsys, *command, "--tol", "1e-8")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tol" in err

    def test_empty_method_list_exits_2(self, capsys):
        code, out, err = run(capsys, "table", "--d", "5", "--theta-min", "1", "--theta-max", "2",
                             "--n", "3", "--methods", ",,")
        assert (code, out, err) == (2, "", "error: no methods given\n")

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        path = str(tmp_path / "missing-dir" / "t.csv")
        code, out, err = run(capsys, "table", "--d", "3", "--n", "2",
                             "--theta-min", "1", "--theta-max", "2", "--out", path)
        assert code == 4 and out == ""
        assert path in err


class TestCheck:
    def test_geometry_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "geometry")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_delta_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "delta")
        assert code == 0
        assert out.count("PASS") == 8
        for d in (2, 3, 4, 60):
            assert f"PASS delta-identity d={d} R=5.0:" in out

    def test_ode_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "ode")
        assert code == 0
        assert "skipped" in out  # inadmissible/degenerate branches are reported

    def test_ode_suite_prints_the_same_cold(self, capsys, monkeypatch):
        # the kept Ferrers blocks (with their Gamma prefactors), branches and 2F1 ratio
        # tables change no printed byte: every sample may as well start cold
        from sphgreen import harmonics, specfun

        run(capsys, "check", "ode")
        warm = run(capsys, "check", "ode")
        real, samples = harmonics.radial_harmonic, []

        def cold(*args):
            specfun._ratio_slot.cache_clear()
            specfun._ferrers_blocks.cache_clear()
            harmonics._branch.cache_clear()
            samples.append(args)
            return real(*args)

        monkeypatch.setattr(harmonics, "radial_harmonic", cold)
        assert run(capsys, "check", "ode") == warm
        assert len(samples) > 100

    def test_laplace_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "laplace")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 78 and all(line.startswith("PASS") for line in lines)
        for d in (2, 12, 60, 200):
            assert f"PASS laplace-annihilation d={d} R=5.0 theta=2.0:" in out

    def test_xrep_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "xrep")
        assert code == 0
        assert out.count("PASS") == 9  # one line per d in 2..10

    def test_xrep_raises_a_refused_quadrature_reference(self, capsys, monkeypatch):
        # no other route is compared where the reference itself was refused
        from sphgreen import kernel

        def refuse(d, c, s):
            raise kernel.ToleranceNotMetError(f"quadrature refused at d={d}", 0.0, 1.0)

        monkeypatch.setitem(kernel._ROUTES, Representation.QUADRATURE, refuse)
        assert run(capsys, "check", "xrep") == (3, "", "error: quadrature refused at d=2\n")

    def test_limit_suite_reports_d2_failure(self, capsys):
        # the d=2 comparison grows with R (additive-constant mismatch); the
        # suite reports it honestly and exits nonzero
        code, out, _ = run(capsys, "check", "limit")
        assert code == 1
        lines = out.strip().splitlines()
        assert any(line.startswith("PASS") and "d=3" in line for line in lines)
        assert any(line.startswith("FAIL") and "d=2" in line for line in lines)

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "nope")
        assert code == 2

    def test_suite_names_are_the_oracle_suites(self):
        from sphgreen.cli import SUITE_NAMES
        from sphgreen.oracle import SUITES

        assert list(SUITE_NAMES) == sorted(SUITES)

    def test_unknown_suite_message_is_argparse_over_the_suites(self, capsys):
        import argparse

        from sphgreen.oracle import SUITES

        reference = argparse.ArgumentParser(prog="sphgreen check")
        reference.add_argument("suite", choices=sorted(SUITES))
        with pytest.raises(SystemExit):
            reference.parse_args(["bogus"])
        want = capsys.readouterr().err
        assert run(capsys, "check", "bogus") == (2, "", want)


class TestDistance:
    def test_identical_points(self, capsys):
        code, out, _ = run(capsys, "distance", "--d", "3", "--radius", "1",
                           "--point-a", "0.7,1.1,0.9", "--point-b", "0.7,1.1,0.9")
        assert code == 0
        values = dict(line.split() for line in out.strip().splitlines())
        assert abs(float(values["distance"])) <= 1e-7

    def test_antipodal_circle(self, capsys):
        code, out, _ = run(capsys, "distance", "--d", "2", "--radius", "1",
                           "--point-a", "0.3,1.0",
                           "--point-b", f"{math.pi - 0.3},{1.0 + math.pi}")
        assert code == 0
        values = dict(line.split() for line in out.strip().splitlines())
        assert float(values["distance"]) == pytest.approx(math.pi, rel=1e-12)

    def test_matches_embedding_oracle(self, capsys):
        import operator
        import random

        from sphgreen.geometry import HyperPoint, embed

        rng = random.Random(3)
        for _ in range(20):
            a = [rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                 rng.uniform(0, math.pi)]
            b = [rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                 rng.uniform(0, math.pi)]
            code, out, _ = run(capsys, "distance", "--d", "3", "--radius", "2.0",
                               "--point-a", ",".join(map(repr, a)),
                               "--point-b", ",".join(map(repr, b)))
            assert code == 0
            values = dict(line.split() for line in out.strip().splitlines())
            pa = HyperPoint(3, 2.0, a[0], tuple(a[1:]))
            pb = HyperPoint(3, 2.0, b[0], tuple(b[1:]))
            inner = math.fsum(map(operator.mul, embed(pa), embed(pb))) / 4.0
            oracle = 2.0 * math.acos(min(1.0, max(-1.0, inner)))
            assert abs(float(values["distance"]) - oracle) <= 1e-10

    def test_malformed_angles_exit_2(self, capsys):
        code, _, _ = run(capsys, "distance", "--d", "3",
                         "--point-a", "0.5,abc,1.0", "--point-b", "0.5,0.5,0.5")
        assert code == 2
        code, _, _ = run(capsys, "distance", "--d", "3",
                         "--point-a", "0.5,0.5", "--point-b", "0.5,0.5,0.5")
        assert code == 2


def test_every_annotation_resolves():
    # names used only in annotations resolve without loading geometry at start-up
    import inspect
    import typing

    import sphgreen.cli as cli

    functions = [f for f in vars(cli).values()
                 if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert len(functions) >= 10
    for f in functions:
        typing.get_type_hints(f)


class TestInstalledScript:
    def test_console_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "sphgreen.cli", "eval", "--d", "3",
             "--radius", "1", "--theta", "0.7853981633974483"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == pytest.approx(1.0 / (4.0 * math.pi),
                                                           rel=1e-12)


class TestParserReuse:
    def test_one_process_prints_what_fresh_processes_print(self, tmp_path):
        # main() builds the parser once per process and reuses it across calls
        import os
        import subprocess
        import sys
        from pathlib import Path

        commands = [
            ["eval", "--d", "5", "--theta", "0.4", "--method", "ferrers"],
            ["table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0",
             "--n", "5", "--methods", "finite_sum,recurrence"],
            ["eval", "--d", "3", "--theta", "9"],
            ["eval", "--d", "3", "--theta", "1", "--method", "bogus"],
            ["distance", "--d", "3", "--point-a", "0.7,1.1,0.9",
             "--point-b", "1.2,0.3,2.0"],
            ["eval", "--d", "3", "--theta", "1.0"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "sphgreen.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=tmp_path)
            return [proc.returncode, proc.stdout, proc.stderr]

        script = (
            "import contextlib, io, json, sys\n"
            "import sphgreen.cli\n"
            "results = []\n"
            f"for argv in {commands!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        code = sphgreen.cli.main(argv)\n"
            "    results.append([code, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [fresh(argv) for argv in commands]


class TestParsing:
    """``main`` parses a subcommand's argv with that subcommand's parser alone; every
    byte and exit code is what the whole parser followed by the same command gives."""

    POINT = ("--d", "3", "--point-a", "0.7,1.1,0.9", "--point-b", "1.2,0.3,2.0")
    CORPUS = [
        # one valid call of each subcommand
        ("eval", "--d", "3", "--theta", "1"),
        ("eval", "--d", "5", "--radius", "2.5", "--theta", "0.4", "--method", "all"),
        ("table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0", "--n", "3",
         "--methods", "finite_sum"),
        ("check", "ode"),
        ("distance", *POINT),
        # help and no arguments at both levels
        (), ("-h",), ("--help",), ("eval", "-h"), ("table", "--help"), ("check", "-h"),
        ("distance", "--help"), ("eval",), ("check",), ("eval", "--d", "3", "--theta", "1", "-h"),
        # unknown subcommand, or an option first
        ("bogus", "--d", "3"), ("--d", "3", "eval", "--theta", "1"), ("-x", "eval"),
        # abbreviated, attached, ambiguous and repeated flags; --
        ("eval", "--d", "3", "--rad", "2", "--theta", "1"), ("eval", "--d=3", "--theta=1"),
        ("table", "--d", "4", "--theta-m", "0.1", "--n", "3"),
        ("eval", "--d", "3", "--d", "4", "--theta", "1"),
        ("eval", "--d", "3", "--theta", "1", "--"), ("eval", "--d", "3", "--", "--theta", "1"),
        ("--", "eval", "--d", "3", "--theta", "1"), ("check", "--", "ode"),
        # something left over
        ("eval", "--d", "3", "--theta", "1", "--bogus"),
        ("eval", "--d", "3", "--theta", "1", "--bogus=2"),
        ("eval", "--d", "3", "--theta", "1", "extra"), ("check", "ode", "extra"),
        # bad values, negative numbers among them
        ("eval", "--d", "three", "--theta", "1"),
        ("eval", "--d", "3", "--theta", "1", "--method", "bogus"), ("check", "bogus"),
        ("eval", "--d", "3", "--theta", "-1"), ("eval", "--d", "3", "--theta", "1", "--radius", "-2"),
        ("distance", "--d", "3", "--point-a", "-0.7,1.1,0.9", "--point-b", "1.2,0.3,2.0"),
    ]

    @staticmethod
    def whole_parser(argv):
        return build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(empty)")
    def test_main_prints_what_the_whole_parser_gives(self, capsys, monkeypatch, argv):
        got = run(capsys, *argv)
        with monkeypatch.context() as patch:
            patch.setattr("sphgreen.cli._parse", self.whole_parser)
            assert got == run(capsys, *argv)
        try:
            want = self.whole_parser(list(argv))
        except SystemExit:
            capsys.readouterr()
            return
        assert _parse(list(argv)) == want and want.command == argv[0]

    @pytest.mark.parametrize("argv", [
        ("eval", "--d", "3", "--theta", "1"), ("eval", "--d", "3", "--theta", "1", "--bogus"),
        ("eval", "--d", "3"), (),
    ])
    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch, argv):
        import sys

        monkeypatch.setattr(sys, "argv", ["sphgreen", *argv])
        got = main(), *capsys.readouterr()
        assert got == run(capsys, *argv)

    def test_a_leftover_argument_gets_the_top_level_usage(self, capsys):
        code, out, err = run(capsys, "eval", "--d", "3", "--theta", "1", "--bogus")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["usage: sphgreen [-h] {eval,table,check,distance} ...",
                                    "sphgreen: error: unrecognized arguments: --bogus"]


class TestImportHygiene:
    """No command imports SciPy; default routes and every route's eval run on
    the standard library, and NumPy loads on demand.  No module imports
    ``dataclasses`` (with ``inspect`` and ``ast``, about 10 ms of start-up)."""

    @staticmethod
    def loaded_after(tmp_path, *commands, codes=None):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import contextlib, io, json, sys\n"
            "import sphgreen.cli\n"
            "codes = []\n"
            f"for argv in {list(map(list, commands))!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(sphgreen.cli.main(argv))\n"
            "print(json.dumps([codes, sorted(sys.modules)]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        exits, modules = json.loads(proc.stdout)
        assert exits == (codes or [0] * len(commands))
        return set(modules)

    @staticmethod
    def default_routes(tmp_path):
        return (
            ("eval", "--d", "7", "--theta", "1"),
            ("distance", "--d", "3", "--point-a", "0.7,1.1,0.9",
             "--point-b", "1.2,0.3,2.0"),
            ("table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0",
             "--n", "5", "--methods", "finite_sum,recurrence",
             "--out", str(tmp_path / "t.csv")),
            ("check", "ode"),
        )

    def test_default_routes_import_neither_scipy_nor_numpy(self, tmp_path):
        modules = self.loaded_after(tmp_path, *self.default_routes(tmp_path))
        assert "sphgreen.oracle" in modules and "sphgreen.quadrature" in modules
        assert "numpy" not in modules and "scipy" not in modules

    def test_no_command_imports_dataclasses(self, tmp_path):
        modules = self.loaded_after(tmp_path, *self.default_routes(tmp_path))
        assert "sphgreen.geometry" in modules and "sphgreen.harmonics" in modules
        assert "dataclasses" not in modules

    def test_table_does_not_import_csv(self, tmp_path):
        # table writes its lines itself: no field needs quoting
        modules = self.loaded_after(tmp_path, *self.default_routes(tmp_path)[2:3])
        assert "csv" not in modules

    def test_source_never_mentions_dataclass(self):
        from pathlib import Path

        package = Path(__file__).resolve().parents[1] / "src" / "sphgreen"
        sources = sorted(package.glob("*.py"))
        assert sources
        assert [p.name for p in sources if "dataclass" in p.read_text()] == []

    def test_every_route_and_suite_runs_without_scipy(self, tmp_path):
        every_route = (
            ("eval", "--d", "7", "--theta", "1", "--method", "quadrature"),
            ("eval", "--d", "7", "--theta", "1", "--method", "all"),
            ("table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0",
             "--n", "4", "--methods", "all", "--out", str(tmp_path / "t.csv")),
        )
        modules = self.loaded_after(tmp_path, *every_route)
        assert "scipy" not in modules and "numpy" not in modules
        # the quadrature route keeps its panels on a plain stack, not a heap
        assert "sphgreen.quadrature" in modules and "heapq" not in modules
        # check limit exits 1 on its d = 2 clause (see test_limit_suite_reports_d2_failure)
        suites = [("check", suite)
                  for suite in ("ode", "laplace", "delta", "limit", "xrep", "geometry")]
        modules = self.loaded_after(tmp_path, *suites, codes=[0, 0, 0, 1, 0, 0])
        assert "scipy" not in modules

    @staticmethod
    def loaded_by_fresh_cli(tmp_path, *argv, code=0):
        """The sphgreen modules a fresh ``python -m sphgreen.cli ARGV`` imports."""
        returncode, _, stderr, modules = fresh_cli(tmp_path, *argv)
        assert returncode == code, stderr
        return modules

    @pytest.mark.parametrize("argv, oracles", [
        (("eval", "--d", "7", "--theta", "1"), set()),
        (("eval", "--d", "7", "--theta", "1", "--method", "all"), {"quadrature", "specfun"}),
        (("table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0", "--n", "4"),
         {"quadrature", "specfun"}),
        (("table", "--d", "4", "--theta-min", "0.1", "--theta-max", "3.0", "--n", "4",
          "--methods", "finite_sum,recurrence"), set()),
        (("eval", "--d", "7", "--theta", "1", "--method", "quadrature"), {"quadrature"}),
        (("eval", "--d", "7", "--theta", "1", "--method", "hyp2f1"), {"specfun"}),
    ], ids=["eval", "eval-all", "table", "table-production", "eval-quadrature", "eval-hyp2f1"])
    def test_eval_and_table_load_only_the_kernel(self, tmp_path, argv, oracles):
        # the production routes need the kernel alone; an oracle route loads its module
        assert self.loaded_by_fresh_cli(tmp_path, *argv) == {
            "sphgreen.kernel", *(f"sphgreen.{name}" for name in oracles)}

    def test_distance_loads_geometry_but_no_oracle(self, tmp_path):
        modules = self.loaded_by_fresh_cli(tmp_path, "distance", "--d", "3", "--point-a",
                                           "0.7,1.1,0.9", "--point-b", "1.2,0.3,2.0")
        assert modules == {"sphgreen.kernel", "sphgreen.geometry"}

    @pytest.mark.parametrize("argv, stderr, oracles", [
        (("--d", "3", "--theta", "0.05"),
         "error: cos^2(theta) = 0.997502 > 0.98: use finite_sum, recurrence or quadrature "
         "here\n", set()),
        (("--d", "400", "--theta", "0.15"),
         "error: 2F1(0.5,200.0;1.5;0.9776682445628029): a partial sum left double range "
         "after 4331 terms\n", {"specfun"}),
    ], ids=["window", "overflow"])
    def test_hyp2f1_refusal_in_a_fresh_process(self, tmp_path, argv, stderr, oracles):
        # the window is checked before specfun loads; the refusal classes are kernel's
        got = fresh_cli(tmp_path, "eval", "--method", "hyp2f1", *argv)
        assert got == (3, "", stderr, {"sphgreen.kernel", *(f"sphgreen.{m}" for m in oracles)})

    @pytest.mark.parametrize("suite", ["delta", "geometry", "laplace", "limit", "ode", "xrep"])
    def test_every_suite_runs_in_a_fresh_process(self, tmp_path, suite):
        # check limit exits 1 on its d = 2 clause (see test_limit_suite_reports_d2_failure)
        modules = self.loaded_by_fresh_cli(tmp_path, "check", suite,
                                           code=1 if suite == "limit" else 0)
        assert {"sphgreen.oracle", "sphgreen.harmonics", "sphgreen.geometry"} <= modules

    def test_check_xrep_imports_no_numpy(self, tmp_path):
        # every suite, and the oracles' embedding and box volume, each in a fresh process
        import os
        import subprocess
        import sys
        from pathlib import Path

        for suite in ("xrep", "ode", "laplace", "delta", "limit", "geometry"):
            modules = self.loaded_after(tmp_path, ("check", suite),
                                        codes=[1 if suite == "limit" else 0])
            assert "sphgreen.oracle" in modules and "numpy" not in modules, suite
        script = ("import sys\n"
                  "from sphgreen.geometry import HyperPoint, embed\n"
                  "from sphgreen.oracle import box_volume\n"
                  "x = embed(HyperPoint(4, 2.0, 0.5, (0.1, 0.2, 0.3)))\n"
                  "v = box_volume(4, 2.0)\n"
                  "sys.exit(type(x) is not tuple or not v > 0.0 or 'numpy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
