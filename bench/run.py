#!/usr/bin/env python3
"""sphgreen benchmark.

    python3 bench/run.py --workload {cli-calls,table-sweep,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
The seed generates the workload's command list (one "pass"); the benchmark
runs whole passes until S seconds have elapsed, single-threaded, as a closed
loop with one client, and verifies every output against a 40-digit mpmath
reference (gate.py).  Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See README.md for the definitions.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, here and in every child (set before NumPy can load)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import clock
import gate
import tracer
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
SETUP_RUNS = 12         # fresh interpreters per run for setup_s
IMPORTTIME_RUNS = 3

# ----------------------------------------------------------------- workloads
#
# Each generator returns one pass: a list of commands, each an argv for
# `sphgreen` plus the references its output is checked against.  References
# are computed here, during set-up, outside every timed region.
#
# Every command of a pass is one the package gets right.  Two regions where it
# does not are left out, and the gate fails any value that strays into them:
#  - `hyp2f1_euler` misses the 1e-9 tolerance from d = 46 on (worst relative
#    error over 1200 angles with cos^2 theta in [0.3, 0.98]: 8.8e-11 at d = 40,
#    1.7e-10 at 42, 1.05e-9 at 46, 6e-8 at 60).  So commands that print every
#    route use d <= ALL_ROUTES_MAX_D.
#  - Near a pole the kernel saturates to +-inf once a power of 1/sin theta
#    leaves double range, although the fundamental solution fits (ROADMAP open
#    item 4).  So table ranges keep sin(theta)**(2 - d) below 1e300.
ALL_ROUTES_MAX_D = 40
KERNEL_MAX_LOG10 = 300


def _eval(d, radius, theta, all_routes=False):
    argv = ["eval", "--d", str(d), "--radius", repr(radius), "--theta", repr(theta)]
    if all_routes:
        argv += ["--method", "all"]
    return {"argv": argv, "ref": gate.reference(d, radius, theta)}


def _table(d, radius, lo, hi, n, methods, out="-"):
    argv = ["table", "--d", str(d), "--radius", repr(radius), "--theta-min", repr(lo),
            "--theta-max", repr(hi), "--n", str(n), "--methods", methods, "--out", out]
    rows = [[t, gate.reference(d, radius, t)] for t in gate.table_thetas(lo, hi, n)]
    names = list(gate.METHOD_ORDER) if methods == "all" else methods.split(",")
    return {"argv": argv, "rows": rows, "methods": names, "out": None if out == "-" else out}


def _distance(rng):
    d, radius = rng.randint(2, 10), rng.uniform(0.5, 4.0)

    def point():
        return ([rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)]
                + [rng.uniform(0.0, math.pi) for _ in range(d - 2)])

    a, b = point(), point()
    argv = ["distance", "--d", str(d), "--radius", repr(radius),
            "--point-a", ",".join(map(repr, a)), "--point-b", ",".join(map(repr, b))]
    return {"argv": argv, "ref": gate.distance_reference(radius, a, b)}


def _stratified_d(rng, k, count, top=60):
    """A dimension from the k-th of `count` equal bins of 2..top."""
    lo = 2 + ((top - 1) * k) // count
    hi = 2 + ((top - 1) * (k + 1)) // count - 1
    return rng.randint(lo, max(lo, hi))


def cli_calls(rng, tmp):
    """Fresh `python -m sphgreen.cli` per command: 4 eval, 1 eval --method all,
    1 distance, 1 small table --methods all, in seeded order."""
    kinds = ["eval"] * 4 + ["eval-all", "distance", "table"]
    rng.shuffle(kinds)
    commands = []
    for kind in kinds:
        d = rng.randint(2, 60 if kind == "eval" else ALL_ROUTES_MAX_D)
        radius = rng.uniform(0.5, 4.0)
        if kind == "distance":
            commands.append(_distance(rng))
        elif kind == "table":
            lo, hi = rng.uniform(0.2, 1.0), rng.uniform(math.pi - 1.0, math.pi - 0.2)
            commands.append(_table(d, radius, lo, hi, 4, "all"))
        else:
            # well inside (0, pi): every route converges within a few hundred terms
            commands.append(_eval(d, radius, rng.uniform(0.2, math.pi - 0.2), kind == "eval-all"))
    return commands


TABLES = 48
TABLE_ROWS = 100


def table_sweep(rng, tmp):
    """In-process `table --methods finite_sum` over d = 2..60 (one table per
    dimension bin, alternating parity), R in [0.5, 4], with ranges that start
    at 1e-6..1e-5 from either pole, or where sin(theta)**(2 - d) reaches
    10**KERNEL_MAX_LOG10 if that is further, or run across pi/2."""
    out = str(Path(tmp) / "table.csv")
    commands = []
    for k in range(TABLES):
        d = _stratified_d(rng, k, TABLES)
        if d % 2 != k % 2:
            d = d + 1 if d < 60 else d - 1
        radius = rng.uniform(0.5, 4.0)
        edge = max(10.0 ** rng.uniform(-6.0, -5.0),
                   math.asin(10.0 ** (-KERNEL_MAX_LOG10 / max(d - 2, 1))))
        reach = rng.uniform(0.3, 1.2)
        kind = k % 3
        if kind == 0:
            lo, hi = edge, reach
        elif kind == 1:
            lo, hi = math.pi - reach, math.pi - edge
        else:
            lo, hi = rng.uniform(0.05, 0.6), math.pi - rng.uniform(0.05, 0.6)
        commands.append(_table(d, radius, lo, hi, TABLE_ROWS, "finite_sum", out))
    return commands


# `limit` is not timed: its d = 2 clause always FAILs (the known-red item).
# It runs once per verify run instead, untimed; see KNOWN_RED_COMMANDS.
SUITES = ("ode", "delta", "xrep", "geometry")
KNOWN_RED_COMMANDS = [{"argv": ["check", "limit"]}]
# The angles of a uniform sample of (0, pi), stratified into VERIFY_POINTS
# equal strata.  The two end strata are pi/114 = 0.028 wide, about where
# ferrers stops converging (0.014 at d = 2, 0.029 at d = 60); they draw
# log-uniformly from NEAR_POLE instead, so that angles reach 1e-6 from either
# pole.  Their share, 2 of 114, matches the 35 ferrers series exhaustions in
# 2000 uniform points (1.75%).  Dimensions are stratified over
# 2..ALL_ROUTES_MAX_D and shuffled, independently of the angles.
VERIFY_POINTS = 114
NEAR_POLE = 1e-6


def verify(rng, tmp):
    """In-process `check <suite>` for every suite in SUITES, then
    `eval --method all` at VERIFY_POINTS seeded points."""
    commands = [{"argv": ["check", suite]} for suite in SUITES]
    dims = [_stratified_d(rng, k, VERIFY_POINTS, ALL_ROUTES_MAX_D) for k in range(VERIFY_POINTS)]
    rng.shuffle(dims)
    width = math.pi / VERIFY_POINTS
    for i, d in enumerate(dims):
        if i in (0, VERIFY_POINTS - 1):
            theta = NEAR_POLE * (width / NEAR_POLE) ** rng.random()
            theta = theta if i == 0 else math.pi - theta
        else:
            theta = (i + rng.random()) * width
        commands.append(_eval(d, rng.uniform(0.5, 4.0), theta, all_routes=True))
    return commands


WORKLOADS = {"cli-calls": cli_calls, "table-sweep": table_sweep, "verify": verify}

# ------------------------------------------------------------------ running


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_call(cmd, env, trace_out=None):
    """(exit code, stdout, seconds) of one `sphgreen` command in a fresh interpreter."""
    if trace_out is None:
        argv = [PY, "-m", "sphgreen.cli", *cmd["argv"]]
    else:
        argv = [PY, str(HERE / "worker.py"), "cli", trace_out, *cmd["argv"]]
    t0 = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=worker.CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout, perf_counter() - t0


def run_worker(spec_path, env) -> dict:
    proc = subprocess.run([PY, str(HERE / "worker.py"), "run", spec_path], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=worker.CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_breakdown(env) -> dict[str, float]:
    """Median cumulative import time per module, from `python -X importtime`."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import sphgreen"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=worker.CALL_TIMEOUT_S, check=True)
        times = tracer.parse_importtime(proc.stderr)
        for metric, module in tracer.IMPORTS.items():
            samples.setdefault(metric, []).append(times.get(module, 0.0))
    return {metric: statistics.median(vals) for metric, vals in samples.items()}


# ----------------------------------------------------------------- reporting


def tail(values: list[float]) -> str:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f"p{q} {cut:.6g} ({n - sum(v <= cut for v in values)} beyond)"
    return "no tail percentile has ten samples beyond it"


def environment(seed) -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = " ".join(f"{pkg}={importlib.metadata.version(pkg)}"
                        for pkg in ("numpy", "scipy", "mpmath"))
    return (f"seed={seed} nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} {versions} blas_threads=1")


def end_to_end(passes, setup, setup_bounds, rss_kb) -> tuple[dict, list[str]]:
    """Medians of times scaled to the reference host speed (clock.py).

    A pass's time is the sum over its commands of each command's median
    scaled time: a pass is long enough for the host speed to change during it.
    """
    calls = [c for p in passes for c in p["calls"]]
    bounds = [b for p in passes for b in p["bounds"]]
    scaled_calls = clock.scaled(calls, bounds)
    per_command = [statistics.median(clock.scaled([p["calls"][i] for p in passes],
                                                  [p["bounds"][i] for p in passes]))
                   for i in range(len(passes[0]["calls"]))]
    pass_s = sum(per_command)
    rows = statistics.median(p["rows"] for p in passes)
    plain_pass = [p["seconds"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(clock.scaled(setup, setup_bounds)), "s"),
        "call_p50_s": (statistics.median(scaled_calls), "s"),
        "rows_per_s": (rows / pass_s, "1/s"),
        "pass_p50_s": (pass_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, scaled; "
                   f"plain median {statistics.median(setup):.6g}",
        "call_p50_s": f"median of {len(calls)} commands, scaled; "
                      f"plain median {statistics.median(calls):.6g}, {tail(scaled_calls)}",
        "rows_per_s": f"{rows:g} verified rows per pass / pass_p50_s; "
                      f"plain {statistics.median(p['rows'] / p['seconds'] for p in passes):.6g}",
        "pass_p50_s": f"sum of {len(per_command)} per-command scaled medians over "
                      f"{len(passes)} passes; plain median {statistics.median(plain_pass):.6g}, "
                      f"{tail(plain_pass)}",
        "peak_rss_mb": "largest resident set of the working process(es)",
    }
    lines = [f"{name} = {value:.6g} {unit}   [{notes[name]}]"
             for name, (value, unit) in metrics.items()]
    probes = [x for b in setup_bounds + bounds for x in b]
    deciles = statistics.quantiles(probes, n=10)
    lines.append(f"# host speed: {len(probes)} probes, p10 {deciles[0] * 1e3:.3f} ms, median "
                 f"{statistics.median(probes) * 1e3:.3f} ms, p90 {deciles[-1] * 1e3:.3f} ms; "
                 f"times scaled to {clock.REFERENCE_S * 1e3:g} ms")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sphgreen" / "cli.py").is_file():
        print(f"error: no sphgreen sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    print(f"# {args.workload} trace={args.trace} seconds={args.seconds:g} "
          + environment(args.seed))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchtmp-") as tmp:
        t0 = perf_counter()
        commands = WORKLOADS[args.workload](random.Random(args.seed), tmp)
        spec_path = str(Path(tmp) / "spec.json")
        print(f"# {len(commands)} commands per pass; references in {perf_counter() - t0:.2f} s")
        spec = {"commands": commands, "seconds": args.seconds, "trace": bool(args.trace),
                "setup_runs": SETUP_RUNS,
                "known_red": KNOWN_RED_COMMANDS if args.workload == "verify" else []}
        Path(spec_path).write_text(json.dumps(spec))

        if args.workload == "cli-calls":
            verify = worker.Verifier()

            def call(cmd):
                return cli_call(cmd, env)

            if args.trace:
                traced = []

                def traced_call(cmd):
                    trace_out = str(Path(tmp) / "trace.json")
                    rc, text, dt = cli_call(cmd, env, trace_out)
                    traced.append((dt, json.loads(Path(trace_out).read_text())))
                    return rc, text, dt

                untraced = worker.run_passes(commands, args.seconds / 2, call, verify)
                passes = worker.run_passes(commands, args.seconds / 2, traced_call, verify)
                raw = tracer.merge([t["raw"] for _, t in traced])
                process = [dt - t["import_s"] for dt, t in traced]
            else:
                sampler = worker.SetupSampler(lambda: call(commands[0])[2], SETUP_RUNS,
                                              args.seconds)
                passes = worker.run_passes(commands, args.seconds, call, verify, sampler)
                setup, setup_bounds = sampler.times, sampler.bounds
            outcome, known_red = verify.total, gate.Outcome()
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            summary = run_worker(spec_path, env)
            passes, rss_kb = summary["passes"], summary["rss_kb"]
            outcome = gate.Outcome.from_json(summary["outcome"])
            known_red = gate.Outcome.from_json(summary["known_red"])
            if args.trace:
                untraced, raw = summary["untraced"], summary["raw"]
                process = [c for p in passes for c in p["calls"]]
            else:
                setup, setup_bounds = summary["setup"], summary["setup_bounds"]
        if args.trace:
            import_s = import_breakdown(env)

    if args.trace:
        def pass_s(p):
            return sum(clock.scaled(p["calls"], p["bounds"]))

        # the traced passes against the untraced ones just before them
        overhead = statistics.median(map(pass_s, passes)) / statistics.median(map(pass_s, untraced))
        metrics = tracer.layer_metrics(raw)
        metrics.update({k: (v, "s") for k, v in import_s.items()})
        metrics["cli.process_s"] = (statistics.median(process), "s")
        metrics["trace.overhead"] = (overhead, "ratio")
        lines = [f"# traced run: {len(untraced)} untraced then {len(passes)} traced passes"]
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    else:
        metrics, lines = end_to_end(passes, setup, setup_bounds, rss_kb)
    for line in lines:
        print(line)
    print(f"operations: {outcome.failed} failed of {outcome.attempted} attempted "
          f"({outcome.refused} route refusals)")
    for kind, count in sorted(outcome.kinds.items()):
        print(f"  {count} failed: {kind}: {gate.KNOWN_DEFECTS.get(kind, 'not a known defect')}")
    for problem in outcome.problems:
        print(f"  e.g. {problem}")
    if known_red.attempted:
        print(f"check limit, once and untimed, outside the counts above: {known_red.failed} "
              f"failed of {known_red.attempted} attempted")
        for kind, count in sorted(known_red.kinds.items()):
            print(f"  {count} failed: {kind}: {gate.KNOWN_DEFECTS.get(kind, 'not a known defect')}")
    print(json.dumps({
        "correct": outcome.unknown == 0 and known_red.unknown == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
