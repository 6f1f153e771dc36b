#!/usr/bin/env python3
"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

1. The mpmath reference agrees with mpmath's own quadrature and 2F1.
2. The gate passes genuine sphgreen output, and counts a value checked
   against a perturbed reference (relative 1e-6) as an unknown failed
   operation; the known-red `limit` clause counts as failed.
3. A tiny run of each workload, untraced and traced, prints every metric
   named in BENCHMARK.json with its unit, and nothing else.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(cond: bool, message: str):
    if not cond:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok  {message}")


def reference_is_independent():
    from mpmath import mp

    with mp.workdps(gate.DIGITS):
        for d, theta in ((2, 1.0), (3, 0.7), (10, 2.9), (31, 0.05), (60, 1.5707963)):
            ours = gate._kernel_mp(d, theta)
            quad = mp.quad(lambda x: mp.sin(x) ** (1 - d), [theta, mp.pi / 4, mp.pi / 2])
            c = mp.cos(theta)
            hyp = c * mp.hyp2f1(0.5, mp.mpf(d) / 2, 1.5, c * c)
            worst = max(abs(ours - quad), abs(ours - hyp)) / abs(ours)
            expect(worst < 1e-30, f"reference I_{d}({theta}) matches mp.quad and mp.hyp2f1 "
                                  f"(worst {mp.nstr(worst, 3)})")


def perturbed(cmd: dict, factor: float) -> dict:
    cmd = json.loads(json.dumps(cmd))
    if "rows" in cmd:
        cmd["rows"][0][1] *= factor
    elif isinstance(cmd["ref"], dict):
        cmd["ref"]["distance"] *= factor
    else:
        cmd["ref"] *= factor
    return cmd


def gate_catches_wrong_values():
    sys.path.insert(0, str(run.SRC))
    import worker
    import sphgreen.cli as cli

    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".benchtmp-") as tmp:
        rng = random.Random(11)
        commands = [run.table_sweep(rng, tmp)[2], run._eval(7, 1.5, 1.1),
                    run._eval(12, 0.8, 2.0, all_routes=True), run._distance(rng)]
        for cmd in commands:
            rc, text, _ = worker.run_command(cli, cmd)
            good = gate.check_output(cmd, rc, text)
            expect(good.failed == 0 and good.attempted > 0,
                   f"{cmd['argv'][0]}: genuine output passes ({good.attempted} records)")
            bad = gate.check_output(perturbed(cmd, 1.0 + 1e-6), rc, text)
            expect(bad.failed >= 1 and bad.unknown == bad.failed,
                   f"{cmd['argv'][0]}: perturbed reference counts {bad.failed} failed operation(s)")
        cmd = {"argv": ["check", "limit"]}
        rc, text, _ = worker.run_command(cli, cmd)
        red = gate.check_output(cmd, rc, text)
        expect(red.failed == 1 and red.kinds == {"known-red": 1},
               "check limit: the d=2 known-red clause counts as one failed operation")


def tiny_runs():
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=300)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["attempted"] >= 1, f"{workload} trace={trace}: result keys")
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: prints all {len(want)} {key} metrics "
                                f"with their units")
            lines = proc.stdout.splitlines()
            missing = [n for n in want if not any(line.startswith(f"{n} = ") for line in lines)]
            expect(not missing, f"{workload} trace={trace}: a report line for each ({missing})")


if __name__ == "__main__":
    reference_is_independent()
    gate_catches_wrong_values()
    tiny_runs()
    print("selftest passed")
