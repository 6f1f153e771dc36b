"""The pass loop, and the in-process side of the benchmark.

run.py imports this module for ``run_passes``, ``Verifier`` and
``SetupSampler``, and starts it as a fresh interpreter for the in-process
workloads:

  worker.py probe SPEC        import sphgreen, run the workload's first
                              command, print "ready" (set-up time probe)
  worker.py run SPEC          run the spec's untimed known-red commands once, then
                              whole passes over the command list for the
                              spec's seconds, and print a JSON summary
  worker.py cli OUT ARGV...   one traced `sphgreen` command (traced cli-calls):
                              writes import time and span aggregates to OUT

In-process commands run through ``sphgreen.cli.main`` with stdout captured;
every output is verified by gate.py outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import clock
import gate
import tracer

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 120


class Verifier:
    """Checks outputs; an output identical to one already checked reuses its outcome."""

    def __init__(self):
        self.seen: dict[int, tuple] = {}
        self.total = gate.Outcome()

    def __call__(self, index: int, cmd: dict, rc, text: str) -> int:
        key = (rc, text)
        cached = self.seen.get(index)
        if cached is None or cached[0] != key:
            cached = (key, gate.check_output(cmd, rc, text))
            self.seen[index] = cached
        self.total.add(cached[1])
        return cached[1].attempted


class SetupSampler:
    """`setup_s` samples spread evenly over the run, so that they meet the
    host's speed changes in the same mix as the passes do (see clock.py).

    ``sample()`` times one set-up; each sample lies between two speed probes.
    The first sample is taken before the first pass.
    """

    def __init__(self, sample, runs: int, seconds: float):
        self.sample, self.runs, self.every = sample, runs, seconds / runs
        self.times: list[float] = []
        self.bounds: list[tuple[float, float]] = []

    def __call__(self, elapsed: float):
        """Take the samples due after `elapsed` seconds of passes."""
        while len(self.times) < self.runs and elapsed >= len(self.times) * self.every:
            before = clock.probe()
            self.times.append(self.sample())
            self.bounds.append((before, clock.probe()))


def run_passes(commands, seconds: float, execute, verify: Verifier,
               setup: SetupSampler | None = None) -> list[dict]:
    """Whole passes until `seconds` of passes have elapsed.

    ``execute(cmd)`` runs one command and gives (exit code, output, seconds).
    Each command's time is kept with the speed probes taken before and after
    it (see clock.py): a probe follows every 0.1 s of commands and ends every
    pass.  Set-up samples, if any, are taken between passes and not counted
    in `seconds`.
    """
    passes = []
    elapsed = 0.0
    if setup:
        setup(elapsed)
    before = clock.probe()
    while not passes or elapsed < seconds:
        t0 = perf_counter()
        calls, bounds, rows, pending, busy = [], [], 0, 0, 0.0
        for index, cmd in enumerate(commands):
            rc, text, dt = execute(cmd)
            calls.append(dt)
            rows += verify(index, cmd, rc, text)
            pending += 1
            busy += dt
            if busy >= clock.PROBE_EVERY_S or index == len(commands) - 1:
                after = clock.probe()
                bounds += [(before, after)] * pending
                before, pending, busy = after, 0, 0.0
        passes.append({"seconds": sum(calls), "calls": calls, "rows": rows, "bounds": bounds})
        elapsed += perf_counter() - t0
        if setup:
            setup(elapsed)
            before = clock.probe()
    if setup:
        setup(float("inf"))
    return passes


def run_command(cli, cmd: dict):
    """(exit code, output text, seconds) of one in-process command."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd["argv"])
    except Exception as exc:  # an escaped exception is a traceback for a CLI user
        rc = f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    out_path = cmd.get("out")
    text = Path(out_path).read_text() if out_path and rc == 0 else buf.getvalue()
    return rc, text, dt


def probe_setup(spec_path: str) -> float:
    """Seconds from a fresh interpreter to sphgreen imported and the first command done."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), "probe", spec_path],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CALL_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        out_path, cli_argv = argv[1], argv[2:]
        t0 = perf_counter()
        import sphgreen.cli as cli
        import_s = perf_counter() - t0
        trace = tracer.Tracer()
        trace.install()
        try:
            rc = cli.main(cli_argv)
        finally:
            Path(out_path).write_text(json.dumps({"import_s": import_s, "raw": trace.raw()}))
        return rc

    spec_path = argv[1]
    spec = json.loads(Path(spec_path).read_text())
    import sphgreen.cli as cli
    commands = spec["commands"]
    if mode == "probe":
        run_command(cli, commands[0])
        print("ready", flush=True)
        return 0

    def execute(cmd):
        return run_command(cli, cmd)

    verify, known_red = Verifier(), Verifier()

    def run_known_red():
        for index, cmd in enumerate(spec["known_red"]):
            known_red(index, cmd, *execute(cmd)[:2])

    summary = {}
    if spec["trace"]:
        # untraced first, then the same passes traced: run.py takes the ratio
        summary["untraced"] = run_passes(commands, spec["seconds"] / 2, execute, verify)
        trace = tracer.Tracer()
        uninstall = trace.install()
        run_known_red()
        summary["passes"] = run_passes(commands, spec["seconds"] / 2, execute, verify)
        uninstall()
        summary["raw"] = trace.raw()
    else:
        run_known_red()
        sampler = SetupSampler(lambda: probe_setup(spec_path), spec["setup_runs"], spec["seconds"])
        summary["passes"] = run_passes(commands, spec["seconds"], execute, verify, sampler)
        summary["setup"], summary["setup_bounds"] = sampler.times, sampler.bounds
    summary["outcome"] = verify.total.to_json()
    summary["known_red"] = known_red.total.to_json()
    summary["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
