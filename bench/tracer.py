"""Per-layer tracing of sphgreen from outside the package.

``install()`` replaces each public function of the package's modules (the
names in each module's ``__all__``, plus ``cli.main`` and ``cli.fmt``) with a
timing wrapper, at every module attribute that binds it: ``oracle`` and ``cli``
import kernel names with ``from .kernel import``, ``kernel`` binds
``integrate``, and the package re-exports most of them.  ``HyperPoint``
constructions are counted through ``__post_init__`` and NumPy's ``leggauss``
through its module attribute, which is how ``oracle`` reaches it.

Spans are kept in memory as per-name aggregates: calls, inclusive time and
self time (inclusive time minus the time of the spans they enclosed), plus the
exceptions that ended them.  Kernel routes also keep each call's duration, for
percentiles.  Nothing here is installed in a timed (untraced) run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
from time import perf_counter

MODULES = ("specfun", "geometry", "quadrature", "kernel", "harmonics", "oracle", "cli")
ROUTES = ("quadrature", "finite_sum", "recurrence", "hyp2f1", "hyp2f1_euler", "ferrers")
_ROUTE_OF = {"i_d_quadrature": "quadrature", "i_d_finite_sum": "finite_sum",
             "i_d_recurrence": "recurrence", "i_d_ferrers": "ferrers"}
# check_laplace_annihilation is left out: no CLI suite calls it
CHECKS = ("check_delta_identity", "check_euclidean_limit", "check_cross_representation",
          "check_distance_oracle", "check_volume")
IMPORTS = {"import.sphgreen_s": "sphgreen", "import.sphgreen.quadrature_s": "sphgreen.quadrature",
           "import.scipy.integrate_s": "scipy.integrate", "import.numpy_s": "numpy"}


class Tracer:
    """In-memory span aggregates of one process."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.spans: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.errors: dict[str, list] = {}      # "name:Exception" -> [count, total_s]
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.leggauss_sizes: set[int] = set()

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, name_of=None, args_hook=None, result_hook=None):
        stack, spans, errors, durations = self._stack, self.spans, self.errors, self.durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if args_hook:
                args = args_hook(args)
            frame = [0.0]
            stack.append(frame)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result_hook:
                    result_hook(span, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                agg = spans.get(span)
                if agg is None:
                    agg = spans[span] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if span in durations:
                    durations[span].append(dur)
                if error:
                    e = errors.setdefault(f"{span}:{error}", [0, 0.0])
                    e[0] += 1
                    e[1] += dur

        return wrapper

    def install(self):
        """Wrap the package's public functions at every binding; returns an undo."""
        import numpy.polynomial.legendre as legendre

        modules = [importlib.import_module("sphgreen")]
        modules += [importlib.import_module(f"sphgreen.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            public = getattr(mod, "__all__", ("main", "fmt"))
            for attr in public:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrapper_for(short, fn)
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, value))

        geometry = importlib.import_module("sphgreen.geometry")
        post_init = geometry.HyperPoint.__post_init__
        geometry.HyperPoint.__post_init__ = self.wrap("geometry.HyperPoint", post_init)
        undo.append((geometry.HyperPoint, "__post_init__", post_init))

        leggauss = legendre.leggauss

        def sized(args):
            self.leggauss_sizes.add(int(args[0]))
            return args

        legendre.leggauss = self.wrap("oracle.leggauss", leggauss, args_hook=sized)
        undo.append((legendre, "leggauss", leggauss))

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    def _wrapper_for(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ in _ROUTE_OF:
            name = f"kernel.{_ROUTE_OF[fn.__name__]}"
            self.durations[name] = []
            return self.wrap(name, fn, result_hook=self._saturation)
        if fn.__name__ == "i_d_hyp2f1":
            for route in ("hyp2f1", "hyp2f1_euler"):
                self.durations[f"kernel.{route}"] = []

            def route_of(args, kwargs):
                euler = kwargs.get("euler", args[2] if len(args) > 2 else False)
                return "kernel.hyp2f1_euler" if euler else "kernel.hyp2f1"

            return self.wrap(name, fn, name_of=route_of, result_hook=self._saturation)
        if name == "quadrature.integrate":
            def counted(args):
                f = args[0]

                def integrand(x):
                    self.count("quadrature.neval")
                    return f(x)

                return (integrand,) + tuple(args[1:])

            return self.wrap(name, fn, args_hook=counted)
        return self.wrap(name, fn)

    def _saturation(self, span, result):
        if result.overflowed:
            self.count(f"{span}.saturated")

    def raw(self) -> dict:
        """JSON-ready aggregates, mergeable across processes with ``merge``."""
        return {"spans": self.spans, "errors": self.errors, "durations": self.durations,
                "counters": self.counters, "leggauss_distinct": len(self.leggauss_sizes)}


def merge(raws: list[dict]) -> dict:
    """Sum aggregates of several processes (each process computes its own nodes)."""
    out = {"spans": {}, "errors": {}, "durations": {}, "counters": {}, "leggauss_distinct": 0}
    for raw in raws:
        for key in ("spans", "errors"):
            for name, vals in raw[key].items():
                acc = out[key].setdefault(name, [0] * len(vals))
                out[key][name] = [a + v for a, v in zip(acc, vals)]
        for name, vals in raw["durations"].items():
            out["durations"].setdefault(name, []).extend(vals)
        for name, n in raw["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + n
        out["leggauss_distinct"] += raw["leggauss_distinct"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from merged aggregates.

    A layer the workload never entered reads 0 calls and 0 s.
    """
    spans, errors, counters = raw["spans"], raw["errors"], raw["counters"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def raised(name, exc):
        return errors.get(f"{name}:{exc}", [0, 0.0])

    m: dict[str, tuple[float, str]] = {}
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.fmt.calls"] = (calls("cli.fmt"), "count")
    for route in ROUTES:
        name = f"kernel.{route}"
        durs = raw["durations"].get(name) or [0.0]
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.us_p50"] = (statistics.median(durs) * 1e6, "us")
        m[f"{name}.refused"] = (raised(name, "SeriesWindowError")[0], "count")
        m[f"{name}.saturated"] = (counters.get(f"{name}.saturated", 0), "count")
    m["kernel.fundamental_solution.calls"] = (calls("kernel.fundamental_solution"), "count")
    m["kernel.fundamental_solution.self_s"] = (self_s("kernel.fundamental_solution"), "s")
    for fn in ("gauss_2f1", "ferrers_q"):
        m[f"specfun.{fn}.calls"] = (calls(f"specfun.{fn}"), "count")
        m[f"specfun.{fn}.self_s"] = (self_s(f"specfun.{fn}"), "s")
    nonconv = raised("specfun.gauss_2f1", "NonConvergenceError")
    m["specfun.nonconverged"] = (nonconv[0], "count")
    m["specfun.nonconverged_s"] = (nonconv[1], "s")
    m["specfun.converged_ratio"] = (
        _ratio(calls("specfun.gauss_2f1") - nonconv[0], calls("specfun.gauss_2f1")), "ratio")
    m["specfun.double_factorial.calls"] = (calls("specfun.double_factorial"), "count")
    m["specfun.gamma_real.calls"] = (calls("specfun.gamma_real"), "count")
    neval = counters.get("quadrature.neval", 0)
    m["quadrature.integrate.calls"] = (calls("quadrature.integrate"), "count")
    m["quadrature.integrate.self_s"] = (self_s("quadrature.integrate"), "s")
    m["quadrature.neval"] = (neval, "count")
    m["quadrature.neval_per_call"] = (_ratio(neval, calls("quadrature.integrate")), "count")
    m["quadrature.tolerance_not_met"] = (
        raised("quadrature.integrate", "ToleranceNotMetError")[0], "count")
    m["geometry.HyperPoint.constructions"] = (calls("geometry.HyperPoint"), "count")
    m["geometry.volume_weight.calls"] = (calls("geometry.volume_weight"), "count")
    m["geometry.geodesic_distance.self_s"] = (self_s("geometry.geodesic_distance"), "s")
    m["harmonics.radial_harmonic.calls"] = (calls("harmonics.radial_harmonic"), "count")
    m["harmonics.radial_harmonic.self_s"] = (self_s("harmonics.radial_harmonic"), "s")
    for check in CHECKS:
        m[f"oracle.{check}.s"] = (total(f"oracle.{check}"), "s")
    m["oracle.leggauss.calls"] = (calls("oracle.leggauss"), "count")
    m["oracle.leggauss.useful_ratio"] = (
        _ratio(raw["leggauss_distinct"], calls("oracle.leggauss")), "ratio")
    return m


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            out[match.group(3).strip()] = int(match.group(2)) * 1e-6
    return out
