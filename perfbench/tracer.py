"""Spans around translab's public functions, recorded from outside the package.

`Tracer.install()` rebinds every public function of the traced modules, and
every `from`-import binding of one, to a wrapper that times the call.  Spans
are aggregated in memory as they close (csf.run makes tens of thousands of
calls), per span name: calls, inclusive seconds and self seconds, where self
time is the duration minus the child spans it contains.

Only the traced worker calls `install()`.  The untraced worker runs the
package as it is and, after its timed steps, uses `wrapped_bindings()` to
confirm that no binding holds a wrapper.  `Tracer.layer_metrics()` turns
the spans and counts of one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

# grid holds only the GridFunction container and gets no metric of its own.
LAYERS = ("cli", "elliptic", "csf", "radial", "io", "geom", "analysis", "catalog")

# The file readers and writers; each gets an io.<fn>_s metric on every workload.
IO_FILE_FUNCS = ("read_grid_csv", "read_profile_csv", "write_grid_csv",
                 "write_profile_csv", "write_log_csv", "write_geometry_csv",
                 "write_geometry_json", "export_grid_obj", "export_revolution_obj")
ANALYSIS_FUNCS = ("spruck_xiao_report", "jacobi_field_defect", "first_variation_check")


def _layer_of(fn) -> str | None:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return layer if layer in LAYERS else None


def bindings():
    """(module, attribute, function) for every public function bound in a
    traced module, whether defined there or bound by a `from`-import."""
    for layer in LAYERS:
        mod = importlib.import_module(f"translab.{layer}")
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__.startswith("translab.") and _layer_of(fn)):
                yield mod, attr, fn


def wrapped_bindings(wrapped: bool = True) -> list:
    """Names of the bindings that do (or, with wrapped=False, do not) hold a
    tracing wrapper."""
    return [f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}" for mod, attr, fn in bindings()
            if hasattr(fn, "__wrapped__") == wrapped]


class Tracer:
    def __init__(self):
        self.spans = {}          # "layer.fn" -> [calls, inclusive s, self s]
        self.counts = {}         # counter name -> value
        self._stack = []         # child seconds accumulated per open span
        self._wrapped = {}       # original function -> wrapper

    def _record(self, name, fn, args, kwargs, result):
        """Work counts read from arguments and results at the layer boundary."""
        if name == "elliptic.newton_solve":
            report = result[1]
            p = inspect.signature(fn).bind(*args, **kwargs).arguments["p"]
            self.count("elliptic.newton_iterations", report.iterations)
            self.count("elliptic.damped_steps",
                       sum(1 for lam in report.dampingHistory if lam < 1.0))
            self.count("elliptic.unknowns", (p.nx - 2) * (p.ny - 2))
        elif name == "csf.run":
            self.count("csf.steps", len(result.times) - 1)
        elif name == "csf.comparison_check":
            self.count("csf.distance_samples", len(result.minDistance))
        elif name == "radial.shoot_bowl":
            self.count("radial.samples", len(result.r))
        elif name == "radial.shoot_catenoid":
            self.count("radial.samples", sum(len(p.r) for p in result))
        elif name.startswith("io.") and "path" in inspect.signature(fn).parameters:
            path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
            kind = "read" if name.startswith("io.read") else "written"
            self.count(f"io.bytes_{kind}", os.path.getsize(path))

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = f"{_layer_of(fn)}.{fn.__name__}"
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            self._record(name, fn, args, kwargs, result)
            return result

        self._wrapped[fn] = span
        return span

    def install(self):
        """Rebind every public function of the traced modules to its wrapper."""
        for mod, attr, fn in list(bindings()):
            setattr(mod, attr, self.wrap(fn))

    def calls(self, name) -> int:
        return self.spans.get(name, [0])[0]

    def inclusive(self, name) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def layer_self(self, layer) -> float:
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.split(".", 1)[0] == layer)

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
        m = {f"{layer}.self_s": (self.layer_self(layer), "s") for layer in LAYERS}
        c = self.counts
        iters = c.get("elliptic.newton_iterations", 0)
        newton_s = self.inclusive("elliptic.newton_solve")
        m["elliptic.newton_solve_s"] = (newton_s, "s")
        m["elliptic.newton_solves"] = (self.calls("elliptic.newton_solve"), "count")
        m["elliptic.newton_iterations"] = (iters, "count")
        m["elliptic.ms_per_iteration"] = (1e3 * newton_s / iters if iters else 0.0, "ms")
        m["elliptic.unknowns"] = (c.get("elliptic.unknowns", 0), "count")
        m["elliptic.damped_steps"] = (c.get("elliptic.damped_steps", 0), "count")
        steps = c.get("csf.steps", 0)
        m["csf.run_s"] = (self.inclusive("csf.run"), "s")
        m["csf.comparison_check_s"] = (self.inclusive("csf.comparison_check"), "s")
        m["csf.steps"] = (steps, "count")
        m["csf.us_per_step"] = (1e6 * self.inclusive("csf.run") / steps if steps else 0.0, "us")
        m["csf.distance_samples"] = (c.get("csf.distance_samples", 0), "count")
        samples = c.get("radial.samples", 0)
        shoot_s = self.inclusive("radial.shoot_bowl") + self.inclusive("radial.shoot_catenoid")
        m["radial.shoot_bowl_s"] = (self.inclusive("radial.shoot_bowl"), "s")
        m["radial.shoot_catenoid_s"] = (self.inclusive("radial.shoot_catenoid"), "s")
        m["radial.samples"] = (samples, "count")
        m["radial.us_per_sample"] = (1e6 * shoot_s / samples if samples else 0.0, "us")
        m["radial.fit_asymptotics_s"] = (self.inclusive("radial.fit_asymptotics"), "s")
        read_s = sum(self.inclusive(f"io.{fn}") for fn in IO_FILE_FUNCS if fn.startswith("read"))
        write_s = sum(self.inclusive(f"io.{fn}") for fn in IO_FILE_FUNCS
                      if not fn.startswith("read"))
        written, read = c.get("io.bytes_written", 0), c.get("io.bytes_read", 0)
        m["io.write_s"] = (write_s, "s")
        m["io.read_s"] = (read_s, "s")
        m["io.bytes_written"] = (written, "B")
        m["io.bytes_read"] = (read, "B")
        m["io.write_MBps"] = (written / 1e6 / write_s if write_s else 0.0, "MB/s")
        m["io.read_MBps"] = (read / 1e6 / read_s if read_s else 0.0, "MB/s")
        for fn in IO_FILE_FUNCS:
            m[f"io.{fn}_s"] = (self.inclusive(f"io.{fn}"), "s")
        for fn in ANALYSIS_FUNCS:
            m[f"analysis.{fn}_s"] = (self.inclusive(f"analysis.{fn}"), "s")
        m["cli.calls"] = (self.calls("cli.main"), "count")
        m["trace.coverage"] = (sum(rec[2] for rec in self.spans.values()) / wall, "ratio")
        return m
