"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

Runs in the current directory, which must be empty: every artifact is
written there under a fixed relative name, so the provenance strings inside
the artifacts are the same on every pass.  Each step is an in-process
`translab.cli.main(argv)` call, except the geometry writers, which have no
subcommand and are called as library functions.  After the timed steps it
checks every output against closed forms and prints one JSON line: wall time,
peak RSS, per-step outcome, checked values, sha256 of every artifact and,
with TRACE=1, the per-layer numbers from `tracer.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
import time

# Physical parameters at seed 0.  Other seeds perturb each within a narrow
# band, so that cost stays comparable and every closed-form check still holds.
REFERENCE = {
    "wing_b": 2.2214414690791831,      # pi / sqrt(2)
    "ellipse_a": 2.0,
    "catenoid_lam": 1.0,
    "cont_b_start": 2.0,
    "cont_b_end": 2.4,
}

# Grid and step sizes, fixed for every seed.
WING_L, WING_NX, WING_NY, WING_SHRINK = 12.0, 321, 161, 0.995
FLOW_N, FLOW_CMP_N = 128, 64
BOWL_N, BOWL_RMAX, BOWL_H, FIT_RLO = 2, 60.0, 2e-3, 20.0
CAT_RMAX, CAT_H = 5.0, 1e-3
CONT_STEPS, CONT_NX, CONT_NY = 2, 121, 41
GEOM_N = 161
TILT_THETA = 0.5235987755982988       # pi / 6

WORKLOADS = ("wing", "flow", "family")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Calls of elliptic.newton_solve in one pass: one wing solve; a continuation
# of CONT_STEPS steps solves CONT_STEPS + 1 strips.  More means a fallback ran.
NEWTON_SOLVES = {"wing": 1, "flow": 0, "family": CONT_STEPS + 1}


def params(seed: int) -> dict:
    """Physical parameters for a seed: the reference at seed 0, otherwise a
    deterministic perturbation drawn from random.Random(seed)."""
    if seed == 0:
        return dict(REFERENCE)
    rng = random.Random(seed)
    u = [rng.uniform(-1.0, 1.0) for _ in range(4)]
    shift = 0.05 * u[3]
    return {
        "wing_b": REFERENCE["wing_b"] * (1.0 + 0.01 * u[0]),
        "ellipse_a": REFERENCE["ellipse_a"] * (1.0 + 0.02 * u[1]),
        "catenoid_lam": REFERENCE["catenoid_lam"] * (1.0 + 0.05 * u[2]),
        "cont_b_start": REFERENCE["cont_b_start"] + shift,
        "cont_b_end": REFERENCE["cont_b_end"] + shift,
    }


def _num(x) -> str:
    return repr(float(x))


def _json(path):
    with open(path) as f:
        return json.load(f)


def _check(name, ok, value):
    return {"name": name, "ok": bool(ok), "value": value}


def _exists(*paths):
    return [_check(f"{p}.written", os.path.getsize(p) > 0, os.path.getsize(p))
            for p in paths]


def _wing_steps(prm):
    b = prm["wing_b"]
    h = max(2 * WING_L / (WING_NX - 1), 2 * WING_SHRINK * b / (WING_NY - 1))

    def solve_checks(out):
        rep = _json("wing.json")
        trace = rep["centerHessian"][0][0] + rep["centerHessian"][1][1]
        return _exists("wing.csv", "wing.obj") + [
            _check("iterations", rep["iterations"] <= 30, rep["iterations"]),
            _check("residual", rep["finalResidualMax"] <= 1e-9, rep["finalResidualMax"]),
            _check("symmetry", rep["symmetryDefect"] <= 1e-8, rep["symmetryDefect"]),
            _check("trace", abs(trace + 1.0) <= 1e-3, trace),
            _check("concave", rep["concaveFlag"] is True, rep["concaveFlag"]),
            _check("asymptote", rep["asymptoteDefect"] <= 5e-2, rep["asymptoteDefect"]),
        ]

    def sx_checks(out):
        sx = _json("sx.json")
        lo, hi = sx["rangeHoverK1"]
        return [
            _check("sx.ratio.lo", lo >= 1.0 - 10 * h, lo),
            _check("sx.ratio.hi", hi <= 2.0, hi),
            _check("sx.inequality", sx["fracInequalityHolds"] >= 0.99,
                   sx["fracInequalityHolds"]),
        ]

    def jacobi_checks(out):
        val = json.loads(out)["maxJacobiDefect"]
        return [_check("maxJacobiDefect", math.isfinite(val), val)]

    def firstvar_checks(out):
        # The first variation on the wing fails its 1e-6 target by design
        # (acceptance criterion 8); it is printed, never judged.
        val = json.loads(out)["firstVariation"]
        return [_check("firstVariation", math.isfinite(val), val)]

    return [
        ("elliptic delta-wing",
         ["elliptic", "delta-wing", "--b", _num(b), "--L", _num(WING_L),
          "--nx", str(WING_NX), "--ny", str(WING_NY), "--out", "wing.csv",
          "--report", "wing.json", "--obj", "wing.obj"], solve_checks),
        ("analyze sx", ["analyze", "sx", "--in", "wing.csv", "--report", "sx.json"],
         sx_checks),
        ("analyze jacobi", ["analyze", "jacobi", "--in", "wing.csv"], jacobi_checks),
        ("analyze firstvar", ["analyze", "firstvar", "--in", "wing.csv"],
         firstvar_checks),
    ]


def _flow_steps(prm):
    a, b = prm["ellipse_a"], 1.0

    def run_checks(out):
        v = _json("run.json")
        area_law_t = a * b / 2.0        # area pi a b shrinks at rate 2 pi
        rel = abs(v["fittedT"] - area_law_t) / area_law_t
        return _exists("log.csv") + [
            _check("fittedT.rel", rel <= 2e-3, rel),
            _check("typeVerdict", v["typeVerdict"] == "TypeI", v["typeVerdict"]),
        ]

    def compare_checks(out):
        v = _json("cmp.json")
        return [_check("comparison", v["verdict"] == "PASS", v["verdict"])]

    return [
        ("csf run", ["csf", "run", "--shape", "ellipse", "--a", _num(a), "--b", _num(b),
                     "--n", str(FLOW_N), "--out", "log.csv", "--report", "run.json"],
         run_checks),
        ("csf compare", ["csf", "compare", "--shape1", "circle:1", "--shape2", "circle:2",
                         "--n", str(FLOW_CMP_N), "--report", "cmp.json"], compare_checks),
    ]


def _write_bowl_geometry():
    from translab import io as tio, radial
    prof = tio.read_profile_csv("bowl.csv")
    grid = radial.profile_to_grid(prof, -2.0, 2.0, -2.0, 2.0, GEOM_N, GEOM_N)
    tio.write_geometry_csv(grid, "geometry.csv")
    tio.write_geometry_json(grid, "geometry.json")
    return 0


def _family_steps(prm):
    def fit_checks(out):
        quad = _json("fit.json")["quadCoeff"]
        # the bowl of dimension n grows like r^2 / (2 (n - 1))
        return [_check("quadCoeff", abs(quad - 1.0 / (2 * (BOWL_N - 1))) <= 1e-3, quad)]

    def cont_checks(out):
        its = _json("cont.json")["iterations"]
        return [_check("continuation.solves", len(its) == CONT_STEPS + 1, len(its)),
                _check("continuation.iterations", max(its) <= 30, its)]

    def catalog_checks(out):
        rep = _json("residual.json")
        return [_check("catalog.maxAbs.finite", math.isfinite(rep["maxAbs"]),
                       rep["maxAbs"])]

    return [
        ("radial shoot bowl",
         ["radial", "shoot", "--kind", "bowl", "--n", str(BOWL_N), "--rmax", _num(BOWL_RMAX),
          "--h", _num(BOWL_H), "--out", "bowl.csv"], lambda out: _exists("bowl.csv")),
        ("radial fit", ["radial", "fit", "--in", "bowl.csv", "--rlo", _num(FIT_RLO),
                        "--rhi", _num(BOWL_RMAX), "--report", "fit.json"], fit_checks),
        ("export obj", ["export", "obj", "--in", "bowl.csv", "--out", "bowl.obj"],
         lambda out: _exists("bowl.obj")),
        ("radial shoot catenoid-upper",
         ["radial", "shoot", "--kind", "catenoid-upper", "--lam", _num(prm["catenoid_lam"]),
          "--rmax", _num(CAT_RMAX), "--h", _num(CAT_H), "--out", "catenoid.csv"],
         lambda out: _exists("catenoid.csv")),
        ("elliptic continuation",
         ["elliptic", "continuation", "--b-start", _num(prm["cont_b_start"]),
          "--b-end", _num(prm["cont_b_end"]), "--steps", str(CONT_STEPS),
          "--nx", str(CONT_NX), "--ny", str(CONT_NY), "--report", "cont.json"], cont_checks),
        ("catalog residual",
         ["catalog", "residual", "--kind", "tilted", "--theta", _num(TILT_THETA),
          "--out", "residual.json"], catalog_checks),
        ("io geometry writers", _write_bowl_geometry,
         lambda out: _exists("geometry.csv", "geometry.json")),
    ]


STEPS = {"wing": _wing_steps, "flow": _flow_steps, "family": _family_steps}

def run_pass(workload: str, seed: int, traced: bool) -> dict:
    tr = None
    if traced:
        from tracer import Tracer
        tr = Tracer()
        tr.install()
    from translab import cli
    import numpy
    import scipy
    from tracer import wrapped_bindings
    steps = STEPS[workload](params(seed))

    outcomes = []
    t0 = time.perf_counter()
    for label, call, _ in steps:
        out, err = io.StringIO(), io.StringIO()
        before = set(os.listdir("."))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = call() if callable(call) else cli.main(call)
            error = err.getvalue().strip()
        except SystemExit as exc:  # argparse rejecting argv
            rc, error = exc.code, err.getvalue().strip()
        except Exception as exc:  # a crash of the step under test is a failed step
            rc, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append({"label": label, "rc": rc, "error": error, "out": out.getvalue(),
                         "files": sorted(set(os.listdir(".")) - before)})
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for (_, _, checks), o in zip(steps, outcomes):
        o["checks"] = []
        if o["rc"] == 0:
            try:
                o["checks"] = checks(o["out"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                o["checks"] = [_check("output.readable", False, repr(exc))]
    harness = []
    if tr is not None:
        unbound = wrapped_bindings(False)
        harness.append(_check("wrappers.unbound", not unbound, unbound))
        harness.append(_check("newton_solve.calls",
                              tr.calls("elliptic.newton_solve") == NEWTON_SOLVES[workload],
                              tr.calls("elliptic.newton_solve")))
    else:
        installed = wrapped_bindings(True)
        harness.append(_check("wrappers.none", not installed, installed))
    outcomes[-1]["checks"] += harness

    sha = {}
    for i, o in enumerate(outcomes):
        o["ok"] = o["rc"] == 0 and all(c["ok"] for c in o["checks"])
        for name in o["files"]:
            with open(name, "rb") as f:
                sha[name] = [i, hashlib.sha256(f.read()).hexdigest()]
        del o["out"]
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "steps": outcomes, "sha256": sha,
              "runtime": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}}
    if tr is not None:
        result["layers"] = tr.layer_metrics(wall)
    return result


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    if os.listdir("."):
        raise SystemExit("worker: the working directory must be empty")
    print(json.dumps(run_pass(workload, seed, traced)))


if __name__ == "__main__":
    main(sys.argv[1:])
