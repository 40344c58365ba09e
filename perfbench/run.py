"""translab benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 perfbench/run.py --workload {wing,flow,family,all} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --check-seeds 0 1 2

The package is imported from `src/` of the checkout that holds this
directory.  Every pass of a workload runs in a fresh interpreter
(perfbench/worker.py), one at a time, as one closed-loop caller, with BLAS
limited to one thread.  Passes repeat until --seconds have elapsed (at least
MIN_PASSES), and each metric is the median over the passes of the run.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of the
traced ones.  In both modes every artifact of every pass must be
byte-identical to the first pass's; a differing file fails the step that
wrote it.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))
from worker import REFERENCE, THREAD_VARS, WORKLOADS, params  # noqa: E402

MIN_PASSES = 3
SETUP_LAUNCHES = 3
PASS_TIMEOUT_S = 90


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def measure_setup(env: dict) -> float:
    """Median wall time of fresh interpreters that import translab.cli.
    One launch first, untimed, so bytecode caches exist as they would for a
    user after the first run."""
    cmd = [sys.executable, "-c", "import translab.cli"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(env: dict, workload: str, seed: int, traced: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0"]
    proc = subprocess.run(cmd, env=env, cwd=WORK, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def environment(runtime: dict) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown: git failed"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **runtime,
            "concurrent_workers": 1, "git_commit": commit}


def _failures(passes: list) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every step of every pass, with
    artifacts compared byte for byte against the first pass."""
    attempted, failed, messages = 0, 0, []
    reference = passes[0]["sha256"]
    for k, p in enumerate(passes):
        bad = set()
        for i, step in enumerate(p["steps"]):
            if not step["ok"]:
                bad.add(i)
                wrong = [c for c in step["checks"] if not c["ok"]]
                messages.append(f"pass {k} step {step['label']!r}: rc={step['rc']} "
                                f"{step['error']} {wrong}")
        if set(p["sha256"]) != set(reference):
            bad.add(len(p["steps"]) - 1)
            messages.append(f"pass {k}: artifact set differs from pass 0")
        for name, (i, digest) in p["sha256"].items():
            if name in reference and reference[name][1] != digest:
                bad.add(i)
                messages.append(f"pass {k}: {name} differs from pass 0 "
                                f"(traced={p['traced']}, pass 0 traced={passes[0]['traced']})")
        attempted += len(p["steps"])
        failed += len(bad)
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _child_env()
    setup_s = None if trace else measure_setup(env)
    modes = (False, True) if trace else (False,)
    passes = []
    deadline = time.monotonic() + seconds
    try:
        while len(passes) < MIN_PASSES or time.monotonic() < deadline:
            for traced in modes:
                passes.append(run_pass(env, workload, seed, traced))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed, messages = _failures(passes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        names = traced[0]["layers"]
        metrics = {n: {"value": statistics.median(p["layers"][n][0] for p in traced),
                       "unit": names[n][1]} for n in names}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(p["wall_s"] for p in traced) - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced),
                            "unit": "MB"},
        }
    values = {c["name"]: c["value"] for s in passes[0]["steps"] for c in s["checks"]}
    return {"workload": workload, "seed": seed, "params": params(seed),
            "passes": [(p["traced"], round(p["wall_s"], 4)) for p in passes],
            "env": environment(passes[0]["runtime"]), "values": values,
            "messages": messages, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(res: dict):
    print(f"== {res['workload']} seed={res['seed']} params={json.dumps(res['params'])}")
    print(f"env: {json.dumps(res['env'])}")
    print(f"passes (traced, wall_s): {res['passes']}")
    print(f"checked values (pass 0): {json.dumps(res['values'])}")
    for msg in res["messages"]:
        print(f"FAILED {msg}")
    print(f"error_rate: {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed of {res['attempted']} steps attempted)")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


def check_seeds(seeds: list) -> bool:
    """Print each seed's parameters; check that seed 0 is the reference and
    that a fresh interpreter generates the same parameters."""
    code = ("import json, sys; from worker import params; "
            "print(json.dumps([params(int(s)) for s in sys.argv[1:]]))")
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", code, *map(str, seeds)], cwd=HERE, capture_output=True,
        text=True, check=True, timeout=60).stdout)
    ok = params(0) == REFERENCE
    print(f"seed 0 reproduces the reference parameters: {ok}")
    for seed, other in zip(seeds, fresh):
        same = params(seed) == other
        ok &= same
        print(f"seed {seed}: {json.dumps(params(seed))} same in a fresh interpreter: {same}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-seeds", type=int, nargs="+", metavar="SEED",
                    help="print the parameters each seed generates and exit")
    args = ap.parse_args(argv)
    if args.check_seeds is not None:
        return 0 if check_seeds(args.check_seeds) else 1
    if args.workload is None:
        ap.error("--workload is required")

    if not (ROOT / "src" / "translab" / "cli.py").is_file():
        print(f"perfbench: no translab sources under {ROOT / 'src'}; "
              "perfbench must sit at the root of a source checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [measure(w, args.seed, args.seconds, t)
                for w in WORKLOADS for t in (False, True)]
        for res in runs:
            report(res)
        summary = {"correct": all(r["correct"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "metrics": {f"{r['workload']}.{n}": m
                               for r in runs for n, m in r["metrics"].items()}}
    else:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(res)
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
