"""Benchmark of the fuchsia_heun package: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh child
interpreters started one at a time, with BLAS threads pinned to 1 and a
fixed hash seed.  With ``--trace 0`` the set-up is repeated three times
(the median is ``setup_s``) and the last child measures the operations;
the last line of standard output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` one child measures half the run untraced and
half traced, and the parent adds start-up probes; the JSON carries the
per-layer metrics.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer as tracing  # noqa: E402
from inputs import CLI_COMMANDS  # noqa: E402

WORKLOADS = ("qset_sweep", "series_eval", "monodromy_loops", "cli_cold")
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, deadline: float):
    """Start one worker.

    Returns its set-up time (wall seconds until READY, and the same at
    reference speed) and its result, None in ``setup`` mode.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mode", mode]
    before = calib.loop_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().split()
        ready = time.perf_counter() - t0
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError("worker failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    return ((ready, ready * calib.scale(before, float(line[1]))),
            json.loads(lines[-1]) if lines else None)


def timed(argv, repeats: int) -> float:
    """Median wall time of a short command started fresh each time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scipy_import_s() -> float:
    """Cumulative -X importtime of the outermost scipy imports, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import fuchsia_heun"], cwd=ROOT, env=child_env(),
                          check=True, capture_output=True, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    total, stack = 0, []
    for cum, indent, name in reversed(rows):    # parents precede children
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in stack):
            total += cum
        stack.append((indent, name))
    return total / 1e6


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten of n samples beyond it, but not
    below the median (for n < 20 fewer than ten lie beyond it)."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def op_stats(lat, ok) -> dict:
    """Verified ops per second of op time, median and tail latency."""
    xs = sorted(lat)
    median = statistics.median(xs)
    rank = math.ceil(tail_percentile(len(xs)) / 100.0 * len(xs))
    return {"ops_per_s": sum(ok) / sum(lat), "op_p50_s": median,
            "op_tail_s": max(median, xs[max(1, rank) - 1])}


def per_layer(res: dict, startup: dict) -> dict:
    stats = res["trace"]["stats"]
    out = {}
    for name in tracing.span_names():
        s = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for key in (("calls",) if name in tracing.CALLS_ONLY else tracing.STATS):
            out[f"{name}.{key}"] = (s[key], "count" if key in ("calls", "failed")
                                    else "s")
    out.update({k: (v, "s") for k, v in startup.items()})
    times = res.get("cli_times", {})
    for cmd in CLI_COMMANDS:
        vals = times.get(cmd) or [0.0]
        out[f"cli.{cmd}.s"] = (statistics.median(vals), "s")
    roots = res["run"]["roots"]
    cf_calls = out["erdelyi.continued_fraction.calls"][0]
    out["erdelyi.cf_evals_per_root"] = (cf_calls / roots if roots else 0.0,
                                        "count")
    errors = {}
    for phase in ("untraced", "run"):
        for k, v in res[phase]["errors"].items():
            errors[k] = max(errors.get(k, 0.0), v)
    for k in ("qset_agreement", "series_err", "monodromy_eig_err",
              "loop_residual"):
        out[f"check.{k}_max"] = (errors.get(k, 0.0), "1")
    probe = res.get("probe", {"err_max": 0.0, "failed": 0})
    out["check.series_omega1_err_max"] = (probe["err_max"], "1")
    out["check.series_omega1_failed"] = (probe["failed"], "count")
    op_s = stats.get("op", {"s": 0.0})["s"]
    out["trace.op_s"] = (op_s, "s")
    out["trace.spans"] = (res["trace"]["spans"], "count")
    base, traced = res["untraced"], res["run"]
    s0, s1 = (op_stats(r["norm"], r["ok"]) for r in (base, traced))
    out["trace.overhead_op_p50_s"] = (s1["op_p50_s"] - s0["op_p50_s"], "s")
    out["trace.overhead_ops_per_s"] = (s1["ops_per_s"] - s0["ops_per_s"], "1/s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "fuchsia_heun" / "__init__.py").is_file():
        sys.stderr.write("error: src/fuchsia_heun not found under %s\n" % ROOT)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    # One CPU for the whole run: only one process works at a time, and the
    # calibration loops then time the CPU that runs the measured code.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.trace:
            ready, res = run_worker(args, "trace", deadline)
            setup = [ready]
            py = [sys.executable, "-c", "pass"]
            startup = {
                "startup.python_s": timed(py, STARTUP_REPEATS),
                "startup.import_s": timed(
                    [sys.executable, "-c", "import fuchsia_heun"], STARTUP_REPEATS),
                "startup.import_scipy_s": scipy_import_s(),
            }
        else:
            setup = [run_worker(args, "setup", deadline)[0]
                     for _ in range(SETUP_REPEATS - 1)]
            ready, res = run_worker(args, "run", deadline)
            setup.append(ready)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2

    run = res["run"]
    stats, raw = op_stats(run["norm"], run["ok"]), op_stats(run["lat"], run["ok"])
    setup_raw, setup_ref = (statistics.median(v) for v in zip(*setup))
    attempted, failed = len(run["ok"]), run["ok"].count(False)
    print("# env " + json.dumps(res["env"], sort_keys=True))
    print("# %s seed=%d ops=%d failed=%d; op_p50_s over %d ops, op_tail_s is "
          "p%d of %d ops; setup_s median of %d" % (
              args.workload, args.seed, attempted, failed, attempted,
              tail_percentile(attempted), attempted, len(setup)))
    print("# wall clock, before scaling to reference speed: setup_s %.4g "
          "ops_per_s %.4g op_p50_s %.4g op_tail_s %.4g" % (
              setup_raw, raw["ops_per_s"], raw["op_p50_s"], raw["op_tail_s"]))
    print("# checks worst " + json.dumps(run["errors"], sort_keys=True))
    for f in run["failures"]:
        print("# failure: " + f)
    if "probe" in res:
        pr = res["probe"]
        print("# known-defect probe (generic q, Omega1 points, depth 64 vs "
              "128): %d of %d disagree, worst %.3g"
              % (pr["failed"], pr["points"], pr["err_max"]))
    if args.trace:
        metrics = per_layer(res, startup)
        tr = res["trace"]
        print("# trace spans=%d written to %s; absent hooks: %s"
              % (tr["spans"], tr["spans_file"], ", ".join(tr["absent"]) or "none"))
        op_s = metrics["trace.op_s"][0]
        if op_s > 0:
            top = sorted(((v[0] / op_s, k[:-2]) for k, v in metrics.items()
                          if k.endswith(".s") and not k.startswith(
                              ("cli.", "startup.", "trace."))), reverse=True)
            print("# share of op time: " + ", ".join(
                "%s %.1f%%" % (k, 100 * s) for s, k in top[:5]))
    else:
        metrics = {"setup_s": (setup_ref, "s"),
                   **{k: (v, "1/s" if k == "ops_per_s" else "s")
                      for k, v in stats.items()},
                   "peak_rss_mb": (res["rss_mb"], "MB")}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
