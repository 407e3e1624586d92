"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/steadiness.py [--workloads W ...] [--seeds 1 2 ...]
                                [--seconds S] [--out FILE]

For every workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  Runs are sequential.  ``--out`` writes the summary and
every raw value as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, raw = {}, {}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
        raw[w] = runs
        summary[w] = {}
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bounds[name]}
            print("  %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.3f "
                  "(bound %.2f)" % (name, med, q1, q3, spread, bounds[name]),
                  flush=True)
        print("  attempted %s failed %s" % (
            [r["attempted"] for r in runs], [r["failed"] for r in runs]),
            flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds,
             "summary": summary, "runs": raw}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
