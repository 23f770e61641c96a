#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

Run from the repository root, for example::

    python3 germbench/repeat.py --workload fermat_ladder --seeds 1-10

For each metric it prints the median, the first and third quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median (the spread), and flags end-to-end spreads above a third of
the metric's bound in ``BENCHMARK.json``.  ``--json`` prints the summary
as one JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Repeat germbench runs over seeds.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true")
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    runs, failures = [], 0
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += proc.returncode != 0 or not result["correct"]
        runs.append({name: m["value"] for name, m in result["metrics"].items()})
        if not args.json:
            print(f"seed {seed}: exit {proc.returncode} attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)

    summary = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if args.json:
        print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                          "trace": args.trace, "failed_runs": failures, "metrics": summary}))
    else:
        for name, s in summary.items():
            flag = "  > bound/3" if s["spread"] > bounds.get(name, float("inf")) / 3 else ""
            print(f"{name:40s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f}{flag}")
        print(f"failed runs: {failures} of {len(runs)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
