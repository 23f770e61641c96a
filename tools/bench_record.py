#!/usr/bin/env python3
"""Record the benchmark of one commit into a ``BENCH_<n>.json`` file.

Run from the repository root, for example::

    python3 tools/bench_record.py --out BENCH_<n>.json
    python3 tools/bench_record.py --smoke --out /tmp/bench.json

For every workload that ``BENCHMARK.json`` declares, and for each of the
seeds 0, 1 and 2, it runs ``germbench/run.py`` once untraced and once
traced, as separate processes one after the other.  Before the first
run the ``src`` and ``germbench`` modules are compiled to bytecode, as
``tools/bench_pairs.py`` does, so no run loads stale bytecode or
compiles its modules at every start.  The file
it writes holds, per workload, the median over the seeds and the
per-seed values of every end-to-end metric (untraced runs) and every
per-layer metric (traced runs), the number of runs that failed or
answered wrongly, the commit (with a ``-dirty`` suffix when the tree had
changes) and the machine.  ``--smoke`` runs the tiny workload sizes at
seed 0 in a few seconds, which checks the recorder itself.

Exit status: 0 when every run answered correctly, 1 otherwise.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit() -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpu_model": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def run_once(workload: str, seed: int, seconds: int, trace: int, smoke: bool,
             root: Path = ROOT) -> tuple[bool, dict]:
    """``(correct, {metric: value})`` of one ``germbench/run.py`` process
    of the checkout at ``root``."""
    cmd = [sys.executable, str(root / "germbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return False, {}
    ok = proc.returncode == 0 and result["correct"]
    return ok, {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        values = [r[m["name"]] for r in runs if m["name"] in r]
        out[m["name"]] = {"unit": m["unit"],
                          "median": statistics.median(values) if values else None,
                          "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Record the benchmark into a JSON file.")
    p.add_argument("--out", required=True, type=Path, help="file to write")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the recorder")
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [0] if args.smoke else [0, 1, 2]
    seconds = 1 if args.smoke else declared["run_seconds"]

    record = {"commit": commit(), "machine": machine(),
              "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
                  timespec="seconds"),
              "seeds": seeds, "seconds": seconds, "smoke": args.smoke, "workloads": {}}
    for tree in ("src", "germbench"):
        compileall.compile_dir(ROOT / tree, quiet=1)
    all_ok = True
    for w in declared["workloads"]:
        name = w["name"]
        runs = {0: [], 1: []}
        failed = 0
        for seed in seeds:
            for trace in (0, 1):
                ok, metrics = run_once(name, seed, seconds, trace, args.smoke)
                failed += not ok
                runs[trace].append(metrics)
                print(f"{name} seed={seed} trace={trace} {'ok' if ok else 'FAILED'}", flush=True)
        all_ok &= failed == 0
        record["workloads"][name] = {
            "failed_runs": failed,
            "end_to_end": summarise(runs[0], declared["end_to_end"]),
            "per_layer": summarise(runs[1], declared["per_layer"]),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
