#!/usr/bin/env python3
"""Compare the benchmark of this checkout with a parent checkout, in pairs.

Run from the repository root, for example::

    python3 tools/bench_pairs.py --parent ../parent --workload small_germ_sweep --seeds 70-79

For each seed of the range it runs ``germbench/run.py`` untraced once in
the parent checkout and once in this one, as separate processes one
after the other; the side that goes first alternates from seed to seed,
so a drift of the shared machine's speed hits both sides alike.  Every
run takes ``run_seconds`` from this checkout's ``BENCHMARK.json``
(one second under ``--smoke``).
Before the first run, the ``src`` and ``germbench`` modules of both
checkouts are compiled to bytecode, so neither side loads stale
bytecode or compiles its modules at every start when the other does
not (as with ``PYTHONDONTWRITEBYTECODE=1`` and a ``__pycache__`` left in
one checkout).
For every end-to-end metric it then prints each side's median and
quartiles, the number of pairs (runs at the same seed) each side won,
whether a gain is shown: this checkout wins at least nine pairs in
ten, and its median is better than the parent's by more than the
distance between the parent's quartiles, and whether the metric is
shown worse, by the same rule with the sides' roles swapped: the
parent wins nine pairs in ten and this checkout's median is worse by
more than the parent's quartile distance.  ``--smoke`` runs the tiny
workload sizes for one second each, which checks the tool itself::

    python3 tools/bench_pairs.py --parent ../parent --workload fermat_ladder --seeds 0 --smoke

Exit status: 0 when every run answered correctly, 1 otherwise.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import sys
from pathlib import Path

from bench_record import ROOT, run_once


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, pairs won, and the gain and worse verdicts of one metric."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return {"parent": (statistics.median(parent), q1, q3),
            "change": (statistics.median(change), *quartiles(change)),
            "won": won, "lost": lost,
            "gain": 10 * won >= 9 * len(parent) and gap > q3 - q1,
            "worse": 10 * lost >= 9 * len(parent) and -gap > q3 - q1}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare the benchmark with a parent checkout.")
    p.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    p.add_argument("--seeds", required=True, type=seed_range, help="seed range, e.g. 70-79")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, to check the tool")
    args = p.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seconds = 1 if args.smoke else declared["run_seconds"]
    for root in sides.values():
        for tree in ("src", "germbench"):
            compileall.compile_dir(root / tree, quiet=1)
    all_ok = True
    for n, seed in enumerate(args.seeds):
        for side in ("parent", "change") if n % 2 == 0 else ("change", "parent"):
            ok, metrics = run_once(args.workload, seed, seconds, 0, args.smoke, sides[side])
            all_ok &= ok
            runs[side].append(metrics)
            print(f"{args.workload} seed={seed} {side} {'ok' if ok else 'FAILED'}", flush=True)
    if not all_ok:
        print("some run failed or answered wrongly; no comparison")
        return 1
    print(f"{'metric':<14} {'parent median (q1/q3)':>30} {'change median (q1/q3)':>30}"
          f" {'won c/p':>7} gain worse")
    for m in declared["end_to_end"]:
        name = m["name"]
        r = compare([run[name] for run in runs["parent"]],
                    [run[name] for run in runs["change"]], m["better"])
        cells = ["{:.6g} ({:.6g}/{:.6g})".format(*r[side]) for side in ("parent", "change")]
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30} {r['won']:>3}/{r['lost']:<3}"
              f" {'yes' if r['gain'] else 'no':<4} {'yes' if r['worse'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
