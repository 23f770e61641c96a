#!/usr/bin/env python3
"""Benchmark of the germ package: exact mu/tau end to end and per layer.

Run from the repository root::

    python3 germbench/run.py --workload benchmark_germ --seed 0 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``benchmark_germ``: the paper's germ ``x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15``
  in two ring orders that the seed selects;
* ``fermat_ladder``: ``x^d+y^d+z^d+(x+y+z)^(d+1)`` from d=10 up to the
  degree that ``--seconds`` buys on the reference machine;
* ``small_germ_sweep``: seeded ``corpus.sweep`` runs and semigroups.

The package is imported from ``src/`` of the checkout; nothing is
installed.  Load is closed-loop from this one process: each germ starts
when the previous one returns.  Every answer is checked against an
oracle that does not use the basis engine (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  Their times are wall times
corrected for the speed of the shared CPU they ran on (``meter.py``);
the raw wall time is printed on the line above the result.  ``--trace 1`` runs the
workload with every layer wrapped (``tracing.py``), prints the per-layer
metrics and writes the spans to ``.bench_trace/<workload>-seed<seed>.json``;
the small sweep then also runs once with two worker processes.
``--smoke`` shrinks every workload to a second or less;
``--wrong-expectation`` adds one to the first expected Milnor number,
which must fail the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every answer matched, 1 when one did not, 2 when ``src/germ`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
WORKERS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("benchmark_germ", "fermat_ladder", "small_germ_sweep"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--wrong-expectation", action="store_true",
                   help="expect a wrong Milnor number for the first item")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "germ" / "__init__.py").is_file():
        print(f"germbench: no germ package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from meter import SpeedMeter
    from tracing import Tracer, layer_metrics

    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, args.seconds, args.smoke)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    setup_s = None if args.trace else setup_seconds(args)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        root = tracer.begin("bench.setup")
    try:
        workload = workloads.prepare(args.workload, args.seed, args.seconds, args.smoke)
    finally:
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()

    verdict = workloads.Verdict()
    if tracer is None:
        with SpeedMeter() as meter:
            outcomes = [workload.solve() for _ in range(workload.passes)]
        solve_s = statistics.median(meter.corrected(o.start, o.end) for o in outcomes)
        eval_s = statistics.median(meter.corrected(o.start, o.eval_end) for o in outcomes)
        metrics = {
            "setup_s": setup_s,
            "solve_s": solve_s,
            "germs_per_s": workload.germ_count() / eval_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall = (f"wall_solve_s={statistics.median(o.solve_s for o in outcomes):.6g} "
                f"passes={len(outcomes)} meter_samples={len(meter.samples)}")
    else:
        span_cost = Tracer.span_cost()
        tracer.install()
        try:
            tracer.phase = "solve"
            root = tracer.begin("bench.solve")
            outcomes = [workload.solve(tracer)]
            tracer.end(root)
            wall = f"wall_solve_s={outcomes[0].solve_s:.6g} passes=1"
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.spans, span_cost)
        metrics["corpus.w2.germs_per_s"] = metrics["corpus.w2_overhead_s"] = 0.0
        if isinstance(workload, workloads.SmallGermSweep):
            parallel = workload.parallel_pass(WORKERS)
            workloads.compare_rows(outcomes[0], parallel, verdict)
            metrics["corpus.w2.germs_per_s"] = workload.germ_count() / parallel.eval_s
            metrics["corpus.w2_overhead_s"] = parallel.eval_s - metrics["corpus.rows_s"] / WORKERS
    for outcome in outcomes:
        workload.check(outcome, verdict, args.wrong_expectation)
    if tracer is not None:
        metrics["jets.oracle_s"] = verdict.jets_s
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not both declared in BENCHMARK.json and measured")

    print(f"germbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)} {workload.summary}")
    print(f"germbench attempted={verdict.attempted} failed={verdict.failed} "
          f"fail_frac={verdict.failed / verdict.attempted:.6g} {wall}")
    for problem in verdict.problems:
        print(f"germbench FAIL {problem}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if verdict.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
