"""Command-line front end.

Exit codes: 0 success, 1 computation error or exceeded work budget,
2 usage error (a malformed or out-of-range argument),
3 when an ``--expect`` assertion fails.  Machine output is selected
with ``--json`` or (for sweeps and invariants) ``--csv``, not both;
JSON carries a ``generated_at`` timestamp unless ``--reproducible`` is
given.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
import warnings
from collections import Counter
from dataclasses import fields
from fractions import Fraction

from . import selftest as selftest_mod
from .bounds import BOUND_IDS, BoundReport, bound_report, kerner_nemethi_constant, \
    superisolated_invariants, wahl_tau_min
from .corpus import FAMILIES, ReportRow, SweepSpec, evaluate_row, sweep
from .errors import GermError
from .invariants import _CEILING, _UNITS_PER_SECOND, suspend
from .poly import parse_polynomial
from .semigroup import certify_plane_branch, semigroup_from_generators

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_EXPECT = 3


def _fraction_fields(name: str, value: Fraction | None) -> dict:
    if value is None:
        return {f"{name}_num": None, f"{name}_den": None}
    return {f"{name}_num": value.numerator, f"{name}_den": value.denominator}


def _bounds_json(report: BoundReport | None) -> dict:
    """Every catalog id in order; with no report all its fields are null."""
    verdicts = report.verdicts if report is not None else dict.fromkeys(BOUND_IDS)
    return {key: {"applicable": v and v.applicable, "holds": v and v.holds,
                  **_fraction_fields("margin", v and v.margin)} for key, v in verdicts.items()}


def _row_json(row: ReportRow, reproducible: bool) -> dict:
    """The one encoding of a report row: JSON rows, CSV columns, ``invariants``."""
    return {
        "index": row.index,
        "germ": row.germ,
        "n": row.n,
        "mu": row.mu,
        "tau": row.tau,
        "isolated": row.isolated,
        **_fraction_fields("ratio", row.ratio),
        "ratio_decimal": float(row.ratio) if row.ratio is not None else None,
        "bounds": _bounds_json(row.report),
        "wall_time_s": None if reproducible else round(row.wall_time_s, 6),
        "note": row.note,
    }


def _csv_columns(row: dict) -> dict:
    """A ``_row_json`` row with each bound spread into ``{id}.{field}`` columns in place."""
    columns = {}
    for name, value in row.items():
        if name == "bounds":
            columns.update({f"{key}.{field}": x for key, entry in value.items()
                            for field, x in entry.items()})
        else:
            columns[name] = value
    return columns


def _rows_csv(rows: list[dict]) -> str:
    flat = [_csv_columns(row) for row in rows]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(flat[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(flat)
    return buffer.getvalue()


def _emit(args, payload: dict, lines: list[str], rows=()) -> None:
    """Print one command's result: JSON, CSV of the ``_row_json`` ``rows`` or text ``lines``."""
    if args.json:
        if not args.reproducible:
            payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif getattr(args, "csv", False):
        sys.stdout.write(_rows_csv(rows))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def _bounds_lines(report: BoundReport) -> list[str]:
    lines = []
    for key in BOUND_IDS:
        v = report.verdicts[key]
        if not v.applicable and v.margin is None:
            status = "not applicable"
        elif v.holds is None:
            status = "not evaluable" if v.margin is None else f"margin {v.margin} (not applicable)"
        else:
            status = ("holds" if v.holds else "FAILS") + f", margin {v.margin}"
        lines.append(f"  {key:22s} {status}")
    return lines


def _check_expect(expected: dict[str, int], computed: dict[str, int | None]) -> int:
    code = EXIT_OK
    for key, want in expected.items():
        got = computed[key]
        if got != want:
            print(f"expect: {key} expected {want}, computed {got}", file=sys.stderr)
            code = EXIT_EXPECT
    return code


# ----------------------------------------------------------------------
# Subcommands


def _undecided(count: int) -> bool:
    """Whether ``count`` germs were left undecided; if any was, say why on stderr."""
    if count:
        print("budget exceeded: a germ exceeded its work budget; partial report emitted",
              file=sys.stderr)
    return bool(count)


def _mu_tau_text(row: ReportRow, sep: str = " ") -> str:
    if row.isolated is None:
        return f"undecided ({row.note})"
    if not row.isolated:
        return f"mu=infinite{sep}tau=infinite"
    return f"mu={row.mu}{sep}tau={row.tau}"


def _cmd_invariants(args) -> int:
    f = parse_polynomial(args.poly, args.vars)
    row = evaluate_row(0, f, args.timeout)
    data = _row_json(row, args.reproducible)
    payload = {
        **data,
        "vars": list(f.vars),
        "weights": list(row.weights[0]) if row.weights else None,
        "weighted_degree": row.weights[1] if row.weights else None,
        "timeout": row.isolated is None,
    }
    lines = [f"germ: {row.germ}"]
    if row.isolated is None:
        lines.append(f"{_mu_tau_text(row)}; partial report only")
    else:
        lines.append(f"n={row.n}  {_mu_tau_text(row, '  ')}")
        if row.ratio is not None:
            lines.append(f"mu/tau = {row.ratio} ~ {float(row.ratio):.6f}")
        if row.weights:
            lines.append(f"weighted homogeneous: weights {row.weights[0]}, "
                         f"degree {row.weights[1]}")
        else:
            lines.append("weighted homogeneous: no (in the given coordinates)")
        if row.report is not None:
            lines += ["bounds:", *_bounds_lines(row.report)]
    _emit(args, payload, lines, [data])
    if _undecided(row.isolated is None):
        return EXIT_COMPUTE
    if args.expect:
        return _check_expect(args.expect, {"mu": row.mu, "tau": row.tau})
    return EXIT_OK


def _cmd_suspend(args) -> int:
    f = parse_polynomial(args.poly, args.vars)
    F = suspend(f, args.power)
    base = evaluate_row(0, f, args.timeout)
    top = evaluate_row(1, F, args.timeout)
    payload = {
        "germ": str(f),
        "suspended": str(F),
        "new_variable": F.vars[-1],
        "power": args.power,
        "base_mu": base.mu, "base_tau": base.tau,
        "mu": top.mu, "tau": top.tau,
    }
    _emit(args, payload, [
        f"suspended germ: {F}   (new variable {F.vars[-1]})",
        f"base: {_mu_tau_text(base)}",
        f"suspension: {_mu_tau_text(top)}",
    ])
    return EXIT_COMPUTE if _undecided(sum(r.isolated is None for r in (base, top))) else EXIT_OK


def _cmd_semigroup(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = semigroup_from_generators(args.generators)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    cert = certify_plane_branch(s.generators)
    mu = 2 * s.delta if cert is not None else None  # branch_milnor(s), not certified again
    gaps = list(s.gaps)  # listed anew on each read
    payload = {
        "generators": list(s.generators),
        "gaps": gaps,
        "delta": s.delta,
        "conductor": s.conductor,
        "plane_branch": cert is not None,
    }
    if cert is not None:
        payload.update({
            "e": list(cert.e),
            "n": list(cert.n),
            "witnesses": [list(w) for w in cert.witnesses],
            "mu": mu,
            "equations": [str(p) for p in cert.as_polynomials()],
        })
    lines = [f"semigroup <{','.join(str(g) for g in s.generators)}>",
             f"gaps: {gaps}",
             f"delta={s.delta}  conductor={s.conductor}"]
    if cert is None:
        lines.append("plane branch: no")
    else:
        lines += [f"plane branch: yes  (e={list(cert.e)}, n={list(cert.n)})",
                  f"mu = 2*delta = {mu}",
                  f"monomial curve equations: {payload['equations']}"]
    _emit(args, payload, lines)
    if args.expect:
        return _check_expect(args.expect,
                             {"delta": s.delta, "conductor": s.conductor, "mu": mu})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = bound_report(args.mu, args.tau, args.n, p_g=args.pg,
                          multiplicity=args.multiplicity)
    payload = {
        "mu": args.mu, "tau": args.tau, "n": args.n,
        "p_g": args.pg, "multiplicity": args.multiplicity,
        **_fraction_fields("ratio", Fraction(args.mu, args.tau)),
        "bounds": _bounds_json(report),
    }
    _emit(args, payload, [f"mu={args.mu} tau={args.tau} n={args.n} "
                          f"mu/tau={Fraction(args.mu, args.tau)} ~ {args.mu / args.tau:.6f}",
                          *_bounds_lines(report)])
    return EXIT_OK


def _cmd_superisolated(args) -> int:
    p_g, mu = superisolated_invariants(args.degree, args.local_mus)
    payload = {"d": args.degree, "local_mus": list(args.local_mus), "p_g": p_g, "mu": mu}
    lines = [f"superisolated d={args.degree}: p_g={p_g}  mu={mu}"]
    if args.tau is not None:
        report = bound_report(mu, args.tau, 2, p_g=p_g)
        payload["tau"] = args.tau
        payload.update(_fraction_fields("ratio", Fraction(mu, args.tau)))
        payload["bounds"] = _bounds_json(report)
        lines += [f"with tau={args.tau}: mu/tau={Fraction(mu, args.tau)} ~ {mu / args.tau:.6f}",
                  *_bounds_lines(report)]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_constants(args) -> int:
    value = kerner_nemethi_constant(args.n, args.r)
    suffix = "" if value.denominator == 1 else f" ~ {float(value):.6f}"
    _emit(args, {"n": args.n, "r": args.r, **_fraction_fields("constant", value)},
          [f"C({args.n},{args.r}) = {value}{suffix}"])
    return EXIT_OK


def _cmd_tau_min(args) -> int:
    value = wahl_tau_min(args.degree)
    ratio = Fraction((args.degree - 1) ** 3, value)
    payload = {"d": args.degree, "tau_min": value,
               **_fraction_fields("ratio", ratio)}
    lines = [f"tau_min(d={args.degree}) = {value}"]
    if args.ratio:
        lines.append(f"(d-1)^3 / tau_min = {ratio} ~ {float(ratio):.6f}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = SweepSpec(**{f.name: getattr(args, f.name) for f in fields(SweepSpec)})
    result = sweep(spec, threads=args.threads, timeout=args.timeout)
    # One walk over the rows: each is built from the sweep's table when read.
    lines, rows = [], []
    isolated = Counter()
    for r in result.rows:
        ratio = f"{r.ratio} ~ {float(r.ratio):.4f}" if r.ratio is not None else "-"
        note = f"  [{r.note}]" if r.note else ""
        lines.append(f"[{r.index:3d}] {r.germ}: {_mu_tau_text(r)} mu/tau={ratio}{note}")
        rows.append(_row_json(r, args.reproducible))
        isolated[r.isolated] += 1
    summary = {
        "germs": len(rows),
        "isolated": isolated[True],
        **_fraction_fields("min_ratio", result.min_ratio),
        **_fraction_fields("max_ratio", result.max_ratio),
        **_fraction_fields("min_4_3_margin", result.min_43_margin),
        "violations": list(result.violations),
    }
    lines.append(f"summary: {summary['germs']} germs, {summary['isolated']} isolated, "
                 f"{isolated[False]} non-isolated, {isolated[None]} over budget, "
                 f"min ratio {result.min_ratio}, max ratio {result.max_ratio}, "
                 f"min 4/3 margin {result.min_43_margin}, "
                 f"{len(result.violations)} bound violations")
    _emit(args, {"family": spec.family, "seed": spec.seed, "rows": rows, "summary": summary},
          lines, rows)
    if _undecided(isolated[None]) or result.violations:
        return EXIT_COMPUTE
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest_mod.run_all(fast=args.fast)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} [{status}] {r.name}: {r.detail} ({r.seconds:.2f}s)")
        if not r.passed:
            failed += 1
    print(f"selftest: {len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_COMPUTE


# ----------------------------------------------------------------------
# Argument parsing


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number of seconds >= 0")
    return value


def _naturals(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def _expectations(*keys: str):
    """Argparse type of ``--expect``: comma-separated ``key=integer`` over ``keys``."""
    def parse(text: str) -> dict[str, int]:
        out = {}
        for piece in filter(None, text.split(",")):
            key, _, value = piece.partition("=")
            key = key.strip()
            if key not in keys:
                raise argparse.ArgumentTypeError(f"unknown key {key!r}; known: {sorted(keys)}")
            try:
                out[key] = int(value)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad entry {piece!r}; use key=integer") from None
        if not out:
            raise argparse.ArgumentTypeError("no key=integer entry")
        return out
    return parse


def _add_common(sub, csv_flag=False, timeout_flag=False):
    output = sub.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit one JSON object")
    if csv_flag:
        output.add_argument("--csv", action="store_true", help="emit RFC 4180 CSV rows")
    sub.add_argument("--reproducible", action="store_true",
                     help="suppress the timestamp and timing fields")
    if timeout_flag:
        sub.add_argument("--timeout", type=_seconds, default=None, metavar="SECONDS",
                         help=f"work budget per germ in seconds at {_UNITS_PER_SECOND:,} "
                              f"work units a second, a finite number >= 0 (0: the default "
                              f"{_CEILING:,} units); a germ past it gets a partial report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germ",
        description="Exact Milnor/Tjurina invariants, plane-branch semigroups "
                    "and singularity bound checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariants", help="mu, tau and bound verdicts of one germ")
    p.add_argument("--vars", required=True, type=lambda s: s.split(","),
                   help="comma-separated ring variables, e.g. x,y,z")
    p.add_argument("--poly", required=True, help="germ in the polynomial grammar")
    p.add_argument("--expect", type=_expectations("mu", "tau"),
                   help="comma-separated assertions, e.g. mu=2288,tau=1660")
    _add_common(p, csv_flag=True, timeout_flag=True)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("suspend", help="add a power of a fresh variable")
    p.add_argument("--vars", required=True, type=lambda s: s.split(","))
    p.add_argument("--poly", required=True)
    p.add_argument("--power", type=int, default=2, help="suspension exponent k >= 2")
    _add_common(p, timeout_flag=True)
    p.set_defaults(func=_cmd_suspend)

    p = subs.add_parser("semigroup", help="gaps, conductor and plane-branch data")
    p.add_argument("--generators", required=True, type=_naturals,
                   help="comma-separated naturals, gcd 1")
    p.add_argument("--expect", type=_expectations("delta", "conductor", "mu"),
                   help="e.g. delta=8,conductor=16,mu=16")
    _add_common(p)
    p.set_defaults(func=_cmd_semigroup)

    p = subs.add_parser("bounds", help="evaluate the bound catalog on supplied numbers")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="germ dimension")
    p.add_argument("--pg", type=int, default=None, help="geometric genus, if known")
    p.add_argument("--multiplicity", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("superisolated", help="closed-form p_g and mu of a superisolated germ")
    p.add_argument("--degree", type=int, required=True, help="degree d of the initial form")
    p.add_argument("--local-mus", type=_naturals, default=(),
                   help="comma-separated local Milnor numbers")
    p.add_argument("--tau", type=int, default=None, help="also evaluate the bound catalog")
    _add_common(p)
    p.set_defaults(func=_cmd_superisolated)

    p = subs.add_parser("constants", help="sharp mu >= C p_g constants")
    p.add_argument("--n", type=int, required=True, help="dimension n >= 2")
    p.add_argument("--r", type=int, required=True, help="codimension r >= 1")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = subs.add_parser("tau-min", help="minimal Tjurina number of the diagonal family")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--ratio", action="store_true", help="also print (d-1)^3 / tau_min")
    _add_common(p)
    p.set_defaults(func=_cmd_tau_min)

    p = subs.add_parser("sweep", help="evaluate a seeded germ family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    for field in fields(SweepSpec)[1:-1]:  # --seed through --count
        p.add_argument(f"--{field.name.replace('_', '-')}", type=int, default=field.default)
    p.add_argument("--power", type=int, dest="suspension_power", metavar="POWER",
                   default=SweepSpec.suspension_power, help="suspension exponent")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default: 1)")
    _add_common(p, csv_flag=True, timeout_flag=True)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("selftest", help="run the acceptance suite end to end")
    p.add_argument("--fast", action="store_true", help="skip the heavy benchmark germ")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Keep the flush at interpreter exit from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_COMPUTE
    except (GermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # The package raises ValueError only for an argument it cannot use.
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
