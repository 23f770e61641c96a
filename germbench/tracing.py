"""Span tracing of the germ package, installed from outside the package.

The tracer replaces the module attributes that callers look up at call
time (``germ.invariants.standard_basis``, ``germ.corpus.evaluate_germ``,
``Polynomial.partial_derivative`` and so on) with timing wrappers, and
puts the originals back on :meth:`Tracer.uninstall`.  No source file of
the package is edited.

A span is ``[name, start, end, parent, request, phase, error, info]``:
``parent`` is the index of the enclosing span (-1 at top level),
``request`` names the germ, degree or generator set being computed,
``phase`` is ``setup`` or ``solve``, ``error`` the exception class name
if the call raised, and ``info`` keeps what the metrics need from the
call (the step budget of a standard-basis attempt, a returned basis).
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

#: (module path, attribute, span name).  The layer of a span is the
#: part of its name before the first dot.
TARGETS = (
    ("germ.poly", "parse_polynomial", "poly.parse_polynomial"),
    ("germ.poly:Polynomial", "partial_derivative", "poly.partial_derivative"),
    ("germ.poly:Polynomial", "__str__", "poly.str"),
    ("germ.invariants", "standard_basis", "localalg.standard_basis"),
    ("germ.invariants", "extend_standard_basis", "localalg.extend_standard_basis"),
    ("germ.invariants", "quotient_codimension", "localalg.quotient_codimension"),
    ("germ.invariants", "find_positive_weights", "invariants.find_positive_weights"),
    ("germ.corpus", "germ_invariants", "invariants.germ_invariants"),
    ("germ.corpus", "suspend", "invariants.suspend"),
    ("germ.linalg", "nullspace", "linalg.nullspace"),
    ("germ.linalg", "strictly_positive_solution", "linalg.strictly_positive_solution"),
    ("germ.corpus", "bound_report", "bounds.bound_report"),
    ("germ.semigroup", "semigroup_from_generators", "semigroup.semigroup_from_generators"),
    ("germ.semigroup", "certify_plane_branch", "semigroup.certify_plane_branch"),
    ("germ.semigroup", "monomial_curve_equations", "semigroup.monomial_curve_equations"),
    ("germ.semigroup", "branch_milnor", "semigroup.branch_milnor"),
    ("germ.corpus", "evaluate_germ", "corpus.evaluate_germ"),
    ("germ.corpus", "generate_corpus", "corpus.generate_corpus"),
    ("germ.corpus", "sweep", "corpus.sweep"),
)

#: Layers whose self time is reported; ``bench`` is the harness itself.
LAYERS = ("poly", "invariants", "localalg", "linalg", "bounds", "semigroup", "corpus")


def _owner(path: str):
    """``germ.poly`` names a module, ``germ.poly:Polynomial`` a class in it."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.scope = ""
        self.phase = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request,
                           self.phase, None, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @staticmethod
    def span_cost(calls: int = 5000, rounds: int = 5) -> float:
        """Median seconds that wrapping adds to one call, measured on a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped()
            costs.append(max(clock() - start - bare, 0.0) / calls)
        return statistics.median(costs)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self
        sets_request = name == "corpus.evaluate_germ"
        keeps_budget = name == "localalg.standard_basis"
        keeps_result = name in ("localalg.standard_basis", "localalg.extend_standard_basis")

        def traced(*args, **kwargs):
            previous = tracer.request
            if sets_request:
                tracer.request = f"{tracer.scope}{args[0]}"
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request,
                   tracer.phase, None, kwargs.get("step_limit") if keeps_budget else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                tracer.request = previous
            if keeps_result:
                rec[7] = (rec[7], result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name in TARGETS:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p, r, ph, err]
                for n, s, e, p, r, ph, err, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start_s", "end_s", "parent",
                                            "request", "phase", "error"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


# ----------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass


def _basis_size(basis) -> tuple[int, int, int]:
    """(generators, terms, max coefficient bits) of a StandardBasis."""
    terms = bits = 0
    for g in basis.generators:
        terms += len(g.terms)
        for c in g.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return len(basis.generators), terms, bits


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], span_cost: float) -> dict[str, float]:
    """Per-layer metrics of the ``solve`` spans, plus setup-phase costs.

    Each wrapped call spends about ``span_cost`` seconds of tracing
    inside its parent's interval.  Self times are net of it and
    ``trace.overhead_s`` is the sum, so the self times of all layers
    plus the overhead add up to the traced solve time.
    """
    out: dict[str, float] = {}
    total = defaultdict(float)       # inclusive time per span name
    count = defaultdict(int)
    self_time = defaultdict(float)   # per layer
    child_time = defaultdict(float)  # per span index
    children = defaultdict(int)
    for name, start, end, parent, _, phase, _, _ in spans:
        if phase == "solve" and parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1
    for i, (name, start, end, parent, _, phase, _, _) in enumerate(spans):
        dur = end - start
        if phase == "setup":
            total["setup:" + name] += dur
            continue
        total[name] += dur
        count[name] += 1
        self_time[name.split(".", 1)[0]] += dur - child_time[i] - span_cost * children[i]
    solve = [s for s in spans if s[5] == "solve"]

    germs = max(count["invariants.germ_invariants"], 1)
    attempts = [s for s in solve if s[0] == "localalg.standard_basis"]
    per_request = defaultdict(int)
    for s in attempts:
        per_request[s[4]] += 1
    failed = [s for s in attempts if s[6] is not None]
    won = [s for s in attempts if s[6] is None]
    attempt_s = sum(s[2] - s[1] for s in attempts)
    won_s = sum(s[2] - s[1] for s in won)
    out["invariants.portfolio.attempts"] = len(attempts) / germs
    out["invariants.portfolio.attempts.max"] = max(per_request.values(), default=0)
    out["invariants.portfolio.failed"] = len(failed) / germs
    out["invariants.portfolio.wasted_s"] = attempt_s - won_s
    out["invariants.portfolio.useful_ratio"] = won_s / attempt_s if attempt_s else 1.0
    out["invariants.portfolio.winner_budget"] = max((s[7][0] or 0 for s in won), default=0)

    out["localalg.jacobian_s"] = won_s
    out["localalg.jacobian.basis_size"] = max((len(s[7][1].generators) for s in won), default=0)
    out["localalg.tjurina_s"] = total["localalg.extend_standard_basis"]
    # The largest Tjurina basis (the ladder's top degree) is picked by
    # size, not by time, so the same call is reported on every run.
    top, top_size = None, (0, 0, 0)
    for s in solve:
        if s[0] == "localalg.extend_standard_basis" and s[6] is None:
            size = _basis_size(s[7][1])
            if size > top_size:
                top, top_size = s, size
    out["localalg.tjurina_s.top"] = top[2] - top[1] if top else 0.0
    (out["localalg.tjurina.basis_size"], out["localalg.tjurina.basis_terms"],
     out["localalg.tjurina.max_coeff_bits"]) = top_size
    out["localalg.staircase_s"] = total["localalg.quotient_codimension"]
    out["localalg.calls"] = (count["localalg.standard_basis"]
                             + count["localalg.extend_standard_basis"]
                             + count["localalg.quotient_codimension"]) / germs

    out["invariants.weights_s"] = total["invariants.find_positive_weights"]
    out["linalg.s"] = total["linalg.nullspace"] + total["linalg.strictly_positive_solution"]
    out["bounds.report_s"] = total["bounds.bound_report"]
    out["poly.gradient_s"] = total["poly.partial_derivative"]
    out["poly.print_s"] = total["poly.str"]
    out["poly.parse_s"] = total["setup:poly.parse_polynomial"]
    out["corpus.generate_s"] = total["setup:corpus.generate_corpus"]
    out["semigroup.s"] = sum((s[2] - s[1] for s in solve if s[0].startswith("semigroup.")
                              and not spans[s[3]][0].startswith("semigroup.")), 0.0)
    rows_ms = sorted((s[2] - s[1]) * 1e3 for s in solve if s[0] == "corpus.evaluate_germ")
    out["corpus.rows_s"] = total["corpus.evaluate_germ"]
    out["corpus.germ_latency_ms.p50"] = statistics.median(rows_ms) if rows_ms else 0.0
    out["corpus.germ_latency_ms.p99"] = percentile(rows_ms, 99) if rows_ms else 0.0
    out["corpus.germ_latency.samples"] = len(rows_ms)
    sweep_rows = sum(s[2] - s[1] for s in solve
                     if s[0] == "corpus.evaluate_germ" and spans[s[3]][0] == "corpus.sweep")
    out["corpus.overhead_s"] = total["corpus.sweep"] - sweep_rows
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["bench.self_s"] = self_time["bench"]
    wrapped = sum(n for name, n in count.items() if not name.startswith("bench."))
    out["trace.spans"] = wrapped
    out["trace.overhead_s"] = wrapped * span_cost
    out["trace.solve_s"] = total["bench.solve"]
    return out
