"""Seeded inputs of the three workloads and the oracles that check them.

The oracles do not use the basis engine: the paper's germ has the
published values ``mu=2288``, ``tau=1660``; the superisolated ladder has
closed forms; sweep rows follow from the pure powers of each germ, the
truncated-jet oracle (``germ.jets``, plain linear algebra) and the
suspension theorem; semigroups are recounted by dynamic programming.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

import germ.corpus
import germ.jets
import germ.poly
import germ.semigroup

PAPER_GERM = "x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15"
PAPER_MU, PAPER_TAU = 2288, 1660
#: Same shape as the paper's germ, small enough for the jet oracle.
SMOKE_GERM = "x^4+y^2*z^3+z^4+x^3*z+(x+y+z)^5"

#: The ladder and the sweep split ``--seconds`` into this many equal
#: passes over the same inputs and report the median pass, which keeps
#: a burst of machine noise from setting a run's figures.  The paper's
#: germ is too large to repeat and runs once.
PASSES = 5

#: Seconds per ladder degree on the reference machine (2 cores,
#: Python 3.11.7).  The top degree is the largest whose cumulative cost
#: fits one pass, so the work of a run is fixed by its arguments, never
#: by its speed.
LADDER_COST_S = {10: 0.09, 11: 0.21, 12: 0.30, 13: 0.41, 14: 0.67, 15: 1.02, 16: 1.52,
                 17: 2.14, 18: 3.67, 19: 5.36, 20: 7.67, 21: 9.89, 22: 14.07}
SWEEP_GERMS_PER_S = 900       # per family, for each second of a pass
SEMIGROUPS_PER_S = 40

#: The jet oracle runs on rows up to this Milnor number.
JET_MU_LIMIT = 30


@dataclass
class Outcome:
    """What one pass over a workload computed, with its clock readings."""

    start: float = 0.0
    eval_end: float = 0.0        # when the germ evaluations ended
    end: float = 0.0
    rows: list = field(default_factory=list)
    semigroups: list = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return self.end - self.start

    @property
    def eval_s(self) -> float:
        return self.eval_end - self.start


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    jets_s: float = 0.0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def _oracle_failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# benchmark_germ and fermat_ladder: a short list of large germs


class GermList:
    """Germs evaluated one after another through ``corpus.evaluate_germ``.

    ``items`` holds ``(request, polynomial, (mu, tau) or None)``; a
    missing expectation is supplied by the jet oracle at check time.
    """

    def __init__(self, items, summary: str, passes: int):
        self.items = items
        self.summary = summary
        self.passes = passes

    def germ_count(self) -> int:
        return len(self.items)

    def solve(self, tracer=None) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for i, (request, f, _) in enumerate(self.items):
            if tracer is not None:
                tracer.scope = f"{request}#"
            try:
                out.rows.append(germ.corpus.evaluate_germ(i, f))
            except Exception as exc:  # a failed item is counted, the run goes on
                out.rows.append(exc)
        out.eval_end = out.end = time.perf_counter()
        return out

    def check(self, outcome: Outcome, verdict: Verdict, wrong: bool = False) -> None:
        for k, ((request, f, expect), row) in enumerate(zip(self.items, outcome.rows)):
            if isinstance(row, Exception):
                verdict.record(False, f"{request}: {_oracle_failure(row)}")
                continue
            if expect is None:
                expect = _jet_values(f, verdict)
            if wrong and k == 0:
                expect = (expect[0] + 1, expect[1])
            ok = (row.isolated and (row.mu, row.tau) == expect and row.mu >= row.tau
                  and "violated" not in row.note)
            verdict.record(ok, f"{request}: got mu={row.mu} tau={row.tau}, expected {expect}")


#: Ring orders of the paper's germ.  (y,x,z) is left out: it is the
#: precedence every portfolio run ends on, so as the ring order it is
#: tried first at each budget and the failed 1M-budget attempts of the
#: others are skipped.  It costs a fifth less than the other five orders,
#: which cost about the same, and would make one seed in six an outlier
#: that no run length averages out.
BENCHMARK_RINGS = [r for r in sorted(itertools.permutations("xyz")) if r != ("y", "x", "z")]


def benchmark_germ(seed: int, smoke: bool) -> GermList:
    """The paper's germ in two consecutive orders of BENCHMARK_RINGS.

    The seed picks the first order (seed 0: the paper's own (x,y,z),
    then (x,z,y)).  The portfolio tries the ring order first, so each
    ring meets a different first precedence.
    """
    k = seed % len(BENCHMARK_RINGS)
    rings = [BENCHMARK_RINGS[k], BENCHMARK_RINGS[(k + 1) % len(BENCHMARK_RINGS)]]
    text = SMOKE_GERM if smoke else PAPER_GERM
    expect = None if smoke else (PAPER_MU, PAPER_TAU)
    items = [("".join(ring), germ.poly.parse_polynomial(text, ring), expect) for ring in rings]
    return GermList(items, f"germ={text} rings={','.join(r for r, _, _ in items)}", passes=1)


def ladder_degrees(seconds: int, smoke: bool) -> range:
    if smoke:
        return range(3, 7)
    top, spent = 10, 0.0
    for d in sorted(LADDER_COST_S):
        spent += LADDER_COST_S[d]
        if spent > seconds / PASSES:
            break
        top = d
    return range(10, top + 1)


def ladder_tau(d: int) -> int:
    """Tjurina number (2d-3)(d+1)(d-1)/3 of x^d+y^d+z^d+(x+y+z)^(d+1)."""
    return (2 * d - 3) * (d + 1) * (d - 1) // 3


def fermat_ladder(seed: int, seconds: int, smoke: bool) -> GermList:
    """x^d+y^d+z^d+(x+y+z)^(d+1) from d=10 up, in a seeded ring order."""
    ring = sorted(itertools.permutations("xyz"))[seed % 6]
    items = [(f"d={d}", germ.poly.parse_polynomial(f"x^{d}+y^{d}+z^{d}+(x+y+z)^{d + 1}", ring),
              ((d - 1) ** 3, ladder_tau(d)))
             for d in ladder_degrees(seconds, smoke)]
    degrees = [int(r[2:]) for r, _, _ in items]
    return GermList(items, f"ring={''.join(ring)} degrees={degrees[0]}..{degrees[-1]}",
                    passes=PASSES)


# ----------------------------------------------------------------------
# small_germ_sweep: two seeded corpora and seeded semigroups


def _jet_values(f, verdict: Verdict) -> tuple[int, int]:
    start = time.perf_counter()
    grad = [f.partial_derivative(v) for v in f.vars]
    values = (germ.jets.jet_quotient_dimension(grad),
              germ.jets.jet_quotient_dimension(grad + [f]))
    verdict.jets_s += time.perf_counter() - start
    return values


def _pure_powers(f) -> list[int]:
    """Smallest pure-power exponent of each variable (0 if none)."""
    out = [0] * len(f.vars)
    for e in f.terms:
        nz = [i for i, k in enumerate(e) if k]
        if len(nz) == 1:
            i = nz[0]
            out[i] = e[i] if out[i] == 0 else min(out[i], e[i])
    return out


def _forced_weights_fit(f, powers: list[int]) -> bool:
    """True iff the weights forced by the pure powers make ``f`` homogeneous."""
    lcm = math.lcm(*powers)
    weights = [lcm // p for p in powers]
    return all(sum(w * k for w, k in zip(weights, e)) == lcm for e in f.terms)


def _semigroup_oracle(gens: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Gaps and conductor by reachability up to the Schur bound a1*an."""
    bound = gens[0] * gens[-1]
    reach = [False] * (bound + 1)
    reach[0] = True
    for x in range(1, bound + 1):
        reach[x] = any(x >= g and reach[x - g] for g in gens)
    gaps = tuple(x for x in range(bound + 1) if not reach[x])
    return gaps, (gaps[-1] + 1 if gaps else 0)


def semigroup_sets(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """Half two-generator sets <p, q>, half plane-branch sets with g = 2.

    A g = 2 set is ``(n*a, n*b, beta)`` with ``gcd(a, b) = 1``,
    ``gcd(beta, n) = 1`` and ``beta > a*b*n``, which meets both
    plane-branch conditions.
    """
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            p = rng.randint(2, 30)
            q = rng.randint(p + 1, 60)
            if math.gcd(p, q) == 1:
                out.append((p, q))
        else:
            a = rng.randint(2, 5)
            b = rng.randint(a + 1, 9)
            n = rng.randint(2, 4)
            beta = a * b * n + rng.randint(1, 25)
            if math.gcd(a, b) == 1 and math.gcd(beta, n) == 1:
                out.append((n * a, n * b, beta))
    return out


class SmallGermSweep:
    """Seeded ``corpus.sweep`` runs plus semigroup computations."""

    FAMILIES = ("deformed_quasihomogeneous", "suspension")

    def __init__(self, seed: int, seconds: int, smoke: bool):
        count = 10 if smoke else round(SWEEP_GERMS_PER_S * seconds / PASSES)
        top = 6 if smoke else 12
        corpus_seed = seed % (1 << 64)
        self.specs = [germ.corpus.SweepSpec(family, seed=corpus_seed, a_min=3, a_max=top,
                                            b_min=3, b_max=top, count=count)
                      for family in self.FAMILIES]
        self.corpora = [germ.corpus.generate_corpus(spec) for spec in self.specs]
        self.semigroups = semigroup_sets(random.Random(seed),
                                         8 if smoke else round(SEMIGROUPS_PER_S * seconds / PASSES))
        self.passes = PASSES
        self._jet_memo: dict[str, tuple[int, int]] = {}
        self.summary = (f"families={','.join(self.FAMILIES)} germs_per_family={count} "
                        f"a,b=3..{top} semigroups={len(self.semigroups)}")

    def _semigroup_pass(self, tracer) -> list:
        sg = germ.semigroup
        out = []
        for gens in self.semigroups:
            if tracer is not None:
                tracer.request = f"gens={','.join(map(str, gens))}"
            try:
                s = sg.semigroup_from_generators(gens)
                cert = sg.certify_plane_branch(gens)
                equations = sg.monomial_curve_equations(cert, gens) if cert else None
                text = str(equations) if equations else ""
                mu = sg.branch_milnor(s) if cert else None
                out.append((s, cert, equations, text, mu))
            except Exception as exc:
                out.append(exc)
        if tracer is not None:
            tracer.request = None
        return out

    def solve(self, tracer=None) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for spec in self.specs:
            if tracer is not None:
                tracer.scope = f"{spec.family}:"
            out.rows.append(germ.corpus.sweep(spec, threads=1))
        out.eval_end = time.perf_counter()
        out.semigroups = self._semigroup_pass(tracer)
        out.end = time.perf_counter()
        return out

    def parallel_pass(self, workers: int) -> Outcome:
        out = Outcome(start=time.perf_counter())
        for spec in self.specs:
            out.rows.append(germ.corpus.sweep(spec, threads=workers))
        out.eval_end = out.end = time.perf_counter()
        return out

    def germ_count(self) -> int:
        return sum(len(c) for c in self.corpora)

    def check(self, outcome: Outcome, verdict: Verdict, wrong: bool = False) -> None:
        memo = self._jet_memo
        base = self.corpora[self.FAMILIES.index("deformed_quasihomogeneous")]
        for spec, corpus, result in zip(self.specs, self.corpora, outcome.rows):
            if len(result.rows) != len(corpus):
                verdict.record(False, f"{spec.family}: {len(result.rows)} rows for {len(corpus)} germs")
            for f, row in zip(corpus, result.rows):
                offset = 1 if wrong and row.index == 0 else 0
                ok, why = self._check_row(spec, f, row, base, memo, verdict, offset)
                verdict.record(ok, f"{spec.family} row {row.index}: {why}")
        for gens, got in zip(self.semigroups, outcome.semigroups):
            verdict.record(*self._check_semigroup(gens, got))

    @staticmethod
    def _check_row(spec, f, row, base, memo, verdict, offset) -> tuple[bool, str]:
        if row.germ != str(f):
            return False, f"row germ {row.germ} is not the corpus germ {f}"
        if not row.isolated:
            return False, "reported non-isolated"
        powers = _pure_powers(f)
        if not all(powers):
            return False, "germ without a pure power in every variable"
        mu = math.prod(p - 1 for p in powers) + offset
        if (row.mu, row.tau >= 1, row.mu >= row.tau) != (mu, True, True):
            return False, f"mu={row.mu} tau={row.tau}, expected mu={mu} >= tau >= 1"
        if _forced_weights_fit(f, powers) and row.mu != row.tau:
            return False, "weighted homogeneous but mu != tau"
        broken = [key for key, v in row.report.verdicts.items() if v.holds is False]
        if broken or "violated" in row.note:
            return False, f"bound violated: {broken} {row.note}"
        if mu > JET_MU_LIMIT:
            return True, ""
        if spec.family == "suspension":
            # f = g + z^k with g the deformed germ of the same seed and
            # index; suspension preserves mu and tau, and g is checked
            # against the jet oracle below.
            g = base[row.index]
            lifted = {e + (0,): c for e, c in g.terms.items()}
            lifted[(0,) * len(g.vars) + (spec.suspension_power,)] = 1
            if f.terms != lifted:
                return False, "suspension row is not the deformed germ plus z^k"
            f = g
        key = str(f)
        if key not in memo:
            memo[key] = _jet_values(f, verdict)
        if memo[key] != (row.mu, row.tau):
            return False, f"jet oracle gives {memo[key]}, engine ({row.mu}, {row.tau})"
        return True, ""

    @staticmethod
    def _check_semigroup(gens, got) -> tuple[bool, str]:
        what = f"semigroup {gens}"
        if isinstance(got, Exception):
            return False, f"{what}: {_oracle_failure(got)}"
        s, cert, equations, text, mu = got
        gaps, conductor = _semigroup_oracle(gens)
        delta = len(gaps)
        if (tuple(s.gaps), s.delta, s.conductor) != (gaps, delta, conductor):
            return False, f"{what}: gaps/delta/conductor differ from the recount"
        if cert is None or mu != 2 * delta or conductor != 2 * delta:
            return False, f"{what}: expected a plane branch with mu = 2*delta = {2 * delta}"
        if len(gens) == 2 and mu != (gens[0] - 1) * (gens[1] - 1):
            return False, f"{what}: mu={mu}, expected (p-1)(q-1)"
        for power, (i, witness) in zip(cert.n, enumerate(cert.witnesses, start=1)):
            if power * gens[i] != sum(l * b for l, b in zip(witness, gens)):
                return False, f"{what}: relation {i} does not vanish on the monomial curve"
        if len(equations.relations) != len(gens) - 1 or text.count(",") != len(gens) - 2:
            return False, f"{what}: expected {len(gens) - 1} curve equations"
        return True, ""


def compare_rows(serial: Outcome, parallel: Outcome, verdict: Verdict) -> None:
    """Rows of the worker pass must equal the serial rows."""
    for a, b in zip(serial.rows, parallel.rows):
        for ra, rb in zip(a.rows, b.rows):
            verdict.record((ra.germ, ra.mu, ra.tau) == (rb.germ, rb.mu, rb.tau),
                           f"{a.spec.family} row {ra.index}: 2-worker row differs")


def prepare(name: str, seed: int, seconds: int, smoke: bool):
    if name == "benchmark_germ":
        return benchmark_germ(seed, smoke)
    if name == "fermat_ladder":
        return fermat_ladder(seed, seconds, smoke)
    if name == "small_germ_sweep":
        return SmallGermSweep(seed, seconds, smoke)
    raise ValueError(f"unknown workload {name!r}")
