"""End-to-end acceptance battery, shared by the CLI and the test suite.

Each criterion returns a :class:`CriterionResult`; the CLI prints one
line per criterion and the pytest acceptance module asserts on them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable

from .bounds import (bound_report, kerner_nemethi_constant, superisolated_invariants,
                     wahl_tau_min)
from .corpus import SweepSpec, generate_corpus
from .invariants import GermInvariants, germ_invariants, milnor_number, suspend
from .jets import jet_quotient_dimension
from .poly import Polynomial, parse_polynomial
from .semigroup import (branch_milnor, certify_plane_branch, monomial_curve_equations,
                        semigroup_from_generators)

#: Seed of the shared acceptance corpus.
CORPUS_SEED = 42

BENCHMARK_GERM_TEXT = "x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15"
BENCHMARK_GERM_MU = 2288
BENCHMARK_GERM_TAU = 1660

#: Number of corpus germs whose suspension criterion 3 checks.
SUSPENSION_SAMPLE = 50

#: The diagonal surfaces x^d+y^d+z^d, d = 2..6, of criteria 6 and 7.
FERMAT = SweepSpec("fermat", d_min=2, d_max=6)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def acceptance_corpus() -> list[Polynomial]:
    """>= 200 two-variable germs: the 36 pure seeds plus seeded deformations."""
    specs = (SweepSpec("quasihomogeneous_2var", a_min=3, a_max=8, b_min=3, b_max=8),
             SweepSpec("deformed_quasihomogeneous", seed=CORPUS_SEED,
                       a_min=3, a_max=8, b_min=3, b_max=8, count=170))
    return [f for spec in specs for f in generate_corpus(spec)]


def _run(number: int, name: str, body: Callable[[], str]) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = body()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    return CriterionResult(number, name, passed, detail, time.perf_counter() - start)


def criterion_1() -> CriterionResult:
    def body() -> str:
        f = parse_polynomial(BENCHMARK_GERM_TEXT, ["x", "y", "z"])
        inv = germ_invariants(f)
        assert inv.mu == BENCHMARK_GERM_MU, f"mu={inv.mu}, expected {BENCHMARK_GERM_MU}"
        assert inv.tau == BENCHMARK_GERM_TAU, f"tau={inv.tau}, expected {BENCHMARK_GERM_TAU}"
        return f"mu={inv.mu} tau={inv.tau}"
    return _run(1, "benchmark superisolated germ", body)


def criterion_2(corpus: list[Polynomial], invariants: list[GermInvariants]) -> CriterionResult:
    def body() -> str:
        assert len(corpus) >= 200, f"corpus has only {len(corpus)} germs"
        margins = []
        for f, inv in zip(corpus, invariants):
            assert inv.isolated, f"non-isolated corpus germ {f}"
            verdict = bound_report(inv.mu, inv.tau, 1).verdicts["dimca_greuel_4_3"]
            assert verdict.holds, f"3mu<4tau fails for {f}: mu={inv.mu} tau={inv.tau}"
            margins.append(verdict.margin)
        return f"{len(corpus)} germs, min(4tau-3mu)={min(margins)}"
    return _run(2, "plane-curve 4/3 bound on corpus", body)


def criterion_3(corpus: list[Polynomial], invariants: list[GermInvariants]) -> CriterionResult:
    def body() -> str:
        sample = corpus[:SUSPENSION_SAMPLE]
        assert len(sample) >= SUSPENSION_SAMPLE, f"need at least {SUSPENSION_SAMPLE} germs"
        for f, base in zip(sample, invariants):
            top = germ_invariants(suspend(f, 2))
            assert top.mu == base.mu, f"mu changed under suspension for {f}"
            assert top.tau == base.tau, f"tau changed under suspension for {f}"
        return f"{len(sample)} suspensions checked"
    return _run(3, "suspension invariance of mu and tau", body)


def criterion_4(corpus: list[Polynomial], invariants: list[GermInvariants]) -> CriterionResult:
    def body() -> str:
        with_weights = 0
        for f, inv in zip(corpus, invariants):
            if inv.weighted_homogeneous_in_coords is not None:
                with_weights += 1
                assert inv.mu == inv.tau, f"weights present but mu!=tau for {f}"
        assert with_weights, "no weighted homogeneous germ in corpus"
        return f"{with_weights} weighted-homogeneous germs, all with mu=tau"
    return _run(4, "weighted homogeneous germs have mu=tau", body)


def criterion_5(corpus: list[Polynomial], invariants: list[GermInvariants]) -> CriterionResult:
    def body() -> str:
        checked = 0
        suspensions = [suspend(f, 2) for f in corpus[:8]]
        evaluated = chain(zip(corpus, (inv.mu for inv in invariants)),
                          ((g, milnor_number(g)) for g in suspensions))
        for f, mu in evaluated:
            if not isinstance(mu, int) or mu > 30:
                continue
            gradient = [f.partial_derivative(v) for v in f.vars]
            oracle = jet_quotient_dimension([g for g in gradient if g])
            assert mu == oracle, f"engine mu={mu} vs jet oracle {oracle} for {f}"
            checked += 1
        assert checked, "no germ with mu <= 30 in corpus"
        return f"{checked} germs cross-checked against the jet oracle"
    return _run(5, "jet-oracle equivalence for mu <= 30", body)


def criterion_6(corpus: list[Polynomial], invariants: list[GermInvariants]) -> CriterionResult:
    def body() -> str:
        three_var = [suspend(f, 2) for f in corpus[:25]] + generate_corpus(FERMAT)
        checked = 0
        evaluated = chain(zip(corpus, invariants), ((g, germ_invariants(g)) for g in three_var))
        for f, inv in evaluated:
            if not inv.isolated:
                continue
            n = inv.germ_dimension
            assert bound_report(inv.mu, inv.tau, n).verdicts["liu"].holds, \
                f"tau >= mu/N fails for {f}: mu={inv.mu} tau={inv.tau} N={n + 1}"
            checked += 1
        return f"{checked} pairs checked in 2 and 3 variables"
    return _run(6, "Liu bound tau >= mu/N", body)


def criterion_7() -> CriterionResult:
    def body() -> str:
        for a in range(2, 10):
            for b in range(2, 10):
                f = parse_polynomial(f"x^{a}+y^{b}", ["x", "y"])
                assert milnor_number(f) == (a - 1) * (b - 1), f"mu(x^{a}+y^{b})"
        for d, f in enumerate(generate_corpus(FERMAT), start=FERMAT.d_min):
            assert milnor_number(f) == (d - 1) ** 3, f"mu of the d={d} diagonal germ"
        assert wahl_tau_min(2) == 1 and wahl_tau_min(5) == 56
        previous = None
        for d in range(2, 1001):
            mu, tau = (d - 1) ** 3, wahl_tau_min(d)
            assert bound_report(mu, tau, 2).verdicts["conjecture_3_2"].holds, \
                f"ratio at d={d} reaches 3/2"
            ratio = Fraction(mu, tau)
            if previous is not None:
                assert ratio >= previous, f"ratio decreases at d={d}"
            previous = ratio
        for n in range(2, 9):
            assert kerner_nemethi_constant(n, 1) == math.factorial(n + 1)
        assert kerner_nemethi_constant(2, 1) == 6
        return "monomial/diagonal closed forms, tau_min monotone < 3/2, constants"
    return _run(7, "closed-form formulas", body)


def criterion_8() -> CriterionResult:
    def body() -> str:
        for a in range(2, 13):
            for b in range(a + 1, 13):
                if math.gcd(a, b) != 1:
                    continue
                s = semigroup_from_generators([a, b])
                assert s.delta == (a - 1) * (b - 1) // 2, f"delta of <{a},{b}>"
                assert s.conductor == (a - 1) * (b - 1), f"conductor of <{a},{b}>"
                cert = certify_plane_branch([a, b])
                assert cert is not None, f"<{a},{b}> not certified"
                assert s.conductor == 2 * s.delta, f"symmetry fails for <{a},{b}>"
        for a in range(2, 10):
            for b in range(a + 1, 10):
                if math.gcd(a, b) != 1:
                    continue
                s = semigroup_from_generators([a, b])
                f = parse_polynomial(f"x^{a}+y^{b}", ["x", "y"])
                assert branch_milnor(s) == milnor_number(f), f"mu mismatch for <{a},{b}>"
        s = semigroup_from_generators([4, 6, 13])
        assert s.delta == 8 and s.conductor == 16
        assert s.gaps == (1, 2, 3, 5, 7, 9, 11, 15)
        cert = certify_plane_branch([4, 6, 13])
        assert cert is not None
        eqs = monomial_curve_equations(cert, [4, 6, 13])
        assert str(eqs) == "u1^2-u0^3, u2^2-u0^5*u1", str(eqs)
        return "two-generator closed forms, symmetry, <4,6,13> equations"
    return _run(8, "semigroup suite", body)


def criterion_9() -> CriterionResult:
    def body() -> str:
        p_g, mu = superisolated_invariants(3)
        assert (p_g, mu) == (1, 8), f"(p_g, mu) at d=3: {(p_g, mu)}"
        p_g, mu = superisolated_invariants(14, (91,))
        assert p_g == 364 and mu == BENCHMARK_GERM_MU, f"d=14: p_g={p_g} mu={mu}"
        report = bound_report(BENCHMARK_GERM_MU, BENCHMARK_GERM_TAU, 2, p_g=364)
        assert report.verdicts["dimca_greuel_4_3"].margin < 0, "4/3 not exceeded"
        assert report.verdicts["conjecture_3_2"].holds is True, "3/2 not satisfied"
        return "superisolated formulas consistent; 4/3 exceeded, 3/2 holds"
    return _run(9, "superisolated consistency", body)


def run_all(fast: bool = False) -> list[CriterionResult]:
    """Run every acceptance criterion; ``fast`` skips the heavy benchmark germ."""
    corpus = acceptance_corpus()
    invariants = [germ_invariants(f) for f in corpus]  # shared by criteria 2 to 6
    results = []
    if not fast:
        results.append(criterion_1())
    results.append(criterion_2(corpus, invariants))
    results.append(criterion_3(corpus, invariants))
    results.append(criterion_4(corpus, invariants))
    results.append(criterion_5(corpus, invariants))
    results.append(criterion_6(corpus, invariants))
    results.append(criterion_7())
    results.append(criterion_8())
    results.append(criterion_9())
    return results
