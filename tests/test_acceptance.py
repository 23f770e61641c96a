"""Acceptance battery: one test per criterion, one printed line each.

All tolerances are exact; every expected number is either a published
value or comes from an independent oracle inside this suite or the
criterion implementations themselves (brute enumeration, jet linear
algebra, closed-form recurrences).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines,
or ``germ selftest`` for the CLI equivalent.
"""

import time

import pytest

from germ import germ_invariants, selftest


@pytest.fixture(scope="module")
def corpus():
    germs = selftest.acceptance_corpus()
    assert len(germs) >= 200
    return germs


@pytest.fixture(scope="module")
def invariants(corpus):
    # Criteria 2 to 6 share the corpus invariants; the seconds
    # spent computing them count against criterion 2's time budget.
    start = time.perf_counter()
    invs = [germ_invariants(f) for f in corpus]
    return invs, time.perf_counter() - start


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} [{status}] {result.name}: "
          f"{result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_1_benchmark_germ_runtime_bounded():
    start = time.perf_counter()
    result = selftest.criterion_1()
    elapsed = time.perf_counter() - start
    _report(result)
    assert elapsed <= 600, f"criterion 1 took {elapsed:.0f}s, budget is 10 minutes"


def test_criterion_1_cli_expectation():
    # The CLI's --expect path on a superisolated germ with closed forms
    # mu = (d-1)^3 and tau = wahl_tau_min(d) at d = 6.  The paper's germ
    # itself is computed once, by the criterion 1 test above.
    from germ.cli import main
    code = main(["invariants", "--vars", "x,y,z",
                 "--poly", "x^6+y^6+z^6+(x+y+z)^7",
                 "--expect", "mu=125,tau=105"])
    assert code == 0


def test_criterion_2_plane_curve_bound(corpus, invariants):
    invs, elapsed = invariants
    start = time.perf_counter()
    result = selftest.criterion_2(corpus, invs)
    elapsed += time.perf_counter() - start
    _report(result)
    assert elapsed <= 300, f"criterion 2 took {elapsed:.0f}s, budget is 5 minutes"


def test_criterion_3_suspension_invariance(corpus, invariants):
    _report(selftest.criterion_3(corpus, invariants[0]))


def test_criterion_4_saito_direction(corpus, invariants):
    _report(selftest.criterion_4(corpus, invariants[0]))


def test_criterion_5_oracle_equivalence(corpus, invariants):
    _report(selftest.criterion_5(corpus, invariants[0]))


def test_criterion_6_liu_bound(corpus, invariants):
    _report(selftest.criterion_6(corpus, invariants[0]))


def test_criterion_7_closed_forms():
    _report(selftest.criterion_7())


def test_criterion_8_semigroup_suite():
    _report(selftest.criterion_8())


def test_criterion_9_superisolated_consistency():
    _report(selftest.criterion_9())