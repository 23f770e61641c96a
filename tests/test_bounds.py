"""Closed-form invariants and the bound catalog."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import germ.bounds
from germ import (BOUND_IDS, BoundReport, bound_report, kerner_nemethi_constant, stirling2,
                  superisolated_invariants, wahl_tau_min)


def test_stirling2_values():
    # Oracle: recurrence S(n,k) = k*S(n-1,k) + S(n-1,k-1) tabulated by hand
    # for small n; S(3,2)=3, S(4,2)=7, S(5,2)=15.
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 2) == 15
    assert stirling2(0, 0) == 1
    for n in range(1, 9):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1
    with pytest.raises(ValueError):
        stirling2(2, 3)


def recurrence_stirling2(n, k):
    """Oracle: the triangle S(m, j) = j*S(m-1, j) + S(m-1, j-1), row by row."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        new = [0] * (min(m, k) + 1)
        for j in range(1, len(new)):
            below = row[j] if j < len(row) else 0
            new[j] = j * below + row[j - 1]
        row = new
    return row[k] if k < len(row) else 0


@given(st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@settings(max_examples=200, deadline=None)
def test_stirling2_sum_matches_the_recurrence(case):
    n, k = case
    assert stirling2(n, k) == recurrence_stirling2(n, k)


def test_stirling2_row_sums_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n, b in enumerate(bell):
        assert sum(stirling2(n, k) for k in range(n + 1)) == b


def test_kerner_nemethi_values():
    assert kerner_nemethi_constant(2, 1) == 6
    assert kerner_nemethi_constant(3, 1) == 24
    assert kerner_nemethi_constant(3, 2) == 16  # binom(4,3)*5! / (15*2!)
    for n in range(2, 9):
        assert kerner_nemethi_constant(n, 1) == math.factorial(n + 1)
    with pytest.raises(ValueError):
        kerner_nemethi_constant(1, 1)


def test_kerner_nemethi_order_is_capped():
    # The cap bounds the Stirling sum before it starts; the largest
    # accepted input still gets its exact value.
    cap = germ.bounds._MAX_N_PLUS_R
    for n, r in [(2, cap - 1), (cap - 1, 2)]:
        with pytest.raises(ValueError, match=f"n \\+ r <= {cap}"):
            kerner_nemethi_constant(n, r)
    # S(m, m-2) = C(m, 3) + 3*C(m, 4): a partition into m-2 blocks has
    # one block of three or two blocks of two.
    assert kerner_nemethi_constant(cap - 1, 1) == math.factorial(cap)
    assert kerner_nemethi_constant(2, cap - 2) == Fraction(
        math.comb(cap - 1, 2) * math.factorial(cap),
        (math.comb(cap, 3) + 3 * math.comb(cap, 4)) * math.factorial(cap - 2))


def test_wahl_tau_min_values():
    assert wahl_tau_min(2) == 1
    assert wahl_tau_min(5) == 56
    assert wahl_tau_min(100) == 197 * 101 * 99 // 3
    for d in range(2, 1001):
        assert (2 * d - 3) * (d + 1) * (d - 1) % 3 == 0


def test_wahl_ratio_monotone_below_three_halves():
    previous = None
    for d in range(2, 1001):
        ratio = Fraction((d - 1) ** 3, wahl_tau_min(d))
        assert ratio < Fraction(3, 2)
        if previous is not None:
            assert ratio >= previous
        previous = ratio
    # the limit is approached: by d = 1000 the gap is tiny
    assert Fraction(3, 2) - previous < Fraction(1, 250)


def test_superisolated_invariants():
    assert superisolated_invariants(3) == (1, 8)
    assert superisolated_invariants(2) == (0, 1)
    p_g, mu = superisolated_invariants(14, (91,))
    assert (p_g, mu) == (364, 2288)
    for d in range(2, 40):
        p_g, _ = superisolated_invariants(d)
        assert 6 * p_g == d * (d - 1) * (d - 2)
    with pytest.raises(ValueError):
        superisolated_invariants(1)
    with pytest.raises(ValueError):
        superisolated_invariants(3, (0,))


def test_bound_report_catalog_is_complete():
    report = bound_report(10, 9, 1)
    assert tuple(report.verdicts) == BOUND_IDS


def test_bound_report_surface_example():
    report = bound_report(2288, 1660, 2)
    v = report.verdicts
    assert v["dimca_greuel_4_3"].applicable is False
    assert v["dimca_greuel_4_3"].holds is None
    assert v["dimca_greuel_4_3"].margin == Fraction(4 * 1660 - 3 * 2288)
    assert v["dimca_greuel_4_3"].margin < 0  # the 4/3 ratio is exceeded
    assert v["conjecture_3_2"].holds is True
    assert v["conjecture_3_2"].margin == Fraction(3 * 1660 - 2 * 2288)
    assert v["positivity"].holds is True
    assert v["wahl_2pg"].applicable is True and v["wahl_2pg"].holds is None


def test_bound_report_quasihomogeneous_curve():
    report = bound_report(4, 4, 1)
    v = report.verdicts
    assert all(entry.holds for entry in v.values() if entry.holds is not None)
    assert v["dimca_greuel_4_3"].margin == 4
    assert v["space_branch_quarter"].holds is True
    assert v["conjecture_3_2"].applicable is False


def test_bound_report_liu_failure_flags_unrealizable_pair():
    report = bound_report(10, 4, 1)
    assert report.verdicts["liu"].holds is False
    assert report.verdicts["liu"].margin == Fraction(2 * 4 - 10, 2)


def test_bound_report_optional_inputs():
    report = bound_report(100, 90, 2, p_g=12, multiplicity=2)
    v = report.verdicts
    assert v["wahl_2pg"].holds is (2 * 12 >= 10)
    assert v["tomari"].applicable is True
    assert v["tomari"].holds is (100 >= 8 * 12 + 1)
    assert v["durfee"].holds is (100 >= 6 * 12)
    without = bound_report(100, 90, 2)
    assert without.verdicts["tomari"].applicable is False
    assert without.verdicts["durfee"].holds is None
    assert without.verdicts["durfee"].margin is None


def test_bound_report_margin_sign_iff_holds():
    for (mu, tau, n, pg) in [(4, 4, 1, None), (12, 10, 1, None), (30, 20, 2, 3),
                             (2288, 1660, 2, 364), (16, 16, 1, 1)]:
        report = bound_report(mu, tau, n, p_g=pg)
        for key in ("dimca_greuel_4_3", "conjecture_3_2", "space_branch_quarter"):
            v = report.verdicts[key]
            if v.holds is not None:
                assert v.holds == (v.margin > 0)
        for key in ("positivity", "liu", "wahl_2pg", "tomari", "durfee"):
            v = report.verdicts[key]
            if v.holds is not None:
                assert v.holds == (v.margin >= 0)


def test_bound_report_validation():
    invalid = [
        ((3, 4, 1), {}, "exceeds mu"),
        ((4, 0, 1), {}, "tau must be at least 1"),
        ((4, 4, 0), {}, "dimension must be at least 1"),
        ((100, 90, 2), {"p_g": -5}, "genus must be non-negative"),
        ((100, 90, 2), {"multiplicity": 1}, "multiplicity of a singular germ"),
        ((100, 90, 2), {"p_g": 12, "multiplicity": -3}, "multiplicity of a singular germ"),
    ]
    for args, kwargs, message in invalid:
        for _ in range(2):  # a failed call is not cached: the repeat raises too
            with pytest.raises(ValueError, match=message):
                bound_report(*args, **kwargs)
    # the edge values stay valid
    assert bound_report(100, 90, 2, p_g=0, multiplicity=2).verdicts["tomari"].applicable


def test_bound_report_is_shared_and_read_only():
    report = bound_report(30, 20, 2, p_g=3)
    assert bound_report(30, 20, 2, p_g=3) is report
    assert bound_report(30, 20, 2) is not report
    with pytest.raises(TypeError):
        report.verdicts["liu"] = report.verdicts["positivity"]
    with pytest.raises(TypeError):
        del report.verdicts["liu"]
    assert tuple(report.verdicts) == BOUND_IDS


def test_bound_report_pickles_and_copies_equal():
    report = bound_report(2288, 1660, 2, p_g=364)
    for other in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report),
                  BoundReport(dict(report.verdicts))):
        assert other == report
        assert tuple(other.verdicts) == BOUND_IDS
        with pytest.raises(TypeError):
            other.verdicts["liu"] = None
    assert report != bound_report(2288, 1661, 2, p_g=364)


def test_bound_report_copies_its_input():
    verdicts = dict(bound_report(10, 9, 1).verdicts)
    report = BoundReport(verdicts)
    verdicts.clear()
    assert tuple(report.verdicts) == BOUND_IDS