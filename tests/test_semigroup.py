"""Numerical semigroups, plane-branch certificates, monomial curves."""

import copy
import dataclasses
import math
import pickle
import warnings
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import germ.semigroup
from germ import (NotPlaneBranchError, bound_report, branch_milnor,
                  certify_plane_branch, milnor_number, minimal_generators,
                  monomial_curve_equations, parse_polynomial,
                  semigroup_from_generators)


def brute_members(gens, bound):
    """Oracle: exhaustive enumeration of semigroup members up to a bound."""
    members = {0}
    changed = True
    while changed:
        changed = False
        for m in sorted(members):
            for g in gens:
                v = m + g
                if v <= bound and v not in members:
                    members.add(v)
                    changed = True
    return members


def test_semigroup_2_3():
    s = semigroup_from_generators([2, 3])
    assert s.gaps == (1,)
    assert s.delta == 1
    assert s.conductor == 2


def test_semigroup_4_6_13():
    # Oracle: exhaustive membership enumeration up to 24.
    members = brute_members([4, 6, 13], 24)
    expected_gaps = tuple(x for x in range(17) if x not in members)
    s = semigroup_from_generators([4, 6, 13])
    assert s.gaps == expected_gaps == (1, 2, 3, 5, 7, 9, 11, 15)
    assert s.delta == 8
    assert s.conductor == 16


def test_semigroup_unit():
    s = semigroup_from_generators([1])
    assert s.gaps == ()
    assert s.delta == 0
    assert s.conductor == 0


def test_membership_consistency():
    s = semigroup_from_generators([5, 7, 9])
    members = brute_members([5, 7, 9], 60)
    for x in range(60):
        assert (x in s) == (x in members)
    assert s.conductor - 1 in s.gaps
    assert all(x in s for x in range(s.conductor, s.conductor + 20))


@st.composite
def generator_sets(draw):
    """1-4 generators with gcd 1 and multiplicity at most 40."""
    m = draw(st.integers(1, 40))
    gens = [m, *draw(st.lists(st.integers(m + 1, 200), max_size=2))]
    g = math.gcd(*gens)
    if g > 1 or draw(st.booleans()):
        gens.append(draw(st.integers(m + 1, 200).filter(lambda x: math.gcd(g, x) == 1)))
    return gens


def dp_gaps(gens):
    """Oracle: the gaps by a dynamic-programming recount of the members."""
    bound = min(gens) * max(gens)  # every Apery element is below it
    member = [True] + [False] * bound
    for x in range(1, bound + 1):
        member[x] = any(g <= x and member[x - g] for g in gens)
    assert all(member[bound - min(gens) + 1:])  # cofinite past here
    return tuple(x for x in range(bound) if not member[x])


@given(generator_sets())
@settings(max_examples=150, deadline=None)
def test_delta_and_gaps_match_a_recount(gens):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a drawn set may be non-minimal
        s = semigroup_from_generators(gens)
    gaps = dp_gaps(gens)
    assert s.delta == len(s.gaps) == len(gaps)
    assert s.gaps == gaps
    assert s.conductor == (gaps[-1] + 1 if gaps else 0)
    # the gaps are derived from the Apery set on each read, never stored
    assert "gaps" not in {f.name for f in dataclasses.fields(s)}
    for other in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert other == s and other.gaps == s.gaps


def test_semigroup_validation():
    with pytest.raises(ValueError):
        semigroup_from_generators([])
    with pytest.raises(ValueError):
        semigroup_from_generators([0, 3])
    with pytest.raises(ValueError):
        semigroup_from_generators([4, 6])  # gcd 2


def test_non_minimal_generators_warn_and_minimize():
    with pytest.warns(UserWarning) as caught:
        s = semigroup_from_generators([4, 6, 13, 10])
        cert = certify_plane_branch([4, 6, 13, 10])
    assert s.generators == cert.generators == (4, 6, 13)
    assert minimal_generators([2, 3, 4, 5]) == (2, 3)
    # each warning names its own verb and points at this caller
    assert [str(w.message).rsplit("; ", 1)[1] for w in caught] == [
        "using [4, 6, 13]", "certifying [4, 6, 13]"]
    assert {w.filename for w in caught} == {__file__}


def test_membership_scales_with_a_large_generator():
    # deciding 4_000_001 against <2> takes about 22 doubling shifts, not 2 million passes
    assert minimal_generators([2, 4_000_001]) == (2, 4_000_001)
    cert = certify_plane_branch([2, 4_000_001])
    assert cert is not None and cert.witnesses == ((4_000_001,),)


def test_multiplicity_and_conductor_are_capped():
    # <2, b> has conductor b - 1: the cap itself is accepted, the next
    # odd b is rejected before its gaps are listed, and a multiplicity
    # past the cap is rejected before the Apery set is built.
    cap = germ.semigroup._MAX_CONDUCTOR
    s = semigroup_from_generators([2, cap + 1])
    assert s.conductor == cap and s.delta == cap // 2
    with pytest.raises(ValueError, match=f"conductor {cap + 2} exceeds the bound {cap}"):
        semigroup_from_generators([2, cap + 3])
    with pytest.raises(ValueError, match=f"multiplicity {cap + 1} exceeds the bound {cap}"):
        semigroup_from_generators([cap + 1, cap + 2])
    # minimizing builds a table of one entry per residue of the
    # multiplicity, so every minimizing entry point checks it first
    for minimizing in (minimal_generators, certify_plane_branch):
        with pytest.raises(ValueError, match=f"multiplicity {cap + 1} exceeds"):
            minimizing([cap + 1, cap + 2])


def test_certify_2_3():
    cert = certify_plane_branch([2, 3])
    assert cert is not None
    assert cert.e == (2, 1)
    assert cert.n == (2,)
    assert cert.witnesses == ((3,),)


def test_certify_4_6_13():
    cert = certify_plane_branch([4, 6, 13])
    assert cert is not None
    assert cert.e == (4, 2, 1)
    assert cert.n == (2, 2)
    # 2*6 = 12 = 3*4 and 2*13 = 26 = 5*4 + 1*6 with the canonical 1 < 2
    assert cert.witnesses == ((3,), (5, 1))
    assert 2 * 6 < 13  # condition (2) at i = 1


def test_certify_rejects_3_4_5():
    assert certify_plane_branch([3, 4, 5]) is None


def test_certify_condition2_failure():
    # gcd chain and condition (1) hold for <4,6,7> (n = (2,2), 12 = 3*4,
    # 14 = 2*4 + 6) but 2*6 = 12 > 7 breaks the ordering condition.
    assert certify_plane_branch([4, 6, 7]) is None


def test_certify_gcd_chain_stall():
    # e = (4,1,1) forces n_2 = 1, which no plane-branch chain allows.
    assert certify_plane_branch([4, 5, 7]) is None


def test_certificate_witness_identity():
    for gens in ([2, 3], [4, 6, 13], [2, 5], [3, 7], [4, 10, 21], [6, 9, 20]):
        cert = certify_plane_branch(gens)
        if cert is None:
            continue
        beta = cert.generators
        for i, (power, witness) in enumerate(zip(cert.n, cert.witnesses), start=1):
            assert power * beta[i] == sum(l * b for l, b in zip(witness, beta))
            for j in range(1, i):
                assert 0 <= witness[j] < cert.n[j - 1]


def test_symmetry_of_certified_semigroups():
    for gens in ([2, 3], [2, 7], [3, 5], [4, 6, 13], [4, 10, 21], [6, 9, 20]):
        cert = certify_plane_branch(gens)
        if cert is None:
            continue
        s = semigroup_from_generators(gens)
        c = s.conductor
        assert c == 2 * s.delta
        for x in range(c):
            assert ((x in s) != ((c - 1 - x) in s))


def test_two_generator_closed_forms():
    for a in range(2, 13):
        for b in range(a + 1, 13):
            if math.gcd(a, b) != 1:
                continue
            s = semigroup_from_generators([a, b])
            assert s.delta == (a - 1) * (b - 1) // 2
            assert s.conductor == (a - 1) * (b - 1)


def test_branch_milnor():
    assert branch_milnor(semigroup_from_generators([2, 3])) == 2
    assert branch_milnor(semigroup_from_generators([4, 6, 13])) == 16
    for k in range(1, 8):
        assert branch_milnor(semigroup_from_generators([2, 2 * k + 1])) == 2 * k
    with pytest.raises(NotPlaneBranchError):
        branch_milnor(semigroup_from_generators([3, 4, 5]))


def test_branch_milnor_matches_polynomial_engine():
    for a in range(2, 10):
        for b in range(a + 1, 10):
            if math.gcd(a, b) != 1:
                continue
            s = semigroup_from_generators([a, b])
            f = parse_polynomial(f"x^{a}+y^{b}", ["x", "y"])
            assert branch_milnor(s) == milnor_number(f)


def test_monomial_curve_equations_examples():
    cert = certify_plane_branch([2, 3])
    eqs = monomial_curve_equations(cert, [2, 3])
    assert str(eqs) == "u1^2-u0^3"
    cert = certify_plane_branch([4, 6, 13])
    eqs = monomial_curve_equations(cert, [4, 6, 13])
    assert [str(p) for p in eqs.as_polynomials()] == ["u1^2-u0^3", "u2^2-u0^5*u1"]
    cert = certify_plane_branch([3, 7])
    assert str(monomial_curve_equations(cert, [3, 7])) == "u1^3-u0^7"


def test_certificate_carries_the_monomial_curve():
    cert = certify_plane_branch([4, 6, 13])
    assert str(cert) == "u1^2-u0^3, u2^2-u0^5*u1"
    assert cert.relations == ((2, (3,)), (2, (5, 1)))
    assert cert.variables == ("u0", "u1", "u2")


def test_monomial_curve_equations_checks_the_generators():
    cert = certify_plane_branch([4, 6, 13])
    # a non-minimal set of the same semigroup is accepted
    assert monomial_curve_equations(cert, [4, 6, 13, 10]) == cert
    with pytest.raises(ValueError, match="does not match"):
        monomial_curve_equations(cert, [4, 6, 15])


def test_plane_branch_chain_minimizes_at_most_twice(monkeypatch):
    calls = []
    real = germ.semigroup.minimal_generators

    def spy(gens):
        calls.append(tuple(gens))
        return real(gens)

    monkeypatch.setattr(germ.semigroup, "minimal_generators", spy)
    gens = [4, 6, 13]
    s = semigroup_from_generators(gens)
    cert = certify_plane_branch(gens)
    assert str(monomial_curve_equations(cert, gens)) == "u1^2-u0^3, u2^2-u0^5*u1"
    assert branch_milnor(s) == 16
    assert len(calls) <= 2, calls


def test_equations_vanish_under_parameterization():
    for gens in ([2, 3], [4, 6, 13], [3, 7], [4, 10, 21], [6, 9, 20]):
        cert = certify_plane_branch(gens)
        if cert is None:
            continue
        eqs = monomial_curve_equations(cert, gens)
        beta = {f"u{i}": b for i, b in enumerate(cert.generators)}
        for p in eqs.as_polynomials():
            # u_j -> t^beta_j sends each monomial to a power of t, so the
            # binomial vanishes exactly when its coefficients cancel and
            # its two monomials have the same beta-weighted degree.
            (m1, c1), (m2, c2) = p.terms.items()
            weights = [beta[v] for v in p.vars]
            assert c1 + c2 == 0
            assert sum(map(mul, weights, m1)) == sum(map(mul, weights, m2))


def space_branch_holds(mu, tau):
    """``mu - tau < mu / 4`` as the catalog decides it for a branch."""
    return bound_report(mu, tau, 1).verdicts["space_branch_quarter"].holds


def test_space_branch_bound_check():
    assert space_branch_holds(16, 16) is True
    assert space_branch_holds(16, 12) is False
    assert space_branch_holds(2288, 1660) is False
    with pytest.raises(ValueError):
        space_branch_holds(4, 5)
    with pytest.raises(ValueError):
        space_branch_holds(4, 0)


def test_branch_with_two_characteristic_pairs_matches_engine():
    # (y^2 - x^3)^2 - x^5*y is an irreducible branch with semigroup
    # <4, 6, 13> (Puiseux x = t^4, y = t^6 + higher), so its Milnor
    # number must be 2*delta = 16; the computed tau satisfies the
    # quarter bound for branches.
    from germ import germ_invariants

    f = parse_polynomial("(y^2-x^3)^2-x^5*y", ["x", "y"])
    inv = germ_invariants(f)
    s = semigroup_from_generators([4, 6, 13])
    assert inv.mu == branch_milnor(s) == 16
    assert inv.weighted_homogeneous_in_coords is None
    assert inv.tau == 14
    assert space_branch_holds(inv.mu, inv.tau) is True