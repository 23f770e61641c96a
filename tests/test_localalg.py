"""Local order, standard bases, ideal membership, staircase counting."""

import bisect
import copy
import itertools
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from germ import (EQUAL, GREATER, INFINITE, LESS, LocalOrder, MonomialOverflowError,
                  Polynomial, extend_standard_basis, jet_quotient_dimension,
                  parse_polynomial, quotient_codimension, standard_basis, wahl_tau_min)
from germ import invariants, localalg
from germ.corpus import SweepSpec, generate_corpus
from germ.invariants import germ_invariants
from germ.errors import ComputationBudgetExceeded
from germ.localalg import _minimalize, _staircase_of

V2 = ("x", "y")


def P(text, vars=V2):
    return parse_polynomial(text, vars)


def brute_staircase(gens, nvars, box):
    """Oracle: enumerate all monomials in a box and keep the undivided ones."""
    out = []
    for mono in itertools.product(*[range(b) for b in box]):
        if not any(all(m >= g for m, g in zip(mono, gen)) for gen in gens):
            out.append(mono)
    return out


# -- ordering ------------------------------------------------------------


def test_compare_examples():
    order = LocalOrder(V2)
    assert order.compare((0, 0), (1, 0)) == GREATER  # 1 beats x locally
    assert order.compare((2, 0), (0, 2)) == GREATER  # revlex: x^2 beats y^2
    assert order.compare((1, 0), (1, 0)) == EQUAL
    assert order.compare((0, 2), (2, 0)) == LESS


def test_compare_ring_mismatch():
    with pytest.raises(ValueError):
        LocalOrder(V2).compare((1, 0), (1, 0, 0))


def test_order_is_total_and_multiplicative():
    order = LocalOrder(("x", "y", "z"))
    monos = list(itertools.product(range(3), repeat=3))
    keys = {m: order.encode(m) for m in monos}
    assert len(set(keys.values())) == len(monos)
    # compatibility with multiplication: m1 > m2 => m1*t > m2*t
    for m1, m2, t in random.Random(7).sample(
            [(a, b, c) for a in monos for b in monos for c in monos], 300):
        if keys[m1] < keys[m2]:
            p1 = tuple(a + b for a, b in zip(m1, t))
            p2 = tuple(a + b for a, b in zip(m2, t))
            assert order.encode(p1) < order.encode(p2)


def test_precedence_changes_tie_break():
    order = LocalOrder(V2, precedence=("y", "x"))
    assert order.compare((0, 2), (2, 0)) == GREATER


def test_exponent_overflow_detected():
    order = LocalOrder(V2)
    with pytest.raises(MonomialOverflowError):
        order.encode((1 << 15, 0))


def test_order_validation():
    with pytest.raises(ValueError):
        LocalOrder(V2, precedence=("x", "w"))
    with pytest.raises(ValueError):
        LocalOrder(V2, precedence=("x",))


@given(st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000)))
@settings(max_examples=80, deadline=None)
def test_encode_decode_roundtrip(m):
    for prec in [("x", "y", "z"), ("z", "x", "y")]:
        order = LocalOrder(("x", "y", "z"), precedence=prec)
        assert order.decode(order.encode(m)) == m
        assert order.degree(order.encode(m)) == sum(m)


# -- ideal membership -------------------------------------------------------


def test_contains_examples():
    x, y = P("x"), P("y")
    basis = standard_basis([x])
    records = list(basis._records)
    assert basis.contains(P("x^2")) and basis.contains(Polynomial.zero(V2))
    assert not basis.contains(y) and not standard_basis([y]).contains(x)
    # a nonzero constant term makes a member of the unit ideal only
    assert not basis.contains(P("1+x"))
    assert standard_basis([P("1+x")]).contains(y)
    assert basis._records == records and basis.leading_ideal == ((1, 0),)
    # another ring than the basis's is rejected, not read in its
    # variables (x+y^2 would be read as y+x^2, a member of (x))
    swapped = LocalOrder(("y", "x"))
    for gen in ("x", "y"):
        with pytest.raises(ValueError):
            standard_basis([P(gen, ("y", "x"))], swapped).contains(P("x+y^2"))


def test_contains_local_unit_example():
    # y - y^2 = y*(1 - y) and 1 - y is a unit of the local ring, so y lies
    # in the ideal.  Oracle: multiply y - y^2 by the truncated inverse
    # 1 + y + y^2 + ... of the unit and observe that only a term of
    # arbitrarily high degree is left over.
    g = P("y-y^2")
    truncated_inverse = sum((P("y") ** k for k in range(1, 30)), P("1"))
    residue = g * truncated_inverse - P("y")
    assert residue.min_degree() >= 30
    assert standard_basis([g]).contains(P("y"))


def test_contains_verdict_under_generator_permutations():
    basis = standard_basis([P("x^2+y^3"), P("x*y")])
    gens = list(basis.generators)
    rng = random.Random(3)
    polys = [P("x^3"), P("x^2*y"), P("y^4"), P("x^2+x*y"), P("y^3+x^4"), P("x^5+y^5")]
    for p in polys:
        verdicts = set()
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            verdicts.add(standard_basis(shuffled).contains(p))
        assert len(verdicts) == 1


# -- the reduction kernel ----------------------------------------------------


def fraction_reduce(h, reducers, order, corner, work, step_limit):
    """Oracle for ``localalg._reduce`` over ``Fraction`` coefficients.

    The same reducer rule (the first divisor of minimal ecart, the
    reducers before this reduction's own snapshots) and the same meter:
    ``visited + 1`` units per step, ``visited`` the tail terms that land
    below the corner, plus, before a corner, ``(b >> 3) + visited *
    ((b >> 7) + (b*b >> 18))`` for the multiplier ``h[lm]/lc`` of
    ``b = bits(numerator) + bits(denominator)``; the budget is checked
    after the step.  ``corner`` is a degree, or None for Mora's
    snapshots.  Returns ``(remainder, units)`` with the remainder
    primitive and its leading coefficient positive, or ``(None, units)``
    when the units exceed ``step_limit``.
    """
    def exps(code):
        return order.decode(code)

    def degree(code):
        return sum(exps(code))

    def primitive(terms):
        den = math.lcm(*(c.denominator for c in terms.values()))
        ints = {k: int(c * den) for k, c in terms.items()}
        g = math.gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        return {k: v // g for k, v in ints.items()}

    def ecart(terms):
        return degree(max(terms)) - degree(min(terms))

    def divides(a, b):
        return all(x <= y for x, y in zip(exps(a), exps(b)))

    kept = (lambda code: True) if corner is None else (lambda code: degree(code) < corner)
    h = {k: Fraction(c) for k, c in h.items() if kept(k)}
    own = []
    while h:
        lm = min(h)
        usable = [r for r in reducers + own if divides(min(r), lm)]
        if not usable:
            return primitive(h), work
        best = min(usable, key=ecart)
        if corner is None and ecart(best) > ecart(h):
            own.append(primitive(h))
        lc = best[min(best)]
        q = h[lm] / lc
        shift = [x - y for x, y in zip(exps(lm), exps(min(best)))]
        visited = -1  # the leading term lands on lm, below any corner
        for k, c in best.items():
            kk = order.encode(tuple(x + y for x, y in zip(exps(k), shift)))
            if kept(kk):
                visited += 1
                h[kk] = h.get(kk, 0) - q * c
                if not h[kk]:
                    del h[kk]
        work += visited + 1
        if corner is None:
            bits = q.numerator.bit_length() + q.denominator.bit_length()
            work += (bits >> 3) + visited * ((bits >> 7) + (bits * bits >> 18))
        if work > step_limit:
            return None, work
    return {}, work


@st.composite
def reductions(draw):
    """A ring order, integer reducers with non-unit leading coefficients, an input."""
    vs = ("x", "y", "z")[:draw(st.integers(2, 3))]
    order = LocalOrder(vs, draw(st.permutations(vs)))
    monomial = st.tuples(*[st.integers(0, 3)] * len(vs))
    small = st.integers(-9, 9).filter(bool)
    lead = st.one_of(st.integers(2, 30), st.integers(1 << 20, 1 << 40))

    def vector(lead_coefficients):
        terms = {order.encode(m): c for m, c in draw(
            st.dictionaries(monomial, small, min_size=1, max_size=5)).items()}
        terms[min(terms)] = draw(lead_coefficients) * draw(st.sampled_from((1, -1)))
        return terms

    reducers = [vector(lead) for _ in range(draw(st.integers(1, 4)))]
    h = vector(st.one_of(small, lead))
    corner = draw(st.one_of(st.none(), st.integers(2, 8)))
    return (order, reducers, h, corner, draw(st.integers(0, 50)),
            draw(st.integers(20, 3000)))


@given(reductions())
@settings(max_examples=300, deadline=None)
def test_reduce_matches_fraction_oracle(case):
    # The fraction-free kernel returns the oracle's remainder and charges
    # the same units, or runs out of budget at the same point, both with
    # Mora's snapshots (no corner yet) and with terms truncated at a
    # corner degree, where no snapshot is taken.
    order, reducers, h, corner, start, step_limit = case
    expected, units = fraction_reduce(h, reducers, order, corner, start, step_limit)
    corner_code = (localalg._beyond_codes(order) if corner is None
                   else corner << order._deg_shift)
    records = [localalg._make_rec(r, order) for r in reducers]
    work = [start]
    if expected is None:
        with pytest.raises(ComputationBudgetExceeded):
            localalg._reduce(h, records, order, corner_code, work, step_limit)
    else:
        assert localalg._reduce(h, records, order, corner_code, work, step_limit) == expected
    assert work[0] == units


def naive_add_shifted(h, a, s, terms, corner_code, guard):
    """Oracle for ``localalg._add_shifted``: visits every tail term of the
    dict ``terms`` (leading term excluded), cuts and guards each one."""
    for k, c in sorted(terms.items())[1:]:
        kk = k + s
        if kk >= corner_code:
            continue
        if kk & guard:
            raise MonomialOverflowError("intermediate exponent exceeds the machine bound")
        v = h.get(kk, 0) + a * c
        if v:
            h[kk] = v
        else:
            h.pop(kk, None)


@st.composite
def shifted_additions(draw):
    """A tail, a shift, a start vector (partly cancelling) and a corner code.

    Exponents are small or near the machine bound, so shifted codes
    overflow a field; the corner is the pre-corner bound, one past a
    monomial (a corner inside its degree), a shifted tail code itself, a
    degree boundary, or 0.
    """
    vs = ("x", "y", "z")[:draw(st.integers(1, 3))]
    order = LocalOrder(vs, draw(st.permutations(vs)))
    top = localalg._MAX_EXPONENT
    exponent = st.one_of(st.integers(0, 4), st.integers(top - 4, top))
    monomial = st.tuples(*[exponent] * len(vs)).map(order.encode)
    coefficient = st.integers(-9, 9).filter(bool)
    terms = draw(st.dictionaries(monomial, coefficient, min_size=1, max_size=8))
    s = draw(monomial)
    a = draw(coefficient)
    h = draw(st.dictionaries(monomial, coefficient, max_size=4))
    for k in draw(st.lists(st.sampled_from(sorted(terms)), max_size=4)):
        h[k + s] = -a * terms[k]  # cancels that term exactly
    corner_code = draw(st.one_of(
        st.just(localalg._beyond_codes(order)),
        monomial.map(lambda code: code + 1),
        st.sampled_from(sorted(terms)).map(lambda code: code + s),
        st.integers(0, 2 * top + 4).map(lambda d: d << order._deg_shift),
        st.just(0)))
    return order, terms, s, a, h, corner_code


@given(shifted_additions())
@settings(max_examples=300, deadline=None)
def test_add_shifted_matches_per_term_oracle(case):
    # The bisection cut gives the per-term cut, and the guard, which the
    # kernel tests only when the largest kept code has a degree past the
    # exponent bound, raises exactly when some kept term overflows a field.
    order, terms, s, a, h, corner_code = case
    expected = dict(h)
    try:
        naive_add_shifted(expected, a, s, terms, corner_code, order._guard)
    except MonomialOverflowError:
        expected = None
    rec = localalg._make_rec(terms, order)
    if expected is None:
        with pytest.raises(MonomialOverflowError, match="intermediate exponent"):
            localalg._add_shifted(h, a, s, rec, corner_code, order)
    else:
        localalg._add_shifted(h, a, s, rec, corner_code, order)
        assert h == expected
        assert all(h.values())


def record_fields(rec):
    return rec.lm, rec.lc, rec.keys, rec.coefs, rec.ecart


@st.composite
def record_cuts(draw):
    """A record with a positive leading coefficient and perhaps a common
    factor, and a cut code: one past a term, a term itself, a degree
    boundary, 0 or the pre-corner bound."""
    vs = ("x", "y", "z")[:draw(st.integers(1, 3))]
    order = LocalOrder(vs, draw(st.permutations(vs)))
    monomial = st.tuples(*[st.integers(0, 5)] * len(vs)).map(order.encode)
    terms = draw(st.dictionaries(monomial, st.integers(-40, 40).filter(bool),
                                 min_size=1, max_size=8))
    factor = draw(st.sampled_from((1, 1, 2, 6, 35))) * (1 if terms[min(terms)] > 0 else -1)
    rec = localalg._make_rec({k: c * factor for k, c in terms.items()}, order)
    code = draw(st.one_of(
        st.sampled_from(sorted(terms)).map(lambda k: k + draw(st.sampled_from((0, 1)))),
        st.integers(0, 16).map(lambda d: d << order._deg_shift),
        st.just(0), st.just(localalg._beyond_codes(order))))
    return order, rec, code


@given(record_cuts())
@settings(max_examples=300, deadline=None)
def test_sliced_cut_matches_the_rebuilt_record(case):
    # The cut slices the sorted tail and divides by one gcd; it must give
    # the record that rebuilding the kept terms as a dict, stripping and
    # sorting them again gives, and leave its input as it was: a warm
    # start shares the records of the basis it extends.
    order, rec, code = case
    before = copy.deepcopy(record_fields(rec))
    kept = dict(zip(rec.keys[:bisect.bisect_left(rec.keys, code)], rec.coefs))
    kept[rec.lm] = rec.lc
    expected = localalg._make_rec(localalg._strip(kept), order)
    cut = localalg._cut(rec, code, order)
    assert record_fields(cut) == record_fields(expected)
    assert type(cut.keys) is type(cut.coefs) is list
    assert record_fields(rec) == before


@st.composite
def rational_polynomials(draw):
    """A nonzero polynomial in 1 to 4 variables with rational coefficients
    of either sign; one variable may be absent, so its partial is zero."""
    vs = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
    absent = draw(st.sampled_from([None, *range(len(vs))]))
    monomial = st.tuples(*[st.integers(0, 6)] * len(vs)).map(
        lambda e: e if absent is None else e[:absent] + (0,) + e[absent + 1:])
    coefficient = st.fractions(-50, 50, max_denominator=12).filter(bool)
    return Polynomial(vs, draw(st.dictionaries(monomial, coefficient, min_size=1, max_size=8)))


def _fields(records):
    return [(r.lm, r.lc, r.keys, r.coefs, r.ecart) for r in records]


@given(rational_polynomials())
@example(Polynomial(("x", "y", "z"), {(2, 0, 0): Fraction(-3, 2), (1, 3, 0): Fraction(5, 7)}))
@example(Polynomial(("x", "y"), {(0, 0): Fraction(-4, 3)}))
@settings(max_examples=200, deadline=None)
def test_germ_records_match_the_encoded_partials(f):
    # The gradient derived in the packed domain gives, under every
    # precedence, the records of the encoded Fraction partials, zero
    # partials dropped, and the record of the encoded germ.
    partials = [g for g in (f.partial_derivative(v) for v in f.vars) if g]
    for precedence in itertools.permutations(f.vars):
        order = LocalOrder(f.vars, precedence)
        grad, rec = localalg._germ_records(localalg._encode_poly(f, order), order)
        assert _fields(grad) == _fields(localalg._prepare_records(partials, order))
        assert _fields([rec]) == _fields(localalg._prepare_records([f], order))


@st.composite
def monomial_pairs(draw):
    """An order on 1 to 4 variables and two exponent vectors, each field
    anywhere from 0 to the machine bound, often shared or zero."""
    vs = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
    order = LocalOrder(vs, draw(st.permutations(vs)))
    top = localalg._MAX_EXPONENT
    field = st.one_of(st.just(0), st.integers(0, 3), st.integers(top - 2, top),
                      st.integers(0, top))
    a = draw(st.tuples(*[field] * len(vs)))
    b = draw(st.one_of(st.tuples(*[field] * len(vs)),
                       st.tuples(*[st.integers(0, x) for x in a])))  # b divides a
    return order, a, b


@given(monomial_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_lcm_coprimality_and_divisibility_match_tuples(case):
    # The s-pair data read off packed codes only: the field-wise lcm,
    # the product criterion's coprimality test and the guard-bit
    # divisibility test agree with the exponent tuples.
    order, a, b = case
    ca, cb = order.encode(a), order.encode(b)
    lcm = order._lcm(ca, cb)
    assert lcm == order.encode(tuple(map(max, a, b))) == order._lcm(cb, ca)
    assert (lcm == ca + cb) == (not any(x and y for x, y in zip(a, b)))
    guard = order._guard
    assert (((ca | guard) - cb) & guard == guard) == all(x >= y for x, y in zip(a, b))
    assert (((lcm | guard) - ca) & guard == guard) and (((lcm | guard) - cb) & guard == guard)


def test_intermediate_exponent_overflow_raises():
    # Every input exponent is in range, but before a corner is certified
    # a reduction shifts a tail term past the bound.
    with pytest.raises(MonomialOverflowError, match="intermediate exponent"):
        standard_basis([P("x*y+x^20000"), P("y^2+y^20000")])


# -- standard bases --------------------------------------------------------


def test_standard_basis_monomial_input():
    sb = standard_basis([P("3*x^2"), P("4*y^3")])
    assert sb.leading_ideal == ((2, 0), (0, 3))


def test_standard_basis_d4_jacobian():
    # Oracle: by hand, spoly(2xy, x^2+3y^2) = y*(x^2+3y^2) - (x/2)*(2xy)
    # = 3y^3, which is irreducible by {x^2, xy}.
    f, g = P("2*x*y"), P("x^2+3*y^2")
    spoly = P("y") * g - (P("x") * Fraction(1, 2)) * f
    assert spoly == P("3*y^3")
    sb = standard_basis([f, g])
    assert set(sb.leading_ideal) == {(2, 0), (1, 1), (0, 3)}


def test_standard_basis_single_variable_generator():
    sb = standard_basis([P("x")])
    assert sb.leading_ideal == ((1, 0),)
    assert quotient_codimension(sb) == INFINITE


def test_standard_basis_self_reduction_property():
    for gens in ([P("x^2+y^3"), P("x*y")],
                 [P("x^3-2*y^4"), P("x*y^2+y^5"), P("y^6+x^5")]):
        sb = standard_basis(gens)
        for g in sb.generators:
            assert sb.contains(g)


def test_standard_basis_rejects_empty():
    with pytest.raises(ValueError):
        standard_basis([Polynomial.zero(V2)])


def test_monomial_input_is_its_own_standard_basis():
    # Every s-polynomial of two monomials is zero, so the completion
    # keeps the input: its generators are the input monomials made
    # primitive, the leading ideal is the minimalized input, and the
    # codimension is the brute-force staircase count.
    rng = random.Random(11)
    for _ in range(25):
        exps = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 5))]
        sb = standard_basis([Polynomial(V2, {e: rng.randint(1, 9)}) for e in exps])
        assert sorted(map(str, sb.generators)) == sorted(
            str(Polynomial(V2, {e: 1})) for e in exps)
        mins = _minimalize(exps)
        assert sb.leading_ideal == tuple(mins)
        if len({i for m in mins for i in (0, 1) if m[1 - i] == 0}) == 2:  # pure powers
            box = [max(m[i] for m in mins) + 1 for i in range(2)]
            assert quotient_codimension(sb) == len(brute_staircase(mins, 2, box))
        else:
            assert quotient_codimension(sb) == INFINITE


def test_extend_standard_basis_matches_fresh_run():
    gens = [P("x^3+y^4"), P("x*y^2")]
    extra = P("y^5+x^2*y")
    warm = extend_standard_basis(standard_basis(gens), [extra])
    fresh = standard_basis(gens + [extra])
    assert set(warm.leading_ideal) == set(fresh.leading_ideal)
    assert quotient_codimension(warm) == quotient_codimension(fresh)


@st.composite
def extended_ideals(draw):
    """Generators in 2 or 3 variables, often with pure powers so that
    the staircase is finite, and extra generators: random ones or
    combinations of the generators, which lie in the ideal."""
    vs = ("x", "y", "z")[:draw(st.integers(2, 3))]
    monomial = st.tuples(*[st.integers(0, 3)] * len(vs))
    coefficient = st.integers(-5, 5).filter(bool)
    polynomial = st.dictionaries(monomial, coefficient, min_size=1, max_size=3).map(
        lambda terms: Polynomial(vs, terms))
    gens = draw(st.lists(polynomial, min_size=1, max_size=2))
    if draw(st.booleans()):
        gens += [Polynomial(vs, {tuple(draw(st.integers(2, 4)) if j == i else 0
                                       for j in range(len(vs))): 1})
                 for i in range(len(vs))]
    gens = [g for g in gens if g]
    extra = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            extra.append(draw(polynomial))
        else:
            extra.append(sum((g * draw(polynomial) for g in gens[1:]), gens[0] * draw(polynomial)))
    return gens, [p for p in extra if p]


@given(extended_ideals())
@settings(max_examples=60, deadline=None)
def test_warm_start_matches_fresh_run_and_keeps_its_input(case):
    # A warm start reduces its new generators modulo the basis first and
    # completes with the remainders; it must find the leading ideal and
    # codimension of a run from scratch, and leave the records, layer and
    # count of the basis it extends as they were.
    gens, extra = case
    if not gens:
        return
    basis = standard_basis(gens)
    before = copy.deepcopy(([record_fields(r) for r in basis._records],
                            basis._layer, basis._size))
    warm = extend_standard_basis(basis, extra)
    fresh = standard_basis(gens + extra)
    assert set(warm.leading_ideal) == set(fresh.leading_ideal)
    assert quotient_codimension(warm) == quotient_codimension(fresh)
    assert ([record_fields(r) for r in basis._records], basis._layer, basis._size) == before


@pytest.mark.parametrize("text,vs", [("x^3+y^4", V2), ("x^5+y^5+z^5", ("x", "y", "z"))])
def test_member_germ_builds_no_spolynomial_after_its_jacobian_run(monkeypatch, text, vs):
    # A quasihomogeneous germ lies in its Jacobian ideal (mu = tau), so
    # the warm Tjurina run reduces it to zero and forms no pair.
    spolys = []
    started = []  # the s-polynomials built when the Tjurina run starts
    extend, spoly = invariants.extend_standard_basis, localalg._spoly

    def extend_spy(*args, **kw):
        started.append(len(spolys))
        return extend(*args, **kw)

    def spoly_spy(*args):
        spolys.append(args)
        return spoly(*args)

    monkeypatch.setattr(invariants, "extend_standard_basis", extend_spy)
    monkeypatch.setattr(localalg, "_spoly", spoly_spy)
    inv = germ_invariants(parse_polynomial(text, vs))
    assert inv.tau == inv.mu
    assert started == [len(spolys)]


@pytest.mark.parametrize("d", range(3, 8))
def test_superisolated_ladder_agrees_across_precedences(d):
    # Closed forms mu=(d-1)^3 and tau=wahl_tau_min(d) under every
    # precedence, with the Tjurina ideal completed both as a warm start
    # and from scratch.  The gradient leads with pure powers here, so a
    # corner is certified before the first reduction.
    vs = ("x", "y", "z")
    f = parse_polynomial(f"x^{d}+y^{d}+z^{d}+(x+y+z)^{d + 1}", vs)
    grad = [f.partial_derivative(v) for v in vs]
    for prec in itertools.permutations(vs):
        order = LocalOrder(vs, prec)
        jac = standard_basis(grad, order)
        assert quotient_codimension(jac) == (d - 1) ** 3
        assert quotient_codimension(extend_standard_basis(jac, [f])) == wahl_tau_min(d)
        assert quotient_codimension(standard_basis(grad + [f], order)) == wahl_tau_min(d)


@pytest.mark.parametrize("p,q,r", [(2, 3, 7), (3, 3, 4), (2, 4, 5), (3, 4, 5)])
def test_cusp_family_agrees_across_precedences(monkeypatch, p, q, r):
    # T_pqr = x^p+y^q+z^r+xyz has mu = p+q+r-1 and tau = mu-1.  Its
    # gradient has no pure powers, so Jacobian runs reduce with ecart
    # snapshots until a corner is certified; the warm-started Tjurina
    # run inherits that corner and must take none.
    snapshots = []
    reducing = [False]  # a snapshot is a record made inside a reduction
    make_rec = localalg._make_rec
    reduce = localalg._reduce

    def spy(terms, order):
        if reducing[0]:
            snapshots.append(terms)
        return make_rec(terms, order)

    def reduce_spy(*args, **kw):
        reducing[0] = True
        try:
            return reduce(*args, **kw)
        finally:
            reducing[0] = False

    monkeypatch.setattr(localalg, "_make_rec", spy)
    monkeypatch.setattr(localalg, "_reduce", reduce_spy)
    vs = ("x", "y", "z")
    f = parse_polynomial(f"x^{p}+y^{q}+z^{r}+x*y*z", vs)
    grad = [f.partial_derivative(v) for v in vs]
    taken = []
    for prec in itertools.permutations(vs):
        order = LocalOrder(vs, prec)
        jac = standard_basis(grad, order)
        assert quotient_codimension(jac) == p + q + r - 1
        taken.append(len(snapshots))
        snapshots.clear()
        assert quotient_codimension(extend_standard_basis(jac, [f])) == p + q + r - 2
        assert snapshots == []
        assert quotient_codimension(standard_basis(grad + [f], order)) == p + q + r - 2
        snapshots.clear()
    if (p, q, r) == (2, 3, 7):
        assert all(taken)  # the pre-corner path runs under every precedence


def test_coprime_pair_with_cancelling_leading_terms(monkeypatch):
    # Coprime leading monomials x and y whose second terms x*y and y^2
    # give the products the same leading monomial x*y^2: the pair is
    # kept when the leading terms cancel (coefficients 1 and 1) and
    # skipped when they do not (2 and 1).
    outcomes = []
    coprime_skip = localalg._coprime_skip

    def spy(f, g, lcm_code):
        skip = coprime_skip(f, g, lcm_code)
        if (lcm_code == f.lm + g.lm
                and f.keys and g.keys and f.keys[0] + g.lm == g.keys[0] + f.lm):
            outcomes.append(skip)
        return skip

    monkeypatch.setattr(localalg, "_coprime_skip", spy)
    vs = ("x", "y", "z")
    for first, skipped in [("x+x*y+z^4", False), ("x+2*x*y+z^4", True)]:
        gens = [parse_polynomial(t, vs) for t in (first, "y+y^2+z^3", "z^5")]
        outcomes.clear()
        assert quotient_codimension(standard_basis(gens, LocalOrder(vs))) == 5
        assert skipped in outcomes
        oracle = jet_quotient_dimension(gens)
        for prec in itertools.permutations(vs):
            assert quotient_codimension(standard_basis(gens, LocalOrder(vs, prec))) == oracle


def test_budget_charges_coefficient_growth(monkeypatch):
    # Under (y,z,x) one pre-corner s-polynomial of the paper's germ is
    # reduced again and again by its own snapshots, which double its
    # coefficients each time.  Tail-term operations are charged by
    # multiplier size, so a 1M-unit budget runs out while the records
    # stay below 1000 bits (about 1 s); charged like small integers, the
    # same budget ran on to 4000-bit snapshots (about 15 s).
    bits = []
    make_rec = localalg._make_rec

    def spy(terms, order):
        bits.append(max(abs(c).bit_length() for c in terms.values()))
        return make_rec(terms, order)

    monkeypatch.setattr(localalg, "_make_rec", spy)
    vs = ("y", "z", "x")
    f = parse_polynomial("x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15", vs)
    grad = [f.partial_derivative(v) for v in vs]
    with pytest.raises(ComputationBudgetExceeded):
        standard_basis(grad, LocalOrder(vs, vs), step_limit=1_000_000)
    assert 100 < max(bits) < 1000


@pytest.mark.parametrize("ring,jacobian,tjurina", [
    (("x", "y", "z"), (303_328, 14, 3701), (407_935, 29, 8010, 265)),
    (("y", "z", "x"), (315_539, 14, 3747), (414_148, 29, 8006, 265)),
], ids=["ring-xyz", "ring-yzx"])
def test_paper_germ_work_and_bases_are_pinned(monkeypatch, ring, jacobian, tjurina):
    # The paper's germ under the precedence (y,x,z) that wins its
    # portfolio, in the ring orders of benchmark seeds 0 and 1: work
    # units of the Jacobian run and of the warm Tjurina extension, and
    # generators, terms (and coefficient bits) of both bases.  The
    # Jacobian values were measured with the rational (num, den) kernel
    # that the fraction-free one replaced, the Tjurina ones with the
    # truncation at the highest corner itself (it was at the corner's
    # degree: 16,504,621 and 16,612,683 units, 8,488 and 8,483 terms,
    # then, before f was reduced modulo the Jacobian basis first,
    # 6,204,613 and 6,312,809 units, 30 records, 8,150 and 8,146 terms).
    # The meter charges the tail terms a step visits, those below the
    # corner, and the coefficient surcharge only before a corner; when it
    # charged every tail term and the surcharge throughout, the Jacobian
    # runs took 304,481 and 316,699 units and the Tjurina runs 6,204,735
    # and 6,312,931.  A kernel change that moves the meter or a basis
    # shows here.
    counters = []
    nonzero = []  # per run, whether each reduction left a remainder
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, **kw):
        if not counters or counters[-1] is not work:
            counters.append(work)
            nonzero.append([])
        rem = reduce(h, records, order, corner_code, work, step_limit, **kw)
        nonzero[-1].append(bool(rem))
        return rem

    monkeypatch.setattr(localalg, "_reduce", spy)
    f = parse_polynomial("x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15", ring)
    grad = [f.partial_derivative(v) for v in ring]
    jac = standard_basis(grad, LocalOrder(ring, ("y", "x", "z")), step_limit=1_000_000)
    tj = extend_standard_basis(jac, [f])
    assert [w[0] for w in counters] == [jacobian[0], tjurina[0]]
    assert (len(jac.generators), sum(len(g.terms) for g in jac.generators)) == jacobian[1:]
    assert (len(tj.generators), sum(len(g.terms) for g in tj.generators),
            max(abs(c.numerator).bit_length() for g in tj.generators
                for c in g.terms.values())) == tjurina[1:]
    # The Tjurina floor: 26 of its 41 reductions end at zero.
    assert (len(nonzero[1]), nonzero[1].count(False)) == (41, 26)
    assert quotient_codimension(jac) == 2288 and quotient_codimension(tj) == 1660


def test_warm_start_records_are_primitive(monkeypatch):
    # Under the ring's own precedence the Jacobian run of this germ
    # truncates its last record at the corner, which leaves it with
    # content (147*y^7); the truncated record is divided by it, so the
    # Jacobian basis holds y^7.  mu = tau, so the germ lies in its
    # Jacobian ideal: the warm Tjurina run is one normal form of 3 work
    # units that ends at zero, and its basis is the Jacobian records
    # themselves, y^7 included.
    counters = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, **kw):
        if not counters or counters[-1] is not work:
            counters.append(work)
        return reduce(h, records, order, corner_code, work, step_limit, **kw)

    f = P("x^3+y^7+2*x^2*y^3")
    grad = [f.partial_derivative(v) for v in V2]
    jac = standard_basis(grad)
    assert [str(g) for g in jac.generators] == [
        "3*x^2+4*x*y^3", "6*x^2*y^2+7*y^6", "8*x*y^5-7*y^6", "y^7"]
    monkeypatch.setattr(localalg, "_reduce", spy)
    tj = extend_standard_basis(jac, [f])
    assert [w[0] for w in counters] == [3]
    assert len(tj._records) == 4 and all(a is b for a, b in zip(tj._records, jac._records))
    assert [str(g) for g in tj.generators] == [str(g) for g in jac.generators]
    assert quotient_codimension(jac) == quotient_codimension(tj) == 12
    # That normal form counts toward the budget, before any pair exists.
    with pytest.raises(ComputationBudgetExceeded) as exc:
        extend_standard_basis(jac, [f], step_limit=2)
    assert exc.value.pairs_left == 0


def test_incremental_corner_is_the_exact_corner(monkeypatch):
    # The completion filters the staircase's top layer per new leading
    # monomial instead of recomputing the staircase; every corner it
    # hands to the kernel must still be the one recomputed from all
    # leading monomials (one past the largest code of the top layer),
    # before and after certification, in Jacobian runs and warm Tjurina
    # runs.
    checked = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, **kw):
        stairs = _staircase_of(records, order)
        exact = (localalg._beyond_codes(order) if stairs is None
                 else max(stairs[2], default=-1) + 1)
        assert corner_code == exact
        checked.append(corner_code)
        return reduce(h, records, order, corner_code, work, step_limit, **kw)

    monkeypatch.setattr(localalg, "_reduce", spy)
    vs = ("x", "y", "z")
    germs = [f"x^{d}+y^{d}+z^{d}+(x+y+z)^{d + 1}" for d in range(3, 8)]
    germs += [f"x^{p}+y^{q}+z^{r}+x*y*z"
              for p, q, r in [(2, 3, 7), (3, 3, 4), (2, 4, 5), (3, 4, 5)]]
    for text in germs:
        f = parse_polynomial(text, vs)
        grad = [f.partial_derivative(v) for v in vs]
        for prec in itertools.permutations(vs):
            extend_standard_basis(standard_basis(grad, LocalOrder(vs, prec)), [f])
    f = P("x^3+y^7+2*x^2*y^3")
    extend_standard_basis(standard_basis([f.partial_derivative(v) for v in V2]), [f])
    assert len(set(checked)) > 1  # pre-corner calls and several corners were seen


@pytest.mark.parametrize("text,vs,mu,tau", [
    ("x^4+y^2*z^3+z^4+x^3*z+(x+y+z)^5", ("x", "y", "z"), 36, 32),
    ("x^5+y^2*z^3+z^5+x^3*z^2+(x+y+z)^6", ("x", "y", "z"), 72, 58),
    ("x^3+y^7+2*x^2*y^3", V2, 12, 12),
])
def test_truncation_cuts_inside_the_corner_degree(monkeypatch, text, vs, mu, tau):
    # The kernel truncates at the highest corner itself, not at the
    # first degree past it: under every precedence some reduction of
    # the Jacobian run or the warm Tjurina run gets a bound that lies
    # inside a degree, and mu and tau still match the jet oracle.
    bounds = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, **kw):
        bounds.append(corner_code)
        return reduce(h, records, order, corner_code, work, step_limit, **kw)

    monkeypatch.setattr(localalg, "_reduce", spy)
    f = parse_polynomial(text, vs)
    grad = [f.partial_derivative(v) for v in vs]
    assert (jet_quotient_dimension(grad), jet_quotient_dimension(grad + [f])) == (mu, tau)
    for prec in itertools.permutations(vs):
        order = LocalOrder(vs, prec)
        bounds.clear()
        jac = standard_basis(grad, order)
        tj = extend_standard_basis(jac, [f])
        assert (quotient_codimension(jac), quotient_codimension(tj)) == (mu, tau)
        low_bits = (1 << order._deg_shift) - 1
        assert any(code & low_bits for code in bounds), prec


def test_warm_ladder_recurses_only_when_the_top_layer_empties(monkeypatch):
    # Regression guard for the incremental corner: the warm Tjurina run
    # of the ladder at d=10 runs the staircase recursion 7 times; run
    # after every new basis element, it would run 20 times.  It starts
    # from the top layer the Jacobian basis carries, which the germ's
    # leading monomial x^10 leaves as it is, so the entry is not counted.
    calls = []
    staircase_of = localalg._staircase_of

    def spy(records, order):
        calls.append(len(records))
        return staircase_of(records, order)

    vs = ("x", "y", "z")
    f = parse_polynomial("x^10+y^10+z^10+(x+y+z)^11", vs)
    jac = standard_basis([f.partial_derivative(v) for v in vs], LocalOrder(vs))
    monkeypatch.setattr(localalg, "_staircase_of", spy)
    tj = extend_standard_basis(jac, [f])
    assert len(calls) == 7
    assert quotient_codimension(tj) == wahl_tau_min(10)


def test_carried_count_is_the_recounted_staircase():
    # Differential test of the staircase a completion hands to its basis:
    # the count is absent or exactly the recounted one, and the top layer
    # is the recounted one, for Jacobian and warm Tjurina bases alike.
    vs = ("x", "y", "z")
    germs = [(parse_polynomial(f"x^{d}+y^{d}+z^{d}+(x+y+z)^{d + 1}", vs), prec)
             for d in range(3, 8) for prec in itertools.permutations(vs)]
    germs += [(parse_polynomial(text, v), prec) for text, v in [
        ("x^4+y^2*z^3+z^4+x^3*z+(x+y+z)^5", vs), ("x^5+y^2*z^3+z^5+x^3*z^2+(x+y+z)^6", vs),
        ("x^3+y^7+2*x^2*y^3", V2)] for prec in itertools.permutations(v)]
    spec = SweepSpec("deformed_quasihomogeneous", seed=3, count=40)
    for family in ("deformed_quasihomogeneous", "suspension"):
        germs += [(f, f.vars) for f in generate_corpus(replace(spec, family=family))]
    seen = set()  # (tau == mu, the Tjurina count was carried), and absent counts
    for f, prec in germs:
        order = LocalOrder(f.vars, prec)
        jac = standard_basis([f.partial_derivative(v) for v in f.vars], order)
        tj = extend_standard_basis(jac, [f])
        for basis in (jac, tj):
            size, _, layer = _staircase_of(basis._records, order)
            assert basis._size in (None, size)
            seen.add(basis._size is None)
            assert sorted(basis._layer) == sorted(layer)
        mu, tau = quotient_codimension(jac), quotient_codimension(tj)
        assert (jac._size, tj._size) == (mu, tau)
        seen.add((tau == mu, tj._size is not None))
    # tau = mu: the germ's leading monomial already lies in L(J); tau < mu:
    # the Tjurina run shrinks the staircase and counts it again.
    assert {(True, True), (False, True), True, False} <= seen
    # A new leading monomial below the top layer: y leaves the layer
    # {x^3} of (x^4, x*y, y^2) as it is but takes y out of the staircase.
    basis = extend_standard_basis(standard_basis([P("x^4"), P("x*y"), P("y^2")]), [P("y")])
    assert basis._size is None and quotient_codimension(basis) == 4


def test_germ_invariants_counts_its_staircase_once(monkeypatch):
    # x^3+y^4 is counted when its Jacobian run starts; the count rides
    # on the basis into quotient_codimension, through the warm start
    # (x^3 is a multiple of x^2) and into the Tjurina codimension.
    calls = []
    staircase_of = localalg._staircase_of

    def spy(records, order):
        calls.append(len(records))
        return staircase_of(records, order)

    monkeypatch.setattr(localalg, "_staircase_of", spy)
    inv = germ_invariants(P("x^3+y^4"))
    assert (inv.mu, inv.tau) == (6, 6)
    assert calls == [2]


def test_extend_standard_basis_trivial_cases():
    basis = standard_basis([P("x^2+y^3"), P("x*y")])
    assert extend_standard_basis(basis, []) is basis
    assert extend_standard_basis(basis, [Polynomial.zero(V2)]) is basis
    # adjoining an ideal member changes nothing
    member = P("x+y") * basis.generators[0]
    extended = extend_standard_basis(basis, [member])
    assert set(extended.leading_ideal) == set(basis.leading_ideal)
    assert quotient_codimension(extended) == quotient_codimension(basis)


def test_unit_in_ideal_gives_codimension_zero(monkeypatch):
    sb = standard_basis([P("1+x")])
    assert quotient_codimension(sb) == 0
    # Everything lies in the unit ideal: a warm start drops its new
    # generator and returns the records and count without a recount.
    monkeypatch.setattr(localalg, "_staircase_of",
                        lambda *args: pytest.fail("staircase counted again"))
    ext = extend_standard_basis(sb, [P("x^2+y")])
    assert ext._records == sb._records and quotient_codimension(ext) == 0


# -- staircase counting ----------------------------------------------------


def test_codimension_examples():
    assert quotient_codimension(standard_basis([P("x^2"), P("y^3")])) == 6
    assert quotient_codimension(standard_basis([P("x^2"), P("x*y"), P("y^3")])) == 4
    assert quotient_codimension(standard_basis([P("x")])) == INFINITE


def packed_staircase(gens, order):
    """``localalg._staircase`` of ``gens`` encoded in ``order``, its top layer decoded.

    Every code of the layer must be the full packed code of its monomial,
    degree included.
    """
    stairs = localalg._staircase([order.encode(m) & order._low for m in gens],
                                 order.nvars, order._deg_shift)
    if stairs is None:
        return None
    size, top, layer = stairs
    monos = [order.decode(k) for k in layer]
    assert layer == [order.encode(m) for m in monos]
    return size, top, monos


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_staircase_count_matches_brute_enumeration(nvars):
    rng = random.Random(5 + nvars)
    vars = ("x", "y", "z", "w")[:nvars]
    order = LocalOrder(vars)
    for draw in range(40):
        gens = {tuple(rng.randint(0, 6) for _ in range(nvars))
                for _ in range(rng.randint(1, 6))}
        # force pure powers so the count is finite
        for i in range(nvars):
            gens.add(tuple(rng.randint(1, 7) if j == i else 0 for j in range(nvars)))
        mins = _minimalize(list(gens))
        box = [max(g[i] for g in mins) + 1 for i in range(nvars)]
        stairs = brute_staircase(mins, nvars, box)
        basis = standard_basis([Polynomial(vars, {m: 1}) for m in mins], order)
        assert quotient_codimension(basis) == len(stairs)
        # the highest corner: one above the largest staircase degree, and
        # the top layer: the packed codes of the staircase monomials of
        # that largest degree
        size, top, layer = _staircase_of(basis._records, order)
        assert size == len(stairs)
        assert top + 1 == max((sum(m) for m in stairs), default=-1) + 1
        assert sorted(layer) == sorted(order.encode(m) for m in stairs if sum(m) == top)
        # the recursion itself takes redundant generators as they come
        size, top, layer = packed_staircase(list(gens), order)
        assert size == len(stairs)
        assert top == max((sum(m) for m in stairs), default=-1)
        assert sorted(layer) == sorted(m for m in stairs if sum(m) == top)
        # without a pure power of one variable the staircase is infinite
        i = draw % nvars
        open_gens = [m for m in gens if any(e for j, e in enumerate(m) if j != i)]
        assert packed_staircase(open_gens, order) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=6),
    st.lists(st.integers(0, 6), min_size=n, max_size=n))))
def test_packed_staircase_matches_brute_enumeration_under_every_precedence(draw):
    # The recursion slices on the most significant packed field, the
    # last precedence variable, so which variable it slices on depends
    # on the precedence; size, top degree and the decoded top layer must
    # not.  A power of 0 adds no pure power of its variable.
    perm, gens, powers = draw
    nvars = len(perm)
    vars = ("x", "y", "z", "w")[:nvars]
    order = LocalOrder(vars, [vars[i] for i in perm])
    gens = gens + [tuple(p if j == i else 0 for j in range(nvars))
                   for i, p in enumerate(powers) if p]
    finite = all(any(not any(e for j, e in enumerate(m) if j != i) for m in gens)
                 for i in range(nvars))
    stairs = packed_staircase(gens, order)
    if not finite:
        assert stairs is None
        return
    box = [max(m[i] for m in gens) + 1 for i in range(nvars)]
    monos = brute_staircase(gens, nvars, box)
    top = max((sum(m) for m in monos), default=-1)
    assert stairs[:2] == (len(monos), top)
    assert sorted(stairs[2]) == sorted(m for m in monos if sum(m) == top)


@pytest.mark.parametrize("gens,nvars,expected", [
    # the pure power y^4 ends the slices at 4, but no generator is free
    # of y: the slices below it are empty and the staircase is infinite
    ([(3, 4), (0, 4)], 2, None),
    ([], 2, None),
    ([], 1, None),
    ([(0, 0)], 2, (0, -1, [])),  # the unit ideal
    ([(0,)], 1, (0, -1, [])),
    ([(2, 1, 0), (0, 0, 0), (0, 0, 5)], 3, (0, -1, [])),
    ([(3,), (5,)], 1, (3, 2, [(2,)])),
])
def test_staircase_edge_cases(gens, nvars, expected):
    assert packed_staircase(gens, LocalOrder(("x", "y", "z")[:nvars])) == expected


def _power_of_maximal_ideal(nvars, degree):
    """Exponent vectors of the monomials of ``degree`` in ``nvars`` variables."""
    if nvars == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree + 1)
            for rest in _power_of_maximal_ideal(nvars - 1, degree - k)]


@pytest.mark.parametrize("nvars,degree", [(3, 40), (5, 10), (8, 4), (30, 2)])
def test_staircase_of_maximal_ideal_power_is_fast(nvars, degree):
    # m^D has a staircase of C(nvars + D - 1, nvars) monomials, all those
    # of degree below D, and its top layer is every monomial of degree D - 1.
    order = LocalOrder([f"x{i}" for i in range(nvars)])
    codes = [order.encode(m) & order._low for m in _power_of_maximal_ideal(nvars, degree)]
    start = time.perf_counter()
    size, top, layer = localalg._staircase(codes, nvars, order._deg_shift)
    elapsed = time.perf_counter() - start
    assert size == math.comb(nvars + degree - 1, nvars)
    assert top == degree - 1
    assert sorted(layer) == sorted(map(order.encode, _power_of_maximal_ideal(nvars, degree - 1)))
    assert elapsed < 1.0


@pytest.mark.parametrize("nvars", [29, 30])
def test_codimension_in_many_variables(nvars):
    # From 30 variables on the packed codes are at least 2**480 wide;
    # no truncation bound may cut monomials that are still needed.
    vars = tuple(f"x{i}" for i in range(nvars))
    f = P("x0^3+x0^2*x1+x1^3+" + "+".join(f"{v}^2" for v in vars[2:]), vars)
    gradient = [f.partial_derivative(v) for v in vars]
    assert quotient_codimension(standard_basis(gradient)) == 4


def test_codimension_matches_jet_oracle_on_small_ideals():
    cases = [[P("x^2+y^3"), P("x*y")],
             [P("x^3-y^3"), P("x*y^2+y^4")],
             [P("x^4+y^4+x*y^3"), P("2*x^3+y^3")]]
    for gens in cases:
        engine = quotient_codimension(standard_basis(gens))
        oracle = jet_quotient_dimension(gens)
        assert engine == oracle


coeffs = st.integers(-5, 5).filter(bool)
exps2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(st.dictionaries(exps2, coeffs, min_size=1, max_size=4),
       st.dictionaries(exps2, coeffs, min_size=1, max_size=4),
       st.dictionaries(exps2, coeffs, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
# Two draws that stalled under Mora's snapshots: the completion of the
# ideal (y), and a reduction of the combination below.
@example({(1, 1): 1, (1, 2): 2, (0, 4): -4, (4, 3): 4},
         {(0, 1): -2, (3, 2): 2, (4, 4): -2, (3, 1): -2}, {(1, 0): 1})
@example({(2, 0): -4, (2, 1): 1, (1, 4): -4, (4, 4): -1},
         {(2, 0): -5, (1, 3): -2, (4, 1): 4}, {(0, 1): 2, (3, 0): -1})
# A finite colength of 5: the jet oracle below runs.
@example({(2, 0): 1, (0, 3): 1}, {(1, 1): 1}, {(0, 2): 3, (3, 0): 1})
def test_basis_members_reduce_to_zero(d1, d2, d3):
    gens = [Polynomial(V2, d1), Polynomial(V2, d2)]
    gens = [g for g in gens if g]
    if not gens:
        return
    sb = standard_basis(gens)
    for g in sb.generators:
        assert sb.contains(g)
    # random ideal elements are members too
    combo = gens[0] * P("x+y^2") + (gens[-1] * P("3+x*y") if len(gens) > 1 else 0)
    assert sb.contains(combo)
    # Independent oracle, which builds no basis: p is a member exactly
    # when adding it leaves the colength of the ideal as it is.
    colength = quotient_codimension(sb)
    if colength <= 30:
        for p in (combo, Polynomial(V2, d3)):
            assert sb.contains(p) == (jet_quotient_dimension(gens + [p]) == colength)

def test_compounding_snapshots_move_the_completion_to_lazard(monkeypatch):
    # The ideal (y) of the local ring: the snapshots of Mora's first
    # reduction compound their coefficients (56,770 bits after 10 s), so
    # the completion moves to Lazard's homogenization and finishes.  A
    # reduction given a ``degree`` is Lazard's.
    lazard = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, degree=None):
        if degree is not None:
            lazard.append(len(records))
        return reduce(h, records, order, corner_code, work, step_limit, degree=degree)

    monkeypatch.setattr(localalg, "_reduce", spy)
    gens = [P("x*y+2*x*y^2-4*y^4+4*x^4*y^3"), P("-2*y+2*x^3*y^2-2*x^4*y^4-2*x^3*y")]
    sb = standard_basis(gens)
    assert lazard and sb.leading_ideal == ((0, 1),)
    # Lazard's meter: the run's units and records.
    assert (sb._work, len(sb._records)) == (109_657, 34)
    assert quotient_codimension(sb) == INFINITE and sb._layer == []
    for p in gens + [P("y"), P("y+x^9*y")]:
        assert sb.contains(p)
    assert not sb.contains(P("x"))


def test_compounding_non_member_is_decided_through_lazard(monkeypatch):
    # The ideal is not isolated and its leading ideal is (y^2, x^3*y).
    # The leading monomial x*y of p lies outside it, which proves that p
    # is not a member.  The extension's snapshots compound, so the
    # verdict comes from Lazard's completion.
    gens = [P("4*y^2-2*x^4*y^4"), P("4*y^3+2*x^3*y+4*x^4*y^2")]
    sb = standard_basis(gens)
    assert set(sb.leading_ideal) == {(0, 2), (3, 1)}
    assert quotient_codimension(sb) == INFINITE
    p = P("-3*x*y+12*y^4+12*x*y^5-6*x^4*y^6-6*x^5*y^7")
    assert min(p.terms, key=sb.order.encode) == (1, 1)
    lazard = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, degree=None):
        if degree is not None:
            lazard.append(len(records))
        return reduce(h, records, order, corner_code, work, step_limit, degree=degree)

    monkeypatch.setattr(localalg, "_reduce", spy)
    assert not sb.contains(p)
    assert lazard
    # Lazard's meter on that extension.
    ext = extend_standard_basis(sb, [p])
    assert (ext._work, len(ext._records)) == (50_205, 23)


def test_budget_exceeded_inside_lazard_counts_its_pairs(monkeypatch):
    # A three-branch plane curve: under (y,x) Mora's snapshots compound
    # before any corner, and the 250k-unit budget runs out in the 37th
    # reduction of Lazard's completion, with 270 pairs still queued.
    degrees = []
    reduce = localalg._reduce

    def spy(h, records, order, corner_code, work, step_limit, degree=None):
        degrees.append(degree)
        return reduce(h, records, order, corner_code, work, step_limit, degree=degree)

    monkeypatch.setattr(localalg, "_reduce", spy)
    f = P("(y-x^9)*((y+3*x)^2-x^9)*((y+3*x)^3-x^13)")
    grad = [f.partial_derivative(v) for v in V2]
    with pytest.raises(ComputationBudgetExceeded) as exc:
        standard_basis(grad, LocalOrder(V2, ("y", "x")), step_limit=250_000)
    assert exc.value.pairs_left == 270
    assert degrees[-1] is not None
    assert sum(d is not None for d in degrees) == 37


def test_compounding_member_is_decided_by_its_extension_alone(monkeypatch):
    # Mora's reduction of this ideal member by a standard basis compounds
    # its snapshots; adding it leaves the leading ideal as it is, so it
    # is a member, and the extension is the only completion run.
    completions = []
    complete = localalg._complete

    def spy(records, *args):
        completions.append(len(records))
        return complete(records, *args)

    gens = [P("-4*x^2+x^2*y-4*x*y^4-x^4*y^4"), P("-5*x^2-2*x*y^3+4*x^4*y")]
    sb = standard_basis(gens)
    monkeypatch.setattr(localalg, "_complete", spy)
    combo = gens[0] * P("x+y^2") + gens[1] * P("3+x*y")
    assert sb.contains(combo)
    assert len(completions) == 1


def test_lazard_completion_matches_mora(monkeypatch):
    # Differential test of the fallback: forced from the first snapshot
    # reduction on, Lazard's completion finds the same leading ideal and
    # codimension as Mora's, carries the recounted staircase, and its
    # basis contains every generator.
    V3 = ("x", "y", "z")
    germs = [(P(t), V2) for t in ("x^3+y^7+2*x^2*y^3", "x^2*y^2+x^5", "x^2*y^2+y^3*x^3")]
    germs += [(P(t, V3), prec) for t in ("x^2+y^3+z^7+x*y*z", "x^2*y+y^2*z+z^3*x", "x^2+y^2*z")
              for prec in itertools.permutations(V3)]
    ideals = [([f.partial_derivative(v) for v in f.vars], prec, f) for f, prec in germs]
    rng = random.Random(5)
    for _ in range(40):
        gens = [Polynomial(V2, {(rng.randint(0, 4), rng.randint(0, 4)): rng.choice((-3, -1, 2, 5))
                                for _ in range(rng.randint(1, 4))}) for _ in range(2)]
        ideals.append((gens, V2, None))
    mora = [(standard_basis(gens, LocalOrder(gens[0].vars, prec)), f) for gens, prec, f in ideals]
    mora = [(jac, f and extend_standard_basis(jac, [f])) for jac, f in mora]
    monkeypatch.setattr(localalg, "_RUNAWAY_BITS", -1)
    moved = 0
    for (gens, prec, f), (jac, tj) in zip(ideals, mora):
        order = LocalOrder(gens[0].vars, prec)
        lazard = standard_basis(gens, order)
        pairs = [(jac, lazard)] + ([(tj, extend_standard_basis(lazard, [f]))] if f else [])
        for old, new in pairs:
            assert set(new.leading_ideal) == set(old.leading_ideal)
            assert quotient_codimension(new) == quotient_codimension(old)
            stairs = _staircase_of(new._records, order)
            assert new._size == (INFINITE if stairs is None else stairs[0])
            assert sorted(new._layer) == sorted((stairs or (0, 0, []))[2])
        assert all(lazard.contains(g) for g in gens)
        moved += len(lazard._records) != len(jac._records)
    assert moved >= 10
