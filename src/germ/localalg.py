"""Local monomial orders, standard bases, and ideal membership.

Computations happen in the localization of the polynomial ring at the
origin.  The monomial order is negative-degree reverse-lexicographic:
``1`` is the greatest monomial, lower total degree wins, and ties are
broken by the reverse-lexicographic rule under a variable precedence.

Internally every monomial is packed into a single integer with the
total degree in the top bits and one 16-bit field per variable, a guard
bit each.  This makes leading-term lookup an integer ``min``, and
divisibility and the lcm of an s-pair a few bit operations; exponents
above 2**15 - 1 raise :class:`~germ.errors.MonomialOverflowError`
instead of wrapping.  The staircase is counted on the packed codes
too, so exponent tuples appear only where a basis is read back.
Basis elements are integer vectors kept in these packed records from
the input to the final :class:`StandardBasis`; a warm start reuses them
and reduces each new generator modulo them first, and they become
``Polynomial`` objects only when ``generators`` is first read.  An
active remainder is an integer vector with one exact rational scale
(fraction-free reduction with lazy content removal), so every verdict
is exact.  Once the leading ideal has a finite staircase, every
term smaller than its highest corner lies in the ideal and is dropped;
record tails are sorted by code, so a shifted tail is cut there by one
bisection.  Before that, a completion whose Mora snapshots compound
their own coefficients moves to Lazard's homogenization, which needs
no snapshot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from heapq import heappush, heappop
from math import gcd
from typing import Sequence

from .errors import ComputationBudgetExceeded, MonomialOverflowError
from .poly import _MAX_EXPONENT, Monomial, Polynomial

_FIELD_BITS = _MAX_EXPONENT.bit_length() + 1  # one guard bit per field
_FIELD_MASK = (1 << _FIELD_BITS) - 1

#: Return value of :func:`quotient_codimension` for non-isolated input.
INFINITE = math.inf

LESS, EQUAL, GREATER = -1, 0, 1

#: Multiplier size, in bits, past which a completion leaves Mora's
#: snapshots for Lazard's homogenization.  Completions that finish stay
#: below 500 bits before their corner; a snapshot chain that compounds
#: its own coefficients doubles them every few dozen steps.
_RUNAWAY_BITS = 4096


class _Runaway(Exception):
    """A Mora reduction before any corner whose coefficients compound."""


class LocalOrder:
    """Negative-degree reverse-lexicographic order on a fixed ring.

    ``precedence`` lists the variables from greatest to smallest; it
    defaults to the ring's own variable sequence.
    """

    __slots__ = ("variables", "precedence", "_shifts", "_deg_shift", "_low", "_guard")

    def __init__(self, variables: Sequence[str], precedence: Sequence[str] | None = None):
        vs = tuple(variables)
        prec = tuple(precedence) if precedence is not None else vs
        if sorted(prec) != sorted(vs) or len(set(vs)) != len(vs):
            raise ValueError("precedence must be a permutation of the ring variables")
        self.variables = vs
        self.precedence = prec
        # Field j of a packed code holds the exponent of precedence[j];
        # the most significant exponent field is the last precedence
        # variable, so equal-degree codes compare reverse-lex correctly.
        # ``_shifts[i]`` is the offset of the field of ring variable i.
        self._shifts = tuple(_FIELD_BITS * prec.index(name) for name in vs)
        self._deg_shift = _FIELD_BITS * len(vs)
        self._low = (1 << self._deg_shift) - 1  # the exponent fields
        guard = 0
        for j in range(len(vs)):
            guard |= 1 << (_FIELD_BITS - 1 + _FIELD_BITS * j)
        self._guard = guard

    def __eq__(self, other) -> bool:
        return (isinstance(other, LocalOrder)
                and self.variables == other.variables
                and self.precedence == other.precedence)

    def __repr__(self) -> str:
        return f"LocalOrder({self.variables!r}, precedence={self.precedence!r})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- packed codes ---------------------------------------------------

    def encode(self, exps: Monomial) -> int:
        """Pack an exponent vector; smaller codes are greater monomials."""
        if len(exps) != len(self.variables):
            raise ValueError(f"ring mismatch: expected {len(self.variables)} exponents, got {len(exps)}")
        shifts = self._shifts
        code = total = 0
        for i, e in enumerate(exps):
            if e < 0:
                raise ValueError("exponents must be natural numbers")
            if e > _MAX_EXPONENT:
                raise MonomialOverflowError(f"exponent {e} exceeds the machine bound {_MAX_EXPONENT}")
            code |= e << shifts[i]
            total += e
        return (total << self._deg_shift) | code

    def decode(self, code: int) -> Monomial:
        # Plain loops: for two or three fields a generator's frame costs
        # more than the fields themselves.
        exps = []
        for s in self._shifts:
            exps.append(code >> s & _FIELD_MASK)
        return tuple(exps)

    def degree(self, code: int) -> int:
        return code >> self._deg_shift

    def _lcm(self, a: int, b: int) -> int:
        """Packed code of the lcm of two packed codes, their field-wise max.

        On the exponent fields ``(a | guard) - b`` borrows across no guard
        bit, and a field keeps its guard exactly when ``a`` wins it.
        """
        low = self._low
        wins = ((((a & low) | self._guard) - (b & low)) & self._guard) >> (_FIELD_BITS - 1)
        wins = (wins << (_FIELD_BITS - 1)) - wins  # the exponent bits of those fields
        m = (a & wins) | (b & low & ~wins)
        total = 0
        for s in self._shifts:
            total += m >> s & _FIELD_MASK
        return (total << self._deg_shift) | m

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        """``LESS``, ``EQUAL`` or ``GREATER`` as ``m1`` compares to ``m2``."""
        a, b = self.encode(m1), self.encode(m2)
        if a == b:
            return EQUAL
        return GREATER if a < b else LESS


# ----------------------------------------------------------------------
# Internal integer-coefficient representation


class _Rec:
    """A reducer: leading term, tail, and cached order data.

    The tail (the terms without the leading one) is kept as parallel
    lists sorted by packed code: ``keys[0]`` is its greatest monomial
    and ``keys[-1]`` its smallest, and the terms a truncation keeps are
    a prefix.  Lists, not tuples: CPython keeps up to 2,000 freed tuples
    of each length below 20 for reuse, and the short tails of small
    germs left about 130 KB there.
    """

    __slots__ = ("lm", "lc", "keys", "coefs", "ecart")

    def __init__(self, lm, lc, keys, coefs, ecart):
        self.lm = lm
        self.lc = lc
        self.keys = keys
        self.coefs = coefs
        self.ecart = ecart


def _content(terms: dict) -> int:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _strip(terms: dict) -> dict:
    """Divide by the integer content and make the leading coefficient positive."""
    if not terms:
        return terms
    g = _content(terms)
    if terms[min(terms)] < 0:
        g = -g
    if g != 1:
        for k in terms:
            terms[k] //= g
    return terms


def _encode_poly(p: Polynomial, order: LocalOrder) -> dict:
    """Convert to primitive integer coefficients keyed by packed code."""
    den = math.lcm(*[c.denominator for c in p.terms.values()])
    return _strip({order.encode(e): c.numerator * (den // c.denominator)
                   for e, c in p.terms.items()})


def _germ_records(terms: dict, order: LocalOrder) -> tuple[list[_Rec], _Rec]:
    """Records of the nonzero partials of a germ, in ring variable order,
    and of the germ itself, from its nonzero encoding ``terms`` by
    :func:`_encode_poly`, which is left unchanged.

    The partial in ring variable ``i`` maps each code ``k`` with
    exponent ``e = k >> shift_i & _FIELD_MASK`` to ``k`` less one in
    that field and in the degree, with coefficient ``c*e``.  It is a
    nonzero rational multiple of the ``Fraction`` partial, whose
    primitive form with a positive leading coefficient is unique, so
    each record equals the one :func:`_encode_poly` makes of it.  The
    map subtracts one constant, so it keeps the order of the sorted
    encoding: each partial is built sorted, and one gcd and the sign of
    its first coefficient make it primitive.
    """
    codes = sorted(terms)
    coefs = list(map(terms.get, codes))
    grad = []
    for s in order._shifts:
        step = (1 << order._deg_shift) + (1 << s)
        keys, part = [], []
        for k, c in zip(codes, coefs):
            e = k >> s & _FIELD_MASK
            if e:
                keys.append(k - step)
                part.append(c * e)
        if keys:
            g = gcd(*part)
            if part[0] < 0:
                g = -g
            grad.append(_sorted_rec(keys, [c // g for c in part] if g != 1 else part, order))
    return grad, _sorted_rec(codes, coefs, order)


def _decode_poly(terms: dict, order: LocalOrder) -> Polynomial:
    return Polynomial(order.variables, {order.decode(k): Fraction(c) for k, c in terms.items()})


def _make_rec(terms: dict, order: LocalOrder) -> _Rec:
    codes = sorted(terms)
    return _sorted_rec(codes, list(map(terms.get, codes)), order)


def _sorted_rec(keys: list, coefs: list, order: LocalOrder) -> _Rec:
    """The record of the terms with ascending codes ``keys`` and ``coefs``."""
    return _Rec(keys[0], coefs[0], keys[1:], coefs[1:],
                order.degree(keys[-1]) - order.degree(keys[0]))


def _cut(rec: _Rec, corner_code: int, order: LocalOrder) -> _Rec:
    """``rec`` without its tail terms at or beyond ``corner_code``, made
    primitive again; ``rec`` itself is left unchanged.

    The kept terms are a prefix of the sorted tail, and the leading
    coefficient stays positive, so the cut is one slice and one gcd.
    """
    n = bisect_left(rec.keys, corner_code)
    keys, coefs = rec.keys[:n], rec.coefs[:n]
    g = rec.lc
    for c in coefs:
        if g == 1:
            break
        g = gcd(g, c)
    if g != 1:
        coefs = [c // g for c in coefs]
    ecart = order.degree(keys[-1]) - order.degree(rec.lm) if keys else 0
    return _Rec(rec.lm, rec.lc // g, keys, coefs, ecart)


def _beyond_codes(order: LocalOrder) -> int:
    """Truncation code above every packed code of ``order``.

    Each exponent field holds less than ``2**_FIELD_BITS`` even after
    adding two in-range monomials, so every degree stays below
    ``nvars << _FIELD_BITS``; the code is the truncation bound used
    while no corner is certified.
    """
    return (order.nvars << _FIELD_BITS) << order._deg_shift


# ----------------------------------------------------------------------
# Standard bases


class StandardBasis:
    """A standard basis, kept as the packed records of its completion.

    The records stay its only representation: ``leading_ideal`` (the
    minimal generators of the leading-term ideal) is read off their
    leading monomials and ``generators`` are decoded to polynomials,
    each on first access.  The completion also hands over what it knows
    of the staircase of the leading ideal: ``_layer``, the packed codes
    of its top layer (exact whenever the staircase is finite and not
    empty, empty otherwise), and ``_size``, the number of its monomials
    (:data:`INFINITE` when it is infinite), or None when a record with a
    new leading monomial came after the last count; ``_work`` is the
    work units that completion charged.  :meth:`contains` decides ideal
    membership.
    """

    def __init__(self, records: list[_Rec], order: LocalOrder,
                 layer: list[int], size: int | float | None, work: int):
        self.order = order
        self._records = records
        self._layer = layer
        self._size = size
        self._work = work

    @cached_property
    def leading_ideal(self) -> tuple[Monomial, ...]:
        return tuple(_minimalize([self.order.decode(r.lm) for r in self._records]))

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        return tuple(_decode_poly({**dict(zip(r.keys, r.coefs)), r.lm: r.lc}, self.order)
                     for r in self._records)

    def contains(self, p: Polynomial) -> bool:
        """Whether ``p`` lies in the ideal of this basis in the local ring.

        The ideal is contained in the ideal enlarged by ``p``, and in the
        local ring two such ideals are equal exactly when their leading
        ideals are (Greuel-Pfister, *A Singular Introduction to
        Commutative Algebra*, sec. 1.6-1.7): ``p`` is a member exactly
        when :func:`extend_standard_basis` leaves the leading ideal as it
        is.  Below a certified corner that extension reduces ``p`` with
        no snapshot, and before one it moves to Lazard's completion when
        snapshots compound, so every verdict terminates.  The basis is
        left unchanged; a ``p`` from another ring raises ``ValueError``.
        """
        return set(extend_standard_basis(self, [p]).leading_ideal) == set(self.leading_ideal)


def _minimalize(gens: Sequence[Monomial]) -> list[Monomial]:
    """Minimal generators of a monomial ideal under divisibility."""
    unique = sorted(set(gens), key=lambda e: (sum(e), e))
    out: list[Monomial] = []
    for m in unique:
        if not any(all(x >= y for x, y in zip(m, d)) for d in out):
            out.append(m)
    return out


def _coprime_skip(f: _Rec, g: _Rec, lcm_code: int) -> bool:
    """Sound product criterion for local orders.

    With coprime leading monomials the s-polynomial equals
    ``tail(f)*g - tail(g)*f``, which is a standard representation unless
    the leading terms of the two products cancel exactly.  Cancellation
    cannot happen in a global order but can locally, so the pair is only
    skipped when it provably does not.  The leading monomials are
    coprime exactly when their lcm ``lcm_code`` is their product.
    """
    if lcm_code != f.lm + g.lm:
        return False
    if not f.keys or not g.keys or f.keys[0] + g.lm != g.keys[0] + f.lm:
        return True
    return f.coefs[0] * g.lc != g.coefs[0] * f.lc


def _staircase(codes: Sequence[int], nfields: int,
               deg_shift: int) -> tuple[int, int, list[int]] | None:
    """Size, largest degree and top layer of the staircase of a monomial ideal.

    ``codes`` packs any generating set in ``nfields`` exponent fields
    with nothing above them, in a ring whose degree sits at
    ``deg_shift``; None when the staircase is infinite.  Slicing on the
    most significant field, of a variable ``z``: with ``z^p`` the
    smallest pure power of ``z`` (none leaves the staircase infinite),
    the staircase is the disjoint union over ``c < p`` of ``z^c`` times
    the staircase of the slice generated by the generators with
    ``z``-exponent at most ``c``, that field dropped.  Sorted codes
    ascend in ``z``-exponent, so the slice grows along them and changes
    only at such an exponent: each distinct slice is counted once for
    its run of ``c``.  No slice contains 1, which would take a power
    ``z^e`` with ``e <= c < p``, so each adds to the staircase.  The top
    layer lists the full packed codes of the staircase monomials of
    largest degree: the layers of the slices that reach it, each lifted
    at the last ``c`` of its run.  The largest degree is -1 and the
    layer empty when the staircase is empty.
    """
    codes = sorted(codes)
    shift = _FIELD_BITS * (nfields - 1)  # of the slicing field
    if not shift:
        if not codes:
            return None
        e = codes[0]
        return (e, e - 1, [(e - 1) * ((1 << deg_shift) + 1)]) if e else (0, -1, [])
    low = (1 << shift) - 1  # the fields of a slice
    for k in codes:
        if not k & low:  # the first pure power is the smallest
            p = k >> shift
            break
    else:
        return None
    lift = (1 << shift) + (1 << deg_shift)  # z times a packed code
    count, top, layer = 0, -1, []
    cut: list[int] = []  # the current slice
    i = c = 0
    while c < p:
        while codes[i] >> shift <= c:
            cut.append(codes[i] & low)
            i += 1
        run_end = codes[i] >> shift  # the pure power z^p keeps this at most p
        part = _staircase(cut, nfields - 1, deg_shift)
        if part is None:
            return None
        size, t, lay = part
        count += (run_end - c) * size
        t += run_end - 1
        if t > top:
            top, layer = t, []
        if t == top:
            up = (run_end - 1) * lift
            layer += [m + up for m in lay]
        c = run_end
    return count, top, layer


def _staircase_of(records: Sequence[_Rec], order: LocalOrder) -> tuple[int, int, list[int]] | None:
    """``(size, largest degree, top layer)`` of the staircase of a leading ideal.

    None while some variable still lacks a pure power (the staircase is
    infinite), ``(0, -1, [])`` when the ideal contains 1.
    """
    low = order._low
    return _staircase([r.lm & low for r in records], order.nvars, order._deg_shift)


def _add_shifted(h: dict, a: int, s: int, rec: _Rec, corner_code: int,
                 order: LocalOrder) -> int:
    """``h += a * x^s * tail(rec)`` in place, dropping codes at or above
    ``corner_code``; returns the number of tail terms visited.

    ``k + s < corner_code`` exactly when ``k < corner_code - s``, so the
    kept terms are the prefix of the sorted tail up to a bisection, and
    the terms past it are never visited.  A field past ``_MAX_EXPONENT``
    makes the degree exceed it too, and the last kept code has the
    largest degree, so the guard bits are tested term by term only when
    that degree exceeds the bound: never below a corner of degree at
    most ``_MAX_EXPONENT``.
    """
    keys = rec.keys[:bisect_left(rec.keys, corner_code - s)]
    if keys and order.degree(keys[-1] + s) > _MAX_EXPONENT and any(
            (k + s) & order._guard for k in keys):
        raise MonomialOverflowError("intermediate exponent exceeds the machine bound")
    get = h.get
    for k, c in zip(keys, rec.coefs):
        k += s
        v = get(k)
        if v is None:
            h[k] = a * c
        else:
            v += a * c
            if v:
                h[k] = v
            else:
                del h[k]
    return len(keys)


def _reduce(h: dict, records: list[_Rec], order: LocalOrder, corner_code: int,
            work: list, step_limit: int | None, degree: int | None = None) -> dict:
    """Reduce the integer vector ``h`` by ``records`` to its remainder.

    Returns the remainder as a primitive integer vector, empty when
    ``h`` reduced to zero; terms at or above ``corner_code`` are
    dropped.  Past a certified corner that code is one past the packed
    code of the highest corner, so every dropped term is a monomial
    smaller than the corner and lies in the ideal.  Reducers from
    ``records`` are scanned first, then the snapshots of this
    reduction, earliest first and minimal ecart winning.  Snapshots are
    taken only while ``corner_code`` is the :func:`_beyond_codes` bound:
    they are Mora's device for termination.  Below a certified corner
    only finitely many monomials remain and every step lowers the
    leading one, so plain reduction terminates.

    With ``degree`` given the reduction is Lazard's instead: ``h`` is
    read as homogeneous of that degree, a reducer qualifies only if its
    ecart is at most ``degree`` minus the degree of the leading
    monomial, no snapshot is taken, and the remainder is returned as
    soon as the minimal-ecart reducer does not qualify.  Otherwise a
    snapshot reduction whose multiplier passes :data:`_RUNAWAY_BITS`
    bits raises :class:`_Runaway`.

    The reduction is fraction-free: the active remainder is the integer
    vector ``h`` times the rational scale ``sn/sd``.  A step by a reducer
    with leading coefficient ``lc``, where ``a = h[lm]`` and
    ``g = gcd(a, lc)``, sets ``h <- (lc/g)*h - (a/g)*x^s*tail`` and
    ``sd <- sd*lc/g``: one gcd per step, where rational coefficients
    need one per term.  The multipliers ``lc/g`` would compound, but
    most of their growth is common to all coefficients, so the content
    of ``h`` moves into ``sn`` each time the scale has grown by more
    than 64 bits since the last move (lazy content removal, as in Greuel-Pfister, *A
    Singular Introduction to Commutative Algebra*).  The integers then
    stay about as long as the numerators and denominators of the
    rational remainder: at most 773 against 717 bits in the warm
    Tjurina run of the paper's germ under (y,x,z) in ring (x,y,z), and
    193 against 190 bits over the seven attempts of its Jacobian
    portfolio (six 15,625-unit probes and the 1M-unit win).
    """
    guard = order._guard
    shift = order._deg_shift
    mora = corner_code == _beyond_codes(order)
    reducers = list(records)  # this reduction's snapshots are appended
    h = {k: v for k, v in h.items() if k < corner_code}
    sn = sd = 1
    grown = 0  # bits the scale has grown since the last content removal
    while h:
        lm_h = min(h)
        best = None
        best_ecart = None
        for r in reducers:
            if ((lm_h | guard) - r.lm) & guard == guard:
                e = r.ecart
                if best is None or e < best_ecart:
                    best, best_ecart = r, e
                    if e == 0:
                        break
        if best is None:
            return _strip(h)
        if mora:
            top = max(h) >> shift if degree is None else degree
            if best_ecart > top - (lm_h >> shift):
                if degree is not None:
                    return _strip(h)
                reducers.append(_make_rec(_strip(dict(h)), order))
        a = h.pop(lm_h)
        lc = best.lc
        if mora:
            # Before a corner the snapshots compound the coefficients, so
            # a step is surcharged on the multiplier a*sn/(sd*lc) of the
            # rational remainder h*sn/sd, in lowest terms: a tail-term
            # operation with a b-bit multiplier costs about 1 + b/128 +
            # (b/512)^2 times one on small integers (measured).  Below
            # 128 bits nothing is added; above it a reduction whose own
            # snapshots compound fails its budget in proportion to its
            # real cost.
            num = a * sn
            den = sd * lc
            g = gcd(num, den)
            bits = (num // g).bit_length() + (den // g).bit_length()
            if degree is None and bits > _RUNAWAY_BITS:
                raise _Runaway
        g = gcd(a, lc)
        m = lc // g
        if m != 1:
            h = {k: c * m for k, c in h.items()}
            sd *= m
            grown += m.bit_length()
        # Work is metered in the tail terms the step visits, those below
        # the corner, one unit for the leading term, and the surcharge.
        n = _add_shifted(h, -(a // g), lm_h - best.lm, best, corner_code, order)
        work[0] += n + 1
        if mora:
            work[0] += (bits >> 3) + n * ((bits >> 7) + (bits * bits >> 18))
        if step_limit is not None and work[0] > step_limit:
            raise ComputationBudgetExceeded(f"standard-basis run exceeded {step_limit} work units")
        if grown > 64 and h:
            grown = 0
            c = _content(h)
            if c != 1:
                for k in h:
                    h[k] //= c
                sn *= c
                g = gcd(sn, sd)
                sn //= g
                sd //= g
    return h


def _spoly(f: _Rec, g: _Rec, lcm_code: int, order: LocalOrder,
           corner_code: int) -> dict:
    """S-polynomial of ``f`` and ``g`` at ``lcm_code``, with the integer
    multipliers ``g.lc/d`` and ``f.lc/d`` for ``d = gcd(f.lc, g.lc)``.

    The leading terms cancel exactly, so only the tails are added.
    """
    d = gcd(f.lc, g.lc)
    out: dict = {}
    _add_shifted(out, g.lc // d, lcm_code - f.lm, f, corner_code, order)
    _add_shifted(out, -(f.lc // d), lcm_code - g.lm, g, corner_code, order)
    return out


def _complete(records: list[_Rec], start_pairs_from: int, order: LocalOrder,
              step_limit: int | None = None, outside: Sequence[int] = (),
              size: int | float | None = None) -> StandardBasis:
    """Buchberger completion with Mora normal forms.

    Pairs are processed by ascending lcm degree, ties by creation order,
    and each s-polynomial is reduced to its remainder in one call.
    Pairs among ``records[:start_pairs_from]`` are assumed to reduce to
    zero already (warm start); ``outside`` and ``size`` are then the top
    layer (the largest-degree codes) and the size of their staircase, as
    a :class:`StandardBasis` carries them.  When that staircase has a
    certified corner (a non-empty top layer, or the unit ideal), each
    appended record is first reduced modulo the old ones below it, with
    no snapshot, so ``c*f - r`` lies in their ideal for a nonzero
    integer ``c``: a zero remainder is dropped, and a nonzero one, whose
    leading monomial is new, takes the record's place before any pair
    is formed.

    As soon as the current leading terms have a finite staircase, every
    later computation is truncated at its highest corner, the smallest
    monomial outside the leading ideal (``corner_code`` is one past its
    packed code; the bound keeps improving as the basis grows).  Every
    smaller monomial lies in the leading ideal, hence in the ideal
    itself (Greuel-Pfister, *A Singular Introduction to Commutative
    Algebra*, sec. 1.7; Singular's ``kNoether``), so work at or beyond
    the bound reduces to zero for free.  Mora's ecart snapshots are
    taken only until a corner is certified: below it the monomials are
    finitely many, so plain reduction terminates.  A warm start from a
    basis with a corner never takes one.

    The highest corner is the largest code in the staircase's top
    layer, its monomials of largest degree.  The completion keeps that
    layer and removes the multiples of each new leading monomial from
    it, the warm start's appended records included; the staircase
    recursion runs only when the layer is empty: at the start of a run
    from scratch and whenever the layer empties.  Its count stays with
    the layer while every new leading monomial is divisible by an old
    one, and is dropped otherwise, so the returned basis carries it
    exact or not at all.  Whenever the corner moves, the records whose
    smallest monomial lies at or beyond it are truncated and made
    primitive again.

    A run that goes past ``step_limit``, those first reductions
    included, raises :class:`ComputationBudgetExceeded` with
    ``pairs_left`` set to the number of s-pairs still queued.
    """
    guard = order._guard
    heap: list = []  # (lcm degree, seq, i, j, lcm_code)
    pending: set[tuple[int, int]] = set()
    seq = 0
    corner_code = _beyond_codes(order)  # codes at or above it are truncated
    work = [0]

    def refresh_corner(new: Sequence[_Rec]) -> None:
        nonlocal corner_code, outside, size
        for r in new:
            outside = [k for k in outside if ((k | guard) - r.lm) & guard != guard]
        if not outside:
            stairs = _staircase_of(records, order)
            if stairs is None:
                size = INFINITE
                return
            size, _, outside = stairs
        # One past the highest corner; 0 when the staircase is empty.
        code = max(outside) + 1 if outside else 0
        if code == corner_code:
            return
        corner_code = code
        for t, r in enumerate(records):
            if r.keys and r.keys[-1] >= corner_code:
                records[t] = _cut(r, corner_code, order)

    def push_pairs(t: int) -> None:
        nonlocal seq
        lm = records[t].lm
        for i in range(t):
            lcm_code = order._lcm(records[i].lm, lm)
            heappush(heap, (order.degree(lcm_code), seq, i, t, lcm_code))
            pending.add((i, t))
            seq += 1

    new = records[start_pairs_from:]
    if start_pairs_from and (outside or size == 0):
        # Membership first: below a certified corner a new generator
        # reduces to zero exactly when it lies in the ideal.
        base = records[:start_pairs_from]
        base_corner = max(outside) + 1 if outside else 0
        try:
            rems = [_reduce({**dict(zip(r.keys, r.coefs)), r.lm: r.lc}, base, order,
                            base_corner, work, step_limit) for r in new]
        except ComputationBudgetExceeded as exc:
            exc.pairs_left = 0  # no pair is formed yet
            raise
        new = records[start_pairs_from:] = [_make_rec(rem, order) for rem in rems if rem]
        if not new:
            return StandardBasis(records, order, outside, size, work[0])
    if any(all(((r.lm | guard) - o.lm) & guard != guard for o in records[:start_pairs_from])
           for r in new):
        size = None  # a new leading monomial
    refresh_corner(new)
    for t in range(start_pairs_from, len(records)):
        push_pairs(t)

    while heap:
        _, _, i, j, lcm_code = heappop(heap)
        pending.discard((i, j))
        if lcm_code >= corner_code:
            continue  # the s-polynomial lives beyond the bound
        fi, gj = records[i], records[j]
        if _coprime_skip(fi, gj, lcm_code):
            continue
        # Chain criterion: skip when some other leading monomial divides
        # the lcm and both companion pairs were already treated.
        lcm_guard = lcm_code | guard
        if any((lcm_guard - r.lm) & guard == guard and k != i and k != j
               and ((i, k) if i < k else (k, i)) not in pending
               and ((j, k) if j < k else (k, j)) not in pending
               for k, r in enumerate(records)):
            continue
        try:
            rem = _reduce(_spoly(fi, gj, lcm_code, order, corner_code), records, order,
                          corner_code, work, step_limit)
        except ComputationBudgetExceeded as exc:
            exc.pairs_left = len(heap)
            raise
        except _Runaway:
            # Only raised before a corner, so no record was truncated.
            return _complete_homogeneous(records, order, work, step_limit)
        if rem:
            # No leading monomial of ``records`` divides the remainder's.
            records.append(_make_rec(rem, order))
            size = None
            push_pairs(len(records) - 1)
            refresh_corner(records[-1:])
    return StandardBasis(records, order, outside, size, work[0])


def _complete_homogeneous(records: list[_Rec], order: LocalOrder, work: list,
                          step_limit: int | None) -> StandardBasis:
    """Lazard's completion: Buchberger's algorithm on the homogenized records.

    A record stands for its homogenization by a new variable ``t``,
    whose leading monomial is ``t^ecart`` times the record's.  The
    homogenized order compares degree first and then the local order,
    so it is a well-order: every reduction is plain, with no snapshot,
    and the run terminates.  Setting ``t = 1`` in a Groebner basis of
    the homogenized ideal gives a standard basis of the local ideal
    (Greuel-Pfister, *A Singular Introduction to Commutative Algebra*,
    sec. 1.7).  Remainders are stored dehomogenized, so a power of
    ``t`` dividing one is dropped; that keeps the records in the
    saturation of the homogenized ideal, whose dehomogenization is
    still the local ideal.  All pairs are treated, the ones a Mora run
    already reduced included, and no term is truncated.
    """
    guard = order._guard
    beyond = _beyond_codes(order)
    heap: list = []  # (pair degree, seq, i, j, lcm_code, larger ecart)
    pending: set[tuple[int, int]] = set()
    seq = 0

    def push_pairs(t: int) -> None:
        nonlocal seq
        r = records[t]
        for i in range(t):
            lcm_code = order._lcm(records[i].lm, r.lm)
            top = max(records[i].ecart, r.ecart)
            heappush(heap, (order.degree(lcm_code) + top, seq, i, t, lcm_code, top))
            pending.add((i, t))
            seq += 1

    for t in range(len(records)):
        push_pairs(t)
    while heap:
        degree, _, i, j, lcm_code, top = heappop(heap)
        pending.discard((i, j))
        fi, gj = records[i], records[j]
        if lcm_code == fi.lm + gj.lm and min(fi.ecart, gj.ecart) == 0:
            continue  # coprime homogenized leading monomials
        lcm_guard = lcm_code | guard
        if any((lcm_guard - r.lm) & guard == guard and r.ecart <= top and k != i and k != j
               and ((i, k) if i < k else (k, i)) not in pending
               and ((j, k) if j < k else (k, j)) not in pending
               for k, r in enumerate(records)):
            continue
        try:
            rem = _reduce(_spoly(fi, gj, lcm_code, order, beyond), records, order,
                          beyond, work, step_limit, degree)
        except ComputationBudgetExceeded as exc:
            exc.pairs_left = len(heap)
            raise
        if rem:
            records.append(_make_rec(rem, order))
            push_pairs(len(records) - 1)
    size, _, layer = _staircase_of(records, order) or (INFINITE, 0, [])
    return StandardBasis(records, order, layer, size, work[0])


def _prepare_records(gens: Sequence[Polynomial | _Rec], order: LocalOrder) -> list[_Rec]:
    """Records of ``gens``: a record packed in ``order`` (from
    :func:`_germ_records`) is kept as it is, a polynomial is encoded."""
    records = []
    for p in gens:
        if isinstance(p, _Rec):
            records.append(p)
            continue
        if p.vars != order.variables:
            raise ValueError("all generators must live in the ring of the order")
        terms = _encode_poly(p, order)
        if terms:
            records.append(_make_rec(terms, order))
    return records


def standard_basis(gens: Sequence[Polynomial], order: LocalOrder | None = None, *,
                   step_limit: int | None = None) -> StandardBasis:
    """Standard basis of the ideal generated by ``gens`` in the local ring.

    Monomial input comes back as it went in, made primitive: every
    s-polynomial of two monomials is zero.  Packed records of ``order``
    (see :func:`_germ_records`) may stand in for polynomials.
    """
    gens = [p for p in gens if p]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if order is None:
        order = LocalOrder(gens[0].vars)
    return _complete(_prepare_records(gens, order), 0, order, step_limit)


def extend_standard_basis(basis: StandardBasis, extra: Sequence[Polynomial], *,
                          step_limit: int | None = None) -> StandardBasis:
    """Complete ``basis`` to a standard basis of the enlarged ideal.

    Pairs among the existing generators are not reconsidered, which
    makes this a cheap warm start when one generator is appended.  The
    completion starts from the records of ``basis``, each primitive
    with a positive leading coefficient, and from the top layer and
    count of its staircase: the staircase is counted again only if that
    layer empties, and the count carries over while every new leading
    monomial is divisible by an old one.  When that staircase has a
    certified corner, each new generator is reduced modulo the records
    first and only a nonzero remainder is appended: an extension by
    members of the ideal returns the records, layer and count of
    ``basis``, which are shared and never changed.
    """
    order = basis.order
    new = _prepare_records(extra, order)
    if not new:
        return basis
    records = list(basis._records)
    start = len(records)
    records.extend(new)
    return _complete(records, start, order, step_limit, basis._layer, basis._size)


# ----------------------------------------------------------------------
# Codimension of the quotient


def quotient_codimension(basis: StandardBasis) -> int | float:
    """Vector-space dimension of the local ring modulo the ideal.

    Finite exactly when every variable has a pure power in the leading
    ideal; returns :data:`INFINITE` otherwise.  The count that the
    completion carried is read back; the staircase is counted only when
    a record with a new leading monomial came after the completion's
    last count, and that count is kept with the basis.
    """
    if basis._size is None:
        stairs = _staircase_of(basis._records, basis.order)
        basis._size = INFINITE if stairs is None else stairs[0]
    return basis._size
