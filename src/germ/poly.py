"""Sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent vectors (one natural number per
ring variable) to nonzero ``Fraction`` coefficients.  All arithmetic is
exact: there is no floating point anywhere in this package, so equality
of polynomials and of computed dimensions is always decidable.

The text grammar accepted by :func:`parse_polynomial` (whitespace is
insignificant, multiplication by juxtaposition is allowed)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor (('*' factor) | factor)*
    factor   := rational | var ['^' nat] | '(' expr ')' ['^' nat]
    rational := nat ['/' nat]
    var      := letter (letter | digit)*
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import (ExpansionTooLargeError, MonomialOverflowError, ParseError,
                     UnknownVariableError)

#: Exponent vector of a monomial, one entry per ring variable.
Monomial = tuple[int, ...]

#: Largest exponent the basis engine packs (a 16-bit field with a guard
#: bit, see :mod:`germ.localalg`); the parser rejects larger powers
#: before expanding them.
_MAX_EXPONENT = (1 << 15) - 1

#: Most compositions a power may walk (see :func:`_compositions`), and
#: so most terms it may have, and most term products a product may
#: make; the parser rejects a larger power or product before expanding
#: it.  The worst power it accepts, ``(x+y+z)^445``, expands in about
#: half a second.
_MAX_POWER_TERMS = 100_000

#: Most bits (see :func:`_coeff_bits`) the parser lets the coefficients
#: of a power, a product or the parsed polynomial reach; it rejects a
#: larger power or product before expanding it.  A coefficient of at
#: most this many bits has at most 4,215 decimal digits, below Python's
#: default limit of 4,300 on converting an int to text, so every
#: polynomial the parser accepts prints.  ``(x+y)^14000`` is the largest
#: power of ``x+y`` it accepts.
_MAX_COEFF_BITS = 14_000

Scalar = int | Fraction

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


@functools.lru_cache(maxsize=256)
def _check_ring(vs: tuple) -> tuple[str, ...]:
    """``vs`` if it names a polynomial ring, else ``ValueError``.

    Cached, so each ring is checked once; a rejection raises and is
    never cached.
    """
    if not vs:
        raise ValueError("a polynomial ring needs at least one variable")
    if len(set(vs)) != len(vs):
        raise ValueError("ring variables must be pairwise distinct")
    for name in vs:
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
    return vs


def _compositions(t: int, n: int) -> int:
    """C(n+t-1, t-1): the ways to write n as an ordered sum of t naturals.

    A power of a polynomial with t terms is expanded by one walk over
    them, so this also bounds the terms the power can have.
    """
    return math.comb(n + t - 1, t - 1) if t else int(not n)


def _coeff_bits(p: "Polynomial") -> int:
    """Bits ``b`` with every numerator and denominator of ``p`` at most ``2**b``.

    Over the common denominator ``D`` the coefficients are integers of
    absolute sum ``S``, and ``b`` is the larger of ``(S-1).bit_length()``
    and ``(D-1).bit_length()``.  Every coefficient of ``p**n`` is at most
    ``S**n`` over ``D**n``, so ``n*b`` bounds the power, and a product is
    bounded by the sum of the bits of its factors.  ``S-1`` keeps
    ``x^32767`` (``S = 1``) at 0 bits.
    """
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    total = sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values())
    return max((total - 1).bit_length(), (den - 1).bit_length())


def _check_coeff_bits(bits: int, what: str, pos: int) -> None:
    if bits > _MAX_COEFF_BITS:
        raise ExpansionTooLargeError(
            f"{what} has coefficients of up to {bits} bits, past the bound "
            f"{_MAX_COEFF_BITS} (at position {pos})")


def _print_key(exps: Monomial):
    # Decreasing local order: lower total degree first, ties broken
    # reverse-lexicographically (the last differing variable decides).
    return (sum(exps), tuple(reversed(exps)))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Instances are value objects: no operation mutates an existing
    polynomial, so they are safe to share between concurrent tasks.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Monomial, Scalar] | Iterable = ()):
        vs = tuple(vars)
        try:
            vs = _check_ring(vs)
        except TypeError:  # an unhashable name
            raise ValueError(f"invalid variable names {vs!r}") from None
        n = len(vs)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for exps, coeff in items:
            e = tuple(exps)
            if len(e) != n:
                raise ValueError(f"exponent vector {e} does not match ring of {n} variables")
            if any(not isinstance(x, int) or x < 0 for x in e):
                raise ValueError(f"exponents must be natural numbers, got {e}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if e in clean:
                c += clean[e]
            if c:
                clean[e] = c
            else:
                clean.pop(e, None)
        self.vars = vs
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Polynomial":
        # Internal fast path: caller guarantees normalized input.
        obj = object.__new__(cls)
        obj.vars = vars
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: Sequence[str], value: Scalar) -> "Polynomial":
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Polynomial":
        vs = tuple(vars)
        if name not in vs:
            raise UnknownVariableError(name)
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), _ZERO)

    def min_degree(self) -> int:
        """Order of vanishing at the origin; undefined for the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no order")
        return min(sum(e) for e in self.terms)

    # -- ring arithmetic ----------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"ring mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.vars, other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in rhs.terms.items():
            v = out.get(e, _ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._raw(self.vars, {})
            return Polynomial._raw(self.vars, {e: k * c for e, k in self.terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in rhs.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e, _ZERO) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        """``self ** n`` by the multinomial theorem.

        One walk over the compositions k of n into the t terms ``c_i*m_i``
        (:func:`_compositions` counts them) adds
        ``n!/prod(k_i!) * prod(c_i**k_i)`` to the monomial
        ``prod(m_i**k_i)``.  Coefficients are integers over the common
        denominator D of the ``c_i`` (divided by ``D**n`` once, at the
        end) and monomials are packed into one integer with a field per
        variable wide enough for ``n`` times the largest exponent, so a
        composition costs a few integer operations.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a natural number")
        if not n or not self.terms:
            return Polynomial.constant(self.vars, 0 if n else 1)
        if len(self.terms) == 1:  # the tables below would hold n powers of c
            (e, c), = self.terms.items()
            return Polynomial._raw(self.vars, {tuple(n * x for x in e): c ** n})
        exps = list(self.terms)
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        width = (n * max(max(e) for e in exps)).bit_length() or 1
        shifts = range(0, width * len(self.vars), width)
        codes = [sum(x << s for x, s in zip(e, shifts)) for e in exps]
        # The powers 0..n of each numerator: with t >= 2 terms the result
        # holds a multiple of each, so the tables are no larger than it.
        powers = [list(accumulate(repeat(c.numerator * (den // c.denominator), n), mul, initial=1))
                  for c in self.terms.values()]
        last = len(exps) - 1
        out: dict[int, int] = {}
        get = out.get
        # (term i, exponent left for terms i.., packed monomial and
        # coefficient of the exponents chosen for terms before i)
        stack = [(0, n, 0, 1)]
        while stack:
            i, r, code, c = stack.pop()
            if not r:  # terms i.. all take exponent 0
                out[code] = get(code, 0) + c
                continue
            ci, pi = codes[i], powers[i]
            binom = 1  # C(r, k)
            if i == last - 1:  # the last term takes r - k
                cl, pl = codes[last], powers[last]
                for k in range(r + 1):
                    key = code + k * ci + (r - k) * cl
                    out[key] = get(key, 0) + c * binom * (pi[k] * pl[r - k])
                    binom = binom * (r - k) // (k + 1)
            else:
                for k in range(r + 1):
                    stack.append((i + 1, r - k, code + k * ci, c * binom * pi[k]))
                    binom = binom * (r - k) // (k + 1)
        mask = (1 << width) - 1
        scale = den ** n
        frac = Fraction if scale == 1 else lambda v: Fraction(v, scale)
        return Polynomial._raw(self.vars, {tuple(key >> s & mask for s in shifts): frac(v)
                                           for key, v in out.items() if v})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; use explicit keys if needed

    # -- calculus and gradings ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to ``var``."""
        try:
            i = self.vars.index(var)
        except ValueError:
            raise UnknownVariableError(var) from None
        out: dict[Monomial, Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return Polynomial._raw(self.vars, out)

    def is_weighted_homogeneous(self, weights: Sequence[Scalar], degree: Scalar) -> bool:
        """True iff every monomial has weighted degree ``degree``.

        Vacuously true for the zero polynomial.
        """
        ws = [Fraction(w) for w in weights]
        if len(ws) != len(self.vars):
            raise ValueError(f"expected {len(self.vars)} weights, got {len(ws)}")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        d = Fraction(degree)
        return all(sum(w * x for w, x in zip(ws, e)) == d for e in self.terms)

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        text = ""
        for e, c in sorted(self.terms.items(), key=lambda kv: _print_key(kv[0])):
            num, den = c.numerator, c.denominator
            sign = "+"
            if num < 0:
                sign, num = "-", -num
            mono = "*".join([f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k])
            mag = str(num) if den == 1 else f"{num}/{den}"
            if not mono:
                text += sign + mag
            elif num == 1 and den == 1:
                text += sign + mono
            else:
                text += sign + mag + "*" + mono
        return text[1:] if text[0] == "+" else text

    def __repr__(self) -> str:
        return f"Polynomial({self.vars!r}, {str(self)!r})"


# Shared coefficients: a Fraction is immutable, so every polynomial may hold them.
_ZERO = Fraction(0)
_ONE = Fraction(1)


# ----------------------------------------------------------------------
# Parsing


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes '²' and '١'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(_Token("nat", int(text[i:j]), i))
            i = j
        elif ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", None, n))
    return out


class _Parser:
    _FACTOR_START = ("nat", "name", "(")

    def __init__(self, tokens: list[_Token], vars: tuple[str, ...]):
        self.tokens = tokens
        self.k = 0
        self.vars = vars

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expr(self) -> Polynomial:
        """Sum of the terms, each added in place into one dict, so a long
        sum parses in time linear in its length."""
        negate = self.peek().kind == "-"
        if negate:
            self.advance()
        out: dict[Monomial, Fraction] = {}
        get = out.get
        while True:
            for e, c in self.term().terms.items():
                v = get(e, _ZERO) + (-c if negate else c)
                if v:
                    out[e] = v
                else:
                    del out[e]
            if self.peek().kind not in ("+", "-"):
                return Polynomial._raw(self.vars, out)
            negate = self.advance().kind == "-"

    def term(self) -> Polynomial:
        """Product of the factors, each product bounded before it expands.

        A product of polynomials with ``s`` and ``t`` terms makes ``s*t``
        term products: past :data:`_MAX_POWER_TERMS` it is rejected, as
        is one past :data:`_MAX_COEFF_BITS`.  The bits of each factor are
        worked out once and summed along the product; the sum bounds
        the bits of the product, so the product is walked again only
        when the sum passes the bound.
        """
        result, bits = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "*":
                self.advance()
            elif kind not in self._FACTOR_START:
                return result
            pos = self.peek().pos
            rhs, rhs_bits = self.factor()
            count = len(result.terms) * len(rhs.terms)
            if count > _MAX_POWER_TERMS:
                raise ExpansionTooLargeError(
                    f"product makes {count} term products, past the bound "
                    f"{_MAX_POWER_TERMS} (at position {pos})")
            bits += rhs_bits
            if bits > _MAX_COEFF_BITS:
                bits = _coeff_bits(result) + _coeff_bits(rhs)
                _check_coeff_bits(bits, "product", pos)
            result = result * rhs

    def factor(self) -> tuple[Polynomial, int]:
        """The next factor and a bound on its bits (see :func:`_coeff_bits`)."""
        tok = self.advance()
        if tok.kind == "nat":
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                den = self.advance()
                if den.kind != "nat":
                    raise ParseError("expected a natural number after '/'", den.pos)
                if den.value == 0:
                    raise ParseError("zero denominator", den.pos)
                value = Fraction(tok.value, den.value)
            const = Polynomial.constant(self.vars, value)
            return const, _coeff_bits(const)
        if tok.kind == "name":
            if tok.value not in self.vars:
                raise UnknownVariableError(tok.value, tok.pos)
            return self._power(Polynomial.variable(self.vars, tok.value), 0)
        if tok.kind == "(":
            inner = self.expr()
            closing = self.advance()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            return self._power(inner, _coeff_bits(inner))
        raise ParseError(f"expected a number, variable or '(', found {tok.value!r}"
                         if tok.kind != "end" else "unexpected end of input", tok.pos)

    def _power(self, base: Polynomial, bits: int) -> tuple[Polynomial, int]:
        """``base`` (of ``bits`` bits) raised to the optional exponent,
        bounded before it expands, and a bound on the power's bits.

        For each variable, the part of ``base**n`` of top degree in it is
        the n-th power of a nonzero polynomial, so the power holds an
        exponent n times the largest one in ``base``: past the machine
        bound it is rejected here, without being computed.  So is a
        power whose expansion walks more than :data:`_MAX_POWER_TERMS`
        compositions or whose coefficients may pass
        :data:`_MAX_COEFF_BITS`.
        """
        if self.peek().kind != "^":
            return base, bits
        self.advance()
        tok = self.advance()
        if tok.kind != "nat":
            raise ParseError("exponent must be a natural number", tok.pos)
        top = tok.value * max((max(e) for e in base.terms), default=0)
        if top > _MAX_EXPONENT:
            raise MonomialOverflowError(f"exponent {top} exceeds the machine bound {_MAX_EXPONENT}")
        count = _compositions(len(base.terms), tok.value)
        if count > _MAX_POWER_TERMS:
            raise ExpansionTooLargeError(
                f"power {tok.value} of a {len(base.terms)}-term polynomial walks {count} "
                f"compositions, past the bound {_MAX_POWER_TERMS} (at position {tok.pos})")
        bits *= tok.value
        _check_coeff_bits(bits, f"power {tok.value}", tok.pos)
        return base ** tok.value, bits


def parse_polynomial(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse ``text`` into a polynomial over the given variables.

    Raises :class:`~germ.errors.ParseError` with a character position on
    malformed input, :class:`~germ.errors.UnknownVariableError` for
    names outside the ring, and
    :class:`~germ.errors.ExpansionTooLargeError` for a power, product
    or sum past the parser's bounds.
    """
    ring = Polynomial.zero(vars).vars  # runs variable validation
    parser = _Parser(_tokenize(text), ring)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.value!r}", trailing.pos)
    _check_coeff_bits(_coeff_bits(result), "the polynomial", trailing.pos)
    return result

