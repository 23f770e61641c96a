"""Truncated-jet dimension oracle, independent of the basis engine.

For a truncation degree D the local quotient modulo the ideal plus all
monomials of degree >= D is a finite-dimensional vector space; its
dimension is computed by exact sparse row reduction of the shifted
generators.  The dimension is nondecreasing in D, and two consecutive
equal values certify the exact local codimension (Nakayama), so the
loop stops at the first plateau.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .localalg import INFINITE
from .poly import Monomial, Polynomial


def _exponents_below(nvars: int, bound: int) -> Iterator[Monomial]:
    """All exponent vectors with total degree < bound."""
    if nvars == 1:
        for d in range(bound):
            yield (d,)
        return
    for head in range(bound):
        for tail in _exponents_below(nvars - 1, bound - head):
            yield (head,) + tail


def _rank_below(gens: Sequence[Polynomial], degree: int) -> int:
    """Rank of the span of all shifted generators truncated below ``degree``."""
    nvars = len(gens[0].vars)
    pivots: dict[Monomial, dict[Monomial, Fraction]] = {}
    rank = 0
    for g in gens:
        order_g = g.min_degree()
        for shift in _exponents_below(nvars, max(degree - order_g, 0)):
            row = {}
            for e, c in g.terms.items():
                m = tuple(a + b for a, b in zip(e, shift))
                if sum(m) < degree:
                    row[m] = c
            while row:
                col = min(row)
                pivot = pivots.get(col)
                if pivot is None:
                    inv = 1 / row[col]
                    pivots[col] = {m: c * inv for m, c in row.items()}
                    rank += 1
                    break
                factor = row[col]
                for m, c in pivot.items():
                    v = row.get(m, 0) - factor * c
                    if v:
                        row[m] = v
                    else:
                        row.pop(m, None)
    return rank


def jet_quotient_dimension(gens: Sequence[Polynomial], max_degree: int = 64) -> int | float:
    """Local codimension of the ideal spanned by ``gens`` via truncated jets.

    Returns :data:`~germ.localalg.INFINITE` when no plateau appears up
    to ``max_degree`` (the dimension then grows without bound for every
    ideal this package meets in practice).  All generators must live in
    the same ring, variable order included.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if any(g.vars != gens[0].vars for g in gens):
        raise ValueError("all generators must live in the same ring")
    nvars = len(gens[0].vars)
    previous = None
    for degree in range(1, max_degree + 1):
        total = comb(degree - 1 + nvars, nvars)
        dim = total - _rank_below(gens, degree)
        if dim == previous:
            return dim
        previous = dim
    return INFINITE
