"""Small exact linear algebra over the rationals.

Only what the rest of the package needs: a nullspace basis by
fraction-free row reduction over the integers, and a Fourier-Motzkin
search for a strictly positive vector in a rational subspace.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]


def nullspace(rows: Sequence[Sequence[int | Fraction]], ncols: int) -> list[Vector]:
    """Basis of the solution space of ``rows . x = 0``.

    Gauss-Jordan elimination over the integers: each row is scaled by
    the common denominator of its entries, a row is eliminated as
    ``p*row - c*pivot_row`` and divided by the gcd of its entries, and
    no ``Fraction`` is built until the basis is read off.  Each pivot
    row ends as a nonzero multiple of the corresponding row of the
    reduced row echelon form, which is unique, so the basis vectors
    follow the usual free-column construction and are deterministic:
    the same vectors that elimination over the rationals gives.
    """
    matrix = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        matrix.append([x.numerator * (den // x.denominator) for x in row])
    pivot_col_of_row: list[int] = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_idx], matrix[pivot] = matrix[pivot], matrix[row_idx]
        prow = matrix[row_idx]
        p = prow[col]
        for r in range(len(matrix)):
            c = matrix[r][col]
            if r != row_idx and c:
                row = [p * a - c * b for a, b in zip(matrix[r], prow)]
                g = math.gcd(*row)
                matrix[r] = [a // g for a in row] if g > 1 else row
        pivot_col_of_row.append(col)
        row_idx += 1
        if row_idx == len(matrix):
            break
    pivot_cols = set(pivot_col_of_row)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_col_of_row):
            vec[col] = Fraction(-matrix[r][free], matrix[r][col])
        basis.append(tuple(vec))
    return basis


def strictly_positive_solution(rows: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Some ``lam`` with ``rows . lam > 0`` componentwise strict, or None.

    Fourier-Motzkin elimination on the homogeneous strict system; a
    witness is recovered by back-substitution (midpoints between the
    tightest bounds, which always exist over the rationals).
    """
    if not rows:
        return []
    nvar = len(rows[0])
    return _eliminate([tuple(Fraction(x) for x in row) for row in rows], nvar)


def _eliminate(ineqs: list[tuple], k: int) -> list[Fraction] | None:
    if k == 0:
        # Leftover rows read 0 > 0: infeasible.
        return None if ineqs else []
    lows, highs, rest = [], [], []
    for row in ineqs:
        c = row[k - 1]
        head = row[:k - 1]
        if c == 0:
            rest.append(head)
        elif c > 0:
            lows.append(tuple(-x / c for x in head))   # lam_k > dot(head', lam')
        else:
            highs.append(tuple(-x / c for x in head))  # lam_k < dot(head', lam')
    for low in lows:
        for high in highs:
            rest.append(tuple(u - l for u, l in zip(high, low)))
    sub = _eliminate(rest, k - 1)
    if sub is None:
        return None
    lo = max((sum(c * v for c, v in zip(row, sub)) for row in lows), default=None)
    hi = min((sum(c * v for c, v in zip(row, sub)) for row in highs), default=None)
    if lo is None and hi is None:
        value = Fraction(0)
    elif hi is None:
        value = lo + 1
    elif lo is None:
        value = hi - 1
    else:
        value = (lo + hi) / 2
    return sub + [value]
