"""Closed-form invariants and the catalog of inequality checks.

Every verdict is computed with exact integer or rational arithmetic;
ratio bounds are cross-multiplied, never evaluated in floating point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

#: Catalog order is fixed; JSON and CSV output follow it.
BOUND_IDS = (
    "positivity",
    "liu",
    "dimca_greuel_4_3",
    "conjecture_3_2",
    "wahl_2pg",
    "tomari",
    "durfee",
    "space_branch_quarter",
)


@dataclass(frozen=True)
class BoundVerdict:
    """One catalog entry: applicability, verdict and exact margin.

    ``holds`` is absent exactly when the entry does not apply or a
    needed optional input is missing; ``margin`` is present whenever it
    is computable from the inputs, and for a strict bound ``A < B`` it
    is ``B - A`` (so ``margin > 0`` iff the bound holds).
    """

    applicable: bool
    holds: bool | None
    margin: Fraction | None


def _verdict(applicable: bool, margin: Fraction | None, strict: bool) -> BoundVerdict:
    """The bound holds iff ``margin > 0`` (strict) or ``margin >= 0``."""
    if not applicable or margin is None:
        return BoundVerdict(applicable, None, margin)
    return BoundVerdict(True, margin > 0 if strict else margin >= 0, margin)


@dataclass(frozen=True)
class BoundReport:
    """The catalog's verdicts on one input, keyed and ordered by ``BOUND_IDS``.

    ``verdicts`` is a read-only view, because :func:`bound_report` hands
    one report to every caller with the same arguments.
    """

    verdicts: Mapping[str, BoundVerdict]

    def __post_init__(self):
        object.__setattr__(self, "verdicts", MappingProxyType(dict(self.verdicts)))

    def __reduce__(self):
        # A mapping proxy does not pickle; the plain dict rebuilds it.
        return BoundReport, (dict(self.verdicts),)


@functools.lru_cache(maxsize=1024)
def bound_report(mu: int, tau: int, n: int, p_g: int | None = None,
                 multiplicity: int | None = None) -> BoundReport:
    """Evaluate every catalog bound on one (mu, tau) pair.

    ``n`` is the germ dimension, so the ambient variable count is
    ``n + 1``.  Bounds needing the geometric genus or the multiplicity
    report no verdict when those are not supplied.  Calls with equal
    arguments share one report (a sweep repeats few distinct pairs), so
    its verdicts cannot be changed; an invalid input raises every time.
    """
    if n < 1:
        raise ValueError("germ dimension must be at least 1")
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if tau > mu:
        raise ValueError(f"invalid invariant pair: tau={tau} exceeds mu={mu}")
    if p_g is not None and p_g < 0:
        raise ValueError(f"geometric genus must be non-negative, got {p_g}")
    if multiplicity is not None and multiplicity < 2:
        # tau >= 1 makes the germ singular, so its multiplicity is at least 2.
        raise ValueError(f"multiplicity of a singular germ is at least 2, got {multiplicity}")
    N = n + 1
    pg_known = p_g is not None
    # For a space branch the quarter bound mu - tau < mu/4 is the 4/3
    # bound 3*mu < 4*tau of a plane curve: one verdict serves both keys.
    dimca_greuel = _verdict(n == 1, Fraction(4 * tau - 3 * mu), strict=True)
    verdicts = {  # in BOUND_IDS order
        "positivity": _verdict(True, Fraction(mu - tau), strict=False),
        "liu": _verdict(True, Fraction(N * tau - mu, N), strict=False),
        "dimca_greuel_4_3": dimca_greuel,
        "conjecture_3_2": _verdict(n == 2, Fraction(3 * tau - 2 * mu), strict=True),
        "wahl_2pg": _verdict(n == 2, Fraction(2 * p_g - (mu - tau)) if pg_known else None,
                             strict=False),
        "tomari": _verdict(n == 2 and multiplicity == 2,
                           Fraction(mu - (8 * p_g + 1)) if pg_known else None, strict=False),
        "durfee": _verdict(n == 2, Fraction(mu - 6 * p_g) if pg_known else None, strict=False),
        "space_branch_quarter": dimca_greuel,
    }
    return BoundReport(verdicts)


def superisolated_invariants(d: int, local_mus: Sequence[int] = ()) -> tuple[int, int]:
    """Geometric genus and Milnor number of a superisolated germ.

    ``d`` is the degree of the initial projective curve and ``local_mus``
    the Milnor numbers of its singular points.  ``p_g = d(d-1)(d-2)/6``
    and ``mu = (d-1)**3 + sum of local mus``; both products are exactly
    divisible.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if any(m < 1 for m in local_mus):
        raise ValueError("local Milnor numbers must be positive")
    p_g = d * (d - 1) * (d - 2) // 6
    mu = (d - 1) ** 3 + sum(local_mus)
    return p_g, mu


def wahl_tau_min(d: int) -> int:
    """Minimal Tjurina number ``(2d-3)(d+1)(d-1)/3`` of the degree-d family."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    product = (2 * d - 3) * (d + 1) * (d - 1)
    assert product % 3 == 0
    return product // 3


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k).

    By the explicit sum ``S(n, k) = sum_j (-1)^j C(k, j) (k-j)^n / k!``:
    k+1 big powers, where the triangle recurrence makes n*k additions.
    """
    if k > n or n < 0 or k < 0:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    total = 0
    binom = 1  # C(k, j)
    for j in range(k + 1):
        term = binom * (k - j) ** n
        total += -term if j & 1 else term
        binom = binom * (k - j) // (j + 1)
    return total // math.factorial(k)


#: Largest ``n + r`` that :func:`kerner_nemethi_constant` accepts.  The
#: Stirling sum takes about 0.3 s at its worst accepted input (n=2,
#: r=1998) on a 2-core VM, and time grows with the square of n + r.
_MAX_N_PLUS_R = 2000


def kerner_nemethi_constant(n: int, r: int) -> Fraction:
    """Conjectured sharp constant relating mu and p_g in dimension n, codimension r."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    if n + r > _MAX_N_PLUS_R:
        raise ValueError(f"need n + r <= {_MAX_N_PLUS_R}, got {n + r}")
    numerator = math.comb(n + r - 1, n) * math.factorial(n + r)
    denominator = stirling2(n + r, r) * math.factorial(r)
    return Fraction(numerator, denominator)
