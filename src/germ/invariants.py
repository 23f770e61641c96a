"""Milnor and Tjurina numbers of isolated hypersurface germs.

The Milnor number is the codimension of the gradient ideal in the local
ring, the Tjurina number the codimension after adjoining the germ
itself.  Both are computed exactly through local standard bases; a germ
is isolated exactly when its Milnor number is finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ComputationBudgetExceeded, NotAGermError
from .localalg import (INFINITE, LocalOrder, StandardBasis, extend_standard_basis,
                       quotient_codimension, standard_basis)
from .poly import Polynomial

#: Normalized positive weight vector and weighted degree.
WeightVector = tuple[tuple[int, ...], int]


@dataclass(frozen=True)
class GermInvariants:
    """Invariant record of one hypersurface germ."""

    germ_dimension: int
    mu: int | float
    tau: int | float
    isolated: bool
    weighted_homogeneous_in_coords: WeightVector | None

    @property
    def ratio(self) -> Fraction | None:
        """mu / tau as an exact rational; None unless both are finite."""
        if isinstance(self.mu, int) and isinstance(self.tau, int) and self.tau:
            return Fraction(self.mu, self.tau)
        return None


def _require_germ(f: Polynomial) -> None:
    if f.is_zero():
        raise NotAGermError("the zero polynomial does not define a hypersurface germ")
    if f.constant_term:
        raise NotAGermError("germ must vanish at the origin (nonzero constant term)")


def _gradient(f: Polynomial) -> list[Polynomial]:
    return [g for g in (f.partial_derivative(v) for v in f.vars) if g]


def _candidate_precedences(vars: tuple[str, ...]) -> list[tuple[str, ...]]:
    # The ring's own order first, then the 23 lexicographically smallest
    # others: permutations of a sorted sequence come in lexicographic
    # order, so none past those is materialised.
    others = (p for p in itertools.permutations(sorted(vars)) if p != vars)
    return [vars, *itertools.islice(others, 23)]


#: Work-unit budget of each portfolio round.  Round 0 is a cheap probe
#: that ranks the precedences: the ladder and every sweep germ finish
#: in it, and the paper's germ wins at 1M units.
_BUDGETS = (15_625, 1_000_000, 4_000_000, 16_000_000)


def _portfolio_basis(gens: list[Polynomial], vars: tuple[str, ...]) -> StandardBasis:
    """Standard basis under the cheapest variable precedence.

    Every precedence yields the same quotient codimensions, but the
    staircase shape (and with it the cost of the completion) varies
    wildly between them.  The precedences are tried in rounds, one per
    deterministic step budget of :data:`_BUDGETS`.  Round 0 follows
    :func:`_candidate_precedences`; each later round takes them in
    ascending order of the s-pairs their run left queued when it ran
    out of budget in the round before, ties keeping the previous order.
    Fewer pairs left means a run nearer its end: on the paper's germ the
    winner (y,x,z) leaves 43 at 15,625 units and the other five 61 to 92
    in every ring order.  Runs restart at the larger budget rather than
    resume, so failed runs hold no memory.  Every step is deterministic,
    so the returned basis, and everything derived from it, is
    reproducible.  When every precedence fails the last budget, the germ
    is left undecided with :class:`ComputationBudgetExceeded`.
    """
    orders = [LocalOrder(vars, p) for p in _candidate_precedences(vars)]
    for budget in _BUDGETS:
        failed = []
        for order in orders:
            try:
                return standard_basis(gens, order, step_limit=budget)
            except ComputationBudgetExceeded as exc:
                failed.append((exc.pairs_left, order))
        orders = [order for _, order in sorted(failed, key=lambda f: f[0])]  # stable
    raise ComputationBudgetExceeded(
        f"no variable precedence finished within {_BUDGETS[-1]} work units")


def jacobian_basis(f: Polynomial) -> StandardBasis:
    """Standard basis of the gradient ideal of a valid germ."""
    _require_germ(f)
    return _portfolio_basis(_gradient(f), f.vars)


def milnor_number(f: Polynomial) -> int | float:
    """Codimension of the gradient ideal; finite iff the germ is isolated."""
    return quotient_codimension(jacobian_basis(f))


def _tau(f: Polynomial, jac: StandardBasis, mu: int | float) -> int | float:
    """Tjurina number from the gradient basis, warm-started.

    ``f`` lies in the integral closure of ``m*J``, so ``V(J, f) = V(J)``
    and ``tau`` is finite exactly when ``mu`` is; an infinite ``mu`` needs
    no second completion.
    """
    if mu == INFINITE:
        return INFINITE
    return quotient_codimension(extend_standard_basis(jac, [f]))


def tjurina_number(f: Polynomial) -> int | float:
    """Codimension of the ideal generated by the germ and its gradient."""
    jac = jacobian_basis(f)
    return _tau(f, jac, quotient_codimension(jac))


def germ_invariants(f: Polynomial) -> GermInvariants:
    """Aggregate mu, tau, isolatedness and a weight vector if one exists.

    The gradient standard basis is reused as a warm start for the
    Tjurina ideal, so this is cheaper than two independent runs.
    """
    jac = jacobian_basis(f)
    mu = quotient_codimension(jac)
    tau = _tau(f, jac, mu)
    return GermInvariants(
        germ_dimension=len(f.vars) - 1,
        mu=mu,
        tau=tau,
        isolated=isinstance(mu, int),
        weighted_homogeneous_in_coords=find_positive_weights(f),
    )


def suspend(f: Polynomial, k: int = 2) -> Polynomial:
    """Add a power of a fresh variable: ``f + z_new**k`` over the extended ring.

    The fresh variable is appended, so it is the result's ``vars[-1]``.
    """
    if k < 2:
        raise ValueError("suspension power must be at least 2")
    name = "z"
    counter = 0
    while name in f.vars:
        counter += 1
        name = f"z{counter}"
    new_vars = f.vars + (name,)
    terms = {e + (0,): c for e, c in f.terms.items()}
    exps = (0,) * len(f.vars) + (k,)
    terms[exps] = terms.get(exps, Fraction(0)) + 1
    return Polynomial(new_vars, terms)


def find_positive_weights(f: Polynomial) -> WeightVector | None:
    """Positive weights making ``f`` weighted homogeneous, if any.

    Tested in the given coordinates only: the support differences are
    solved exactly, then a strictly positive point of the solution
    space is searched by Fourier-Motzkin.  The result is normalized to
    the smallest integer weights with gcd 1; uniform weights are
    preferred whenever the support is equidegree.
    """
    if f.is_zero():
        raise ValueError("weights of the zero polynomial are undefined")
    support = sorted(f.terms)
    nvars = len(f.vars)
    first = support[0]
    degrees = {sum(e) for e in support}
    if len(degrees) == 1:
        return (1,) * nvars, degrees.pop()
    diffs = [[Fraction(a - b) for a, b in zip(e, first)] for e in support[1:]]
    basis = linalg.nullspace(diffs, nvars)
    if not basis:
        return None
    # Inequality i over the basis coordinates: (B lam)_i > 0.
    rows = [tuple(vec[i] for vec in basis) for i in range(nvars)]
    lam = linalg.strictly_positive_solution(rows)
    if lam is None:
        return None
    weights = [sum(c * vec[i] for c, vec in zip(lam, basis)) for i in range(nvars)]
    scale = 1
    for w in weights:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    ints = [int(w * scale) for w in weights]
    g = 0
    for w in ints:
        g = math.gcd(g, w)
    ints = [w // g for w in ints]
    degree = sum(w * e for w, e in zip(ints, first))
    return tuple(ints), degree
