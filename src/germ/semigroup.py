"""Numerical semigroups and plane-branch machinery.

A numerical semigroup is a cofinite additive submonoid of the naturals.
Membership, gaps, delta and the conductor are computed exactly through
the Apery set of the smallest generator, which is all a semigroup
stores: its gaps are listed only when read.  A semigroup is certified as
the semigroup of a plane branch when its gcd chain satisfies the two
classical conditions, in which case the Milnor number of any branch
realizing it is twice the gap count and the associated monomial curve
is cut out by explicit binomials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import NotPlaneBranchError
from .poly import Polynomial

#: The largest multiplicity (smallest generator) and conductor that
#: :func:`semigroup_from_generators` accepts.  The Apery set has one
#: entry per residue of the multiplicity, and a read of
#: :attr:`NumericalSemigroup.gaps` (as ``germ semigroup`` prints) lists
#: up to the conductor, so both stay below a tenth of a second; a
#: semigroup other than the naturals has a conductor at least its
#: multiplicity, so the multiplicity is checked first, before the Apery
#: set that minimizing the generators builds.
_MAX_CONDUCTOR = 100_000


def _validate_generators(gens: Sequence[int]) -> list[int]:
    out = sorted(set(int(g) for g in gens))
    if not out:
        raise ValueError("need at least one generator")
    if out[0] < 1:
        raise ValueError("generators must be positive integers")
    g = 0
    for x in out:
        g = math.gcd(g, x)
    if g != 1:
        raise ValueError(f"generators have gcd {g} > 1: the complement would be infinite")
    return out


def _minimize(gens: Sequence[int]) -> tuple[tuple[int, ...], list]:
    """Minimal generators of ``gens`` and the Apery set of their monoid.

    ``apery[r]`` is the least sum of kept generators congruent to ``r``
    modulo the smallest generator m (infinite while there is none), so
    a larger generator g is a sum of the smaller ones exactly when
    ``apery[g % m] <= g``.  Keeping g walks each cycle of ``r -> r + g``
    (mod m), the residues ``c::gcd(m, g)``, once from its least entry,
    which no sum with g can lower (the round-robin update of Böcker and
    Lipták).  The table has m entries whatever the largest generator,
    and a multiplicity past :data:`_MAX_CONDUCTOR` raises ``ValueError``
    before it is built.
    """
    candidates = sorted(set(int(g) for g in gens) - {0})
    if not candidates:
        return (), []
    m = candidates[0]
    if m > _MAX_CONDUCTOR:
        raise ValueError(f"multiplicity {m} exceeds the bound {_MAX_CONDUCTOR}")
    apery = [0] + [math.inf] * (m - 1)
    kept = [m]
    for g in candidates[1:]:
        if apery[g % m] <= g:
            continue
        kept.append(g)
        d, step = math.gcd(m, g), g % m
        for c in range(d):
            cycle = apery[c::d]
            v = min(cycle)
            if v == math.inf:
                continue
            r = c + d * cycle.index(v)
            for _ in range(m // d - 1):
                r += step
                if r >= m:
                    r -= m
                v += g
                if apery[r] < v:
                    v = apery[r]
                else:
                    apery[r] = v
    return tuple(kept), apery


def minimal_generators(gens: Sequence[int]) -> tuple[int, ...]:
    """Drop every generator representable by the smaller ones."""
    return _minimize(gens)[0]


def _minimal_valid(gens: Sequence[int], verb: str) -> tuple[tuple[int, ...], list]:
    """Validated, minimized ``gens`` and their Apery set, with a warning
    at the public caller when minimizing drops some."""
    valid = _validate_generators(gens)
    minimal, apery = _minimize(valid)
    if list(minimal) != valid:
        warnings.warn(f"generating set {valid} is not minimal; {verb} {list(minimal)}",
                      stacklevel=3)
    return minimal, apery


@dataclass(frozen=True)
class NumericalSemigroup:
    """Semigroup data: minimal generators, delta, conductor, Apery set.

    ``apery[r]`` is the least member congruent to ``r`` modulo the
    smallest generator, which decides membership in O(1) and lists the
    gaps.
    """

    generators: tuple[int, ...]
    delta: int
    conductor: int
    apery: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self.apery[x % self.generators[0]]

    @property
    def gaps(self) -> tuple[int, ...]:
        """The ``delta`` non-members in increasing order, listed anew on
        each read: a semigroup keeps only its Apery set."""
        apery, m = self.apery, self.generators[0]
        return tuple(x for x in range(self.conductor) if x < apery[x % m])


def semigroup_from_generators(gens: Sequence[int]) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens`` (gcd must be 1).

    Non-minimal generating sets are minimized with a warning.  A
    multiplicity past :data:`_MAX_CONDUCTOR` raises ``ValueError``
    before the generators are minimized, a conductor past it before
    any read can list the gaps.  ``delta`` is Selmer's formula
    ``sum(apery)/m - (m-1)/2`` over the multiplicity m, so the
    semigroup costs O(m) once its Apery set is built.
    """
    minimal, apery = _minimal_valid(gens, "using")
    m = minimal[0]
    conductor = max(apery) - m + 1
    if conductor > _MAX_CONDUCTOR:
        raise ValueError(f"conductor {conductor} exceeds the bound {_MAX_CONDUCTOR}")
    delta = (sum(apery) - m * (m - 1) // 2) // m
    return NumericalSemigroup(minimal, delta, conductor, tuple(apery))


# ----------------------------------------------------------------------
# Plane-branch certification


@dataclass(frozen=True)
class PlaneBranchCertificate:
    """Witness that a semigroup is the semigroup of a plane branch.

    ``e[i]`` is the gcd of the first i+1 generators, ``n[i] = e[i-1]/e[i]``
    for i >= 1, and ``witnesses[i-1]`` expresses ``n[i]*generators[i]``
    over the earlier generators in canonical form (every coordinate of
    index >= 1 below the matching n).

    The witnesses are the exponents of the monomial curve's binomials
    ``u_i**n_i - prod_j u_j**l_j`` (i = 1..g), killed by ``u_j -> t**beta_j``.
    """

    generators: tuple[int, ...]
    e: tuple[int, ...]
    n: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]

    @property
    def relations(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple(zip(self.n, self.witnesses))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(f"u{i}" for i in range(len(self.generators)))

    def as_polynomials(self) -> list[Polynomial]:
        out = []
        nvars = len(self.generators)
        for i, (power, exps) in enumerate(self.relations, start=1):
            lead = tuple(power if j == i else 0 for j in range(nvars))
            tail = tuple(exps) + (0,) * (nvars - len(exps))
            out.append(Polynomial(self.variables, {lead: 1, tail: -1}))
        return out

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self.as_polynomials())


def _canonical_witness(beta: Sequence[int], e: Sequence[int], n: Sequence[int],
                       i: int) -> tuple[int, ...] | None:
    """Canonical representation of n_i*beta_i over beta_0..beta_{i-1}.

    Greedy reduction down the gcd chain: at level j the coefficient is
    the unique value in [0, n_j) matching the target modulo e_{j-1}.
    Returns None exactly when the membership of condition (1) fails.
    """
    target = n[i] * beta[i]
    coeffs = [0] * i
    for j in range(i - 1, 0, -1):
        found = None
        for cand in range(n[j]):
            if (target - cand * beta[j]) % e[j - 1] == 0:
                found = cand
                break
        if found is None:
            return None
        coeffs[j] = found
        target -= found * beta[j]
        if target < 0:
            return None
    if target < 0 or target % beta[0]:
        return None
    coeffs[0] = target // beta[0]
    return tuple(coeffs)


def certify_plane_branch(gens: Sequence[int]) -> PlaneBranchCertificate | None:
    """Certificate that ``gens`` generate a plane-branch semigroup, or None.

    Condition (1): ``n_i * beta_i`` lies in the semigroup of the earlier
    generators, with the canonical witness stored.  Condition (2):
    ``n_i * beta_i < beta_{i+1}`` for i = 1..g-1 (the clause at i = g
    compares against a generator that does not exist and is vacuous).
    """
    return _certify(_minimal_valid(gens, "certifying")[0])


def _certify(beta: Sequence[int]) -> PlaneBranchCertificate | None:
    """``certify_plane_branch`` on generators already validated and minimal."""
    g = len(beta) - 1
    e = [0] * (g + 1)
    e[0] = beta[0]
    for i in range(1, g + 1):
        e[i] = math.gcd(e[i - 1], beta[i])
    n = [0] * (g + 1)
    for i in range(1, g + 1):
        n[i] = e[i - 1] // e[i]
        if n[i] < 2:
            return None
    witnesses = []
    for i in range(1, g + 1):
        w = _canonical_witness(beta, e, n, i)
        if w is None:
            return None
        assert n[i] * beta[i] == sum(l * b for l, b in zip(w, beta))
        witnesses.append(w)
    for i in range(1, g):
        if not n[i] * beta[i] < beta[i + 1]:
            return None
    return PlaneBranchCertificate(
        generators=tuple(beta),
        e=tuple(e),
        n=tuple(n[1:]),
        witnesses=tuple(witnesses),
    )


def branch_milnor(s: NumericalSemigroup) -> int:
    """Milnor number ``2 * delta`` of a plane branch with semigroup ``s``."""
    if _certify(s.generators) is None:
        raise NotPlaneBranchError(f"{s.generators} is not the semigroup of a plane branch")
    return 2 * s.delta


def monomial_curve_equations(cert: PlaneBranchCertificate,
                             gens: Sequence[int]) -> PlaneBranchCertificate:
    """``cert``, whose relations cut out the curve; ``ValueError`` if ``gens`` differ."""
    beta = tuple(_validate_generators(gens))
    if beta != cert.generators:
        beta = minimal_generators(beta)
    if beta != cert.generators:
        raise ValueError("certificate does not match the generators")
    return cert
