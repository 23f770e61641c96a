"""Milnor and Tjurina numbers of isolated hypersurface germs.

The Milnor number is the codimension of the gradient ideal in the local
ring, the Tjurina number the codimension after adjoining the germ
itself.  Both are computed exactly through local standard bases; a germ
is isolated exactly when its Milnor number is finite.

A germ's work budget, in the kernel's deterministic work units, bounds
each of its two paths to ``tau`` (:func:`_raced`), so which germs are
left undecided depends on the germ and the budget alone.

A germ that leaves the precedence portfolio's probe round races its
Tjurina number on a second CPU (:func:`_raced`): one forked lane
completes the Tjurina ideal from scratch under round 1's leader while
this process finishes the gradient basis, a second runs the warm start
from that basis, and the first answer is taken.  Both complete the same
ideal, so no answer depends on which lane wins, and this process
computes it itself when no lane answers.  Germs decided in the probe
round, and every germ in a sweep worker, run in one process.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import signal
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import ComputationBudgetExceeded, NotAGermError
from .localalg import (INFINITE, LocalOrder, StandardBasis, _encode_poly, _germ_records,
                       _Rec, extend_standard_basis, quotient_codimension, standard_basis)
from .poly import _ONE, Polynomial

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
        """mu / tau as an exact rational; None unless both are finite.

        Germs with equal (mu, tau) share one ratio, as their sweep rows
        share one bound report.
        """
        if isinstance(self.mu, int) and isinstance(self.tau, int) and self.tau:
            return _ratio(self.mu, self.tau)
        return None


#: The shared ``Fraction(mu, tau)``; a sweep repeats few distinct pairs.
_ratio = functools.lru_cache(maxsize=1024)(Fraction)


def _require_germ(f: Polynomial) -> None:
    if f.is_zero():
        raise NotAGermError("the zero polynomial does not define a hypersurface germ")
    if f.constant_term:
        raise NotAGermError("germ must vanish at the origin (nonzero constant term)")


def _candidate_precedences(vars: tuple[str, ...]) -> list[tuple[str, ...]]:
    # The ring's own order first, then the 23 lexicographically smallest
    # others: permutations of a sorted sequence come in lexicographic
    # order, so none past those is materialised.
    others = (p for p in itertools.permutations(sorted(vars)) if p != vars)
    return [vars, *itertools.islice(others, 23)]


#: Work-unit budget of the leader of each portfolio round.  Round 0 is a
#: cheap probe that ranks the precedences: the ladder and every sweep
#: germ finish in it, and the paper's germ wins at 1M units.
_BUDGETS = (15_625, 1_000_000, 4_000_000, 16_000_000)

#: Default work-unit budget of a germ along each of its two paths
#: (:func:`_raced`): above the 28M units the portfolio can spend in all
#: its rounds and the 17.7M of the warm start of ladder d=30.
_CEILING = 64_000_000

#: Work units per second of a budget given in seconds: the engine's
#: rate fitted by least squares on the logarithms of the seconds of its
#: runs above 100k units (0.37 s per million units; 2-core VM, Python
#: 3.11.7), each of which took within 2x of it.  Lazard's completion is
#: the exception: it pays the coefficient-bit surcharge on every step
#: and ran at 0.09-0.19 s per million units, so a germ that reaches it
#: gives up 2-4x sooner in seconds.
_UNITS_PER_SECOND = 2_700_000


@functools.lru_cache(maxsize=256)
def _order(vars: tuple[str, ...], precedence: tuple[str, ...]) -> LocalOrder:
    """The one shared ``LocalOrder`` of a ring and precedence; an order
    is never mutated, so every basis may hold the same one."""
    return LocalOrder(vars, precedence)


def _round(runs, budget: int, left: list[int]) -> tuple[StandardBasis, _Rec] | tuple[None, list]:
    """One portfolio round at ``budget`` over ``runs`` in rank order,
    each ``(pairs left by its last run, order, that run's budget,
    encoded f)``: the winner's basis with the record of ``f`` in its
    order, or None with the failed runs ranked for the next round.

    ``left`` holds the germ's units left; each attempt is clipped to
    them, and draws its limit from them when it fails, the units it
    charged when it wins."""
    failed = []
    for rank, (pairs, order, spent, terms) in enumerate(runs):
        limit = min(max(budget >> 2 * rank, _BUDGETS[0]), left[0])
        if limit <= spent:  # it would fail the same way again
            failed.append((pairs, order, spent, terms))
            continue
        grad, frec = _germ_records(terms, order)
        try:
            jac = standard_basis(grad, order, step_limit=limit)
        except ComputationBudgetExceeded as exc:
            left[0] -= limit
            failed.append((exc.pairs_left, order, limit, terms))
            continue
        left[0] -= jac._work
        return jac, frec
    return None, sorted(failed, key=lambda run: run[0])  # stable


def _probe_round(f: Polynomial, left: list[int]) -> tuple[StandardBasis, _Rec] | tuple[None, list]:
    """Round 0 of the portfolio of :func:`_portfolio_basis`, as :func:`_round`."""
    _require_germ(f)
    orders = (_order(f.vars, p) for p in _candidate_precedences(f.vars))
    # Only the encoding is kept: holding every order's records through
    # the winning run raised benchmark_germ's peak RSS by about 0.15 MB.
    return _round(((0, order, 0, _encode_poly(f, order)) for order in orders), _BUDGETS[0],
                  left)


def _later_rounds(ranked: list, left: list[int]) -> tuple[StandardBasis, _Rec]:
    """The rounds after the probe, from its ranked runs, as in
    :func:`_portfolio_basis`."""
    for budget in _BUDGETS[1:]:
        jac, rest = _round(ranked, budget, left)
        if jac is not None:
            return jac, rest
        ranked = rest
    raise ComputationBudgetExceeded(
        "no variable precedence finished within its budget; " + (
            f"the last round's leader ran out of {_BUDGETS[-1]} work units" if left[0]
            else "the germ's work budget ran out"))


def _portfolio_basis(f: Polynomial, left: list[int]) -> tuple[StandardBasis, _Rec]:
    """Gradient standard basis of a valid germ ``f`` under the cheapest
    variable precedence, with the record of ``f`` in the winner's order.

    Every precedence yields the same quotient codimensions, but the
    staircase shape (and with it the cost of the completion) varies
    wildly between them.  The precedences are tried in rounds, one per
    deterministic step budget of :data:`_BUDGETS`.  Round 0 follows
    :func:`_candidate_precedences`, building each order only when it is
    first tried (once per ring and precedence, :func:`_order`), so a
    germ that finishes in its first attempt builds at most one.  ``f``
    is encoded once per order tried, and each attempt derives the
    records of its gradient and of ``f`` from that encoding
    (:func:`~germ.localalg._germ_records`).  Each later
    round ranks the precedences in ascending order of the s-pairs their
    last run left queued when it ran out of budget, ties keeping the
    previous order, and gives rank ``i`` the round's budget divided by
    ``4**i`` but at least the probe's: the schedule's own factor of 4,
    so the leader gets the whole round and a precedence far behind it
    costs little.  A precedence is not rerun at a budget no larger than
    one it already failed at, since every run is deterministic; it keeps
    its rank by the pairs its last run left.
    Fewer pairs left means a run nearer its end: on the paper's germ the
    winner (y,x,z) leaves 43 at 15,625 units and the other five 61 to 92
    in every ring order.  Runs restart at the larger budget rather than
    resume, so failed runs hold no memory.  Every step is deterministic,
    so the returned basis, and everything derived from it, is
    reproducible.  Every attempt is clipped to the germ's units
    ``left`` (:func:`_round`).  When no precedence finishes within the
    last round, whose leader alone gets the last budget, or within the
    germ's units, the germ is left undecided with
    :class:`ComputationBudgetExceeded`.  Round 0 is
    :func:`_probe_round` and the later rounds :func:`_later_rounds`;
    between them :func:`_mu_tau` forks its Tjurina lanes, once round 0
    has ranked the runs and so named round 1's leader.
    """
    jac, rest = _probe_round(f, left)
    return (jac, rest) if jac is not None else _later_rounds(rest, left)


def jacobian_basis(f: Polynomial) -> StandardBasis:
    """Standard basis of the gradient ideal of a valid germ."""
    return _portfolio_basis(f, [_CEILING])[0]


def milnor_number(f: Polynomial) -> int | float:
    """Codimension of the gradient ideal; finite iff the germ is isolated."""
    return quotient_codimension(jacobian_basis(f))


def _tau(frec: _Rec, jac: StandardBasis, mu: int | float, limit: int) -> int | float:
    """Tjurina number from the gradient basis, warm-started with the
    record ``frec`` of the germ ``f`` in the basis's order, within
    ``limit`` work units; lane B of :func:`_raced`.

    ``f`` lies in the integral closure of ``m*J``, so ``V(J, f) = V(J)``
    and ``tau`` is finite exactly when ``mu`` is; an infinite ``mu`` needs
    no second completion.
    """
    if mu == INFINITE:
        return INFINITE
    return quotient_codimension(extend_standard_basis(jac, [frec], step_limit=limit))


def _scratch_tau(terms: dict, order: LocalOrder, limit: int) -> int | float:
    """Tjurina number of the germ encoded as ``terms`` in ``order``,
    completed from scratch within ``limit`` work units; lane A of
    :func:`_raced`."""
    grad, frec = _germ_records(terms, order)
    return quotient_codimension(standard_basis(grad + [frec], order, step_limit=limit))



#: Whether this process may fork Tjurina lanes at all: only where
#: ``os.sched_getaffinity`` exists (Linux), and cleared by
#: :func:`_no_lanes` in sweep workers.
_LANES = hasattr(os, "sched_getaffinity")

#: Blocked from a lane's fork until its pid is listed, so an interrupt
#: cannot lose a child; it stays blocked in the child.
_LANE_SIGNALS = (signal.SIGINT,)

#: Linux ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _no_lanes() -> None:
    """Initializer of a sweep's worker processes: the other workers
    already use the other CPUs, so no germ forks Tjurina lanes there."""
    global _LANES
    _LANES = False


def _lanes_fit() -> bool:
    """Whether a germ that leaves the probe round races its Tjurina
    lanes: this process may run on at least two CPUs and is no sweep
    worker."""
    return _LANES and len(os.sched_getaffinity(0)) >= 2


@functools.cache
def _prctl():
    """The C library's ``prctl``, or None where it cannot be loaded."""
    try:
        import ctypes
        return ctypes.CDLL(None).prctl
    except (ImportError, OSError, AttributeError):
        return None


def _fork_lane(lanes: list, lane, *args) -> None:
    """Fork a child that runs ``lane(*args)`` and writes its result as
    one ASCII line to a pipe; list its pid and the pipe's read end in
    ``lanes``.  A fork that the system refuses lists nothing.

    The child runs only the lane and leaves through ``os._exit`` in a
    ``finally``, so it never returns into the caller's frames (pytest,
    the command line or a pool worker), flushes no inherited buffer and
    runs no exit handler.  It asks the kernel for ``SIGKILL`` when its
    parent dies (``PR_SET_PDEATHSIG``), so a parent killed by a signal
    that runs no ``finally`` leaves no lane running either.
    """
    prctl = _prctl()  # loaded here: the child imports nothing
    parent = os.getpid()
    r, w = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _LANE_SIGNALS)
    pid = None
    try:
        pid = os.fork()
        if not pid:
            try:
                if prctl is not None:
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() == parent:  # else it died before the prctl
                    os.write(w, f"{lane(*args)}\n".encode("ascii"))
            finally:
                os._exit(0)
        lanes.append((pid, r))
    except OSError:  # no process to spare: the caller goes on without it
        pass
    finally:
        os.close(w)
        if pid is None:
            os.close(r)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _first_answer(fds: list[int]) -> int | None:
    """The first Tjurina number written to one of the lane pipes ``fds``,
    or None when every lane closes its pipe without one."""
    import select  # only a germ that left the probe round loads it
    while fds:
        for fd in select.select(fds, [], [])[0]:
            line = os.read(fd, 64)
            if line.endswith(b"\n"):
                return int(line)
            fds.remove(fd)
    return None


def _raced(ranked: list, left: list[int]) -> tuple[int | float, int | float]:
    """Milnor and Tjurina numbers of a germ that left the probe round,
    from the runs that round ``ranked`` and the germ's units ``left``.

    The germ's budget bounds each of two paths to ``tau``: the later
    rounds plus the warm start :func:`_tau` from the winner's basis,
    and lane A, which completes the Tjurina ideal from scratch under
    round 1's leader (:func:`_scratch_tau`) in the units the probe round
    left.  Both complete the same ideal, so ``tau`` does not depend on
    the path, and it is decided when either path fits; ``mu`` needs the
    later rounds.  Where :func:`_lanes_fit` allows and units are left,
    the paths race: lane A is forked first and runs while this process
    runs the later rounds, then lane B runs the warm start, and the
    first lane to answer gives ``tau``.  Lane B is needed: the leader
    may lose its round, and from scratch under a loser ``tau`` can take
    far longer (35-43 s under (x,z,y) against 0.14-0.16 s under the
    winner (y,x,z) on ``x^12+y^4*z^8+z^12+x^6*z^6+(x+y+z)^13``).  A lane
    that closes its pipe without an answer, out of units or not, is
    dropped.  When none answers, or none was forked, this process runs
    the warm start, and the scratch run only if that runs out: lanes or
    not, the same germs are decided.  An infinite ``mu`` gives an
    infinite ``tau`` with no lane waited for.  On every exit, a budget
    error and ``KeyboardInterrupt`` included (they propagate
    unchanged), every lane is killed and reaped and its pipe closed.
    """
    lanes: list[tuple[int, int]] = []
    _, leader, _, terms = ranked[0]
    scratch = terms, leader, left[0]
    race = left[0] and _lanes_fit()
    try:
        if race:
            _fork_lane(lanes, _scratch_tau, *scratch)
        jac, frec = _later_rounds(ranked, left)
        mu = quotient_codimension(jac)
        if mu == INFINITE:
            return mu, INFINITE
        if race:
            _fork_lane(lanes, _tau, frec, jac, mu, left[0])
            tau = _first_answer([fd for _, fd in lanes])
            if tau is not None:
                return mu, tau
        try:
            return mu, _tau(frec, jac, mu, left[0])
        except ComputationBudgetExceeded:
            return mu, _scratch_tau(*scratch)
    finally:
        for pid, fd in lanes:
            with suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)


def _mu_tau(f: Polynomial, budget: int = _CEILING) -> tuple[int | float, int | float]:
    """Milnor and Tjurina numbers of a valid germ ``f`` within ``budget``
    work units along each path (:func:`_raced`).

    A germ decided in the probe round, as every ladder and sweep germ
    is, runs the warm start :func:`_tau` in this process in the units
    left.  A germ that leaves it goes on in :func:`_raced`.  A germ
    past its budget raises :class:`ComputationBudgetExceeded`.
    """
    left = [budget]
    jac, rest = _probe_round(f, left)
    if jac is None:
        return _raced(rest, left)
    mu = quotient_codimension(jac)
    return mu, _tau(rest, jac, mu, left[0])


def tjurina_number(f: Polynomial) -> int | float:
    """Codimension of the ideal generated by the germ and its gradient."""
    return _mu_tau(f)[1]


def germ_invariants(f: Polynomial, budget: int = _CEILING) -> GermInvariants:
    """Aggregate mu, tau, isolatedness and a weight vector if one exists.

    The gradient standard basis is reused as a warm start for the
    Tjurina ideal, so this is cheaper than two independent runs.  A
    germ that does not fit ``budget`` work units raises
    :class:`ComputationBudgetExceeded`.
    """
    mu, tau = _mu_tau(f, budget)
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
    # Every lifted term has exponent 0 in the fresh variable, so the new
    # term collides with none and the result skips the validating
    # constructor; the coefficients are shared with ``f``.
    terms = {e + (0,): c for e, c in f.terms.items()}
    terms[(0,) * len(f.vars) + (k,)] = _ONE
    return Polynomial._raw(f.vars + (name,), terms)


def find_positive_weights(f: Polynomial) -> WeightVector | None:
    """Positive weights making ``f`` weighted homogeneous, if any.

    Tested in the given coordinates only, and normalized to the smallest
    integer weights with gcd 1.  When every variable ``x_i`` has a pure
    power ``x_i^p_i`` in the support, the weights are forced: each
    ``w_i*p_i`` is the degree, so ``w_i = lcm(p)/p_i``, the degree is
    ``lcm(p)`` and the gcd of the weights is 1; one pass then checks
    every term.  Other germs go through :func:`_eliminated_weights`.
    """
    if f.is_zero():
        raise ValueError("weights of the zero polynomial are undefined")
    powers = [0] * len(f.vars)
    for e in f.terms:
        d = sum(e)
        if d and d in e:  # a pure power: one exponent is the whole degree
            powers[e.index(d)] = d
    if not all(powers):
        return _eliminated_weights(f)
    degree = math.lcm(*powers)
    weights = tuple(degree // p for p in powers)
    if all(sum(map(mul, weights, e)) == degree for e in f.terms):
        return weights, degree
    return None


def _eliminated_weights(f: Polynomial) -> WeightVector | None:
    """Positive weights of a nonzero ``f`` by elimination.

    The integer differences of the support exponents are solved exactly
    by fraction-free elimination (:func:`germ.linalg.nullspace`), and
    only a nonzero solution space is searched for a strictly positive
    point, by Fourier-Motzkin.  The result is normalized as in
    :func:`find_positive_weights`; uniform weights are preferred
    whenever the support is equidegree.
    """
    support = sorted(f.terms)
    nvars = len(f.vars)
    first = support[0]
    degrees = {sum(e) for e in support}
    if len(degrees) == 1:
        return (1,) * nvars, degrees.pop()
    diffs = [[a - b for a, b in zip(e, first)] for e in support[1:]]
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
