"""Milnor/Tjurina numbers, suspension, weight detection."""

import itertools
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import germ.corpus
import germ.invariants
import germ.localalg
from germ import (INFINITE, NotAGermError, Polynomial, SweepSpec, find_positive_weights,
                  generate_corpus, germ_invariants, jet_quotient_dimension, milnor_number,
                  parse_polynomial, quotient_codimension, suspend, tjurina_number)
from germ.errors import ComputationBudgetExceeded
from germ.invariants import _candidate_precedences, _eliminated_weights, jacobian_basis

V2 = ("x", "y")


def P(text, vars=V2):
    return parse_polynomial(text, vars)


def test_milnor_simple_cases():
    assert milnor_number(P("x^2+y^2")) == 1
    assert milnor_number(P("x^3+y^4")) == 6
    assert milnor_number(P("x*y")) == 1
    assert milnor_number(P("x^2")) == INFINITE


def test_tjurina_simple_cases():
    assert tjurina_number(P("x^2+y^2")) == 1
    assert tjurina_number(P("x^3+y^4")) == 6
    assert tjurina_number(P("x*y")) == 1


def test_germ_validation():
    with pytest.raises(NotAGermError):
        milnor_number(Polynomial.zero(V2))
    with pytest.raises(NotAGermError):
        milnor_number(P("1+x^2"))


def test_smooth_point_has_mu_zero():
    inv = germ_invariants(P("x+y^3"))
    assert inv.mu == 0 and inv.tau == 0 and inv.isolated


def test_d4_invariants():
    inv = germ_invariants(P("x^2*y+y^3"))
    assert inv.germ_dimension == 1
    assert inv.mu == 4 and inv.tau == 4
    assert inv.isolated
    assert inv.weighted_homogeneous_in_coords == ((1, 1), 3)


def test_non_isolated_record():
    inv = germ_invariants(P("x^2"))
    assert inv.mu == INFINITE
    assert not inv.isolated


def test_monomial_closed_form_grid():
    for a in range(2, 10):
        for b in range(2, 10):
            assert milnor_number(P(f"x^{a}+y^{b}")) == (a - 1) * (b - 1)


def test_fermat_closed_form():
    for d in range(2, 7):
        f = parse_polynomial(f"x^{d}+y^{d}+z^{d}", ["x", "y", "z"])
        assert milnor_number(f) == (d - 1) ** 3


def test_mu_at_least_tau():
    for text in ["x^3+y^5", "x^4+y^4+x^2*y^3", "x^5+y^6-x^3*y^4", "x^2*y+y^5"]:
        inv = germ_invariants(P(text))
        assert inv.mu >= inv.tau >= 1


def test_semi_quasihomogeneous_deformation_keeps_mu():
    # x^5 + y^6 plus any term of higher weighted degree keeps mu = 20;
    # independent confirmation through the jet oracle.
    f = P("x^5+y^6+x^3*y^4")
    assert milnor_number(f) == 20
    grad = [f.partial_derivative(v) for v in V2]
    assert jet_quotient_dimension(grad) == 20


def test_tjurina_matches_jet_oracle():
    for text in ["x^5+y^5+x^3*y^3", "y^6+x^8-x^6*y^2", "x^4+y^7-2*x^2*y^5"]:
        f = P(text)
        grad = [f.partial_derivative(v) for v in V2]
        assert tjurina_number(f) == jet_quotient_dimension(grad + [f])


def test_one_variable_germ():
    f = parse_polynomial("x^3", ["x"])
    inv = germ_invariants(f)
    assert inv.germ_dimension == 0
    assert inv.mu == inv.tau == 2


def test_candidate_precedences():
    assert _candidate_precedences(("x", "y", "z")) == [
        ("x", "y", "z"), ("x", "z", "y"), ("y", "x", "z"),
        ("y", "z", "x"), ("z", "x", "y"), ("z", "y", "x")]
    assert _candidate_precedences(("z", "y", "x"))[:3] == [
        ("z", "y", "x"), ("x", "y", "z"), ("x", "z", "y")]
    # Past 4 variables only 24 candidates are kept: the ring's own order
    # and the 23 smallest others, here all but the last one led by "a".
    ring = ("e", "d", "c", "b", "a")
    five = _candidate_precedences(ring)
    assert five[:3] == [ring, ("a", "b", "c", "d", "e"), ("a", "b", "c", "e", "d")]
    assert len(set(five)) == 24 and all(p[0] == "a" for p in five[1:])
    assert ("a", "e", "d", "c", "b") not in five


PAPER_GERM = "x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15"
XYZ, XZY, YXZ, YZX, ZXY, ZYX = _candidate_precedences(("x", "y", "z"))


def _spy_attempts(monkeypatch, outcome=None):
    """Record ``(precedence, budget, pairs left or "ok")`` per portfolio attempt.

    ``outcome(precedence, budget)``, when given, replaces the run: it
    returns the pairs left for the budget error it raises.
    """
    attempts = []
    real = germ.invariants.standard_basis

    def spy(gens, order, step_limit=None):
        try:
            if outcome is not None:
                raise ComputationBudgetExceeded(
                    "stub", outcome(order.precedence, step_limit))
            basis = real(gens, order, step_limit=step_limit)
        except ComputationBudgetExceeded as exc:
            attempts.append((order.precedence, step_limit, exc.pairs_left))
            raise
        attempts.append((order.precedence, step_limit, "ok"))
        return basis

    monkeypatch.setattr(germ.invariants, "standard_basis", spy)
    return attempts


def test_portfolio_attempts_on_the_paper_germ_are_pinned(monkeypatch):
    # Round 0 probes every precedence at 15,625 units in candidate
    # order, each raising with the s-pairs its run left queued; round 1
    # opens with the fewest, (y,x,z), which finishes within 1M units:
    # 7 attempts, six of them cheap probes.
    attempts = _spy_attempts(monkeypatch)
    ring = ("x", "y", "z")
    jac = jacobian_basis(P(PAPER_GERM, ring))
    assert attempts == [
        (("x", "y", "z"), 15_625, 92), (("x", "z", "y"), 15_625, 61),
        (("y", "x", "z"), 15_625, 43), (("y", "z", "x"), 15_625, 70),
        (("z", "x", "y"), 15_625, 72), (("z", "y", "x"), 15_625, 87),
        (("y", "x", "z"), 1_000_000, "ok")]
    assert jac.order.precedence == ("y", "x", "z")


def test_portfolio_ranks_rounds_by_pairs_left_and_keeps_ties(monkeypatch):
    left = {("x", "y", "z"): 5, ("x", "z", "y"): 3, ("y", "x", "z"): 5,
            ("y", "z", "x"): 3, ("z", "x", "y"): 1, ("z", "y", "x"): 5}
    budgets = germ.invariants._BUDGETS[:3]
    # Distinct counts in round 0, equal ones from round 1 on.
    attempts = _spy_attempts(
        monkeypatch, lambda prec, budget: left[prec] if budget == budgets[0] else 7)
    monkeypatch.setattr(germ.invariants, "_BUDGETS", budgets)
    with pytest.raises(ComputationBudgetExceeded, match=f"out of {budgets[-1]} ") as info:
        jacobian_basis(P("x^2+y^3+z^4", ("x", "y", "z")))
    assert info.value.pairs_left is None
    # Rank i of a later round gets the round's budget over 4**i, at least
    # the probe's; a precedence is not rerun at a budget it already
    # failed at, and keeps its rank by the pairs its last run left, so
    # in round 2 the three 15,625-unit runs (5 left) lead the 7s, each
    # group in its previous order.
    assert [(p, b) for p, b, _ in attempts] == [
        (XYZ, 15_625), (XZY, 15_625), (YXZ, 15_625), (YZX, 15_625), (ZXY, 15_625),
        (ZYX, 15_625),
        (ZXY, 1_000_000), (XZY, 250_000), (YZX, 62_500),
        (XYZ, 4_000_000), (YXZ, 1_000_000), (ZYX, 250_000)]


@pytest.mark.parametrize("text,mu,attempts", [
    # The third probe, (y,x,z), wins: its run charges 10,903 units.
    ("x^7+y^3*z^4+z^7+x^4*z^3+(x+y+z)^8", 234,
     [(XYZ, 15_625, 72), (XZY, 15_625, 72), (YXZ, 15_625, "ok")]),
    # Round 1's leader fails at 1M units and ranks 1 and 2 at their
    # scaled budgets; ranks 3 to 5 are not rerun at the probe budget.
    # (y,x,z) then leaves the fewest pairs and wins round 2 at 4M.
    ("x^9+y*z^8+z^9+x^6*z^3+(x+y+z)^10", 568,
     [(XYZ, 15_625, 122), (XZY, 15_625, 32), (YXZ, 15_625, 39), (YZX, 15_625, 58),
      (ZXY, 15_625, 37), (ZYX, 15_625, 70), (XZY, 1_000_000, 441), (ZXY, 250_000, 253),
      (YXZ, 62_500, 37), (YXZ, 4_000_000, "ok")]),
])
def test_portfolio_attempts_on_cheap_paper_shape_rows_are_pinned(monkeypatch, text, mu, attempts):
    # Germs of the paper's shape x^a+y^b*z^c+z^a+x^p*z^q+(x+y+z)^(a+1)
    # with b+c = p+q = a.
    spied = _spy_attempts(monkeypatch)
    jac = jacobian_basis(P(text, ("x", "y", "z")))
    assert quotient_codimension(jac) == mu
    assert spied == attempts
    assert jac.order.precedence == attempts[-1][0]


def test_germ_invariants_encodes_the_germ_once_per_order_tried(monkeypatch):
    # The gradient and the Tjurina generator are derived from one packed
    # encoding of f per order the portfolio tries, with no Fraction
    # partial derivative: six orders for the paper's germ (six probes and
    # the 1M win under (y,x,z)), one for a germ that wins its first probe.
    encoded, partials = [], []
    real_encode, real_partial = germ.localalg._encode_poly, Polynomial.partial_derivative

    def encode(p, order):
        encoded.append((p, order.precedence))
        return real_encode(p, order)

    def partial(self, var):
        partials.append(var)
        return real_partial(self, var)

    # The portfolio encodes through its own import of the name, any
    # polynomial generator through the kernel's.
    monkeypatch.setattr(germ.localalg, "_encode_poly", encode)
    monkeypatch.setattr(germ.invariants, "_encode_poly", encode)
    monkeypatch.setattr(Polynomial, "partial_derivative", partial)
    ring = ("x", "y", "z")
    f = P(PAPER_GERM, ring)
    inv = germ_invariants(f)
    assert (inv.mu, inv.tau) == (2288, 1660)
    assert all(p is f for p, _ in encoded)
    assert [prec for _, prec in encoded] == _candidate_precedences(ring)
    encoded.clear()
    g = P("x^3+y^4+z^5", ring)
    inv = germ_invariants(g)
    assert (inv.mu, inv.tau) == (24, 24)
    assert encoded == [(g, ring)]
    assert partials == []


def _forks(monkeypatch, lanes):
    """Set the lane predicate to ``lanes``; the list records each fork's pid."""
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(germ.invariants, "_lanes_fit", lambda: lanes)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(lane):
    """``lane`` wrapped to run on in this process and to raise in a child."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            raise RuntimeError("lane died")
        return lane(*args)

    return wrapped


CHEAP_PAPER_SHAPE = "x^9+y^4*z^5+z^9+x^6*z^3+(x+y+z)^10"  # mu 544, tau 408, wins at 1M


@pytest.mark.parametrize("text,ring", [
    # The paper's germ in the ring orders of benchmark seeds 0 and 1.
    (PAPER_GERM, XYZ), (PAPER_GERM, XZY), (PAPER_GERM, YZX),
    # A paper-shape row that wins at 1M, and one that wins at 4M.
    (CHEAP_PAPER_SHAPE, XYZ), ("x^9+y*z^8+z^9+x^6*z^3+(x+y+z)^10", XYZ),
], ids=["paper-xyz", "paper-xzy", "paper-yzx", "mu544", "mu568"])
def test_tjurina_lanes_give_the_serial_answers(monkeypatch, text, ring):
    # A germ that leaves the probe round forks lane A (from scratch under
    # round 1's leader) and, once mu is known, lane B (the warm start);
    # whichever answers first, mu and tau are those of the serial path,
    # and no child is left once the germ is answered.
    f = P(text, ring)
    forks = _forks(monkeypatch, False)
    serial = germ_invariants(f)
    assert forks == []
    monkeypatch.setattr(germ.invariants, "_lanes_fit", lambda: True)
    assert germ_invariants(f) == serial
    assert len(forks) == 2
    _assert_no_child()


def test_lanes_are_reaped_when_the_budget_runs_out(monkeypatch):
    # With a 20,000-unit round 1 the paper's germ fails after the probe
    # round, while lane A runs: it is killed and reaped and the budget
    # error propagates.
    forks = _forks(monkeypatch, True)
    monkeypatch.setattr(germ.invariants, "_BUDGETS", (15_625, 20_000))
    with pytest.raises(ComputationBudgetExceeded, match="out of 20000 "):
        germ_invariants(P(PAPER_GERM, XYZ))
    assert len(forks) == 1
    _assert_no_child()


#: Work units of the paper's germ under XYZ: its probe round, the 1M
#: win of (y,x,z), the warm start from that basis, and lane A's run from
#: scratch under (y,x,z).
PAPER_PROBE, PAPER_WIN, PAPER_WARM, PAPER_SCRATCH = 93_750, 303_328, 407_935, 422_594


def _row(text, budget):
    """The report row of ``text`` in ring XYZ at a budget of ``budget`` units."""
    return germ.corpus.evaluate_row(0, P(text, XYZ),
                                    budget / germ.invariants._UNITS_PER_SECOND)


@pytest.mark.parametrize("budget,forked", [
    (65_000, 0), (PAPER_PROBE + PAPER_WIN + 50_000, 2),
], ids=["probe-round", "waiting-on-lanes"])
def test_lanes_are_reaped_past_the_deadline(monkeypatch, budget, forked):
    # A budget that ends inside the probe round leaves no unit for a
    # lane, so none is forked.  One that leaves 50,000 units after the
    # later rounds is too small for lane B's warm start, and lane A,
    # which gets the units the probe left, runs out before its answer
    # too: neither lane answers, this process runs out on both paths,
    # and the row is undecided with no child left.
    assert PAPER_SCRATCH > PAPER_WIN + 50_000 and PAPER_WARM > 50_000
    forks = _forks(monkeypatch, True)
    row = _row(PAPER_GERM, budget)
    assert (row.note, row.mu, row.tau, row.isolated) == ("budget exceeded", None, None, None)
    assert len(forks) == forked
    _assert_no_child()


@pytest.mark.parametrize("lanes", [False, True])
def test_either_path_decides_tau_with_lanes_on_and_off(monkeypatch, lanes):
    # The budget bounds the portfolio plus the warm start, and the probe
    # plus lane A's run from scratch, apart: tau is decided when either
    # fits.  Here only the scratch path fits, so lane A answers, or this
    # process runs the warm start, runs out and completes from scratch.
    budget = PAPER_PROBE + PAPER_SCRATCH + 1_000
    assert budget < PAPER_PROBE + PAPER_WIN + PAPER_WARM
    forks = _forks(monkeypatch, lanes)
    row = _row(PAPER_GERM, budget)
    assert (row.mu, row.tau, row.note) == (2288, 1660, "")
    assert len(forks) == (2 if lanes else 0)
    _assert_no_child()


def test_paper_germ_path_units_are_pinned():
    # The figures the budget tests above are built on.
    f = P(PAPER_GERM, XYZ)
    left = [germ.invariants._CEILING]
    _, ranked = germ.invariants._probe_round(f, left)
    assert germ.invariants._CEILING - left[0] == PAPER_PROBE
    jac, frec = germ.invariants._later_rounds(ranked, left)
    assert jac._work == PAPER_WIN
    assert germ.localalg.extend_standard_basis(jac, [frec])._work == PAPER_WARM
    grad, frec = germ.localalg._germ_records(ranked[0][3], ranked[0][1])
    assert germ.localalg.standard_basis(grad + [frec], ranked[0][1])._work == PAPER_SCRATCH


def test_lanes_are_reaped_on_interrupt(monkeypatch):
    def interrupt(fds):
        raise KeyboardInterrupt

    forks = _forks(monkeypatch, True)
    monkeypatch.setattr(germ.invariants, "_first_answer", interrupt)
    with pytest.raises(KeyboardInterrupt):
        germ_invariants(P(CHEAP_PAPER_SHAPE, XYZ))
    assert len(forks) == 2
    _assert_no_child()


def test_a_lane_that_dies_without_answering_is_dropped(monkeypatch):
    # Lane A raises in its child, which leaves with no answer; lane B
    # gives tau.  When both die, this process runs the warm start itself.
    forks = _forks(monkeypatch, True)
    monkeypatch.setattr(germ.invariants, "_scratch_tau",
                        _in_child(germ.invariants._scratch_tau))
    assert tjurina_number(P(PAPER_GERM, XYZ)) == 1660
    monkeypatch.setattr(germ.invariants, "_tau", _in_child(germ.invariants._tau))
    assert tjurina_number(P(CHEAP_PAPER_SHAPE, XYZ)) == 408
    assert len(forks) == 4
    _assert_no_child()


NEAR_TIE = "x^12+y^4*z^8+z^12+x^6*z^6+(x+y+z)^13"  # lane A takes 35-43 s


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_lane_dies_with_its_parent():
    # A parent killed by SIGKILL runs no finally; the kernel then kills
    # lane A, which from scratch under (x,z,y) would run on for 35-43 s.
    script = "\n".join([
        "import os, germ.invariants",
        "from germ import germ_invariants, parse_polynomial",
        "real = os.fork",
        "def fork():",
        "    pid = real()",
        "    if pid:",
        "        print(pid, flush=True)",
        "    return pid",
        "os.fork = fork",
        "germ.invariants._lanes_fit = lambda: True",
        f"germ_invariants(parse_polynomial({NEAR_TIE!r}, ('x', 'y', 'z')))",
    ])
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    try:
        lane = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    give_up = time.monotonic() + 10
    while _alive(lane) and time.monotonic() < give_up:
        time.sleep(0.05)
    if _alive(lane):
        os.kill(lane, 9)
        pytest.fail("lane A outlived its parent")


def test_a_refused_fork_leaves_the_work_to_this_process(monkeypatch):
    def refuse():
        raise BlockingIOError("no process to spare")

    _forks(monkeypatch, True)
    monkeypatch.setattr(os, "fork", refuse)
    inv = germ_invariants(P(CHEAP_PAPER_SHAPE, XYZ))
    assert (inv.mu, inv.tau) == (544, 408)
    _assert_no_child()


def test_sweep_workers_fork_no_lanes():
    # corpus.sweep starts its worker pool with this initializer.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(1, initializer=germ.invariants._no_lanes) as pool:
        assert pool.submit(germ.invariants._lanes_fit).result() is False


@pytest.mark.parametrize("germs", [
    [P(f"x^{d}+y^{d}+z^{d}+(x+y+z)^{d + 1}", ("x", "y", "z")) for d in range(10, 13)],
    generate_corpus(SweepSpec("deformed_quasihomogeneous", seed=3, a_max=12, b_max=12,
                              count=40)),
    generate_corpus(SweepSpec("suspension", seed=3, a_max=12, b_max=12, count=40)),
], ids=["ladder", "deformed", "suspension"])
def test_cheap_germs_finish_in_the_probe_round(monkeypatch, germs):
    # The superisolated ladder and the sweep families need at most a few
    # hundred work units, so the first attempt of round 0 (the ring's own
    # order at the probe budget) is their only one.  Their Tjurina
    # number is the warm start in this process: no lane is forked, and
    # the CPU predicate is not even asked.
    attempts = _spy_attempts(monkeypatch)
    forks = _forks(monkeypatch, True)
    asked = []
    monkeypatch.setattr(germ.invariants, "_lanes_fit", lambda: asked.append(True) or True)
    for f in germs:
        attempts.clear()
        germ_invariants(f)
        assert attempts == [(f.vars, germ.invariants._BUDGETS[0], "ok")], str(f)
    assert forks == [] and asked == []


def test_probe_winner_builds_only_its_own_order(monkeypatch):
    # Orders are built when their precedence is first tried, so a ladder
    # germ that finishes in its first probe builds one, not six; later
    # germs of the ring reuse it.
    built = []
    real = germ.invariants.LocalOrder

    def spy(variables, precedence=None):
        built.append(tuple(precedence))
        return real(variables, precedence)

    monkeypatch.setattr(germ.invariants, "LocalOrder", spy)
    germ.invariants._order.cache_clear()
    ring = ("x", "y", "z")
    jac = jacobian_basis(P("x^10+y^10+z^10+(x+y+z)^11", ring))
    assert built == [ring]
    assert jac.order.precedence == ring
    assert jacobian_basis(P("x^3+y^4+z^5", ring)).order is jac.order
    assert built == [ring]


def test_many_variable_germ_reaches_the_algebra():
    # The precedence portfolio must not enumerate all 12! orders first.
    vars = tuple(f"x{i}" for i in range(12))
    f = parse_polynomial("x0^3+x1^3+" + "+".join(f"{v}^2" for v in vars[2:]), vars)
    inv = germ_invariants(f)
    assert inv.mu == 4 and inv.tau == 4


def test_suspension_examples():
    F = suspend(P("x^3+y^4"), 2)
    assert F.vars[-1] == "z"
    assert str(F) == "z^2+x^3+y^4"
    assert F.vars == ("x", "y", "z")
    t = suspend(F, 3)
    assert t.vars[-1] == "z1"
    with pytest.raises(ValueError):
        suspend(P("x^2+y^2"), 1)


def test_suspension_restricts_to_base():
    f = P("x^3+y^5-2*x*y^4")
    s = suspend(f, 2)
    restricted = {e[:2]: c for e, c in s.terms.items() if e[2] == 0}
    assert restricted == f.terms
    z_terms = [e for e in s.terms if e[2]]
    assert z_terms == [(0, 0, 2)]


def test_suspension_preserves_invariants():
    for text in ["x^3+y^4", "x^2*y+y^3", "x^4+y^5-x^2*y^4"]:
        base = germ_invariants(P(text))
        top = germ_invariants(suspend(P(text), 2))
        assert (base.mu, base.tau) == (top.mu, top.tau)


def test_a1_suspension():
    inv = germ_invariants(suspend(P("x^2+y^2"), 2))
    assert inv.mu == 1 and inv.tau == 1


def test_find_positive_weights_examples():
    assert find_positive_weights(P("x^3+y^4")) == ((4, 3), 12)
    assert find_positive_weights(P("x^3+y^4+x*y^3")) is None
    assert find_positive_weights(P("x^2*y")) == ((1, 1), 3)


def test_weights_are_certified():
    for text in ["x^3+y^4", "x^2*y+y^3", "x^5+x^3*y^2+y^5", "x^7+x^2*y^3"]:
        result = find_positive_weights(P(text))
        if result is None:
            continue
        weights, degree = result
        assert all(w >= 1 for w in weights)
        assert math.gcd(*weights) == 1
        assert P(text).is_weighted_homogeneous(weights, degree)


@st.composite
def pure_power_germs(draw):
    # Pure powers in every variable, some terms of their forced weighted
    # degree and, at times, a term off it.
    n = draw(st.integers(1, 3))
    powers = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    degree = math.lcm(*powers)
    weights = [degree // p for p in powers]
    box = list(itertools.product(*[range(p + 1) for p in powers]))
    on_degree = [e for e in box if sum(w * x for w, x in zip(weights, e)) == degree]
    terms = {tuple(p if i == j else 0 for j in range(n)): 1 for i, p in enumerate(powers)}
    for e in draw(st.lists(st.sampled_from(on_degree), max_size=4)):
        terms[e] = draw(st.integers(-3, 3).filter(bool))
    for e in draw(st.lists(st.sampled_from(box), max_size=2)):
        terms[e] = draw(st.integers(-3, 3).filter(bool))
    return Polynomial(("x", "y", "z")[:n], terms)


@given(pure_power_germs())
@example(P("x^2+x^3+y^2"))  # two pure powers of x: no weights
@example(P("x^3+y^3+x*y^2"))  # equidegree: uniform weights
@settings(max_examples=150, deadline=None)
def test_forced_weights_match_elimination(f):
    assert find_positive_weights(f) == _eliminated_weights(f)


def test_saito_direction_on_samples():
    for text in ["x^3+y^4", "x^2*y+y^3", "x^4+y^6", "x^5+x^3*y^2+y^5"]:
        inv = germ_invariants(P(text))
        if inv.weighted_homogeneous_in_coords is not None:
            assert inv.mu == inv.tau


def test_liu_bound_on_samples():
    germs = [P("x^3+y^5"), P("x^4+y^4+x^2*y^3"), P("x^6+y^7-3*x^4*y^4")]
    germs += [suspend(g, 2) for g in germs]
    for f in germs:
        inv = germ_invariants(f)
        N = inv.germ_dimension + 1
        assert N * inv.tau >= inv.mu


def test_ratio_property():
    inv = germ_invariants(P("x^3+y^4"))
    assert inv.ratio == 1
    assert germ_invariants(P("x^2")).ratio is None


def test_diagonal_family_deformations_reach_tau_min():
    # Positive-weight deformations of x^d+y^d+z^d keep mu = (d-1)^3 and
    # have tau between the minimal family value (2d-3)(d+1)(d-1)/3 and mu;
    # generic members attain the minimum.  The d=4 values are additionally
    # confirmed by the jet oracle.
    from germ import wahl_tau_min

    f = parse_polynomial("x^4+y^4+z^4+x^2*y^2*z", ["x", "y", "z"])
    inv = germ_invariants(f)
    assert inv.mu == 27
    assert inv.tau == wahl_tau_min(4) == 25
    grad = [f.partial_derivative(v) for v in f.vars]
    assert jet_quotient_dimension(grad) == 27
    assert jet_quotient_dimension(grad + [f]) == 25

    g = parse_polynomial("x^5+y^5+z^5+x^2*y^2*z^2-x^4*y*z", ["x", "y", "z"])
    inv = germ_invariants(g)
    assert inv.mu == 64
    assert inv.tau == wahl_tau_min(5) == 56

    # a non-generic deformation stays within the family bounds
    h = parse_polynomial("x^4+y^4+z^4+x^3*y*z+y^3*z^2", ["x", "y", "z"])
    inv = germ_invariants(h)
    assert inv.mu == 27
    assert wahl_tau_min(4) <= inv.tau <= 27