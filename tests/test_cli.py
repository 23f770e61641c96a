"""Command-line interface: subcommands, exit codes, machine output."""

import concurrent.futures
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import germ.corpus
import germ.invariants
import germ.poly
import germ.semigroup
from germ import BOUND_IDS, ExpansionTooLargeError, bound_report, parse_polynomial
from germ.errors import ComputationBudgetExceeded
from germ.cli import main

BENCHMARK_GERM = "x^14+y^6*z^8+z^14+x^9*z^5+(x+y+z)^15"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4")
    assert code == 0
    assert "mu=6" in out and "tau=6" in out


def test_invariants_json_schema(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4",
                       "--json", "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == 6 and data["tau"] == 6
    assert data["ratio_num"] == 1 and data["ratio_den"] == 1
    assert data["weights"] == [4, 3] and data["weighted_degree"] == 12
    assert set(data["bounds"]) == {"positivity", "liu", "dimca_greuel_4_3",
                                   "conjecture_3_2", "wahl_2pg", "tomari",
                                   "durfee", "space_branch_quarter"}
    assert data["bounds"]["dimca_greuel_4_3"]["holds"] is True
    assert "generated_at" not in data


def test_invariants_expect_pass_and_fail(capsys):
    code, _, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4",
                     "--expect", "mu=6,tau=6")
    assert code == 0
    code, _, err = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4",
                       "--expect", "mu=7")
    assert code == 3
    assert "expected 7" in err and "computed 6" in err


def test_invariants_non_isolated(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^2", "--json",
                       "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] is None and data["isolated"] is False
    # every catalog id is present, with all fields null for lack of a report
    assert list(data["bounds"]) == list(BOUND_IDS)
    assert all(entry == {"applicable": None, "holds": None, "margin_num": None,
                         "margin_den": None} for entry in data["bounds"].values())


def test_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^+1")
    assert code == 1
    assert "error" in err
    # a non-ASCII digit is a syntax error at its position like any other
    for poly in ["x^\u00b2+y^3", "x^\u0661\u0662+y^3"]:
        code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly", poly)
        assert code == 1
        assert out == ""
        assert "unexpected character" in err and "(at position 2)" in err


def test_power_past_the_exponent_bound_is_rejected_before_expanding(capsys):
    # (x+y)^40000 holds x^40000, so the parser rejects it without
    # computing its 40,001 terms (expanding it ran for minutes); the
    # bound itself still parses.
    for poly in ["(x+y)^40000", "x^40000+y^3", "(x*y^2+1)^16384"]:
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly", poly)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "exceeds the machine bound 32767" in err
    assert parse_polynomial("x^32767", ("x", "y")).terms == {(32767, 0): 1}


def test_power_past_the_term_bound_is_rejected_before_expanding(capsys, monkeypatch):
    # ((x+y+z)^5)^10 would walk C(30, 20) = 30,045,015 compositions of 10
    # into the 21 terms of its base, (x+y+z)^446 C(448, 2) = 100,128.
    for poly in ["((x+y+z)^5)^10", "(x+y+z)^446"]:
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--vars", "x,y,z", "--poly", poly)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "compositions, past the bound 100000" in err
    # the bound itself is accepted: (x+y+z)^3 walks C(5, 2) = 10
    monkeypatch.setattr(germ.poly, "_MAX_POWER_TERMS", 10)
    assert len(parse_polynomial("(x+y+z)^3", ("x", "y", "z")).terms) == 10
    with pytest.raises(ExpansionTooLargeError, match=r"power 4 of a 3-term .* 15 compositions"):
        parse_polynomial("(x+y+z)^4", ("x", "y", "z"))


def test_product_past_the_term_bound_is_rejected_before_expanding(capsys):
    # (x+y+z)^60 has 1,891 terms, so the product makes 3,575,881 term
    # products (multiplying them out took 21 s); the same polynomial
    # written as one power is within the bound.
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", "--vars", "x,y,z", "--poly",
                         "(x+y+z)^60*(x+y+z)^60")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "makes 3575881 term products, past the bound 100000" in err
    assert len(parse_polynomial("(x+y+z)^120", ("x", "y", "z")).terms) == 7381


def test_coefficients_past_the_bit_bound_are_rejected_before_expanding(capsys):
    # A constant base passes the exponent and term bounds whatever its
    # exponent; (x+y)^15000 has a 14,994-bit binomial coefficient, past
    # Python's 4,300-digit limit on printing an int.
    for poly, bits in [("(2)^400000000+x", 400000000), ("(x+y)^15000", 15000),
                       ("(2)^7000*(2)^7001", 14001), ("(1/2*x)^14001", 14001)]:
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly", poly)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert f"coefficients of up to {bits} bits, past the bound 14000" in err
    # a sum is bounded once it is parsed: its common denominator
    # 2^7000*3^5000 has 14,925 bits
    with pytest.raises(ExpansionTooLargeError, match="the polynomial has coefficients"):
        parse_polynomial("(1/2)^7000+(1/3)^5000+x", ("x", "y"))
    # the bound itself is accepted, and what is accepted prints
    assert str(parse_polynomial("(x+y)^14000", ("x", "y"))).startswith("x^14000+14000*x^13999*y+")


def test_usage_error_exits_2(capsys):
    code = main(["invariants", "--poly", "x"])
    capsys.readouterr()
    assert code == 2
    code = main(["no-such-command"])
    capsys.readouterr()
    assert code == 2
    # a malformed comma list is rejected while parsing, naming its flag
    for flag, argv in [("--generators", ["semigroup", "--generators", "4,x"]),
                       ("--local-mus", ["superisolated", "--degree", "3", "--local-mus", "1,,2"])]:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {flag}: " in err
    # a malformed, empty or unknown --expect entry is rejected before anything is computed
    for argv in [["invariants", "--vars", "x,y", "--poly", "x^3+y^4", "--expect", "mu"],
                 ["invariants", "--vars", "x,y", "--poly", "x^3+y^4", "--expect", "mu=6,tua=6"],
                 ["invariants", "--vars", "x,y", "--poly", "x^3+y^4", "--expect", ""],
                 ["semigroup", "--generators", "4,6,13", "--expect", "tau=8"]]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "argument --expect: " in err
    # JSON and CSV output exclude each other
    for argv in [["invariants", "--vars", "x,y", "--poly", "x^3+y^4"],
                 ["sweep", "--family", "fermat", "--d-max", "3"]]:
        code, out, err = run(capsys, *argv, "--json", "--csv")
        assert code == 2
        assert out == ""
        assert "argument --csv: not allowed with argument --json" in err
    # an out-of-range value is a usage error too, reported before any output
    for argv, message in [
            (["sweep", "--family", "fermat", "--d-max", "3", "--threads", "0"],
             "thread count must be positive"),
            (["sweep", "--family", "fermat", "--d-max", "1"], "invalid degree range"),
            (["sweep", "--family", "quasihomogeneous_2var", "--a-max", "32767"],
             "a/b range past the bound 100"),
            (["sweep", "--family", "deformed_quasihomogeneous", "--b-max", "101"],
             "a/b range past the bound 100"),
            (["sweep", "--family", "suspension", "--count", "20001"],
             "count 20001 exceeds the bound 20000"),
            (["suspend", "--vars", "x,y", "--poly", "x^3+y^4", "--power", "1"],
             "suspension power must be at least 2"),
            (["superisolated", "--degree", "1"], "degree must be at least 2"),
            (["semigroup", "--generators", "4,6"], "gcd 2"),
            (["semigroup", "--generators", "2,40000001"], "conductor 40000000 exceeds the bound"),
            (["bounds", "--mu", "5", "--tau", "6", "--n", "2"], "tau=6 exceeds mu=5"),
            (["bounds", "--mu", "100", "--tau", "90", "--n", "2", "--pg", "-5"],
             "geometric genus must be non-negative, got -5"),
            (["bounds", "--mu", "100", "--tau", "90", "--n", "2", "--pg", "12",
              "--multiplicity", "-3"], "multiplicity of a singular germ is at least 2, got -3"),
            (["constants", "--n", "1", "--r", "1"], "need n >= 2 and r >= 1"),
            (["constants", "--n", "3000", "--r", "3000"], "need n + r <= 2000"),
            (["tau-min", "--degree", "1"], "degree must be at least 2")]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_suspend_command(capsys):
    code, out, _ = run(capsys, "suspend", "--vars", "x,y", "--poly", "x^3+y^4",
                       "--json", "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["suspended"] == "z^2+x^3+y^4"
    assert data["mu"] == data["base_mu"] == 6
    assert data["tau"] == data["base_tau"] == 6


def test_semigroup_command(capsys):
    code, out, _ = run(capsys, "semigroup", "--generators", "4,6,13",
                       "--expect", "delta=8,conductor=16,mu=16", "--json",
                       "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["plane_branch"] is True
    assert data["delta"] == 8 and data["conductor"] == 16 and data["mu"] == 16
    assert data["equations"] == ["u1^2-u0^3", "u2^2-u0^5*u1"]


def test_semigroup_command_certifies_once(capsys, monkeypatch):
    calls = []
    real = germ.semigroup._certify

    def spy(beta):
        calls.append(tuple(beta))
        return real(beta)

    monkeypatch.setattr(germ.semigroup, "_certify", spy)
    code, out, _ = run(capsys, "semigroup", "--generators", "4,6,13")
    assert code == 0 and "mu = 2*delta = 16" in out
    assert calls == [(4, 6, 13)]


def test_non_minimal_generators_print_one_warning_line(capsys):
    code, out, err = run(capsys, "semigroup", "--generators", "4,6,13,8")
    assert code == 0
    assert out.startswith("semigroup <4,6,13>\n")
    assert err == "warning: generating set [4, 6, 8, 13] is not minimal; using [4, 6, 13]\n"


def test_redundant_large_generator_costs_neither_time_nor_memory(capsys):
    # Redundancy is decided from a table of one entry per residue of the
    # multiplicity 2, so neither time nor memory grows with 10^8.
    tracemalloc.start()
    start = time.perf_counter()
    code, out, err = run(capsys, "semigroup", "--generators", "2,3,100000000", "--json",
                         "--reproducible")
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0
    assert err == "warning: generating set [2, 3, 100000000] is not minimal; using [2, 3]\n"
    assert json.loads(out) == {
        "generators": [2, 3], "gaps": [1], "delta": 1, "conductor": 2, "plane_branch": True,
        "e": [2, 1], "n": [2], "witnesses": [[3]], "mu": 2, "equations": ["u1^2-u0^3"]}
    assert elapsed < 1
    assert peak < 1 << 20


def test_semigroup_not_plane_branch(capsys):
    code, out, _ = run(capsys, "semigroup", "--generators", "3,4,5", "--json",
                       "--reproducible")
    assert code == 0
    assert json.loads(out)["plane_branch"] is False


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--mu", "2288", "--tau", "1660", "--n", "2",
                       "--json", "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["bounds"]["conjecture_3_2"]["holds"] is True
    assert data["bounds"]["dimca_greuel_4_3"]["margin_num"] < 0


def test_superisolated_command(capsys):
    code, out, _ = run(capsys, "superisolated", "--degree", "14", "--local-mus", "91",
                       "--tau", "1660", "--json", "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["p_g"] == 364 and data["mu"] == 2288
    assert data["bounds"]["conjecture_3_2"]["holds"] is True


def test_constants_command(capsys):
    code, out, _ = run(capsys, "constants", "--n", "2", "--r", "1", "--json",
                       "--reproducible")
    assert code == 0
    data = json.loads(out)
    assert data["constant_num"] == 6 and data["constant_den"] == 1


def test_tau_min_command(capsys):
    code, out, _ = run(capsys, "tau-min", "--degree", "5", "--ratio")
    assert code == 0
    assert "56" in out


BOUNDS_TEXT = """\
  positivity             holds, margin 628
  liu                    holds, margin 2692/3
  dimca_greuel_4_3       margin -224 (not applicable)
  conjecture_3_2         holds, margin 404
"""


@pytest.mark.parametrize("argv, text", [
    (["bounds", "--mu", "2288", "--tau", "1660", "--n", "2"],
     "mu=2288 tau=1660 n=2 mu/tau=572/415 ~ 1.378313\n" + BOUNDS_TEXT
     + "  wahl_2pg               not evaluable\n"
       "  tomari                 not applicable\n"
       "  durfee                 not evaluable\n"
       "  space_branch_quarter   margin -224 (not applicable)\n"),
    (["superisolated", "--degree", "14", "--local-mus", "91"],
     "superisolated d=14: p_g=364  mu=2288\n"),
    (["superisolated", "--degree", "14", "--local-mus", "91", "--tau", "1660"],
     "superisolated d=14: p_g=364  mu=2288\n"
     "with tau=1660: mu/tau=572/415 ~ 1.378313\n" + BOUNDS_TEXT
     + "  wahl_2pg               holds, margin 100\n"
       "  tomari                 margin -625 (not applicable)\n"
       "  durfee                 holds, margin 104\n"
       "  space_branch_quarter   margin -224 (not applicable)\n"),
    (["constants", "--n", "3", "--r", "2"], "C(3,2) = 16\n"),
    (["constants", "--n", "2", "--r", "2"], "C(2,2) = 36/7 ~ 5.142857\n"),
    (["tau-min", "--degree", "5"], "tau_min(d=5) = 56\n"),
    (["tau-min", "--degree", "5", "--ratio"],
     "tau_min(d=5) = 56\n(d-1)^3 / tau_min = 8/7 ~ 1.142857\n"),
    (["semigroup", "--generators", "4,6,13"],
     "semigroup <4,6,13>\n"
     "gaps: [1, 2, 3, 5, 7, 9, 11, 15]\n"
     "delta=8  conductor=16\n"
     "plane branch: yes  (e=[4, 2, 1], n=[2, 2])\n"
     "mu = 2*delta = 16\n"
     "monomial curve equations: ['u1^2-u0^3', 'u2^2-u0^5*u1']\n"),
    (["semigroup", "--generators", "3,4,5"],
     "semigroup <3,4,5>\ngaps: [1, 2]\ndelta=2  conductor=3\nplane branch: no\n"),
])
def test_text_output_is_pinned(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, text, "")


def test_sweep_json_deterministic(capsys):
    args = ["sweep", "--family", "fermat", "--d-min", "2", "--d-max", "4",
            "--json", "--reproducible"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert [row["mu"] for row in data["rows"]] == [1, 8, 27]
    assert data["summary"]["violations"] == []


@pytest.mark.parametrize("family,sha256", [
    ("deformed_quasihomogeneous", "5fdc6b8ed239299c2480cdd3e7bccaf3288749e389ae0d5d85cdd6a2bf2e888f"),
    ("suspension", "2182932d4b0dab98eceb6f6ea8a8f85b014c64e49ce44ca3c8aaaaa6afe74b34"),
], ids=["deformed", "suspension"])
def test_sweep_output_bytes_are_pinned(capsys, family, sha256):
    # Every row of a 300-germ seeded sweep, byte for byte: germs, mu, tau,
    # weights and every bound verdict.  A change to the corpus, the
    # engine or the printing that moves any answer shows here.
    code, out, err = run(capsys, "sweep", "--family", family, "--seed", "42", "--count", "300",
                         "--json", "--reproducible")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("row_timeouts", [False, True])
def test_sweep_summary_lists_noted_violations(capsys, monkeypatch, row_timeouts):
    # With or without a row budget, a row whose note reports a violation
    # counts, and so does each failing catalog verdict of a row.
    def fake(index, f, budget):
        if index == 2:
            return germ.corpus.ReportRow(index, str(f), 1, 4, 2, True, None,
                                         bound_report(4, 2, 1), 0.0)
        return germ.corpus.ReportRow(index, str(f), 2, 8, 7, True, None, None, 0.0,
                                     note="saito direction violated")

    monkeypatch.setattr(germ.corpus, "evaluate_germ", fake)
    args = ["sweep", "--family", "fermat", "--d-min", "2", "--d-max", "4",
            "--json", "--reproducible"]
    args += ["--timeout", "60"] if row_timeouts else ["--threads", "1"]
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert json.loads(out)["summary"]["violations"] == [
        "row 0: saito direction violated", "row 1: saito direction violated",
        "row 2: dimca_greuel_4_3", "row 2: space_branch_quarter"]


def test_sweep_timeout_keeps_worker_pool(capsys, monkeypatch):
    # Per-row budgets run inside the workers, so --timeout honours --threads.
    # The workers fork no Tjurina lanes, since their siblings use the
    # other CPUs.
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        pools.append((max_workers, kwargs))
        return real_pool(max_workers=max_workers, **kwargs)

    args = ["sweep", "--family", "fermat", "--d-min", "2", "--d-max", "4",
            "--json", "--reproducible"]
    code, serial, _ = run(capsys, *args, "--threads", "1")
    assert code == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    code, pooled, _ = run(capsys, *args, "--timeout", "60", "--threads", "2")
    assert code == 0
    assert pools == [(2, {"initializer": germ.invariants._no_lanes})]
    assert pooled == serial


@pytest.mark.parametrize("family,ranges,timeout", [
    # 2 units: the rows at d = 2, 3 need 0 and 2, those past need 3.
    ("fermat", ["--d-min", "2", "--d-max", "8"], "0.000001"),
    # 5 units: the rows need 0 to 48.
    ("deformed_quasihomogeneous", ["--seed", "0", "--a-max", "12", "--b-max", "12",
                                   "--count", "30"], "0.000002"),
], ids=["fermat", "deformed"])
def test_budgeted_sweep_decides_the_same_rows_everywhere(capsys, monkeypatch, family, ranges,
                                                         timeout):
    # --timeout is a budget of work units, so a sweep it leaves partly
    # undecided prints the same bytes in two workers and in one, and the
    # same rows with the Tjurina lanes on and off.
    args = ["sweep", "--family", family, *ranges, "--timeout", timeout, "--json",
            "--reproducible"]
    outputs = set()
    for threads in ("1", "2"):
        code, out, err = run(capsys, *args, "--threads", threads)
        assert code == 1 and "budget exceeded" in err
        outputs.add(out)
    for lanes in (True, False):
        monkeypatch.setattr(germ.invariants, "_lanes_fit", lambda: lanes)
        outputs.add(run(capsys, *args)[1])
    assert len(outputs) == 1
    notes = {row["note"] for row in json.loads(outputs.pop())["rows"]}
    assert {"", "budget exceeded"} <= notes


def test_sweep_row_timeout(capsys, monkeypatch):
    def over(index, f, budget):
        raise ComputationBudgetExceeded("rigged")

    monkeypatch.setattr(germ.corpus, "evaluate_germ", over)
    code, out, err = run(capsys, "sweep", "--family", "fermat", "--d-min", "2",
                         "--d-max", "2", "--json", "--reproducible", "--timeout", "0.05")
    assert code == 1
    assert "budget exceeded" in err
    rows = json.loads(out)["rows"]
    assert [row["note"] for row in rows] == ["budget exceeded"]
    assert rows[0]["isolated"] is None  # never decided


def test_sweep_text_reports_timeouts_apart(capsys, monkeypatch):
    # Row 0 runs out of its budget, row 1 is replaced by a non-isolated
    # germ, row 2 is x^4+y^4+z^4; text output prints each the way
    # `invariants` does and counts the three kinds apart.
    evaluate = germ.corpus.evaluate_germ

    def rigged(index, f, budget):
        if index == 0:
            raise ComputationBudgetExceeded("rigged")
        if index == 1:
            f = parse_polynomial("x^2", f.vars)
        return evaluate(index, f, budget)

    monkeypatch.setattr(germ.corpus, "evaluate_germ", rigged)
    code, out, err = run(capsys, "sweep", "--family", "fermat", "--d-min", "2",
                         "--d-max", "4", "--timeout", "0.2")
    assert code == 1
    assert "budget exceeded" in err
    lines = out.splitlines()
    assert not any("None" in line for line in lines[:3])
    assert "undecided (budget exceeded)" in lines[0]
    assert "mu=infinite tau=infinite" in lines[1]
    assert "mu=27 tau=27" in lines[2]
    assert "3 germs, 1 isolated, 1 non-isolated, 1 over budget," in lines[3]


@pytest.mark.parametrize("command", [
    ["bounds", "--mu", "8", "--tau", "8", "--n", "2"],
    ["semigroup", "--generators", "4,6,13"],
    ["tau-min", "--degree", "4"],
])
def test_timeout_only_where_it_acts(capsys, command):
    code, _, _ = run(capsys, *command, "--timeout", "1")
    assert code == 2


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "fermat",
                       "--d-min", "2", "--d-max", "3", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header[:6] == ["index", "germ", "n", "mu", "tau", "isolated"]
    assert len(body) == 2
    assert body[0][header.index("mu")] == "1"
    assert body[1][header.index("mu")] == "8"
    # the columns are the JSON row keys, each bound spread in place
    code, out, _ = run(capsys, "sweep", "--family", "fermat",
                       "--d-min", "2", "--d-max", "3", "--json", "--reproducible")
    keys = list(json.loads(out)["rows"][0])
    bound_columns = [f"{key}.{field}" for key in BOUND_IDS
                     for field in ("applicable", "holds", "margin_num", "margin_den")]
    assert header == [column for key in keys
                      for column in (bound_columns if key == "bounds" else [key])]
    assert header[-1] == "note"


def test_sweep_csv_reproducible(capsys):
    args = ["sweep", "--family", "fermat", "--d-max", "4", "--csv", "--reproducible"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    header, *body = csv.reader(io.StringIO(out1))
    assert [row[header.index("wall_time_s")] for row in body] == ["", "", ""]


def test_timeout_flag(capsys):
    # 0.05 s is a budget of 135,000 work units on every machine, far
    # from the 397,078 of the paper germ's portfolio.
    code, _, err = run(capsys, "invariants", "--vars", "x,y,z", "--poly",
                       BENCHMARK_GERM, "--timeout", "0.05")
    assert code == 1
    assert "budget exceeded" in err


def test_invariants_csv_timeout_leaves_isolated_empty(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x,y,z", "--poly",
                       BENCHMARK_GERM, "--timeout", "0.05", "--csv")
    assert code == 1
    header, row = list(csv.reader(io.StringIO(out)))
    assert row[header.index("isolated")] == ""
    assert row[header.index("note")] == "budget exceeded"
    assert 0 < float(row[header.index("wall_time_s")]) < 60  # measured


def test_suspend_timeout_prints_partial_report(capsys):
    code, out, err = run(capsys, "suspend", "--vars", "x,y,z", "--poly", BENCHMARK_GERM,
                         "--timeout", "0.05", "--json", "--reproducible")
    assert code == 1
    assert "budget exceeded" in err
    data = json.loads(out)
    assert data["base_mu"] is None and data["mu"] is None


NON_ISOLATED_CURVE = "(x*y+2*x*y^2-4*y^4+4*x^4*y^3)*(y+x^3*y^2)"


def test_germ_past_the_work_ceiling_is_undecided(capsys, monkeypatch):
    # The gradient of this curve germ generates (y) in the local ring.
    # Mora's snapshots compound its coefficients until the completion
    # moves to Lazard's homogenization, which proves it non-isolated.
    code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly",
                         NON_ISOLATED_CURVE, "--json", "--reproducible")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["mu"], data["tau"], data["isolated"]) == (None, None, False)
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", NON_ISOLATED_CURVE)
    assert code == 0 and "mu=infinite  tau=infinite" in out
    # With the ceiling at the first round every run fails its budget
    # before that, so the germ is reported undecided (null mu, tau and
    # isolated, exit 1) instead of running on forever.
    monkeypatch.setattr(germ.invariants, "_BUDGETS", germ.invariants._BUDGETS[:1])
    code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly",
                         NON_ISOLATED_CURVE, "--json", "--reproducible")
    assert code == 1
    assert "budget exceeded" in err and "Traceback" not in err
    data = json.loads(out)
    assert (data["mu"], data["tau"], data["isolated"]) == (None, None, None)
    assert data["timeout"] is True  # the key marks every undecided row
    assert data["note"] == "budget exceeded"
    # Text output never calls an undecided germ infinite.
    code, out, err = run(capsys, "invariants", "--vars", "x,y", "--poly", NON_ISOLATED_CURVE)
    assert code == 1
    assert "budget exceeded" in out and "budget exceeded" in err
    assert "infinite" not in out and "weighted homogeneous" not in out
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", NON_ISOLATED_CURVE,
                       "--csv")
    assert code == 1
    header, row = list(csv.reader(io.StringIO(out)))
    assert row[header.index("note")] == "budget exceeded"


def test_suspend_non_isolated_text(capsys):
    code, out, _ = run(capsys, "suspend", "--vars", "x,y", "--poly", "x^2")
    assert code == 0
    assert "base: mu=infinite tau=infinite" in out
    assert "suspension: mu=infinite tau=infinite" in out


@pytest.mark.parametrize("value", ["-1", "inf"])
def test_timeout_out_of_range_is_a_usage_error(capsys, value):
    code, _, err = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4",
                       "--timeout", value)
    assert code == 2
    assert "--timeout" in err


def test_timeout_beyond_the_alarm_timer_is_an_error(capsys):
    # 1e300 s is a budget past the bound of 2**63 work units.
    code, _, err = run(capsys, "sweep", "--family", "fermat", "--d-min", "2",
                       "--d-max", "2", "--timeout", "1e300")
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_closed_stdout_exits_cleanly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "germ.cli", "invariants", "--vars", "x,y",
             "--poly", "x^3+y^4", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_invariants_csv(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x,y", "--poly", "x^3+y^4", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, row = rows
    assert row[header.index("mu")] == "6"
    assert row[header.index("tau")] == "6"


def test_invariants_one_variable_germ(capsys):
    code, out, _ = run(capsys, "invariants", "--vars", "x", "--poly", "x^4")
    assert code == 0
    assert "mu=3" in out


def test_selftest_fast(capsys):
    code, out, _ = run(capsys, "selftest", "--fast")
    assert code == 0
    assert out.count("[PASS]") == 8
    assert "criterion 2" in out