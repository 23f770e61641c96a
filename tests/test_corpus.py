"""Sweep families, determinism, report rows."""

import concurrent.futures
import copy
import dataclasses
import gc
import hashlib
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import germ.corpus
from germ import SweepSpec, bound_report, generate_corpus, selftest, sweep
from germ.corpus import ReportRow, evaluate_row
from germ.errors import ComputationBudgetExceeded
from germ.poly import parse_polynomial

#: sha256 of the newline-joined printed germs, per (family, seed) at the
#: default ranges and count.  A change to any corpus builder shows here.
CORPUS_DIGESTS = {
    ("fermat", 0): "7579d76c9f24e3d69ed3bd3325b874ff0d08a44d1db84432b7c7b246fe8e9781",
    ("fermat", 42): "7579d76c9f24e3d69ed3bd3325b874ff0d08a44d1db84432b7c7b246fe8e9781",
    ("suspension", 0): "b89a26200b9bf9c47a369b4d73619ad44c31758696480e38e793a196075ca3d0",
    ("suspension", 42): "001d03f5edde42ca24d30063b783130eb28a1ac441aaf20df75430b191a72b52",
    ("quasihomogeneous_2var", 0):
        "0e9343e3363af4375673352951fb24df3a9236bc254e82d4d31dd65ed986acd4",
    ("quasihomogeneous_2var", 42):
        "0e9343e3363af4375673352951fb24df3a9236bc254e82d4d31dd65ed986acd4",
    ("deformed_quasihomogeneous", 0):
        "4573a7c8ec43f73792afe4a466030b25462fcb5ae01e7ebadadc777e7e82795a",
    ("deformed_quasihomogeneous", 42):
        "1a1c22c29d32e7a21635d5e353b03b171b0dcef28881b1cf01c98a719d1bf429",
}
ACCEPTANCE_DIGEST = "53441ef4333e748cb8dd4b92bc54239e2bbb548311ce5dbfe9e4bd1b31595d12"


def _digest(germs):
    return hashlib.sha256("\n".join(map(str, germs)).encode()).hexdigest()


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(family="nope")
    with pytest.raises(ValueError):
        SweepSpec(family="fermat", d_min=5, d_max=3)
    with pytest.raises(ValueError):
        SweepSpec(family="deformed_quasihomogeneous", count=0)
    with pytest.raises(ValueError):
        SweepSpec(family="fermat", seed=-1)


def test_corpus_is_seed_deterministic():
    spec = SweepSpec(family="deformed_quasihomogeneous", seed=99, count=12)
    first = [str(f) for f in generate_corpus(spec)]
    second = [str(f) for f in generate_corpus(spec)]
    assert first == second
    other = [str(f) for f in generate_corpus(
        SweepSpec(family="deformed_quasihomogeneous", seed=100, count=12))]
    assert first != other


@pytest.mark.parametrize("family, seed", sorted(CORPUS_DIGESTS))
def test_corpus_is_pinned(family, seed):
    assert _digest(generate_corpus(SweepSpec(family, seed=seed))) == CORPUS_DIGESTS[family, seed]


def test_acceptance_corpus_is_pinned():
    assert _digest(selftest.acceptance_corpus()) == ACCEPTANCE_DIGEST


#: A corpus at the caps of ``a`` and ``b``, and the digest of its germs.
CAPS_SPEC = SweepSpec("suspension", seed=0, a_max=100, b_max=100, count=2000)
CAPS_DIGEST = "e4169306eed7e2f548704cedf45d235df7047667f29f64c2caef68c0bae4ffdb"


def test_corpus_at_the_caps_is_pinned():
    assert _digest(generate_corpus(CAPS_SPEC)) == CAPS_DIGEST


def test_corpus_at_the_caps_stays_small():
    # The candidate cells are indexed, not listed: one list of cells per
    # (a, b) drawn took this corpus to a peak of about 176 MB.
    tracemalloc.start()
    try:
        generate_corpus(CAPS_SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fermat_sweep_rows():
    result = sweep(SweepSpec(family="fermat", d_min=2, d_max=6))
    assert len(result.rows) == 5
    for d, row in zip(range(2, 7), result.rows):
        assert row.mu == row.tau == (d - 1) ** 3
        assert row.ratio == 1
    assert result.min_ratio == result.max_ratio == 1
    assert result.violations == ()


def test_quasihomogeneous_sweep_rows():
    result = sweep(SweepSpec(family="quasihomogeneous_2var",
                             a_min=2, a_max=6, b_min=2, b_max=6))
    assert len(result.rows) == 25
    for row in result.rows:
        assert row.mu == row.tau
    assert result.violations == ()
    # x^a+y^b and x^b+y^a have equal (mu, tau, n), so their rows share
    # one report and one ratio
    by_pair = {}
    for row in result.rows:
        by_pair.setdefault((row.mu, row.tau, row.n), []).append(row)
    shared = [rows for rows in by_pair.values() if len(rows) > 1]
    assert len(shared) == 10
    for first, *rest in shared:
        assert all(row.report is first.report for row in rest)
        assert all(row.ratio is first.ratio for row in rest)


def test_deformed_sweep_satisfies_the_catalog():
    result = sweep(SweepSpec(family="deformed_quasihomogeneous",
                             seed=42, a_min=3, a_max=7, b_min=3, b_max=7, count=50))
    assert len(result.rows) == 50
    for row in result.rows:
        assert row.isolated
        assert row.report.verdicts["dimca_greuel_4_3"].holds is True
    assert result.min_43_margin is not None and result.min_43_margin > 0
    assert result.violations == ()


def test_suspension_sweep_matches_base():
    base = sweep(SweepSpec(family="deformed_quasihomogeneous", seed=7, count=6))
    top = sweep(SweepSpec(family="suspension", seed=7, count=6))
    for b, t in zip(base.rows, top.rows):
        assert (b.mu, b.tau) == (t.mu, t.tau)
        assert t.n == 2


def test_serial_sweep_builds_each_germ_after_the_row_before(monkeypatch):
    # A serial sweep holds no corpus: germ i+1 is drawn only after row i.
    events = []
    draw, evaluate = germ.corpus._deformations, germ.corpus.evaluate_row

    def spy_draw(*args):
        events.append("draw")
        return draw(*args)

    def spy_evaluate(index, f, seconds):
        events.append(f"row {index}")
        return evaluate(index, f, seconds)

    monkeypatch.setattr(germ.corpus, "_deformations", spy_draw)
    monkeypatch.setattr(germ.corpus, "evaluate_row", spy_evaluate)
    spec = SweepSpec(family="suspension", seed=3, count=5)
    result = sweep(spec)
    assert events == [e for i in range(spec.count) for e in ("draw", f"row {i}")]
    assert [row.germ for row in result.rows] == list(map(str, generate_corpus(spec)))


def test_rows_are_ordered_and_timed():
    result = sweep(SweepSpec(family="fermat", d_min=2, d_max=4))
    assert [r.index for r in result.rows] == [0, 1, 2]
    assert all(r.wall_time_s >= 0 for r in result.rows)


def test_report_rows_are_slotted_and_pickle_equal():
    # A sweep keeps every row, so a row carries no instance dict; the
    # slotted, frozen rows still cross the worker pipe and deep-copy.
    f = parse_polynomial("x^3+y^4+x^2*y^2", ("x", "y"))
    rows = [evaluate_row(0, f, None), evaluate_row(1, f * f, None)]
    assert rows[0].report is not None and rows[1].note
    for row in rows:
        assert not hasattr(row, "__dict__")
        for other in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert other == row


def test_parallel_sweep_matches_serial():
    strip = lambda rows: [(r.index, r.germ, r.mu, r.tau, r.report) for r in rows]
    # 1 germ starts no pool; 200 germs reach the workers in batches of 3 rows
    for count in (1, 8, 200):
        spec = SweepSpec(family="deformed_quasihomogeneous", seed=5, count=count)
        serial = sweep(spec, threads=1)
        parallel = sweep(spec, threads=2)
        assert len(serial.rows) == count
        assert strip(serial.rows) == strip(parallel.rows)
        # a report that crossed the worker pipe is still read-only
        with pytest.raises(TypeError):
            parallel.rows[0].report.verdicts["liu"] = None


def _rigged_evaluate_germ(monkeypatch):
    """Rows 1-4 of a fermat sweep become non-isolated, over a budget of
    no unit, rigged to exceed its budget and a fake with a report but no
    ratio; the rest are real."""
    evaluate = germ.corpus.evaluate_germ

    def rigged(index, f, budget):
        if index == 1:
            return evaluate(index, parse_polynomial("x^2", f.vars), budget)
        if index == 2:
            return evaluate(index, f, 0)
        if index == 3:
            raise ComputationBudgetExceeded("rigged")
        if index == 4:
            return ReportRow(index, str(f), 1, 4, 2, True, None, bound_report(4, 2, 1), 0.25,
                             note="saito direction violated")
        return evaluate(index, f, budget)

    monkeypatch.setattr(germ.corpus, "evaluate_germ", rigged)


def test_sweep_rows_read_back_exactly(monkeypatch):
    # Rows are stored by column and built again on each read; every
    # field of every kind of row must come back as evaluate_row made it.
    _rigged_evaluate_germ(monkeypatch)
    made = []
    evaluate = germ.corpus.evaluate_row

    def spy(index, f, seconds):
        made.append(evaluate(index, f, seconds))
        return made[-1]

    monkeypatch.setattr(germ.corpus, "evaluate_row", spy)
    result = sweep(SweepSpec(family="fermat", d_min=2, d_max=7), timeout=60)
    rows = result.rows
    assert [(r.isolated, r.note) for r in made[:5]] == [
        (True, ""), (False, "non-isolated; excluded from summary"),
        (None, "budget exceeded"), (None, "budget exceeded"), (True, "saito direction violated")]
    assert made[4].ratio is None and made[4].report is not None
    assert len(rows) == len(made) == 6
    for got, want in zip(rows, made):
        for field in dataclasses.fields(ReportRow):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert (type(a), a) == (type(b), b), field.name
        assert got.report is want.report and got.ratio is want.ratio
    assert rows == tuple(made) and rows[-1] == made[-1] and rows[-6] == made[0]
    assert rows[:10] == rows[::1] == tuple(made) and rows[-2::-2] == tuple(made[-2::-2])
    assert rows[7:] == ()
    for i in (6, -7):
        with pytest.raises(IndexError):
            rows[i]
    with pytest.raises(TypeError):
        rows[4].report.verdicts["liu"] = None
    assert result.violations == ("row 4: saito direction violated",
                                 "row 4: dimca_greuel_4_3", "row 4: space_branch_quarter")


def test_pooled_rows_read_back_like_serial_rows(monkeypatch):
    _rigged_evaluate_germ(monkeypatch)
    spec = SweepSpec(family="fermat", d_min=2, d_max=7)
    serial, pooled = sweep(spec, timeout=60), sweep(spec, threads=2, timeout=60)
    untimed = lambda row: dataclasses.replace(row, wall_time_s=0.0)
    assert list(map(untimed, pooled.rows)) == list(map(untimed, serial.rows))
    # An undecided row's time is measured, as its worker took it.
    assert pooled.rows[2].note == "budget exceeded" and pooled.rows[2].wall_time_s < 60
    assert dataclasses.replace(pooled, rows=()) == dataclasses.replace(serial, rows=())


def test_row_table_refuses_what_a_column_cannot_hold():
    table = germ.corpus._RowTable()
    good = ReportRow(0, "x^2+y^3", 1, 2, 2, True, None, None, 0.5)
    for bad in (dataclasses.replace(good, index=1), dataclasses.replace(good, n=2.5),
                dataclasses.replace(good, mu=1 << 63), dataclasses.replace(good, tau=-1 << 63),
                dataclasses.replace(good, isolated="yes"), dataclasses.replace(good, wall_time_s=1),
                dataclasses.replace(good, germ="\ud800")):
        with pytest.raises((ValueError, TypeError, OverflowError, KeyError)):
            table.append(bad)
        assert len(table) == 0  # nothing of the refused row is kept
    table.append(good)
    table.append(dataclasses.replace(good, index=1, germ="x^3+y^2", mu=None, tau=1 << 62))
    with pytest.raises(OverflowError):
        table.append(dataclasses.replace(good, index=2, tau=1 << 64))
    assert tuple(table) == (good, dataclasses.replace(good, index=1, germ="x^3+y^2", mu=None,
                                                      tau=1 << 62))


def test_refused_row_leaves_no_shared_object():
    # A row refused after its ratio entered the shared list leaves that
    # ratio out of the table's fields, so no summary reads it.
    table = germ.corpus._RowTable(share_by=germ.corpus._by_value)
    good = ReportRow(0, "x^2+y^3", 1, 2, 2, True, Fraction(1), None, 0.5)
    table.append(good)
    with pytest.raises(TypeError):  # a list has no value key
        table.append(dataclasses.replace(good, index=1, ratio=Fraction(7, 3), weights=[1]))
    assert len(table) == 1 and table.shared("ratio") == ({0: Fraction(1)}, array("I", [0]))
    table.append(dataclasses.replace(good, index=1, ratio=Fraction(7, 3)))
    ratios, at = table.shared("ratio")
    assert sorted(ratios.values()) == [Fraction(1), Fraction(7, 3)] and at[0] != at[1]
    assert germ.corpus.summarize(SweepSpec("fermat"), table).max_ratio == Fraction(7, 3)


def test_held_sweep_rows_stay_small():
    # Rows are held by column: about 110 bytes a row, against about 250
    # as slotted ReportRow objects.  The first sweep fills the caches.
    spec = SweepSpec(family="suspension", seed=1, count=2000)
    sweep(spec)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = sweep(spec)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 2000
    assert kept / 2000 < 128


def test_pool_streams_through_a_bounded_window(monkeypatch):
    # The pool gets at most 2 * threads chunks at a time, submitted in
    # corpus order, and never the whole corpus.
    class Pool:
        outstanding = peak = 0
        starts = []

        def __init__(self, max_workers, initializer):
            self.window = 2 * max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, start, chunk, seconds):
            Pool.starts.append((start, len(chunk)))
            Pool.outstanding += 1
            Pool.peak = max(Pool.peak, Pool.outstanding)
            future = concurrent.futures.Future()
            future.set_result(fn(start, chunk, seconds))
            return Future(future)

    class Future:
        def __init__(self, future):
            self.future = future

        def result(self):
            Pool.outstanding -= 1
            return self.future.result()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    spec = SweepSpec(family="deformed_quasihomogeneous", seed=5, count=200)
    pooled = sweep(spec, threads=2)
    assert (Pool.peak, Pool.outstanding) == (4, 0)
    assert len(Pool.starts) == 67  # chunks of 200 // 64 = 3 germs
    assert [start for start, _ in Pool.starts] == [3 * k for k in range(67)]
    untimed = lambda row: dataclasses.replace(row, wall_time_s=0.0)
    assert list(map(untimed, pooled.rows)) == list(map(untimed, sweep(spec).rows))


@pytest.mark.parametrize("spec", [
    SweepSpec("fermat", d_min=3, d_max=9),
    SweepSpec("quasihomogeneous_2var", a_min=2, a_max=5, b_min=3, b_max=9),
    SweepSpec("suspension", count=7),
], ids=lambda spec: spec.family)
def test_corpus_size_counts_the_corpus(spec):
    assert germ.corpus._corpus_size(spec) == len(generate_corpus(spec))


def test_import_loads_no_worker_pool():
    # Only a sweep with threads > 1 forks, so a fresh interpreter that
    # imports the package or its command line loads no multiprocessing.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys\n"
             "pool = ('multiprocessing', 'concurrent.futures.process')\n"
             "for name in ('germ', 'germ.cli'):\n"
             "    __import__(name)\n"
             "    assert sys.modules['germ'].__file__.startswith(sys.argv[1])\n"
             "    loaded = [m for m in pool if m in sys.modules]\n"
             "    assert not loaded, (name, loaded)\n")
    proc = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_sweep_rejects_zero_threads():
    with pytest.raises(ValueError):
        sweep(SweepSpec(family="fermat", d_min=2, d_max=3), threads=0)