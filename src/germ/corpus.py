"""Seeded germ families and the sweep driver.

Corpora are fully determined by the sweep seed.  Deformed families add
small integer terms strictly above the weighted degree of a
quasihomogeneous seed germ, which keeps the deformations in the
semi-quasihomogeneous regime, so every seeded germ is isolated.  A
non-isolated germ passed to :func:`evaluate_germ` directly gets a row
that says so and is excluded from ratio summaries.

A serial sweep builds each germ only after the row before it, so its
memory grows only with the rows it returns; a sweep in worker processes
hands the pool the whole corpus.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .bounds import BOUND_IDS, BoundReport, bound_report
from .errors import ComputationBudgetExceeded
from .invariants import WeightVector, _no_lanes, germ_invariants, suspend
from .poly import _ONE, Polynomial, parse_polynomial

FAMILIES = ("fermat", "suspension", "quasihomogeneous_2var", "deformed_quasihomogeneous")

#: Largest ``a_max``/``b_max`` and ``count`` a sweep accepts: a deformed
#: germ draws from ``(a+3)*(b+3)`` candidate terms, ``quasihomogeneous_2var``
#: makes one germ per ``(a, b)``, and a sweep in worker processes builds
#: its corpus in full before the first germ is evaluated (20,000
#: suspension germs at ``a, b <= 100`` take 0.5-0.7 s, at a peak RSS of
#: about 35 MB).
_MAX_AB = 100
_MAX_COUNT = 20_000


@dataclass(frozen=True)
class SweepSpec:
    """Family name, parameter ranges and the seed that fixes the corpus."""

    family: str
    seed: int = 0
    a_min: int = 3
    a_max: int = 8
    b_min: int = 3
    b_max: int = 8
    d_min: int = 2
    d_max: int = 6
    count: int = 50
    suspension_power: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.a_min < 2 or self.b_min < 2 or self.a_max < self.a_min or self.b_max < self.b_min:
            raise ValueError("invalid a/b range")
        if max(self.a_max, self.b_max) > _MAX_AB:
            raise ValueError(f"a/b range past the bound {_MAX_AB}")
        if self.d_min < 2 or self.d_max < self.d_min:
            raise ValueError("invalid degree range")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.count > _MAX_COUNT:
            raise ValueError(f"count {self.count} exceeds the bound {_MAX_COUNT}")
        if self.seed < 0 or self.seed >= 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.suspension_power < 2:
            raise ValueError("suspension power must be at least 2")


#: A deformation adds between 1 and ``_DEFORMATION_TERMS`` terms, each
#: with a coefficient drawn from ``_DEFORMATION_COEFFS``; the germs share
#: these ``Fraction`` objects.
_DEFORMATION_TERMS = 3
_DEFORMATION_COEFFS = tuple(map(Fraction, (-3, -2, -1, 1, 2, 3)))
_XY = ("x", "y")


class _Cells(Sequence):
    """Candidate exponents of ``(a, b)``, indexed arithmetically.

    The cells ``(i, j)`` of the ``(a+3) x (b+3)`` box of weighted degree
    ``i*b + j*a`` above ``a*b``, in row-major order: row ``i`` runs from
    ``j = max(0, (a*b - i*b)//a + 1)`` to ``b + 2``, so the row starts
    locate a cell by one bisection and no cell is stored (the lists of a
    corpus at ``a, b <= 100`` held about 48M tuples).  ``random.sample``
    reads a population only through ``len``, indexing and iteration, so
    it draws the same cells as from the list.
    """

    __slots__ = ("_a", "_b", "_starts", "_len")

    def __init__(self, a: int, b: int):
        self._a, self._b = a, b
        self._starts = array("q", accumulate((b + 3 - self._first(i) for i in range(a + 3)),
                                             initial=0))
        self._len = self._starts.pop()

    def _first(self, i: int) -> int:
        a, b = self._a, self._b
        return max(0, (a * b - i * b) // a + 1)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self._len:  # iteration stops at the IndexError
            raise IndexError("cell index out of range")
        i = bisect_right(self._starts, k) - 1
        return i, self._first(i) + k - self._starts[i]


def _deformations(a: int, b: int, rng: random.Random,
                  cells: dict[tuple[int, int], _Cells]) -> Polynomial:
    """x^a + y^b plus seeded terms of strictly higher weighted degree.

    ``cells`` maps ``(a, b)`` to its candidate exponents; a missing
    entry is built and added.  The terms are distinct and nonzero by
    construction, so the germ skips the validating constructor.
    """
    candidates = cells.get((a, b))
    if candidates is None:
        candidates = cells[a, b] = _Cells(a, b)
    terms = {(a, 0): _ONE, (0, b): _ONE}
    picks = rng.sample(candidates, min(rng.randint(1, _DEFORMATION_TERMS), len(candidates)))
    for i, j in picks:
        terms[(i, j)] = rng.choice(_DEFORMATION_COEFFS)
    return Polynomial._raw(_XY, terms)


def _germs(spec: SweepSpec) -> Iterator[Polynomial]:
    """The germs of ``spec`` in corpus order, each built when it is asked for.

    The suspension family is the deformed family of the same seed and
    ranges, pushed up one dimension.
    """
    if spec.family == "fermat":
        for d in range(spec.d_min, spec.d_max + 1):
            yield parse_polynomial(f"x^{d}+y^{d}+z^{d}", ["x", "y", "z"])
        return
    if spec.family == "quasihomogeneous_2var":
        for a in range(spec.a_min, spec.a_max + 1):
            for b in range(spec.b_min, spec.b_max + 1):
                yield parse_polynomial(f"x^{a}+y^{b}", ["x", "y"])
        return
    rng = random.Random(spec.seed)
    cells: dict[tuple[int, int], _Cells] = {}  # no cell index outlives a corpus
    lift = spec.family == "suspension"
    for _ in range(spec.count):
        f = _deformations(rng.randint(spec.a_min, spec.a_max),
                          rng.randint(spec.b_min, spec.b_max), rng, cells)
        yield suspend(f, spec.suspension_power) if lift else f


def generate_corpus(spec: SweepSpec) -> list[Polynomial]:
    """The deterministic germ list of a sweep specification."""
    return list(_germs(spec))


@dataclass(frozen=True, slots=True)
class ReportRow:
    """One evaluated germ: invariants, verdicts, weights and timing.

    ``isolated`` is None when the row was never decided: it missed its
    deadline (note ``timeout``) or its work ceiling (note ``budget
    exceeded``).  Slotted: a sweep keeps every row, with no per-row
    ``__dict__``.
    """

    index: int
    germ: str
    n: int
    mu: int | None
    tau: int | None
    isolated: bool | None
    ratio: Fraction | None
    report: BoundReport | None
    wall_time_s: float
    note: str = ""
    weights: WeightVector | None = None


def evaluate_germ(index: int, f: Polynomial) -> ReportRow:
    """Compute one report row; pure apart from the timing field."""
    start = time.perf_counter()
    inv = germ_invariants(f)
    elapsed = time.perf_counter() - start
    weights = inv.weighted_homogeneous_in_coords
    if not inv.isolated:
        return ReportRow(index, str(f), inv.germ_dimension, None, None, False, None,
                         None, elapsed, "non-isolated; excluded from summary", weights)
    report = (bound_report(inv.mu, inv.tau, inv.germ_dimension)
              if inv.germ_dimension >= 1 and inv.tau >= 1 else None)
    note = ""
    if weights is not None and inv.mu != inv.tau:
        note = "saito direction violated"  # impossible unless the engine is broken
    return ReportRow(index, str(f), inv.germ_dimension, inv.mu, inv.tau, True,
                     inv.ratio, report, elapsed, note=note, weights=weights)


@contextmanager
def deadline(seconds: float | None):
    """Abort the enclosed computation with TimeoutError after ``seconds``.

    Uses the alarm signal, so it works in the main thread of any
    process, sweep workers included; ``None`` or 0 sets no deadline.
    A value the timer cannot take raises ValueError.
    """
    if not seconds:
        yield
        return

    def handler(signum, frame):
        raise TimeoutError(f"computation exceeded {seconds} seconds")

    old = signal.signal(signal.SIGALRM, handler)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
        except (OverflowError, signal.ItimerError):
            raise ValueError(f"cannot set a deadline of {seconds} seconds") from None
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def evaluate_row(index: int, f: Polynomial, seconds: float | None) -> ReportRow:
    """``evaluate_germ`` under a deadline; an undecided germ gets a partial row.

    A germ past the deadline becomes a ``timeout`` row, one past the
    portfolio's work ceiling a ``budget exceeded`` row with its measured
    time.
    """
    start = time.perf_counter()
    try:
        with deadline(seconds):
            return evaluate_germ(index, f)
    except TimeoutError:
        note, elapsed = "timeout", seconds
    except ComputationBudgetExceeded:
        note, elapsed = "budget exceeded", time.perf_counter() - start
    return ReportRow(index, str(f), len(f.vars) - 1, None, None, None,
                     None, None, elapsed, note=note)


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[ReportRow, ...]
    min_ratio: Fraction | None
    max_ratio: Fraction | None
    min_43_margin: Fraction | None
    violations: tuple[str, ...]


def sweep(spec: SweepSpec, threads: int = 1, timeout: float | None = None) -> SweepResult:
    """Evaluate a whole corpus; deterministic under a fixed seed.

    ``threads`` caps the number of worker processes, which take rows in
    batches; rows keep corpus order regardless.
    ``timeout`` is a per-row deadline in seconds, enforced in whichever
    process evaluates the row; a row that misses it is reported with
    the note ``timeout``.
    """
    if threads < 1:
        raise ValueError("thread count must be positive")
    # Executor.map submits every chunk at once, so the pool takes a list.
    germs = generate_corpus(spec) if threads > 1 else _germs(spec)
    if threads > 1 and len(germs) > 1:
        # Imported here: the pool brings in multiprocessing, pickle and
        # logging, which no serial caller should pay for.
        from concurrent.futures import ProcessPoolExecutor
        # The workers fork no Tjurina lanes: their siblings use the other CPUs.
        with ProcessPoolExecutor(max_workers=threads, initializer=_no_lanes) as pool:
            rows = tuple(pool.map(evaluate_row, range(len(germs)), germs, repeat(timeout),
                                  chunksize=max(1, len(germs) // (32 * threads))))
    else:
        # Serially, each germ is built after the row before it.
        rows = tuple(evaluate_row(i, f, timeout) for i, f in enumerate(germs))
    return summarize(spec, rows)


def summarize(spec: SweepSpec, rows) -> SweepResult:
    """Sweep summary of evaluated rows: ratio range, 4/3 margin, violations.

    A row is a violation when its note reports one or when a catalog
    bound fails on it.
    """
    ratios = [r.ratio for r in rows if r.ratio is not None]
    margins = [r.report.verdicts["dimca_greuel_4_3"].margin
               for r in rows if r.report is not None and r.n == 1]
    violations = []
    for r in rows:
        if r.note and "violated" in r.note:
            violations.append(f"row {r.index}: {r.note}")
        if r.report is None:
            continue
        for key in BOUND_IDS:
            if r.report.verdicts[key].holds is False:
                violations.append(f"row {r.index}: {key}")
    return SweepResult(
        spec=spec,
        rows=tuple(rows),
        min_ratio=min(ratios) if ratios else None,
        max_ratio=max(ratios) if ratios else None,
        min_43_margin=min(margins) if margins else None,
        violations=tuple(violations),
    )
