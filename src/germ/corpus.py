"""Seeded germ families and the sweep driver.

Corpora are fully determined by the sweep seed.  Deformed families add
small integer terms strictly above the weighted degree of a
quasihomogeneous seed germ, which keeps the deformations in the
semi-quasihomogeneous regime, so every seeded germ is isolated.  A
non-isolated germ passed to :func:`evaluate_germ` directly gets a row
that says so and is excluded from ratio summaries.

A sweep builds each germ only when it is due: serially after the row
before it, in worker processes when its chunk enters a bounded window
of chunks in flight.  Its rows are kept by column in one table, so its
memory grows by about 110 bytes per row.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, islice

from .bounds import BOUND_IDS, BoundReport, bound_report
from .errors import ComputationBudgetExceeded
from .invariants import (_CEILING, _UNITS_PER_SECOND, WeightVector, _no_lanes, germ_invariants,
                         suspend)
from .poly import _ONE, Polynomial, parse_polynomial

FAMILIES = ("fermat", "suspension", "quasihomogeneous_2var", "deformed_quasihomogeneous")

#: Largest ``a_max``/``b_max`` and ``count`` a sweep accepts: a deformed
#: germ draws from ``(a+3)*(b+3)`` candidate terms, ``quasihomogeneous_2var``
#: makes one germ per ``(a, b)``, and ``generate_corpus`` lists the
#: whole corpus (20,000 suspension germs at ``a, b <= 100`` take
#: 0.5-0.7 s, at a peak RSS of about 35 MB).
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

    __slots__ = ("_starts", "_shift", "_len")

    def __init__(self, a: int, b: int):
        firsts = [max(0, (a * b - i * b) // a + 1) for i in range(a + 3)]
        self._starts = array("q", accumulate((b + 3 - j for j in firsts), initial=0))
        self._len = self._starts.pop()
        # Cell k, in row i, is (i, k + shift[i]).
        self._shift = array("q", (j - start for j, start in zip(firsts, self._starts)))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self._len:  # iteration stops at the IndexError
            raise IndexError("cell index out of range")
        i = bisect_right(self._starts, k) - 1
        return i, k + self._shift[i]


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


def _corpus_size(spec: SweepSpec) -> int:
    """The number of germs ``_germs(spec)`` yields, without building one."""
    if spec.family == "fermat":
        return spec.d_max - spec.d_min + 1
    if spec.family == "quasihomogeneous_2var":
        return (spec.a_max - spec.a_min + 1) * (spec.b_max - spec.b_min + 1)
    return spec.count


def generate_corpus(spec: SweepSpec) -> list[Polynomial]:
    """The deterministic germ list of a sweep specification."""
    return list(_germs(spec))


@dataclass(frozen=True, slots=True)
class ReportRow:
    """One evaluated germ: invariants, verdicts, weights and timing.

    ``isolated`` is None when the row was never decided: the germ ran
    out of its work budget (note ``budget exceeded``).  Slotted and
    frozen, with no per-row ``__dict__``; a sweep keeps its rows by
    column and builds each row when it is read.
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


def evaluate_germ(index: int, f: Polynomial, budget: int = _CEILING) -> ReportRow:
    """Compute one report row within ``budget`` work units (see
    :func:`~germ.invariants.germ_invariants`); pure apart from the
    timing field."""
    start = time.perf_counter()
    inv = germ_invariants(f, budget)
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
                     inv.ratio, report, elapsed, note, weights)


#: Bound of a row's work budget: 2**63 units, about 225,000 years at
#: :data:`~germ.invariants._UNITS_PER_SECOND`.
_MAX_BUDGET = 1 << 63


def evaluate_row(index: int, f: Polynomial, seconds: float | None) -> ReportRow:
    """``evaluate_germ`` within a work budget; an undecided germ gets a partial row.

    ``seconds`` is the budget at the fixed rate
    :data:`~germ.invariants._UNITS_PER_SECOND`; None or 0 leaves the
    default :data:`~germ.invariants._CEILING`, and a budget past
    ``_MAX_BUDGET`` units raises ValueError.  The budget bounds each of
    the germ's paths to its Tjurina number
    (:func:`~germ.invariants._raced`), in whichever process evaluates
    it, so which germs it decides does not depend on the machine or its
    load.  A germ past it becomes a ``budget exceeded`` row with its
    measured time.
    """
    budget = _CEILING
    if seconds:
        units = seconds * _UNITS_PER_SECOND
        if not 0 <= units < _MAX_BUDGET:
            raise ValueError(f"{seconds} seconds is past the bound of {_MAX_BUDGET} work units")
        budget = int(units)
    start = time.perf_counter()
    try:
        return evaluate_germ(index, f, budget)
    except ComputationBudgetExceeded:
        return ReportRow(index, str(f), len(f.vars) - 1, None, None, None,
                         None, None, time.perf_counter() - start, note="budget exceeded")


def _evaluate_chunk(start: int, germs: list[Polynomial],
                    seconds: float | None) -> list[ReportRow]:
    """Rows ``start, start+1, ...`` of ``germs``: one task of the worker pool."""
    return [evaluate_row(i, f, seconds) for i, f in enumerate(germs, start)]


#: Stored in the ``mu`` or ``tau`` column for None, so that value itself cannot be.
_MISSING = -1 << 63
_ISOLATED = {None: 0, False: 1, True: 2}
#: The row fields a table keeps as indices into its list of shared objects.
_SHARED = ("ratio", "report", "weights", "note")


def _by_value(value) -> tuple:
    """The key that shares a copied object with its equal: a report by its verdicts."""
    if isinstance(value, BoundReport):
        return BoundReport, tuple(value.verdicts.items())
    return type(value), value


class _RowTable(Sequence):
    """A sweep's rows, stored by column; ``table[i]`` builds its ``ReportRow``.

    The germ texts share one UTF-8 buffer, cut by an array of end
    offsets; ``n``, ``mu``, ``tau`` (None as ``_MISSING``), ``isolated``
    and ``wall_time_s`` sit in typed arrays.  The ``_SHARED`` fields
    fill one slot each per row of an array of indices into one list of
    the distinct objects the rows share, matched by ``share_by``: ``id``
    for rows made in this process, whose objects the list keeps alive,
    :func:`_by_value` for rows that crossed the worker pipe as copies.
    (Matching serial rows by value as well would hash every report's
    verdicts: about 8 us a row, against about 200 us to evaluate a
    small germ.)  A held row takes about 110 bytes, against about 250
    as a ``ReportRow``.  Rows arrive in corpus order, so a row's index
    is its position.  A value that no column can hold raises, and the
    row is not stored; none is stored altered.
    """

    __slots__ = ("_text", "_ends", "_n", "_mu", "_tau", "_isolated", "_wall", "_refs",
                 "_shared", "_at", "_key")

    def __init__(self, share_by=id):
        self._text = bytearray()
        self._ends = array("I")
        self._n = array("i")
        self._mu, self._tau = array("q"), array("q")
        self._isolated = array("B")
        self._wall = array("d")
        self._refs = array("I")  # ratio, report, weights, note: the _SHARED order
        self._shared: list = []
        self._at: dict = {}
        self._key = share_by

    def append(self, row: ReportRow) -> None:
        size = len(self._ends)
        if row.index != size:
            raise ValueError(f"row {row.index} arrived at position {size}")
        if type(row.wall_time_s) is not float:
            raise TypeError(f"wall time {row.wall_time_s!r} is not a float")
        mu, tau = row.mu, row.tau
        if _MISSING in (mu, tau):
            raise OverflowError(f"{_MISSING} is the stored form of None")
        text = row.germ.encode()
        try:
            self._ends.append(len(self._text) + len(text))
            self._text += text
            self._n.append(row.n)
            self._mu.append(_MISSING if mu is None else mu)
            self._tau.append(_MISSING if tau is None else tau)
            self._isolated.append(_ISOLATED[row.isolated])
            self._wall.append(row.wall_time_s)
            at, key, refs = self._at, self._key, self._refs
            for value in (row.ratio, row.report, row.weights, row.note):
                k = at.get(key(value))
                if k is None:
                    k = at[key(value)] = len(self._shared)
                    self._shared.append(value)
                refs.append(k)
        except BaseException:
            self._truncate(size)
            raise

    def _truncate(self, size: int) -> None:
        """Drop every row from position ``size`` on."""
        del self._text[self._ends[size - 1] if size else 0:]
        for column in (self._ends, self._n, self._mu, self._tau, self._isolated, self._wall):
            del column[size:]
        del self._refs[4 * size:]

    def extend(self, rows: Iterable[ReportRow]) -> None:
        for row in rows:
            self.append(row)

    def shared(self, field: str) -> tuple[dict, array]:
        """A ``_SHARED`` field as the objects its rows hold, each once and
        keyed by an index, and each row's index."""
        at = self._refs[_SHARED.index(field)::4]
        return {k: self._shared[k] for k in set(at)}, at

    def __len__(self) -> int:
        return len(self._ends)

    def _row(self, i: int) -> ReportRow:
        germ = self._text[self._ends[i - 1] if i else 0:self._ends[i]].decode()
        mu, tau = self._mu[i], self._tau[i]
        ratio, report, weights, note = map(self._shared.__getitem__, self._refs[4 * i:4 * i + 4])
        return ReportRow(i, germ, self._n[i], None if mu == _MISSING else mu,
                         None if tau == _MISSING else tau, (None, False, True)[self._isolated[i]],
                         ratio, report, self._wall[i], note, weights)

    def __getitem__(self, i):
        size = len(self._ends)
        if isinstance(i, slice):
            return tuple(map(self._row, range(*i.indices(size))))
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("row index out of range")
        return self._row(i)

    def __iter__(self) -> Iterator[ReportRow]:
        return map(self._row, range(len(self._ends)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, _RowTable)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: Sequence[ReportRow]
    min_ratio: Fraction | None
    max_ratio: Fraction | None
    min_43_margin: Fraction | None
    violations: tuple[str, ...]


def sweep(spec: SweepSpec, threads: int = 1, timeout: float | None = None) -> SweepResult:
    """Evaluate a whole corpus; deterministic under a fixed seed.

    ``threads`` caps the number of worker processes, which take rows in
    chunks through a window of ``2 * threads`` chunks in flight; rows
    keep corpus order regardless.
    ``timeout`` is each row's work budget in seconds, as
    :func:`evaluate_row` takes it, so the same rows are decided at any
    thread count; a row past it is reported with the note ``budget
    exceeded``.
    """
    if threads < 1:
        raise ValueError("thread count must be positive")
    germs = _germs(spec)
    if threads > 1:
        head = list(islice(germs, 2))  # a one-germ corpus starts no pool
        germs = chain(head, germs)
        if len(head) > 1:
            return summarize(spec, _pooled_rows(germs, _corpus_size(spec), threads, timeout))
    # Serially, each germ is built after the row before it.
    rows = _RowTable()
    for i, f in enumerate(germs):
        rows.append(evaluate_row(i, f, timeout))
    return summarize(spec, rows)


#: Largest chunk of germs a worker takes: with at most ``2 * threads``
#: chunks in flight, the parent holds a bounded number of germs and
#: returned rows whatever the corpus size.  A 20,000-germ sweep in two
#: workers peaks at about 22.5 MB RSS in chunks of 128, against about
#: 23.5 MB in chunks of 312, at about the same speed.
_CHUNK = 128


def _pooled_rows(germs: Iterator[Polynomial], count: int, threads: int,
                 timeout: float | None) -> _RowTable:
    """The rows of ``count`` germs, evaluated in ``threads`` worker processes.

    Chunks of about ``count / (32 * threads)`` germs, at most ``_CHUNK``,
    are built and submitted in corpus order, at most ``2 * threads`` in
    flight; each chunk's rows are stored as it returns.
    """
    rows = _RowTable(share_by=_by_value)
    size = min(_CHUNK, max(1, count // (32 * threads)))
    chunks = iter(lambda: list(islice(germs, size)), [])
    # Imported here: the pool brings in multiprocessing, pickle and
    # logging, which no serial caller should pay for.
    from concurrent.futures import ProcessPoolExecutor
    # The workers fork no Tjurina lanes: their siblings use the other CPUs.
    with ProcessPoolExecutor(max_workers=threads, initializer=_no_lanes) as pool:
        window, start = deque(), 0
        for chunk in chunks:
            window.append(pool.submit(_evaluate_chunk, start, chunk, timeout))
            start += len(chunk)
            if len(window) == 2 * threads:
                rows.extend(window.popleft().result())
        while window:
            rows.extend(window.popleft().result())
    return rows


def summarize(spec: SweepSpec, rows: _RowTable) -> SweepResult:
    """Sweep summary of a row table: ratio range, 4/3 margin, violations.

    A row is a violation when its note reports one or when a catalog
    bound fails on it.  Ratios, margins and failing bounds are read once
    per distinct object of the table, not once per row; the 4/3 margin
    is taken over the reports where that bound applies, which are those
    of the curve rows.
    """
    ratios, _ = rows.shared("ratio")
    reports, report_at = rows.shared("report")
    notes, note_at = rows.shared("note")
    ratios = [r for r in ratios.values() if r is not None]
    verdicts = [r.verdicts["dimca_greuel_4_3"] for r in reports.values() if r is not None]
    margins = [v.margin for v in verdicts if v.applicable]
    noted = {k for k, note in notes.items() if note and "violated" in note}
    failing = {}
    for k, r in reports.items():
        keys = [key for key in BOUND_IDS if r is not None and r.verdicts[key].holds is False]
        if keys:
            failing[k] = keys
    violations = []
    if noted or failing:
        for i, (k, r) in enumerate(zip(note_at, report_at)):
            if k in noted:
                violations.append(f"row {i}: {notes[k]}")
            violations += (f"row {i}: {key}" for key in failing.get(r, ()))
    return SweepResult(
        spec=spec,
        rows=rows,
        min_ratio=min(ratios) if ratios else None,
        max_ratio=max(ratios) if ratios else None,
        min_43_margin=min(margins) if margins else None,
        violations=tuple(violations),
    )
