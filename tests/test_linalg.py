"""Exact nullspace and strict-positivity search."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from germ.linalg import nullspace, strictly_positive_solution


def test_nullspace_simple():
    # x - y = 0 in two unknowns
    basis = nullspace([[Fraction(1), Fraction(-1)]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0


def test_nullspace_full_and_trivial():
    assert len(nullspace([], 3)) == 3
    assert nullspace([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 2) == []


def test_positive_solution_found_and_certified():
    # one-dimensional ray through (4, 3)
    lam = strictly_positive_solution([(Fraction(4),), (Fraction(3),)])
    assert lam is not None and 4 * lam[0] > 0 and 3 * lam[0] > 0


def test_positive_solution_infeasible():
    # rows (1) and (-1) cannot both be positive multiples of one lambda
    assert strictly_positive_solution([(Fraction(1),), (Fraction(-1),)]) is None
    # a zero row can never be strictly positive
    assert strictly_positive_solution([(Fraction(0), Fraction(0))]) is None


frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(st.tuples(frac, frac, frac), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_positive_solution_is_a_witness(rows):
    lam = strictly_positive_solution(rows)
    if lam is not None:
        for row in rows:
            assert sum(c * v for c, v in zip(row, lam)) > 0


@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_nullspace_vectors_solve_the_system(rows):
    for vec in nullspace(rows, 3):
        for row in rows:
            assert sum(c * v for c, v in zip(row, vec)) == 0


positive = st.fractions(min_value=Fraction(1, 4), max_value=5, max_denominator=6)


@given(st.tuples(positive, positive),
       st.lists(st.tuples(frac, frac), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_positive_solution_is_complete(point, rows):
    # keep only rows the chosen positive point satisfies; the solver must
    # then find some witness as well (completeness, not the same point)
    feasible = [r for r in rows if sum(c * v for c, v in zip(r, point)) > 0]
    feasible.append((Fraction(1), Fraction(0)))
    feasible.append((Fraction(0), Fraction(1)))
    lam = strictly_positive_solution(feasible)
    assert lam is not None
    for row in feasible:
        assert sum(c * v for c, v in zip(row, lam)) > 0

def _reference_nullspace(rows, ncols):
    """Gauss-Jordan over ``Fraction``: the reference for the integer elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivot_col_of_row = []
    row_idx = 0
    for col in range(ncols):
        pivot = next((r for r in range(row_idx, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row_idx], matrix[pivot] = matrix[pivot], matrix[row_idx]
        inv = 1 / matrix[row_idx][col]
        matrix[row_idx] = [v * inv for v in matrix[row_idx]]
        for r in range(len(matrix)):
            if r != row_idx and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row_idx])]
        pivot_col_of_row.append(col)
        row_idx += 1
        if row_idx == len(matrix):
            break
    basis = []
    for free in range(ncols):
        if free in pivot_col_of_row:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_col_of_row):
            vec[col] = -matrix[r][free]
        basis.append(tuple(vec))
    return basis


@st.composite
def integer_systems(draw):
    """Up to 8 integer rows in 1 to 4 unknowns, with zero and repeated rows."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.append([0] * n)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], n


nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool)


@given(integer_systems(), st.lists(nonzero, min_size=1, max_size=8))
@example(([[0, 0, 0], [1, -1, 0], [0, 0, 0]], 3), [Fraction(1, 2)])
@example(([[2, 4], [1, 2], [2, 4]], 2), [Fraction(-3), Fraction(1, 7)])
@example(([[1], [-3], [2], [0]], 1), [Fraction(5, 6)])
@example(([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1], [3, 6, 10, 13], [1, 0, 0, 0]], 4),
         [Fraction(2, 3), Fraction(-1)])
@settings(max_examples=200, deadline=None)
def test_nullspace_matches_fraction_reference(system, scales):
    # Integer elimination ends on multiples of the rows of the reduced
    # row echelon form, which is unique: the basis is the reference's.
    rows, n = system
    basis = nullspace(rows, n)
    assert basis == _reference_nullspace(rows, n)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    assert nullspace([[Fraction(x) for x in row] for row in rows], n) == basis
    # Scaling each row by a nonzero rational changes neither.
    scaled = [[x * scales[i % len(scales)] for x in row] for i, row in enumerate(rows)]
    assert nullspace(scaled, n) == basis
