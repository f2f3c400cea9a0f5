"""Differential tests of the integer kernel in `qonsager.linalg`.

The reference below is the `Fraction` Gauss-Jordan kernel that `linalg` used
before it moved to integer numerators over one denominator. It lives here
only, as an oracle: every operation of the new kernel must agree with it
exactly on random rational matrices, including rank-deficient ones and
entries with large numerators and denominators. `rref`, `inverse` and
`kernel`, and the rank read off the kernel, are also checked against sympy
when it is installed.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qonsager.linalg import (
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    kernel,
    rref,
)

from linalg_reference import span, subspace_intersect, subspace_sum

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------- reference


def ref_rref(rows):
    """Reduced row-echelon form over Fraction, pivoting on the first nonzero column."""
    rows = [[F(e) for e in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    lead = 0
    for col in range(ncols):
        if lead >= nrows:
            break
        pivot = next((r for r in range(lead, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [e * inv for e in rows[lead]]
        for r in range(nrows):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[lead])]
        lead += 1
    return rows


def ref_inverse(rows):
    """(inverse rows, None), or (None, rank) when singular."""
    n = len(rows)
    aug = [[F(e) for e in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [e * inv for e in aug[rank]]
        for r in range(n):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[rank])]
        rank += 1
    if rank < n:
        return None, rank
    return [row[n:] for row in aug], None


def ref_span(n, vectors):
    """Canonical basis of a span: the nonzero rows of its reduced row-echelon form."""
    if not vectors:
        return []
    return [r for r in ref_rref(vectors) if any(e != 0 for e in r)]


def ref_kernel(rows):
    reduced = ref_rref(rows)
    ncols = len(rows[0])
    pivots = [next(j for j, e in enumerate(r) if e != 0) for r in reduced if any(e != 0 for e in r)]
    vectors = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [F(0)] * ncols
        vec[f] = F(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        vectors.append(vec)
    return ref_span(ncols, vectors)


def ref_intersect(n, s, t):
    if not s or not t:
        return []
    block = [list(r) + list(r) for r in s] + [list(r) + [F(0)] * n for r in t]
    vectors = [r[n:] for r in ref_rref(block) if all(e == 0 for e in r[:n]) and any(e != 0 for e in r[n:])]
    return ref_span(n, vectors)


def ref_mul(x, y):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*y)] for row in x]


def as_rows(m):
    return [list(r) for r in m.entries]


def as_basis(s):
    return [list(r) for r in s.basis]


# ---------------------------------------------------------------- strategies

SMALL = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
LARGE = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**24))
ENTRY = st.one_of(st.just(F(0)), SMALL, LARGE)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Dense, sparse or low-rank rational matrices of size 1..8."""
    n = rows if rows is not None else draw(st.integers(1, 8))
    m = cols if cols is not None else draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank"]))
    if kind == "low_rank":
        r = draw(st.integers(0, max(0, min(n, m) - 1)))
        if r == 0:
            return [[F(0)] * m for _ in range(n)]
        left = [[draw(SMALL) for _ in range(r)] for _ in range(n)]
        right = [[draw(ENTRY) for _ in range(m)] for _ in range(r)]
        return ref_mul(left, right)
    entry = st.one_of(st.just(F(0)), st.just(F(0)), ENTRY) if kind == "sparse" else ENTRY
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 8))
    return draw(matrices(n, n)), draw(matrices(n, n))


@st.composite
def subspace_pairs(draw):
    """Two spans in Q^n, given by up to n + 1 generating vectors each."""
    n = draw(st.integers(1, 7))
    gens = [draw(matrices(draw(st.integers(1, n + 1)), n)) for _ in range(2)]
    return n, gens[0], gens[1]


# ---------------------------------------------------------------- representation


@SETTINGS
@given(matrices())
def test_stored_in_lowest_terms(rows):
    m = Matrix(rows)
    assert m.denominator > 0
    assert math.gcd(m.denominator, *(e for r in m.numerators for e in r)) == 1
    assert as_rows(m) == rows
    assert all(m[i, j] == rows[i][j] for i in range(m.rows) for j in range(m.cols))
    assert Matrix(m.numerators, m.denominator) == m


def test_numerator_constructor_reduces():
    m = Matrix([[2, 4], [6, 8]], 6)
    assert (m.numerators, m.denominator) == (((1, 2), (3, 4)), 3)
    assert m == Matrix([[F(1, 3), F(2, 3)], [1, F(4, 3)]])
    assert hash(m) == hash(Matrix([[F(1, 3), F(2, 3)], [1, F(4, 3)]]))
    with pytest.raises(ValueError):
        Matrix([[1]], 0)
    with pytest.raises(ValueError):
        Subspace(1, [[1]], -1)


def test_constructor_accepts_rational_tokens():
    assert Matrix([["1/2", 0.25]]) == Matrix([[F(1, 2), F(1, 4)]])


# ---------------------------------------------------------------- arithmetic


@SETTINGS
@given(square_pairs(), ENTRY)
def test_ring_operations_match_reference(pair, c):
    x, y = pair
    mx, my = Matrix(x), Matrix(y)
    assert as_rows(mx * my) == ref_mul(x, y)
    assert as_rows(mx + my) == [[a + b for a, b in zip(r, s)] for r, s in zip(x, y)]
    assert as_rows(mx - my) == [[a - b for a, b in zip(r, s)] for r, s in zip(x, y)]
    assert as_rows(mx.scale(c)) == [[c * a for a in r] for r in x]
    assert as_rows(-mx) == [[-a for a in r] for r in x]
    assert mx.is_zero() == all(e == 0 for r in x for e in r)


@SETTINGS
@given(matrices(), matrices())
def test_rectangular_product_matches_reference(x, y):
    if len(x[0]) != len(y):
        with pytest.raises(ShapeError):
            Matrix(x) * Matrix(y)
    else:
        assert as_rows(Matrix(x) * Matrix(y)) == ref_mul(x, y)


# ---------------------------------------------------------------- elimination


@SETTINGS
@given(matrices())
def test_rref_and_rank_match_reference(rows):
    expected = ref_rref(rows)
    assert as_rows(rref(Matrix(rows))) == expected
    assert len(rows[0]) - kernel(Matrix(rows)).rank == sum(1 for r in expected if any(e != 0 for e in r))


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_reference(rows):
    expected, rank = ref_inverse(rows)
    if expected is None:
        with pytest.raises(SingularMatrixError) as err:
            Matrix(rows).inverse()
        assert (err.value.rank, err.value.size) == (rank, len(rows))
    else:
        assert as_rows(Matrix(rows).inverse()) == expected


@SETTINGS
@given(matrices())
def test_kernel_and_column_space_match_reference(rows):
    n = len(rows)
    assert as_basis(kernel(Matrix(rows))) == ref_kernel(rows)
    # the column space is the span of the columns
    assert as_basis(span(n, list(zip(*rows)))) == ref_span(n, [list(c) for c in zip(*rows)])


@SETTINGS
@given(subspace_pairs())
def test_subspace_lattice_matches_reference(case):
    n, u, v = case
    s, t = span(n, u), span(n, v)
    assert as_basis(s) == ref_span(n, u)
    assert as_basis(subspace_sum(s, t)) == ref_span(n, u + v)
    assert as_basis(subspace_intersect(s, t)) == ref_intersect(n, ref_span(n, u), ref_span(n, v))


@SETTINGS
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), matrices(cols=n), matrices(cols=n))))
def test_image_under_matches_reference(case):
    n, gens, m = case
    s = span(n, gens)
    image = [[sum((a * b for a, b in zip(row, vec)), F(0)) for row in m] for vec in ref_span(n, gens)]
    assert as_basis(s.image_under(Matrix(m))) == ref_span(len(m), image)


# ---------------------------------------------------------------- sympy oracle


def to_sympy(sympy, rows):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in rows])


def from_sympy(sm):
    return [[F(int(e.p), int(e.q)) for e in sm.row(i)] for i in range(sm.rows)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_rref_rank_inverse_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    s = to_sympy(sympy, rows)
    reduced, _ = s.rref()
    assert as_rows(rref(Matrix(rows))) == from_sympy(reduced)
    assert len(rows[0]) - kernel(Matrix(rows)).rank == s.rank()
    if len(rows) == len(rows[0]):
        if s.det() == 0:
            with pytest.raises(SingularMatrixError):
                Matrix(rows).inverse()
        else:
            assert as_rows(Matrix(rows).inverse()) == from_sympy(s.inv())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_kernel_matches_sympy_nullspace(rows):
    # sizes 1..8; a third of the draws are products of a thinner pair, rank-deficient by construction
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    null = [[F(int(e.p), int(e.q)) for e in v] for v in to_sympy(sympy, rows).nullspace()]
    assert kernel(Matrix(rows)) == span(ncols, null)


def test_kernel_matches_sympy_on_rank_deficient_squares():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 9):
        # rank n - 1: the last row is the sum of the others (the zero row when n = 1)
        rows = [[F((i + 1) * (j + 2) % 5 - 2 + (i == j), j + 1) for j in range(n)] for i in range(n - 1)]
        rows.append([sum((r[j] for r in rows), F(0)) for j in range(n)])
        null = [[F(int(e.p), int(e.q)) for e in v] for v in to_sympy(sympy, rows).nullspace()]
        assert null and kernel(Matrix(rows)) == span(n, null)


def test_subspace_rejects_rows_of_the_wrong_length():
    with pytest.raises(ShapeError, match="basis row length 2 != ambient 3"):
        Subspace(3, [[1, 2], [3, 4]])
    with pytest.raises(ShapeError, match="basis row length 2 != ambient 3"):
        Subspace(3, [[1, 2, 3], [1, 2]])


def test_subspace_rejects_a_zero_row():
    with pytest.raises(ValueError, match="zero row in subspace basis"):
        Subspace(3, [[1, 2, 3], [0, 0, 0]])
