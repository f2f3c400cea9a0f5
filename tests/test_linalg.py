import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from qonsager.linalg import (
    Decomposition,
    Matrix,
    ShapeError,
    SingularMatrixError,
    Products,
    Subspace,
    kernel,
    rref,
)

from closure_reference import _closure as reference_closure
from closure_reference import invariant_closure
from flag_reference import flag
from identity_reference import commutator, q_commutator
from linalg_reference import span, subspace_intersect, subspace_sum
from projector_reference import lagrange_projectors


def rand_matrix(n, rng, span=6):
    return Matrix(
        [[F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    )


def test_add_sub_scale():
    x = Matrix([[1, 2], [3, 4]])
    y = Matrix([[5, 6], [7, 8]])
    assert x + y == Matrix([[6, 8], [10, 12]])
    assert y - x == Matrix([[4, 4], [4, 4]])
    assert x.scale(F(1, 2)) == Matrix([[F(1, 2), 1], [F(3, 2), 2]])


def test_mul_identity_law():
    rng = random.Random(7)
    x = rand_matrix(3, rng)
    assert x * Matrix.identity(3) == x
    assert Matrix.identity(3) * x == x


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        Matrix([[1, 2]]) + Matrix([[1], [2]])
    with pytest.raises(ShapeError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_inverse_diagonal():
    assert Matrix([[2, 0], [0, F(1, 2)]]).inverse() == Matrix([[F(1, 2), 0], [0, 2]])


def test_inverse_golden_h():
    h = Matrix([[1, 0], [-2, 9]])
    assert h.inverse() == Matrix([[1, 0], [F(2, 9), F(1, 9)]])
    assert h * h.inverse() == Matrix.identity(2)


def test_inverse_random_round_trip():
    rng = random.Random(11)
    for _ in range(5):
        x = rand_matrix(4, rng)
        try:
            inv = x.inverse()
        except SingularMatrixError:
            continue
        assert x * inv == Matrix.identity(4)
        assert inv * x == Matrix.identity(4)


def test_singular_inverse_reports_rank():
    with pytest.raises(SingularMatrixError) as err:
        Matrix([[1, 2], [2, 4]]).inverse()
    assert err.value.rank == 1
    assert err.value.size == 2


def test_inverse_is_memoized_and_its_inverse_is_the_matrix():
    rng = random.Random(13)
    for _ in range(5):
        m = rand_matrix(4, rng)
        if not kernel(m).is_zero():
            continue
        inv = m.inverse()
        assert m.inverse() is inv
        assert inv.inverse() is m
        assert m * inv == Matrix.identity(4)
        # An equal matrix built separately computes an equal inverse of its own.
        twin = Matrix(m.numerators, m.denominator)
        assert twin.inverse() == inv and twin.inverse() is not inv


def test_cached_inverse_reads_the_memo_and_computes_nothing():
    m = Matrix([[2, 1], [1, 1]])
    assert m.cached_inverse() is None and m.cached_inverse() is None
    inv = m.inverse()
    assert m.cached_inverse() is inv and inv.cached_inverse() is m
    assert Matrix([[2, 1], [1, 1]]).cached_inverse() is None


def _random_decomposition(rng, ranks):
    """Parts spanned by consecutive columns of a random invertible integer matrix P."""
    n = sum(ranks)
    while True:
        p = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if kernel(p).is_zero():
            break
    columns = list(zip(*p.numerators))
    starts = [sum(ranks[:i]) for i in range(len(ranks) + 1)]
    parts = [span(n, columns[a:b]) for a, b in zip(starts, starts[1:])]
    return Decomposition(parts), p


def test_block_form_reads_the_projector_products():
    """Block (i, j) of P^-1 X P, formed by `Products`, is zero exactly when E_i X E_j = 0, on parts of any rank."""
    rng = random.Random(29)
    zero_blocks = set()
    for ranks in ((1, 1, 1), (1, 2, 1), (2, 1, 3), (3,)):
        dec, p = _random_decomposition(rng, ranks)
        n, eigs = sum(ranks), list(range(1, len(ranks) + 1))
        diagonal = [e for e, r in zip(eigs, ranks) for _ in range(r)]
        spectral = p * Matrix([[e if i == j else 0 for j in range(n)] for i, e in enumerate(diagonal)]) * p.inverse()
        projectors = lagrange_projectors(spectral, eigs)
        assert dec.diagonal_map(eigs) == spectral
        assert tuple(dec.projector([i]) for i in range(len(ranks))) == projectors
        assert dec.projector(range(len(ranks))) == Matrix.identity(n)
        for _ in range(4):
            # X = P B P^-1 with random zero blocks in B
            keep = {(i, j): rng.random() < 0.5 for i in range(len(ranks)) for j in range(len(ranks))}
            part_of = [i for i, r in enumerate(ranks) for _ in range(r)]
            b = [[rng.randint(-4, 4) if keep[part_of[r], part_of[c]] else 0 for c in range(n)] for r in range(n)]
            x = p * Matrix(b) * p.inverse()
            y = Products(n).product((dec.basis_inverse(), x, dec.basis_matrix()))
            for (i, j) in keep:
                got = dec.block_is_zero(y, i, j)
                assert got == (projectors[i] * x * projectors[j]).is_zero(), (ranks, i, j)
                zero_blocks.add(got)
    assert zero_blocks == {True, False}
    with pytest.raises(ShapeError):
        dec.diagonal_map([1, 2])


def test_memoized_inverse_and_inversion_form_no_reference_cycle():
    """Each memo points back weakly: dropping the origin frees it without the cycle collector."""
    m = Matrix([[2, 1], [1, 1]])
    dec = Decomposition([span(2, [[1, 0]]), span(2, [[1, 1]])])
    inv, inverted = m.inverse(), dec.inversion()
    probes = weakref.ref(m), weakref.ref(dec)
    gc.disable()
    try:
        del m, dec
        assert [probe() for probe in probes] == [None, None]
    finally:
        gc.enable()
    # The back-reference is gone, so each is derived again, equal to the freed origin.
    assert inv.inverse() == Matrix([[2, 1], [1, 1]]) and inv.inverse().inverse() is inv
    assert inverted.inversion().parts == inverted.parts[::-1]
    assert inverted.inversion().inversion() is inverted


def test_singular_matrix_raises_on_every_call():
    m = Matrix([[1, 2], [2, 4]])
    for _ in range(3):
        with pytest.raises(SingularMatrixError) as err:
            m.inverse()
        assert (err.value.rank, err.value.size) == (1, 2)
    with pytest.raises(ShapeError):
        Matrix([[1, 2]]).inverse()


def test_commutator_with_self_vanishes():
    rng = random.Random(3)
    x = rand_matrix(3, rng)
    assert commutator(x, x).is_zero()


def test_q_commutator_of_identity():
    rng = random.Random(5)
    y = rand_matrix(3, rng)
    q = F(2)
    assert q_commutator(Matrix.identity(3), y, q) == y.scale(q - 1 / q)


def test_nested_q_commutator_matches_cubic_expansion():
    rng = random.Random(9)
    q = F(2)
    three = q * q + 1 + 1 / (q * q)  # [3]_q
    for _ in range(3):
        x, y = rand_matrix(3, rng), rand_matrix(3, rng)
        nested = commutator(x, q_commutator(x, q_commutator(x, y, q), 1 / q))
        expanded = (
            x * x * x * y
            - (x * x * y * x).scale(three)
            + (x * y * x * x).scale(three)
            - y * x * x * x
        )
        assert nested == expanded


def test_kernel_of_zero_matrix_is_full():
    space = kernel(Matrix([[0, 0], [0, 0]]))
    assert space.rank == 2
    assert space == Subspace(2, [[1, 0], [0, 1]])


def test_kernel_golden_star_eigenspace():
    # A* - theta*_0 I at the golden parameters (phi = 1, theta* gap = -36/5).
    m = Matrix([[0, 1], [0, F(29, 10) - F(101, 10)]])
    assert kernel(m) == span(2, [[1, 0]])


def test_kernel_golden_a_eigenspace():
    m = Matrix([[0, 0], [1, -4]])
    assert kernel(m) == span(2, [[4, 1]])


def test_rank_nullity():
    rng = random.Random(13)
    for _ in range(5):
        m = rand_matrix(4, rng)
        assert kernel(m).rank + sum(map(any, rref(m).numerators)) == 4


def test_rref_idempotent():
    rng = random.Random(17)
    m = rand_matrix(4, rng)
    assert rref(rref(m)) == rref(m)


def test_subspace_canonical_equality():
    s = span(3, [[1, 2, 3], [0, 1, 1]])
    t = span(3, [[1, 3, 4], [0, 2, 2]])
    assert s == t
    assert s.basis == t.basis


def test_subspace_intersection_of_coordinate_planes():
    s = span(3, [[1, 0, 0], [0, 1, 0]])
    t = span(3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(s, t) == span(3, [[0, 1, 0]])


def test_subspace_sum_idempotent():
    s = span(3, [[1, 2, 3]])
    assert subspace_sum(s, s) == s


def test_golden_eigenspaces_sum_to_everything():
    v_star0 = span(2, [[1, 0]])
    v0 = span(2, [[4, 1]])
    assert subspace_sum(v_star0, v0) == Subspace(2, [[1, 0], [0, 1]])


def test_dimension_formula():
    rng = random.Random(19)
    for _ in range(10):
        vecs_s = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        vecs_t = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(rng.randint(1, 3))]
        s = span(4, vecs_s)
        t = span(4, vecs_t)
        total = subspace_sum(s, t).rank + subspace_intersect(s, t).rank
        assert total == s.rank + t.rank


def test_modular_law_dimensions():
    # dim(x n (y + (x n z))) = dim((x n y) + (x n z)) for random triples
    rng = random.Random(23)
    for _ in range(8):
        spaces = []
        for _ in range(3):
            vecs = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(rng.randint(1, 3))]
            spaces.append(span(4, vecs))
        x, y, z = spaces
        xz = subspace_intersect(x, z)
        left = subspace_intersect(x, subspace_sum(y, xz))
        right = subspace_sum(subspace_intersect(x, y), xz)
        assert subspace_sum(left, right) == left
        if subspace_sum(x, y) in (x, y):
            assert left == right


def test_ambient_mismatch_raises():
    with pytest.raises(ShapeError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def standard_line(n, i):
    vec = [0] * n
    vec[i] = 1
    return span(n, [vec])


def test_flag_endpoints():
    dec = Decomposition([standard_line(3, i) for i in range(3)])
    assert flag(dec, 2, "ascending") == Subspace(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert flag(dec, 0, "ascending") == standard_line(3, 0)
    assert flag(dec, 0, "descending") == standard_line(3, 2)
    assert flag(dec, 1, "descending") == span(3, [[0, 1, 0], [0, 0, 1]])


def test_flag_golden_eigen_decomposition():
    v0 = span(2, [[4, 1]])
    v1 = span(2, [[0, 1]])
    dec = Decomposition([v0, v1])
    assert flag(dec, 0, "ascending") == v0


def test_complementary_flags_intersect_trivially():
    dec = Decomposition([standard_line(4, i) for i in range(4)])
    d = 3
    for i in range(d):
        asc = flag(dec, i, "ascending")
        desc = flag(dec, d - i - 1, "descending")
        assert subspace_intersect(asc, desc).is_zero()


def test_decomposition_rejects_overlapping_parts():
    s = span(2, [[1, 0]])
    with pytest.raises(ValueError):
        Decomposition([s, s])


def test_decomposition_rejects_zero_part():
    with pytest.raises(ValueError):
        Decomposition([Subspace.zero(2), Subspace(2, [[1, 0], [0, 1]])])


def test_flag_index_out_of_range():
    dec = Decomposition([standard_line(2, 0), standard_line(2, 1)])
    with pytest.raises(IndexError):
        flag(dec, 2, "ascending")


def test_flag_is_memoized_and_equals_the_span_of_its_parts():
    rng = random.Random(7)
    n = 5
    while True:
        m = rand_matrix(n, rng)
        if kernel(m).is_zero():
            break
    columns = list(zip(*m.entries))
    dec = Decomposition(
        [span(n, [columns[0], columns[1]])]
        + [span(n, [c]) for c in columns[2:]]
    )
    d = len(dec) - 1
    for direction in ("ascending", "descending"):
        for i in range(d + 1):
            chosen = dec.parts[: i + 1] if direction == "ascending" else dec.parts[d - i :]
            first = flag(dec, i, direction)
            assert first == span(n, [v for part in chosen for v in part.basis])
            assert flag(dec, i, direction) is first
    assert flag(dec, d, "ascending") == flag(dec, d, "descending") == Subspace(n, Matrix.identity(n).numerators)


def test_inversion_is_built_once_and_its_flags_match_a_fresh_decomposition():
    rng = random.Random(17)
    n = 5
    while True:
        m = rand_matrix(n, rng)
        if kernel(m).is_zero():
            break
    columns = list(zip(*m.entries))
    dec = Decomposition(
        [span(n, columns[:2])] + [span(n, [c]) for c in columns[2:]]
    )
    inverted = dec.inversion()
    assert dec.inversion() is inverted
    assert inverted.inversion() is dec
    fresh = Decomposition(dec.parts[::-1])
    assert inverted == fresh and inverted.parts == dec.parts[::-1]
    d = len(dec) - 1
    for direction in ("ascending", "descending"):
        for i in range(d + 1):
            assert flag(inverted, i, direction) == flag(fresh, i, direction)
    for i in range(d + 1):
        # A descending flag is the inversion's ascending flag, computed once for both.
        assert flag(dec, i, "descending") is flag(inverted, i, "ascending")
        assert flag(dec, i, "ascending") is flag(inverted, i, "descending")


def test_flag_rejects_unknown_direction():
    dec = Decomposition([standard_line(2, 0), standard_line(2, 1)])
    with pytest.raises(ValueError):
        flag(dec, 0, "sideways")


def _block_triangular(n, k, rng):
    """A random matrix with a zero lower-left block: it keeps the span of e_0..e_(k-1)."""
    x = rand_matrix(n, rng)
    return Matrix([[x[i, j] if i < k or j >= k else 0 for j in range(n)] for i in range(n)])


def _invertible(n, rng):
    while True:
        p = rand_matrix(n, rng)
        if kernel(p).is_zero():
            return p


@pytest.mark.parametrize("seed", range(40))
def test_invariant_closure_equals_the_round_based_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
    seeds = [Subspace.zero(n), span(n, vectors[:1]), span(n, vectors)]
    if seed % 2:
        # A reducible pair: both maps keep the span of P's first k columns,
        # so the closure of a seed inside it stops short of the whole space.
        k = rng.randint(1, n - 1)
        p = _invertible(n, rng)
        maps = [p * _block_triangular(n, k, rng) * p.inverse() for _ in range(2)]
        column = Matrix([[rng.randint(1, 3) if i < k else 0] for i in range(n)])
        inside = span(n, zip(*(p * column).entries))
        assert 1 <= invariant_closure(inside, maps).rank <= k
        seeds.append(inside)
    else:
        maps = [rand_matrix(n, rng), rand_matrix(n, rng)]
    for s in seeds:
        for some in (maps, maps[:1]):
            assert invariant_closure(s, some) == reference_closure(s, some)
