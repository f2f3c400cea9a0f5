"""Flags and flag meets read off a change of basis, against the partial-sum oracles.

`Decomposition.flag_mismatches` and `Decomposition.flag_meets` read flag
equalities and split parts off C = P_ref^-1 P_self. They are checked against
`flag_reference.flag` and `subspace_intersect` on the partial sums, and the split
decompositions against the Zassenhaus construction kept in
`split_reference.py`: on random decompositions with parts of any rank, on
flags that agree and flags that do not, and on models of the engine.
"""

from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qonsager import linalg
from qonsager.linalg import Decomposition, Matrix, ShapeError, kernel
from qonsager.model import ModelError, assemble_imported, build_model, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParamSet
from qonsager.splitmaps import build_split_maps, split_decomposition

import split_reference
from flag_reference import flag
from linalg_reference import span, subspace_intersect

TESTS = Path(__file__).resolve().parent
SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# (reverse the star order, reverse the A order): K, B, Kdown and Bdown
ORIENTATIONS = list(product((False, True), repeat=2))
ENTRY = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def rank_profiles(draw, n):
    """A composition of n: the part ranks, each at least 1."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def decomposition(columns, ranks):
    """The parts spanned by consecutive groups of `columns` of the given ranks."""
    parts, start = [], 0
    for r in ranks:
        parts.append(span(len(columns[0]), columns[start : start + r]))
        start += r
    return Decomposition(parts)


def columns_of(rows):
    return [list(c) for c in zip(*rows)]


@st.composite
def decomposition_pairs(draw):
    """Two decompositions of Q^n with the same number of parts.

    `ref` is `dec` re-based by a block-triangular matrix, so that its
    ascending flags equal those of `dec`, unless entries are drawn below the
    diagonal blocks or the rank profile is drawn anew; either breaks some flags.
    """
    n = draw(st.integers(1, 7))
    ranks = draw(rank_profiles(n))
    basis = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
    assume(kernel(Matrix(basis)).is_zero())
    cols = columns_of(basis)
    k = len(ranks)
    owner = [i for i, r in enumerate(ranks) for _ in range(r)]
    mode = draw(st.sampled_from(["same flags", "broken blocks", "other ranks"]))
    ref_ranks = ranks
    if mode == "other ranks":
        ref_ranks = draw(rank_profiles(n).filter(lambda rs: len(rs) == k))
    t = [[draw(ENTRY) if owner[c] >= owner[r] or mode != "same flags" and draw(st.booleans()) else F(0)
          for c in range(n)] for r in range(n)]
    assume(kernel(Matrix(t)).is_zero())
    rebased = [[sum((cols[j][i] * t[j][c] for j in range(n)), F(0)) for i in range(n)] for c in range(n)]
    return decomposition(cols, ranks), decomposition(rebased, ref_ranks)


def reference_mismatches(dec, ref):
    return [i for i in range(len(dec)) if flag(dec, i) != flag(ref, i)]


@SETTINGS
@given(decomposition_pairs())
def test_flag_mismatches_match_the_partial_sums(pair):
    dec, ref = pair
    for x, y in ((dec, ref), (ref, dec), (dec.inversion(), ref.inversion()), (dec, ref.inversion())):
        assert x.flag_mismatches(y) == reference_mismatches(x, y)


def test_flag_mismatches_cover_rank_above_one_and_disagreeing_flags():
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    dec = decomposition(e, [2, 1, 1])
    # same flags, other bases: e0+e1 | e2+e0 | e3-e2
    same = decomposition(columns_of([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]), [2, 1, 1])
    assert dec.flag_mismatches(same) == same.flag_mismatches(dec) == []
    # e3 moved into the first part: every partial sum but the whole space differs
    moved = decomposition([e[0], e[3], e[2], e[1]], [2, 1, 1])
    assert dec.flag_mismatches(moved) == [0, 1]
    # other ranks: the first sums have other dimensions, though e0 lies in e0+e1
    assert dec.flag_mismatches(decomposition(e, [1, 2, 1])) == [0]
    assert decomposition(e, [1, 2, 1]).flag_mismatches(decomposition(e, [2, 1, 1])) == [0]
    assert dec.flag_mismatches(dec.inversion()) == [0, 1]
    with pytest.raises(ShapeError):
        dec.flag_mismatches(decomposition(e, [2, 2]))


@SETTINGS
@given(decomposition_pairs(), st.sampled_from(ORIENTATIONS))
def test_split_parts_match_the_zassenhaus_reference(pair, orientation):
    star, a_dec = pair
    d = len(star) - 1
    meets = star.flag_meets(a_dec)
    assert meets == [subspace_intersect(flag(star, i), flag(a_dec, d - i, "descending")) for i in range(d + 1)]
    assert_same_split(star, a_dec, *orientation)


def oriented(dec, reverse):
    return dec.inversion() if reverse else dec


def assert_same_split(star, a_dec, reverse_star, reverse_a):
    star, a_dec = oriented(star, reverse_star), oriented(a_dec, reverse_a)
    try:
        expected = split_reference.split_decomposition(star, a_dec)
    except ValueError as exc:  # a zero part (ModelError) or parts that are no direct sum
        with pytest.raises(type(exc)) as got:
            split_decomposition(star, a_dec)
        assert str(got.value) == str(exc)
    else:
        assert split_decomposition(star, a_dec) == expected


def test_split_parts_of_rank_above_one():
    # star: e0 | e1, e2 | e3 ; A: e0+e3 | e0+e2, e1+e3 | e0+e2+e3
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    star = decomposition(e, [1, 2, 1])
    a_dec = decomposition([[1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]], [1, 2, 1])
    parts = star.flag_meets(a_dec)
    assert parts == [
        span(4, [e[0]]),
        span(4, [[1, 0, 1, 0], e[1]]),
        span(4, [[1, 0, 1, 1]]),
    ]
    for orientation in ORIENTATIONS:
        assert_same_split(star, a_dec, *orientation)
    # star ranks 1, 1, 2 against A ranks 2, 1, 1: U_1 = (e0, e1) meet (e1+e3, e0+e2+e3) is zero
    lopsided = decomposition(e, [1, 1, 2])
    wide = decomposition([[1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]], [2, 1, 1])
    with pytest.raises(ModelError, match="split part U_1 is zero"):
        split_decomposition(lopsided, wide)
    for orientation in ORIENTATIONS:
        assert_same_split(lopsided, wide, *orientation)


def _dense_import(model, seed):
    """The model's pair conjugated by a fixed dense integer matrix."""
    n = model.dim
    p = Matrix([[(seed * (i + 2) + j * j + i * j) % 7 - 3 + (i == j) * 5 for j in range(n)] for i in range(n)])
    return assemble_imported(model.params, p * model.A * p.inverse(), p * model.Astar * p.inverse())


def _models():
    yield build_model(ParamSet(1, F(2), F(3), F(5), (F(1),)))
    for d, q, a, b in ((2, F(2), F(3), F(5)), (3, F(-2), F(3), F(5)), (4, F(3, 2), F(1, 7), F(2, 9)), (5, F(2), F(3), F(5))):
        models = []
        assert solve_phi(d, q, a, b, limit=1, models=models)
        yield models[0]
        yield _dense_import(models[0], d)
    yield import_model(str(TESTS / "golden" / "twisted_d2.model"))
    yield import_model(str(TESTS / "data" / "split_error_d2.model"))


@pytest.mark.parametrize("model", list(_models()), ids=lambda m: f"d{m.d}-{'built' if m.constructed else 'imported'}")
def test_model_split_decompositions_match_the_reference(model):
    for orientation in ORIENTATIONS:
        assert_same_split(model.eigenspaces_Astar, model.eigenspaces_A, *orientation)
    if model.constructed:
        star, a_dec = model.eigenspaces_Astar, model.eigenspaces_A
        assert [dec for s in build_split_maps(model) for dec in (s.dec_K, s.dec_B)] == [
            split_reference.split_decomposition(oriented(star, reverse_star), oriented(a_dec, reverse_a))
            for reverse_star, reverse_a in ORIENTATIONS
        ]


def test_an_inversion_reuses_the_inverse_basis(monkeypatch):
    model = build_model(ParamSet(3, F(2), F(3), F(5), solve_phi(3, F(2), F(3), F(5), limit=1)[0]))
    dec = model.eigenspaces_A
    inverse = dec.basis_inverse()
    inverted = dec.inversion()
    expected = Matrix(inverted.basis_matrix().numerators).inverse()

    def no_elimination(rows, ncols):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "_gauss_jordan", no_elimination)
    assert inverted.basis_inverse() == expected
    assert inverted.basis_inverse() is inverted.basis_inverse()
    assert inverted.basis_matrix().cached_inverse() is inverted.basis_inverse()
    assert dec.basis_inverse() is inverse
    assert inverted.diagonal_map(model.theta[::-1]) == model.A


def test_acts_as_is_a_product_of_the_basis():
    model = build_model(ParamSet(1, F(2), F(3), F(5), (F(1),)))
    dec = model.eigenspaces_A
    assert dec.acts_as(model.A, model.theta)
    assert not dec.acts_as(model.A, model.theta[::-1])
    assert not dec.acts_as(model.Astar, model.theta)
    with pytest.raises(ShapeError):
        dec.acts_as(model.A, model.theta[:1])
