"""Inverses read from ladder decompositions against elimination, and the integer Chu-Vandermonde table summed once.

A target reads K^-1, B^-1, Kdown^-1 and Bdown^-1 off the inverted split
decompositions (`build_split_maps`), and M^-1, N^-1, Mdown^-1 and Ndown^-1
off their ladder decompositions (`LadderSpectra.inverse`). Each must equal
a Gauss-Jordan inverse of a fresh copy of its matrix, and the triple
table's "X invertible" verdicts, read from the ladder where it decomposes a
member, must equal those of elimination alone: on built models at
d = 1..6 with three parameter sets, on seeded dense imports with one A*
entry changed, and on the singular and sheared rows of the equitable
negative controls. The summation table is summed once per parameter set
and again for each replaced scalar table; its entries are compared with
the term-by-term oracle in `tests/test_scalars.py`.
"""

from fractions import Fraction as F
from functools import cache

import pytest

from qonsager import equitable, scalars, suite
from qonsager.linalg import Matrix, SingularMatrixError
from qonsager.model import ModelError, build_model, solve_phi
from qonsager.scalars import ParamSet, chu_vandermonde_table
from qonsager.splitmaps import LadderSpectra

from test_identity_oracle import _perturbed_import

PARAMS = [(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))]


@cache
def _built(d, q, a, b):
    if d == 1:
        return build_model(ParamSet(1, q, a, b, (F(1),)))
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


def _fresh(m):
    """A copy of m with no inverse kept on it, so that `inverse()` eliminates."""
    return Matrix(m.numerators, m.denominator)


def _eliminated_table_check(model, table):
    """`verify_triple_table` with every member a fresh copy, so invertibility is decided by elimination alone."""
    return equitable.verify_triple_table(model, [(label, *map(_fresh, members)) for label, *members in table])


def _ladder_inverses_match_the_oracle(ctx) -> int:
    """Assert each inverse read off a decomposition and the table verdict against elimination; return how many of M, N, ... the ladder held."""
    (up, down), spectra = ctx.split_maps, ctx.spectra
    # all eight rows, also where the context holds rows 1-4 alone
    table = equitable.build_triple_table((up, down), spectra)
    for name, m in (("K", up.K), ("B", up.B), ("Kdown", down.K), ("Bdown", down.B)):
        assert m.cached_inverse() is not None, name  # kept by build_split_maps, not eliminated
        assert m.inverse() == _fresh(m).inverse(), name
    # rows 1, 3, 5 and 7 hold M^-1, Mdown^-1, N^-1 and Ndown^-1
    held = 0
    for (label, _, y, _), m in zip(table[::2], (up.M, down.M, up.N, down.N)):
        assert y == _fresh(m).inverse(), label
        held += spectra.holds(m)
    assert ctx.table_check == _eliminated_table_check(ctx.model, table)
    return held


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("q, a, b", PARAMS)
def test_inverses_from_decompositions_equal_eliminated_inverses_on_built_models(d, q, a, b):
    ctx = suite.TargetContext(_built(d, q, a, b))
    assert _ladder_inverses_match_the_oracle(ctx) == 4
    assert ctx.table_check == (True, [])


def test_inverses_from_decompositions_equal_eliminated_inverses_on_perturbed_imports():
    compared = held = 0
    for seed in range(40):
        ctx = suite.TargetContext(_perturbed_import(seed))
        try:
            pair = ctx.split_maps
        except (ModelError, ValueError):
            continue
        try:
            ctx.triple_table
        except SingularMatrixError as exc:
            # M, N or a down analogue is singular: elimination alone raises the same
            with pytest.raises(SingularMatrixError, match=str(exc)):
                equitable.build_triple_table(pair)
            continue
        held += _ladder_inverses_match_the_oracle(ctx)
        compared += 1
    assert compared >= 24
    assert held  # some inverses were read from the ladder, not eliminated


def test_singular_and_sheared_rows_get_the_eliminated_verdicts():
    """The rows of the equitable negative controls: a zero member is named with its rank, a sheared one is invertible."""
    ctx = suite.TargetContext(_built(1, *PARAMS[0]))
    label, x, y, z = ctx.triple_table[0]
    shear = Matrix([[1, 1], [0, 1]])
    sheared = shear * y * shear.inverse()
    zero = Matrix([[0, 0], [0, 0]])
    rows = [
        ("sheared", x, sheared, zero),
        ("singular", zero, Matrix.identity(2), Matrix([[1, 2], [2, 4]])),
    ]
    got = equitable.verify_triple_table(ctx.model, rows, ctx.spectra)
    assert got == _eliminated_table_check(ctx.model, rows)
    assert [(row, name) for row, name, _ in got[1] if name.endswith("invertible")] == [
        ("sheared", "Z invertible"),
        ("singular", "X invertible"),
        ("singular", "Z invertible"),
    ]
    assert ctx.spectra.holds(sheared)  # invertible from its ladder decomposition, with no elimination
    spectra = LadderSpectra(1, F(2))
    ident = Matrix.identity(2)
    for members in ((zero, ident, ident), (ident, Matrix([[1, 2], [2, 4]]), zero)):
        assert equitable.check_equitable_triple(*members, F(2), spectra) == equitable.check_equitable_triple(
            *map(_fresh, members), F(2)
        )


def test_the_table_is_summed_once_and_again_for_each_replaced_table(monkeypatch):
    summed, original = [], scalars._summed

    def counted(p, *tables):
        summed.append(p)
        return original(p, *tables)

    monkeypatch.setattr(scalars, "_summed", counted)
    p = ParamSet(3, F(3, 2), F(1, 7), F(2, 9))
    table = chu_vandermonde_table(p)
    assert scalars.check_chu_vandermonde(p) == (True, [])
    assert chu_vandermonde_table(p) is table and len(summed) == 1
    for count, name in enumerate(("thetas", "q2_poch", "q2_inv_poch", "ts"), start=2):
        p.__dict__[name] = tuple([*getattr(p, name)])  # equal entries in a new tuple
        assert chu_vandermonde_table(p) == table and len(summed) == count, name
