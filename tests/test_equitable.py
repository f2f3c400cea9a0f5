import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qonsager import suite
from qonsager.equitable import (
    build_triple_table,
    check_equitable_triple,
    check_qweyl_ladder,
    qweyl_residual,
    verify_diagrams,
    verify_triple_table,
)
from qonsager.linalg import (
    Decomposition,
    Matrix,
    ShapeError,
    Subspace,
    is_qweyl_pair,
    kernel,
    shifted_product_images,
)
from qonsager.lusztig import build_H
from qonsager.model import build_model, eigenspace_decomposition, solve_phi
from qonsager.report import Report
from qonsager.scalars import ParamSet
from qonsager.splitmaps import (
    LadderSpectra,
    build_MN,
    build_split_maps,
    qweyl_eigenvalues,
)

from projector_reference import lagrange_projectors

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def _spectra(model):
    return LadderSpectra(model.d, model.params.q)


def _table_check(model, s):
    return verify_triple_table(model, build_triple_table(s))


@pytest.fixture(scope="module")
def golden():
    model = build_model(GOLDEN)
    lus = build_H(model)
    s = build_MN(build_split_maps(model), _spectra(model))
    return model, lus, s


@pytest.fixture(scope="module")
def d2():
    phi = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    model = build_model(ParamSet(2, F(2), F(3), F(5), phi))
    lus = build_H(model)
    s = build_MN(build_split_maps(model), _spectra(model))
    return model, lus, s


def line(*coords):
    return Subspace.from_vectors(len(coords), [list(coords)])


def test_qweyl_identity_pair():
    ident = Matrix.identity(2)
    assert is_qweyl_pair(ident, ident, F(2))


def test_qweyl_golden_ZX_pair(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    assert x == Matrix([[F(1, 2), 0], [3, 2]])
    assert is_qweyl_pair(s.K, x, F(2))  # the (Z, X) relation of row 1


def test_qweyl_golden_XY_pair(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    assert is_qweyl_pair(x, s.M.inverse(), F(2))


def test_qweyl_order_matters(golden):
    model, _, s = golden
    # (K, M^-1) in that order is not a q-Weyl pair at the golden parameters.
    assert not is_qweyl_pair(s.K, s.M.inverse(), F(2))


def test_equitable_triple_identity():
    ident = Matrix.identity(2)
    ok, failures = check_equitable_triple(ident, ident, ident, F(2))
    assert ok, failures


def test_equitable_triple_row_one(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    ok, failures = check_equitable_triple(x, s.M.inverse(), s.K, F(2))
    assert ok, failures


def test_equitable_triple_reversed_order_fails(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    ok, failures = check_equitable_triple(s.K, s.M.inverse(), x, F(2))
    assert not ok
    assert failures


def test_equitable_triple_reports_singular_input():
    ident = Matrix.identity(2)
    ok, failures = check_equitable_triple(Matrix.zero(2), ident, ident, F(2))
    assert not ok
    assert failures == [("X invertible", "matrix is singular: rank 0 < 2")]
    ok, failures = check_equitable_triple(ident, Matrix([[1, 2], [2, 4]]), Matrix.zero(2), F(2))
    assert not ok
    assert failures == [
        ("Y invertible", "matrix is singular: rank 1 < 2"),
        ("Z invertible", "matrix is singular: rank 0 < 2"),
    ]


def test_triple_table_all_rows(golden, d2):
    for model, _, s in (golden, d2):
        table = build_triple_table(s)
        assert len(table) == 8
        ok, failures = verify_triple_table(model, table)
        assert ok, [(label, name) for label, name, _ in failures]


def test_triple_table_detects_swapped_K_B(golden):
    model, _, s = golden
    a = model.params.a
    swapped = replace(s, K=s.B, B=s.K)
    table = build_triple_table(swapped)
    # the rows come from the swapped maps: row 1 is (a A - a^2 K, M^-1, K)
    # and row 5 is (K^-1, N^-1, a^-1 A - a^-2 K^-1) with K = B and B = K
    m = (s.B.scale(a) - s.K.scale(1 / a)).scale(1 / (a - 1 / a))
    n = (s.B.inverse().scale(1 / a) - s.K.inverse().scale(a)).scale(1 / (1 / a - a))
    assert table[0] == ("1", model.A.scale(a) - s.B.scale(a * a), m.inverse(), s.B)
    assert table[4] == ("5", s.B.inverse(), n.inverse(), model.A.scale(1 / a) - s.B.inverse().scale(1 / (a * a)))
    ok, failures = verify_triple_table(model, table)
    assert not ok
    assert failures


def test_qweyl_ladder_golden(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    y = s.M.inverse()
    ok, failures = check_qweyl_ladder(x, y, F(2), _spectra(model))
    assert ok, failures
    # Y_0 = span(e_0 - 2 e_1) = X_1: the crossing at the golden parameters.
    y0 = kernel(y - Matrix.identity(2).scale(F(2)))
    x1 = kernel(x - Matrix.identity(2).scale(F(1, 2)))
    assert y0 == x1 == line(1, -2)


def test_qweyl_ladder_flags_at_top_are_everything(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    # At i = d both flags are the whole space by the direct-sum property;
    # the ladder check passing covers it, and the flag is full rank.
    from flag_reference import flag

    dec = eigenspace_decomposition(x, qweyl_eigenvalues(model.d, F(2)))
    assert flag(dec, model.d, "ascending").rank == model.dim


def test_qweyl_ladder_detects_perturbed_partner(golden):
    model, _, s = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    perturbed = s.M.inverse() + Matrix([[0, F(1, 5)], [0, 0]])
    ok, failures = check_qweyl_ladder(x, perturbed, F(2), _spectra(model))
    assert not ok
    assert failures


def test_qweyl_ladder_reports_missing_eigenvalue():
    ident = Matrix.identity(2)
    ok, failures = check_qweyl_ladder(ident, ident, F(2), LadderSpectra(1, F(2)))
    assert not ok
    assert any("precondition" in name for name, _ in failures)


def _projector_ladder_steps(x, y, q, d):
    """Reference verdicts: (X - lam q^-2 I)(Y - lam^-1 I) E_i = 0 with the Lagrange projectors E_i of X."""
    eigs = qweyl_eigenvalues(d, q)
    ident = Matrix.identity(x.rows)
    return [
        ((x - ident.scale(lam / (q * q))) * (y - ident.scale(1 / lam)) * proj).is_zero()
        for lam, proj in zip(eigs, lagrange_projectors(x, eigs))
    ]


def _seeded_ladder_pair(seed):
    """X = P diag(q^d, ..., q^-d) P^-1 and a partner Y, exact on even seeds, perturbed on odd ones.

    In the eigenbasis of X a q-Weyl partner is diag(q^-d, ..., q^d) plus any
    subdiagonal; the perturbation adds one entry anywhere.
    """
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    q = rng.choice([F(2), F(3, 2), F(-2), F(1, 3)])
    n = d + 1
    eigs = qweyl_eigenvalues(d, q)
    while True:
        p = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            break
    y0 = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        y0[i][i] = 1 / eigs[i]
        if i:
            y0[i][i - 1] = F(rng.randint(-5, 5), rng.randint(1, 4))
    if seed % 2:
        y0[rng.randrange(n)][rng.randrange(n)] += F(rng.randint(1, 5), rng.randint(1, 3))
    p_inv = p.inverse()
    return p * Matrix.diagonal(eigs) * p_inv, p * Matrix(y0) * p_inv, q, d


def test_integer_qweyl_test_agrees_with_the_residual():
    verdicts = set()
    for seed in range(40):
        x, y, q, d = _seeded_ladder_pair(seed)
        rng = random.Random(seed)
        dense = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)] for _ in range(d + 1)])
        for left, right in ((x, y), (y, x), (x, dense), (dense.scale(q), y)):
            got = is_qweyl_pair(left, right, q)
            assert got == qweyl_residual(left, right, q).is_zero(), seed
            verdicts.add(got)
        if seed % 2 == 0:
            assert is_qweyl_pair(x, y, q), seed
    assert verdicts == {True, False}
    ident = Matrix.identity(2)
    assert is_qweyl_pair(ident, ident, F(2)) and is_qweyl_pair(ident, ident, F(1, 3))
    with pytest.raises(ShapeError):
        is_qweyl_pair(ident, Matrix.identity(3), F(2))


def _subspace_ladder_step(x, y, lam, q, part):
    """Reference image: `part` mapped by (Y - lam^-1 I), then by (X - lam q^-2 I), one subspace at a time."""
    ident = Matrix.identity(x.rows)
    return part.image_under(y - ident.scale(1 / lam)).image_under(x - ident.scale(lam / (q * q)))


def test_ladder_step_agrees_with_projector_reference():
    verdicts = set()
    for seed in range(40):
        x, y, q, d = _seeded_ladder_pair(seed)
        eigs = qweyl_eigenvalues(d, q)
        x_dec = eigenspace_decomposition(x, eigs)
        images = shifted_product_images(x_dec, x, y, [lam / (q * q) for lam in eigs], [1 / lam for lam in eigs])
        got = [image.is_zero() for image in images]
        assert got == _projector_ladder_steps(x, y, q, d), seed
        assert images == [_subspace_ladder_step(x, y, lam, q, part) for lam, part in zip(eigs, x_dec.parts)], seed
        if seed % 2 == 0:
            assert is_qweyl_pair(x, y, q) and all(got), seed
        verdicts.update(got)
    assert verdicts == {True, False}  # the perturbed pairs break some steps


def test_a_perturbed_table_row_fails_each_equitable_check():
    """Negative control: one perturbed row through the suite's own checks.

    The witnesses are those the checks gave before the integer q-Weyl test.
    """
    target = suite.make_param_target(1, F(2), F(3), F(5), (F(1),))
    ctx = suite.TargetContext(build_model(GOLDEN))
    table = ctx.triple_table
    label, x, y, z = table[0]
    perturbed = ((label, x, y + Matrix([[0, F(1, 5)], [0, 0]]), z),) + table[1:]
    ctx._built["triple_table"] = perturbed
    report = Report(target.label)
    for check_id, detail, check in suite.SUITES["equitable"] + suite.SUITES["diagrams"]:
        report.run(check_id, detail, lambda: check(ctx))
    got = {c.name: (c.status, c.residual) for c in report.checks}
    assert got == {
        "equitable.table": ("fail", "('1', 'q-Weyl (X,Y)'): Matrix([[-1/5, 0], [0, 4/5]])"),
        "equitable.ladders": ("fail", "row 1 pair (X,Y): precondition"),
        "diagrams.verify": ("fail", "('3-cycle row 1: q-Weyl (X,Y)',): Matrix([[-1/5, 0], [0, 4/5]])"),
    }


def test_verify_diagrams(golden, d2):
    for model, lus, s in (golden, d2):
        ok, failures = verify_diagrams(model, lus, s, _spectra(model), _table_check(model, s))
        assert ok, [name for name, _ in failures]


def test_diagram_golden_eigenspace_identities(golden):
    model, lus, s = golden
    ident = Matrix.identity(2)
    # N-eigenspace for q is V+_0 = H^-1 span(e_0).
    n0 = kernel(s.N - ident.scale(2))
    assert n0 == line(9, 2) == lus.Vplus[0]
    # N-eigenspace for q^-1 is V*_0, the descending N-flag at i = 1.
    n1 = kernel(s.N - ident.scale(F(1, 2)))
    assert n1 == line(1, 0) == model.eigenspaces_Astar[0]
    # M-eigenspace for q^-1 is V-_0 = H span(e_0).
    m1 = kernel(s.M - ident.scale(F(1, 2)))
    assert m1 == line(1, -2) == lus.Vminus[0]


def test_diagrams_detect_swapped_K_B(golden):
    model, lus, s = golden
    swapped = replace(s, K=s.B, B=s.K)
    a = model.params.a
    # M, N and the H-conjugates the diagrams read come from the swapped maps
    assert swapped.M == (s.B.scale(a) - s.K.scale(1 / a)).scale(1 / (a - 1 / a)) != s.M
    assert swapped.N == (s.B.inverse().scale(1 / a) - s.K.inverse().scale(a)).scale(1 / (1 / a - a)) != s.N
    conj, conj_inv = swapped.conjugates
    assert conj["K"] == model.A.scale(1 / a) - s.B.inverse().scale(1 / (a * a))
    assert conj_inv["B"] == model.A.scale(1 / a) - s.K.scale(1 / (a * a))
    ok, failures = verify_diagrams(model, lus, swapped, _spectra(model), _table_check(model, swapped))
    assert not ok
    assert failures


@pytest.fixture(scope="module")
def d3():
    phi = solve_phi(3, F(2), F(3), F(5), limit=1)[0]
    model = build_model(ParamSet(3, F(2), F(3), F(5), phi))
    lus = build_H(model)
    spectra = _spectra(model)
    s = build_MN(build_split_maps(model), spectra)
    return model, lus, s, spectra, _table_check(model, s)


def _first_two_parts_swapped(dec):
    return Decomposition((dec[1], dec[0]) + dec.parts[2:])


# Swapping the first two parts changes an ascending flag only at 0 and a
# descending flag only at d - 1, so each family names its own index; the
# names and their order are those the partial-sum flags gave.
@pytest.mark.parametrize(
    "where, expected",
    [
        (
            "Astar",
            [
                "M flag 0: ascending = V* ascending",
                "Ndown flag 2: descending = V* descending",
                "Mdown flag 2: ascending = V* descending",
                "N flag 3: descending = V* ascending reversed",
            ],
        ),
        (
            "Vplus",
            ["N flag 0: ascending = V+ ascending", "Ndown flag 2: ascending = V+ descending"]
            + [f"(A, L(A*)) split map at {slot} slot" for slot in ("K", "B", "Kdown", "Bdown")],
        ),
        (
            "Vminus",
            ["Mdown flag 2: descending = V- descending", "M flag 3: descending = V- ascending reversed"]
            + [f"(A, L^-1(A*)) split map at {slot} slot times its label" for slot in ("K", "B", "Kdown", "Bdown")],
        ),
    ],
)
def test_diagram_flag_failures_name_the_index_of_each_family(d3, where, expected):
    model, lus, s, spectra, table = d3
    if where == "Astar":
        model = replace(model)
        model.__dict__["eigenspaces_Astar"] = _first_two_parts_swapped(d3[0].eigenspaces_Astar)
    else:
        lus = replace(lus)
        lus.__dict__[where] = _first_two_parts_swapped(getattr(d3[1], where))
    ok, failures = verify_diagrams(model, lus, s, spectra, table)
    assert not ok
    assert [name for name, _ in failures] == expected
    assert all(witness == "flag mismatch" for name, witness in failures if " flag " in name)


def test_twisted_split_maps_are_proved_from_the_ladder_without_meets(d3, monkeypatch):
    model, lus, s, spectra, table = d3
    meets, flag_meets = [], Decomposition.flag_meets

    def counted(self, ref):
        meets.append(self)
        return flag_meets(self, ref)

    monkeypatch.setattr(Decomposition, "flag_meets", counted)
    ok, _ = verify_diagrams(model, lus, s, spectra, table)
    assert ok and not meets
    # with V+ perturbed, each (A, L(A*)) slot falls back to the meets, which give its witness
    lus = replace(lus)
    lus.__dict__["Vplus"] = _first_two_parts_swapped(d3[1].Vplus)
    ok, failures = verify_diagrams(model, lus, s, spectra, table)
    assert not ok and len(meets) == 4
    assert all(not isinstance(witness, str) for name, witness in failures if "split map" in name)
