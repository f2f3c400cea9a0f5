import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qonsager import splitmaps, suite
from qonsager.equitable import (
    build_triple_table,
    check_equitable_triple,
    qweyl_residual,
    verify_diagrams,
    verify_triple_table,
)
from qonsager.linalg import (
    Decomposition,
    Matrix,
    ShapeError,
    kernel,
)
from qonsager.lusztig import build_H
from qonsager.model import ModelError, assemble_imported, build_model, eigenspace_decomposition, solve_phi
from qonsager.report import Report
from qonsager.scalars import ParamSet
from qonsager.splitmaps import (
    LadderSpectra,
    build_split_maps,
    qweyl_eigenvalues,
)

from identity_reference import is_qweyl_pair, ladders, qweyl_bracket, qweyl_ladder, shifted_product_images
from linalg_reference import span
from projector_reference import lagrange_projectors
from test_identity_oracle import _outcome, _perturbed_import
from test_ladder_inverses import PARAMS, _built

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def _spectra(model):
    return LadderSpectra(model.d, model.params.q)


def _table_check(model, pair):
    spectra = _spectra(model)
    return verify_triple_table(model, build_triple_table(pair, spectra, False), spectra, {}, None)


@pytest.fixture(scope="module")
def golden():
    model = build_model(GOLDEN)
    lus = build_H(model)
    return model, lus, build_split_maps(model)


@pytest.fixture(scope="module")
def d2():
    model = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    lus = build_H(model)
    return model, lus, build_split_maps(model)


def line(*coords):
    return span(len(coords), [list(coords)])


def test_qweyl_identity_pair():
    ident = Matrix.identity(2)
    assert qweyl_residual(ident, ident, F(2)) is None


def test_qweyl_golden_ZX_pair(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    assert x == Matrix([[F(1, 2), 0], [3, 2]])
    assert qweyl_residual(s.K, x, F(2)) is None  # the (Z, X) relation of row 1


def test_qweyl_golden_XY_pair(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    assert qweyl_residual(x, s.M.inverse(), F(2)) is None


def test_qweyl_order_matters(golden):
    model, _, (s, _) = golden
    # (K, M^-1) in that order is not a q-Weyl pair at the golden parameters.
    assert qweyl_residual(s.K, s.M.inverse(), F(2)) is not None


def test_equitable_triple_identity():
    ident = Matrix.identity(2)
    ok, failures = check_equitable_triple(ident, ident, ident, F(2), LadderSpectra(1, F(2)), {})
    assert ok, failures


def test_equitable_triple_row_one(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    ok, failures = check_equitable_triple(x, s.M.inverse(), s.K, F(2), _spectra(model), {})
    assert ok, failures


def test_equitable_triple_reversed_order_fails(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    ok, failures = check_equitable_triple(s.K, s.M.inverse(), x, F(2), _spectra(model), {})
    assert not ok
    assert failures


def test_equitable_triple_reports_singular_input():
    """The invertibility failures come first; the q-Weyl relations of the row are tested too."""
    ident = Matrix.identity(2)
    minus_ident = Matrix([[-1, 0], [0, -1]])
    spectra = LadderSpectra(1, F(2))
    ok, failures = check_equitable_triple(Matrix([[0, 0], [0, 0]]), ident, ident, F(2), spectra, {})
    assert not ok
    assert failures == [
        ("X invertible", "matrix is singular: rank 0 < 2"),
        ("q-Weyl (X,Y)", minus_ident),
        ("q-Weyl (Z,X)", minus_ident),
    ]
    ok, failures = check_equitable_triple(ident, Matrix([[1, 2], [2, 4]]), Matrix([[0, 0], [0, 0]]), F(2), spectra, {})
    assert not ok
    assert failures == [
        ("Y invertible", "matrix is singular: rank 1 < 2"),
        ("Z invertible", "matrix is singular: rank 0 < 2"),
        ("q-Weyl (X,Y)", Matrix([[0, 2], [2, 3]])),
        ("q-Weyl (Y,Z)", minus_ident),
        ("q-Weyl (Z,X)", minus_ident),
    ]


def test_triple_table_all_rows(golden, d2):
    for model, _, pair in (golden, d2):
        spectra = _spectra(model)
        table = build_triple_table(pair, spectra, False)
        assert len(table) == 8
        ok, failures = verify_triple_table(model, table, spectra, {}, None)
        assert ok, [(label, name) for label, name, _ in failures]


def test_triple_table_detects_swapped_K_B(golden):
    model, _, (s, down) = golden
    a = model.params.a
    spectra = _spectra(model)
    table = build_triple_table((replace(s, K=s.B, B=s.K), down), spectra, False)
    # the rows come from the swapped maps: row 1 is (a A - a^2 K, M^-1, K)
    # and row 5 is (K^-1, N^-1, a^-1 A - a^-2 K^-1) with K = B and B = K
    m = (s.B.scale(a) - s.K.scale(1 / a)).scale(1 / (a - 1 / a))
    n = (s.B.inverse().scale(1 / a) - s.K.inverse().scale(a)).scale(1 / (1 / a - a))
    assert table[0] == ("1", model.A.scale(a) - s.B.scale(a * a), m.inverse(), s.B)
    assert table[4] == ("5", s.B.inverse(), n.inverse(), model.A.scale(1 / a) - s.B.inverse().scale(1 / (a * a)))
    ok, failures = verify_triple_table(model, table, spectra, {}, None)
    assert not ok
    assert failures


def test_qweyl_ladder_golden(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    y = s.M.inverse()
    ok, failures = qweyl_ladder(x, y, F(2), _spectra(model))
    assert ok, failures
    # Y_0 = span(e_0 - 2 e_1) = X_1: the crossing at the golden parameters.
    y0 = kernel(y - Matrix.identity(2).scale(F(2)))
    x1 = kernel(x - Matrix.identity(2).scale(F(1, 2)))
    assert y0 == x1 == line(1, -2)


def test_qweyl_ladder_flags_at_top_are_everything(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    # At i = d both flags are the whole space by the direct-sum property;
    # the ladder check passing covers it, and the flag is full rank.
    from flag_reference import flag

    dec = eigenspace_decomposition(x, qweyl_eigenvalues(model.d, F(2)))
    assert flag(dec, model.d, "ascending").rank == model.dim


def test_qweyl_ladder_detects_perturbed_partner(golden):
    model, _, (s, _) = golden
    a = model.params.a
    x = model.A.scale(a) - s.K.scale(a * a)
    perturbed = s.M.inverse() + Matrix([[0, F(1, 5)], [0, 0]])
    assert qweyl_residual(x, perturbed, F(2)) is not None
    ok, failures = qweyl_ladder(x, perturbed, F(2), _spectra(model))
    assert not ok
    assert failures


def test_qweyl_ladder_reports_missing_eigenvalue():
    ident = Matrix.identity(2)
    ok, failures = qweyl_ladder(ident, ident, F(2), LadderSpectra(1, F(2)))
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
        if kernel(p).is_zero():
            break
    y0 = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        y0[i][i] = 1 / eigs[i]
        if i:
            y0[i][i - 1] = F(rng.randint(-5, 5), rng.randint(1, 4))
    if seed % 2:
        y0[rng.randrange(n)][rng.randrange(n)] += F(rng.randint(1, 5), rng.randint(1, 3))
    p_inv = p.inverse()
    diagonal = Matrix([[e if i == j else 0 for j in range(n)] for i, e in enumerate(eigs)])
    return p * diagonal * p_inv, p * Matrix(y0) * p_inv, q, d


def test_integer_qweyl_test_agrees_with_the_residual():
    verdicts = set()
    for seed in range(40):
        x, y, q, d = _seeded_ladder_pair(seed)
        rng = random.Random(seed)
        dense = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d + 1)] for _ in range(d + 1)])
        for left, right in ((x, y), (y, x), (x, dense), (dense.scale(q), y)):
            got = is_qweyl_pair(left, right, q)
            want = qweyl_bracket(left, right, q) - Matrix.identity(d + 1)
            assert got == want.is_zero(), seed
            assert qweyl_residual(left, right, q) == (None if got else want), seed
            verdicts.add(got)
        if seed % 2 == 0:
            assert is_qweyl_pair(x, y, q), seed
    assert verdicts == {True, False}
    ident = Matrix.identity(2)
    assert qweyl_residual(ident, ident, F(2)) is qweyl_residual(ident, ident, F(1, 3)) is None
    with pytest.raises(ShapeError):
        qweyl_residual(ident, Matrix.identity(3), F(2))


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
    ctx._built["mirrored"] = False  # the eight rows, each tested
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


def test_ladders_test_the_qweyl_relation_in_a_row_with_a_singular_member():
    """The table tests the q-Weyl relations of such a row too, and the ladders read its verdicts.

    Y conjugated by a shear keeps the ladder spectrum but breaks its q-Weyl
    relation with X, so the steps alone would name a ladder step. The
    records are those the checks gave when the ladders tested the relation
    of such a row themselves.
    """
    target = suite.make_param_target(1, F(2), F(3), F(5), (F(1),))
    ctx = suite.TargetContext(build_model(GOLDEN))
    ctx._built["mirrored"] = False  # the eight rows, each tested
    label, x, y, z = ctx.triple_table[0]
    shear = Matrix([[1, 1], [0, 1]])
    sheared = shear * y * shear.inverse()
    ctx._built["triple_table"] = ((label, x, sheared, Matrix([[0, 0], [0, 0]])),) + ctx.triple_table[1:]
    minus_ident = Matrix([[-1, 0], [0, -1]])
    assert ctx.table_check == (
        False,
        [
            ("1", "Z invertible", "matrix is singular: rank 0 < 2"),
            ("1", "q-Weyl (X,Y)", Matrix([[F(-3, 2), 0], [0, 6]])),
            ("1", "q-Weyl (Y,Z)", minus_ident),
            ("1", "q-Weyl (Z,X)", minus_ident),
        ],
    )
    ok, failures = qweyl_ladder(x, sheared, F(2), ctx.spectra)
    assert not ok and failures[0][0].startswith("ladder step")
    report = Report(target.label)
    for check_id, detail, check in suite.SUITES["equitable"] + suite.SUITES["diagrams"]:
        report.run(check_id, detail, lambda: check(ctx))
    assert {c.name: (c.status, c.residual) for c in report.checks} == {
        "equitable.table": ("fail", "('1', 'Z invertible'): matrix is singular: rank 0 < 2"),
        "equitable.ladders": ("fail", "row 1 pair (X,Y): precondition"),
        "diagrams.verify": ("fail", "('3-cycle row 1: Z invertible',): matrix is singular: rank 0 < 2"),
    }


def test_a_row_of_identities_passes_the_table_and_fails_the_ladder_precondition(monkeypatch):
    """Negative control of the spectral branch: (I, I, I) is an equitable triple, but I has no q^d-eigenvector.

    So `equitable.ladders` flips on the ladder spectra alone, with every
    q-Weyl relation holding, and names the pair the oracle names. The ladder
    keeps the ModelError of I, so its kernels are solved once for the three
    invertibility entries of the table and the ladders' lookups together.
    """
    target = suite.make_param_target(1, F(2), F(3), F(5), (F(1),))
    ctx = suite.TargetContext(build_model(GOLDEN))
    ident = Matrix.identity(2)
    ctx._built["mirrored"] = False  # the eight rows, each tested
    ctx._built["triple_table"] = (("1", ident, ident, ident),) + ctx.triple_table[1:]
    solved, original = [], splitmaps.eigenspace_decomposition

    def counted(m, eigs):
        solved.append(m)
        return original(m, eigs)

    monkeypatch.setattr(splitmaps, "eigenspace_decomposition", counted)
    assert ctx.table_check == (True, [])
    assert ladders(ctx) == (False, "row 1 pair (X,Y): precondition")
    assert suite._ladders(ctx) == (False, "row 1 pair (X,Y): precondition")
    assert solved.count(ident) == 1
    report = Report(target.label)
    for check_id, detail, check in suite.SUITES["equitable"] + suite.SUITES["diagrams"]:
        report.run(check_id, detail, lambda: check(ctx))
    assert {c.name: (c.status, c.residual) for c in report.checks} == {
        "equitable.table": ("pass", None),
        "equitable.ladders": ("fail", "row 1 pair (X,Y): precondition"),
        "diagrams.verify": ("pass", None),
    }


def _pair_context(x, y, q, d):
    """A context whose triple table is the one row (X, Y, Y), with its `check_equitable_triple` verdict."""
    spectra = LadderSpectra(d, q)
    ok, failures = check_equitable_triple(x, y, y, q, spectra, {})
    return SimpleNamespace(
        model=SimpleNamespace(params=SimpleNamespace(q=q)),
        spectra=spectra,
        triple_table=(("1", x, y, y),),
        table_check=(ok, [("1", name, resid) for name, resid in failures]),
        mirrored=False,
    )


def _oracle_outcome(x, y, q, spectra):
    """The oracle's verdict on (X, Y), asserting that its steps are the images of X's eigenspaces under R.

    R is the q-Weyl residual of (X, Y). On the eigenspace X_lam,
    (X - lam q^-2 I)(Y - lam^-1 I) = (1 - q^-2) R, so once both members are
    on the ladder a step fails exactly when R != 0, and a failing step's
    image is X_lam.image_under(R). Returns "pass", "precondition" or "step".
    """
    ok, failures = qweyl_ladder(x, y, q, spectra)
    if [name for name, _ in failures] == ["precondition"]:
        return "precondition"
    resid = qweyl_residual(x, y, q)
    parts = dict(zip((f"ladder step from X-eigenvalue {lam}" for lam in spectra.eigenvalues), spectra.decomposition(x)))
    steps = [(name, image) for name, image in failures if name in parts]
    assert ok == (resid is None) == (not steps)
    for name, image in steps:
        assert image == parts[name].image_under(resid), name
    return "pass" if ok else "step"


def test_ladders_agree_with_the_oracle_on_seeded_pairs():
    """The verdict and witness of `equitable.ladders` on the row (X, Y, Y) are the oracle's, for 400 seeded pairs."""
    outcomes = Counter()
    for seed in range(400):
        x, y, q, d = _seeded_ladder_pair(seed)
        ctx = _pair_context(x, y, q, d)
        assert suite._ladders(ctx) == ladders(ctx), seed
        outcomes[_oracle_outcome(x, y, q, ctx.spectra)] += 1
    assert outcomes == {"pass": 231, "precondition": 123, "step": 46}


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("q, a, b", PARAMS)
def test_ladders_agree_with_the_oracle_on_built_tables(d, q, a, b):
    ctx = suite.TargetContext(_built(d, q, a, b))
    assert suite._ladders(ctx) == ladders(ctx) == (True, None)


def test_ladders_agree_with_the_oracle_on_perturbed_imports():
    """On seeded imports with one A* entry changed, and the oracle's steps on every pair of their tables."""
    outcomes = Counter()
    for seed in range(40):
        ctx = suite.TargetContext(_perturbed_import(seed))
        assert _outcome(suite._ladders, ctx) == _outcome(ladders, ctx), seed
        q = ctx.model.params.q
        for _, x, y, z in ctx.triple_table:
            for left, right in ((x, y), (y, z), (z, x)):
                outcomes[_oracle_outcome(left, right, q, ctx.spectra)] += 1
    # all 40 tables are built, every member is on the ladder, and half the pairs fail a step
    assert outcomes == {"pass": 480, "step": 480}


def test_verify_diagrams(golden, d2):
    for model, lus, pair in (golden, d2):
        ok, failures = verify_diagrams(lus, pair, _spectra(model), _table_check(model, pair), None)
        assert ok, [name for name, _ in failures]


def test_diagram_golden_eigenspace_identities(golden):
    model, lus, (s, _) = golden
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
    model, lus, (s, down) = golden
    swapped = replace(s, K=s.B, B=s.K)
    a = model.params.a
    # M, N and the H-conjugates the diagrams read come from the swapped maps
    assert swapped.M == (s.B.scale(a) - s.K.scale(1 / a)).scale(1 / (a - 1 / a)) != s.M
    assert swapped.N == (s.B.inverse().scale(1 / a) - s.K.inverse().scale(a)).scale(1 / (1 / a - a)) != s.N
    conj, conj_inv = swapped.conjugates
    assert conj["K"] == model.A.scale(1 / a) - s.B.inverse().scale(1 / (a * a))
    assert conj_inv["B"] == model.A.scale(1 / a) - s.K.scale(1 / (a * a))
    pair = (swapped, down)
    ok, failures = verify_diagrams(lus, pair, _spectra(model), _table_check(model, pair), None)
    assert not ok
    assert failures


@pytest.fixture(scope="module")
def d3():
    model = solve_phi(3, F(2), F(3), F(5), limit=1)[0]
    lus = build_H(model)
    spectra = _spectra(model)
    pair = build_split_maps(model)
    return model, lus, pair, spectra, _table_check(model, pair)


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
            + [f"(A, L^-1(A*)) split map at {slot} slot" for slot in ("K", "B", "Kdown", "Bdown")],
        ),
        (
            # only the A orders change, so each twisted slot fails on its descending flag alone
            "A",
            [f"(A, L(A*)) split map at {slot} slot" for slot in ("K", "B", "Kdown", "Bdown")]
            + [f"(A, L^-1(A*)) split map at {slot} slot" for slot in ("K", "B", "Kdown", "Bdown")],
        ),
    ],
)
def test_diagram_flag_failures_name_the_index_of_each_family(d3, where, expected):
    model, lus, pair, spectra, table = d3
    if where in ("Astar", "A"):
        model = replace(model)
        name = f"eigenspaces_{where}"
        model.__dict__[name] = _first_two_parts_swapped(getattr(d3[0], name))
        # H's data with the changed model, V+ and V- kept as they were
        lus = replace(lus, model=model)
        lus.__dict__.update(Vplus=d3[1].Vplus, Vminus=d3[1].Vminus)
    else:
        lus = replace(lus)
        lus.__dict__[where] = _first_two_parts_swapped(getattr(d3[1], where))
    ok, failures = verify_diagrams(lus, pair, spectra, table, None)
    assert not ok
    assert [name for name, _ in failures] == expected
    assert all(witness == "flag mismatch" for name, witness in failures if " flag " in name or "split map" in name)


def test_twisted_split_maps_are_proved_from_the_ladder_without_meets(d3, monkeypatch):
    model, lus, pair, spectra, table = d3
    meets, flag_meets = [], Decomposition.flag_meets

    def counted(self, ref):
        meets.append(self)
        return flag_meets(self, ref)

    monkeypatch.setattr(Decomposition, "flag_meets", counted)
    ok, _ = verify_diagrams(lus, pair, spectra, table, None)
    assert ok and not meets
    # with V+ perturbed, each (A, L(A*)) slot fails on its flags, still with no meets
    lus = replace(lus)
    lus.__dict__["Vplus"] = _first_two_parts_swapped(d3[1].Vplus)
    ok, failures = verify_diagrams(lus, pair, spectra, table, None)
    assert not ok and not meets
    slots = [(name, witness) for name, witness in failures if "split map" in name]
    assert slots == [(f"(A, L(A*)) split map at {slot} slot", "flag mismatch") for slot in ("K", "B", "Kdown", "Bdown")]


@lru_cache(maxsize=None)
def _solved(d, q, a, b):
    return solve_phi(d, q, a, b, limit=1)[0]


@st.composite
def perturbed_imports(draw):
    """(P A P^-1, P A*' P^-1) imported at d <= 4; A*' is the split-basis A* with one entry above the diagonal changed.

    A*' stays upper triangular on the theta* diagonal, so the import keeps
    its spectrum; the pair is in general no longer tridiagonal.
    """
    d = draw(st.integers(1, 4))
    q, a, b = draw(st.sampled_from([(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))]))
    base = _solved(d, q, a, b)
    i = draw(st.integers(0, d - 1))
    j = draw(st.integers(i + 1, d))
    rows = [list(row) for row in base.Astar.entries]
    rows[i][j] += draw(st.sampled_from([F(1), F(-2), F(1, 3), F(7, 2)]))
    # P = (I + strictly lower) (I + strictly upper) is dense, integral and unimodular
    n = d + 1
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    lower = Matrix([[1 if r == c else entries[r * n + c] if r > c else 0 for c in range(n)] for r in range(n)])
    upper = Matrix([[1 if r == c else entries[r * n + c] if r < c else 0 for c in range(n)] for r in range(n)])
    p = lower * upper
    p_inv = p.inverse()
    return assemble_imported(base.params, p * base.A * p_inv, p * Matrix(rows) * p_inv)


# Each twisted slot of verify_diagrams against the H-conjugation identity of its map
TWISTED_SLOTS = {
    **{f"(A, L(A*)) split map at {x} slot": f"H^-1 {x} H" for x in ("K", "B", "Kdown", "Bdown")},
    **{f"(A, L^-1(A*)) split map at {x} slot": f"H {x}^-1 H^-1" for x in ("K", "B", "Kdown", "Bdown")},
}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(perturbed_imports())
def test_a_twisted_slot_fails_exactly_when_its_H_conjugation_fails(model):
    """H fixes each eigenspace of A, so split(V+-, V) = H^-+1 split(V*, V): a slot holds iff its identity does.

    And once the split maps exist, M, N, Mdown and Ndown are triangular on
    the V* flag or its reverse with the ladder on the diagonal, so the
    M/N check never raises.
    """
    ctx = suite.TargetContext(model)
    try:
        pair = ctx.split_maps
    except (ModelError, ValueError):
        assume(False)
    ok, failures = verify_diagrams(ctx.lusztig, pair, ctx.spectra, ctx.table_check, None)
    failing_slots = {TWISTED_SLOTS[name] for name, _ in failures if name in TWISTED_SLOTS}
    _, conjugation_failures = splitmaps.check_H_conjugation_of_splits(ctx.lusztig, pair)
    assert failing_slots == {name.split(" = ")[0] for name, _ in conjugation_failures}
    splitmaps.check_MN_conjugation(ctx.lusztig, pair, ctx.spectra)
