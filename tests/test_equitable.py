import random
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qonsager import splitmaps, suite
from qonsager.equitable import (
    build_triple_table,
    check_equitable_triple,
    check_qweyl_ladder,
    qweyl_ladder,
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
from qonsager.model import ModelError, assemble_imported, build_model, eigenspace_decomposition, solve_phi
from qonsager.report import Report
from qonsager.scalars import ParamSet
from qonsager.splitmaps import (
    LadderSpectra,
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
    s = build_split_maps(model)
    return model, lus, s


@pytest.fixture(scope="module")
def d2():
    phi = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    model = build_model(ParamSet(2, F(2), F(3), F(5), phi))
    lus = build_H(model)
    s = build_split_maps(model)
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


def test_ladders_test_the_qweyl_relation_in_a_row_with_a_singular_member():
    """The table tests no q-Weyl relation in such a row, so the ladders test it before the steps.

    Y conjugated by a shear keeps the ladder spectrum but breaks its q-Weyl
    relation with X, so the steps alone would name a ladder step.
    """
    ctx = suite.TargetContext(build_model(GOLDEN))
    label, x, y, z = ctx.triple_table[0]
    shear = Matrix([[1, 1], [0, 1]])
    sheared = shear * y * shear.inverse()
    ctx._built["triple_table"] = ((label, x, sheared, Matrix.zero(2)),) + ctx.triple_table[1:]
    assert ctx.table_check == (False, [("1", "Z invertible", "matrix is singular: rank 0 < 2")])
    ok, failures = qweyl_ladder(x, sheared, F(2), ctx.spectra)
    assert not ok and failures[0][0].startswith("ladder step")
    check = next(check for check_id, _, check in suite.SUITES["equitable"] if check_id == "equitable.ladders")
    assert check(ctx) == (False, "row 1 pair (X,Y): precondition")


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
    s = build_split_maps(model)
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
        (
            # only the A orders change, so each twisted slot fails on its descending flag alone
            "A",
            [f"(A, L(A*)) split map at {slot} slot" for slot in ("K", "B", "Kdown", "Bdown")]
            + [f"(A, L^-1(A*)) split map at {slot} slot times its label" for slot in ("K", "B", "Kdown", "Bdown")],
        ),
    ],
)
def test_diagram_flag_failures_name_the_index_of_each_family(d3, where, expected):
    model, lus, s, spectra, table = d3
    if where in ("Astar", "A"):
        model = replace(model)
        name = f"eigenspaces_{where}"
        model.__dict__[name] = _first_two_parts_swapped(getattr(d3[0], name))
    else:
        lus = replace(lus)
        lus.__dict__[where] = _first_two_parts_swapped(getattr(d3[1], where))
    ok, failures = verify_diagrams(model, lus, s, spectra, table)
    assert not ok
    assert [name for name, _ in failures] == expected
    assert all(witness == "flag mismatch" for name, witness in failures if " flag " in name or "split map" in name)


def test_twisted_split_maps_are_proved_from_the_ladder_without_meets(d3, monkeypatch):
    model, lus, s, spectra, table = d3
    meets, flag_meets = [], Decomposition.flag_meets

    def counted(self, ref):
        meets.append(self)
        return flag_meets(self, ref)

    monkeypatch.setattr(Decomposition, "flag_meets", counted)
    ok, _ = verify_diagrams(model, lus, s, spectra, table)
    assert ok and not meets
    # with V+ perturbed, each (A, L(A*)) slot fails on its flags, still with no meets
    lus = replace(lus)
    lus.__dict__["Vplus"] = _first_two_parts_swapped(d3[1].Vplus)
    ok, failures = verify_diagrams(model, lus, s, spectra, table)
    assert not ok and not meets
    slots = [(name, witness) for name, witness in failures if "split map" in name]
    assert slots == [(f"(A, L(A*)) split map at {slot} slot", "flag mismatch") for slot in ("K", "B", "Kdown", "Bdown")]


@lru_cache(maxsize=None)
def _solved(d, q, a, b):
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


@st.composite
def perturbed_imports(draw):
    """(P A P^-1, P A*' P^-1) imported at d <= 4; A*' is the split-basis A* with one entry above the diagonal changed.

    A*' stays upper triangular on the theta* diagonal, so the import keeps
    its spectrum; the pair is in general no longer tridiagonal.
    """
    d = draw(st.integers(1, 4))
    q, a, b = draw(st.sampled_from([(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))]))
    base = build_model(ParamSet(1, q, a, b, (F(1),))) if d == 1 else _solved(d, q, a, b)
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
    **{f"(A, L^-1(A*)) split map at {x} slot times its label": f"H {x}^-1 H^-1" for x in ("K", "B", "Kdown", "Bdown")},
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
        s = ctx.split_maps
    except (ModelError, ValueError):
        assume(False)
    ok, failures = verify_diagrams(model, ctx.lusztig, s, ctx.spectra, ctx.table_check)
    failing_slots = {TWISTED_SLOTS[name] for name, _ in failures if name in TWISTED_SLOTS}
    _, conjugation_failures = splitmaps.check_H_conjugation_of_splits(ctx.lusztig, s)
    assert failing_slots == {name.split(" = ")[0] for name, _ in conjugation_failures}
    splitmaps.check_MN_conjugation(ctx.lusztig, s, ctx.spectra)
