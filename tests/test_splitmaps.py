import random
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest

from qonsager.linalg import Matrix, SingularMatrixError
from qonsager.lusztig import build_H
from qonsager.model import ModelError, assemble_imported, build_model, solve_phi
from qonsager.scalars import ParameterError, ParamSet
from qonsager.splitmaps import (
    LadderSpectra,
    build_split_maps,
    check_H_conjugation_of_splits,
    check_KA_relations,
    check_MN_conjugation,
    check_R_ladder,
    check_split_flags,
    map_from_decomposition,
    qweyl_eigenvalues,
    split_decomposition,
)

from linalg_reference import span
from projector_reference import lagrange_projectors

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def _spectra(model):
    return LadderSpectra(model.d, model.params.q)


@pytest.fixture(scope="module")
def golden():
    model = build_model(GOLDEN)
    lus = build_H(model)
    return model, lus, build_split_maps(model)


@pytest.fixture(scope="module")
def d2():
    phi = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    model = build_model(ParamSet(2, F(2), F(3), F(5), phi))
    lus = build_H(model)
    return model, lus, build_split_maps(model)


def line(*coords):
    return span(len(coords), [list(coords)])


def test_split_decomposition_forward_forward(golden):
    model, _, _ = golden
    dec = split_decomposition(model.eigenspaces_Astar, model.eigenspaces_A)
    assert dec[0] == line(1, 0)
    assert dec[1] == line(0, 1)


def test_split_decomposition_forward_reversed(golden):
    model, _, _ = golden
    dec = split_decomposition(model.eigenspaces_Astar, model.eigenspaces_A.inversion())
    assert dec[0] == line(1, 0)
    assert dec[1] == line(4, 1)


def test_split_decomposition_reversed_reversed(golden):
    model, _, _ = golden
    dec = split_decomposition(model.eigenspaces_Astar.inversion(), model.eigenspaces_A.inversion())
    # Parts hang off the V*_1 flag: U_0 = V*_1, U_1 = (V*_1 + V*_0) n V_0.
    assert dec[0] == model.eigenspaces_Astar[1]
    assert dec[1] == model.eigenspaces_A[0]


def test_the_two_orientations_give_the_four_split_maps(golden, d2):
    """up reads V* in order and down reversed; K pairs either with V in order, B with V reversed."""
    for model, _, pair in (golden, d2):
        vstar, v = model.eigenspaces_Astar, model.eigenspaces_A
        assert [s.down for s in pair] == ["", "down"]
        for s, star_dec in zip(pair, (vstar, vstar.inversion())):
            assert s.orient(vstar) is star_dec
            for dec, mat, a_dec in ((s.dec_K, s.K, v), (s.dec_B, s.B, v.inversion())):
                assert split_decomposition(star_dec, a_dec) == dec
                assert map_from_decomposition(dec, model.params.q) == mat


def _solved(d, q, a, b):
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


def _dense_import(seed):
    """A d = 3 model (P A P^-1, P A* P^-1) for a seeded dense unimodular integer P."""
    rng = random.Random(seed)
    base, n = _solved(3, F(2), F(3), F(5)), 4
    e = [rng.randint(-2, 2) for _ in range(n * n)]
    lower = Matrix([[1 if r == c else e[r * n + c] if r > c else 0 for c in range(n)] for r in range(n)])
    upper = Matrix([[1 if r == c else e[r * n + c] if r < c else 0 for c in range(n)] for r in range(n)])
    p = lower * upper
    return assemble_imported(base.params, p * base.A * p.inverse(), p * base.Astar * p.inverse())


RELABEL_TARGETS = [(d, F(2), F(3), F(5)) for d in range(2, 7)] + [(4, F(3, 2), F(1, 7), F(2, 9)), (3, F(-2), F(5), F(3))]


def _fields(s):
    return s.K, s.B, s.M, s.N, s.dec_K, s.dec_B


@pytest.mark.parametrize(
    "target", RELABEL_TARGETS + ["dense import"], ids=lambda t: t if isinstance(t, str) else "d={} q={} a={} b={}".format(*t)
)
def test_down_is_up_of_the_b_inverse_relabel(target):
    """Reading A*'s eigenvalues in reverse order is b -> b^-1: down of the model is up of the relabelled pair, and back."""
    model = _dense_import(31) if target == "dense import" else _solved(*target)
    p = model.params
    up, down = build_split_maps(model)
    relabelled_up, relabelled_down = build_split_maps(assemble_imported(ParamSet(p.d, p.q, p.a, 1 / p.b), model.A, model.Astar))
    assert _fields(down) == _fields(relabelled_up)
    assert _fields(up) == _fields(relabelled_down)
    assert (relabelled_up.down, relabelled_down.down) == ("", "down")
    # negative control: the two orientations differ
    assert _fields(up) != _fields(down) and up.K != down.K


def test_conjugates_are_the_closed_forms(golden, d2):
    """H^-1 X H = c A - c^2 X^-1 and H X^-1 H^-1 = c^-1 A - c^-2 X, c = a^-1 for K and a for B."""
    for model, lus, pair in (golden, d2):
        a = model.params.a
        for s in pair:
            conj, conj_inv = s.conjugates
            for name, x, c in (("K", s.K, 1 / a), ("B", s.B, a)):
                assert conj[name] == lus.H_inv * x * lus.H == model.A.scale(c) - x.inverse().scale(c * c)
                assert conj_inv[name] == lus.H * x.inverse() * lus.H_inv == model.A.scale(1 / c) - x.scale(1 / (c * c))


def test_split_maps_golden_values(golden):
    _, _, (s, _) = golden
    assert s.K == Matrix([[2, 0], [0, F(1, 2)]])
    assert s.B == Matrix([[2, -6], [0, F(1, 2)]])


def test_map_of_inverted_decomposition_is_inverse(golden, d2):
    for model, _, pair in (golden, d2):
        q = model.params.q
        for s in pair:
            for dec, mat in ((s.dec_K, s.K), (s.dec_B, s.B)):
                assert map_from_decomposition(dec.inversion(), q) == mat.inverse()


def test_split_flags(golden, d2):
    for model, _, pair in (golden, d2):
        ok, failures = check_split_flags(model, pair)
        assert ok, failures


def test_KA_relations(golden, d2):
    for _, _, pair in (golden, d2):
        ok, failures = check_KA_relations(pair)
        assert ok, [name for name, _ in failures]


def test_KA_relations_fail_when_K_inverted(golden):
    _, _, (s, down) = golden
    broken = replace(s, K=s.K.inverse())
    ok, failures = check_KA_relations((broken, down))
    assert not ok
    assert any("qweyl[K,A]" in name for name, _ in failures)


@pytest.mark.parametrize(
    "d, q, a, b", [(2, F(2), F(3), F(5)), (4, F(3, 2), F(1, 7), F(2, 9)), (3, F(-2), F(5), F(3))]
)
def test_KA_relations_negative_control_swaps_B_and_Bdown(d, q, a, b):
    """Bdown keeps the q-Weyl relation of B with A, so swapping them fails relation 3 alone."""
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    up, down = build_split_maps(models[0])
    ok, failures = check_KA_relations((replace(up, B=down.B), replace(down, B=up.B)))
    relation_3 = "a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0"
    assert not ok
    assert [name for name, _ in failures] == [relation_3, "down:" + relation_3]
    assert all(not resid.is_zero() for _, resid in failures)


def test_KA_relations_raise_for_a_singular_map(golden):
    """The dropped forms name K^-1 and B^-1: a singular replaced map raises, as they would."""
    _, _, (up, down) = golden
    zero = up.K.scale(0)
    for pair in ((replace(up, K=zero), down), (up, replace(down, B=zero))):  # K, Bdown
        with pytest.raises(SingularMatrixError):
            check_KA_relations(pair)


def test_a_inversion_swaps_K_and_B_relation_shapes(golden):
    # The K relation with a and the B relation with 1/a share one formula.
    model, _, (s, _) = golden
    q, a = model.params.q, model.params.a
    ident = Matrix.identity(model.dim)

    def bracket(x, y):
        return ((x * y).scale(q) - (y * x).scale(1 / q)).scale(1 / (q - 1 / q))

    k_form = bracket(s.K, model.A) - (s.K * s.K).scale(a) - ident.scale(1 / a)
    b_form = bracket(s.B, model.A) - (s.B * s.B).scale(1 / a) - ident.scale(a)
    assert k_form.is_zero() and b_form.is_zero()


def test_H_conjugation_golden_value(golden):
    model, lus, (s, _) = golden
    conj = lus.H_inv * s.K * lus.H
    assert conj == Matrix([[2, 0], [F(1, 3), F(1, 2)]])
    a = model.params.a
    assert conj == model.A.scale(1 / a) - s.K.inverse().scale(1 / (a * a))


def test_H_conjugation_reformulated_value(golden):
    model, lus, (s, _) = golden
    a = model.params.a
    assert lus.H * s.K.inverse() * lus.H_inv == model.A.scale(a) - s.K.scale(a * a)


def test_H_conjugation_all_eight(golden, d2):
    for model, lus, pair in (golden, d2):
        ok, failures = check_H_conjugation_of_splits(lus, pair)
        assert ok, [name for name, _ in failures]


def test_H_conjugation_fails_with_identity_H(golden):
    model, lus, pair = golden
    ident = Matrix.identity(model.dim)
    broken = replace(lus, H=ident, H_inv=ident)
    ok, failures = check_H_conjugation_of_splits(broken, pair)
    assert not ok
    assert failures


def test_R_ladder_golden_values(golden):
    model, _, (s, _) = golden
    a = model.params.a
    r = model.A - s.K.scale(a) - s.K.inverse().scale(1 / a)
    assert r == Matrix([[0, 0], [1, 0]])
    assert (r * r).is_zero()
    assert r * s.K == (s.K * r).scale(4)


def test_R_ladder(golden, d2):
    for model, _, (s, _) in (golden, d2):
        ok, failures = check_R_ladder(model, s, _spectra(model))
        assert ok, [name for name, _ in failures]


def _projector_R_ladder_failures(model, s):
    """Reference: the names of the failing statements in the Lagrange-projector form of the R-ladder check."""
    q, a, d = model.params.q, model.params.a, model.d
    projectors = lagrange_projectors(s.K, qweyl_eigenvalues(d, q))
    r = model.A - s.K.scale(a) - s.K.inverse().scale(1 / a)
    ident = Matrix.identity(model.dim)
    statements = []
    for i in range(d + 1):
        statements.append((
            f"(a K + a^-1 K^-1) acts as theta_{i} on U_{i}",
            (s.K.scale(a) + s.K.inverse().scale(1 / a) - ident.scale(model.theta[i])) * projectors[i],
        ))
        if i < d:
            statements.append((f"R U_{i} inside U_{i + 1}", r * projectors[i] - projectors[i + 1] * r * projectors[i]))
    statements.append(("R kills the top part", r * projectors[d]))
    statements.append((f"R^{d + 1} = 0", reduce(mul, [r] * (d + 1))))
    statements.append(("R K = q^2 K R", r * s.K - (s.K * r).scale(q * q)))
    return [name for name, resid in statements if not resid.is_zero()]


def _shear(n, i, j, c):
    """I + c E_ij."""
    return Matrix([[int(r == c_) + (c if (r, c_) == (i, j) else 0) for c_ in range(n)] for r in range(n)])


def test_R_ladder_negative_control_perturbs_K(golden, d2):
    """K conjugated by a shear keeps its spectrum on the ladder, so the check runs.

    A shear that moves U_d off the top A-eigenspace must fail it; every
    verdict, pass or fail, must name the statements the projector form names
    but R^(d+1) = 0 and RK = q^2 KR, which the check no longer tests apart:
    the projector form names them only beside a failing step or top claim.
    """
    names = set()
    for model, _, (s, _) in (golden, d2):
        n = model.dim
        dropped = (f"R^{model.d + 1} = 0", "R K = q^2 K R")
        for i, j, c in ((0, n - 1, 1), (0, 1, -2), (n - 1, 0, F(1, 3)), (1, 0, 5)):
            shear = _shear(n, i, j, c)
            perturbed = replace(s, K=shear * s.K * shear.inverse())
            ok, failures = check_R_ladder(model, perturbed, _spectra(model))
            reference = _projector_R_ladder_failures(model, perturbed)
            kept = [name for name in reference if name not in dropped]
            assert [name for name, _ in failures] == kept
            assert kept[:1] == reference[:1]
            if set(dropped) & set(reference):
                assert any(name.startswith("R ") for name in kept), (model.d, i, j, c)
            assert all(not resid.is_zero() for _, resid in failures)
            if i == 0:
                assert not ok, (model.d, i, j, c)
            names.update(name for name, _ in failures)
        ok, failures = check_R_ladder(model, s, _spectra(model))
        assert ok and _projector_R_ladder_failures(model, s) == []
    assert {"R U_0 inside U_1", "R kills the top part"} <= names


def test_R_ladder_K_off_the_ladder_raises(golden):
    model, _, (s, _) = golden
    with pytest.raises(ModelError):
        check_R_ladder(model, replace(s, K=s.K.scale(3)), _spectra(model))


def test_MN_golden_values(golden):
    _, _, (s, _) = golden
    assert s.M == Matrix([[2, F(3, 4)], [0, F(1, 2)]])
    assert s.N == Matrix([[F(1, 2), F(27, 4)], [0, 2]])


def test_MN_eigenvalues_golden(golden):
    model, _, (up, down) = golden
    eigs = qweyl_eigenvalues(model.d, model.params.q)
    assert eigs == (F(2), F(1, 2))
    for mat in (up.M, up.N, down.M, down.N):
        assert mat[0, 0] + mat[1, 1] == F(2) + F(1, 2)


def test_MN_conjugation(golden, d2):
    for model, lus, pair in (golden, d2):
        ok, failures = check_MN_conjugation(lus, pair, _spectra(model))
        assert ok, failures


def test_MN_rejects_a_one():
    # ParamSet already rejects a = 1 and a = -1, so exercise the split maps directly.
    for s in build_split_maps(build_model(GOLDEN)):
        for a in (F(1), F(-1)):
            for name in ("M", "N"):
                with pytest.raises(ParameterError, match="M, N denominators vanish"):
                    getattr(replace(s, a=a), name)
