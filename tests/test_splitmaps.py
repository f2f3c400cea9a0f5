from dataclasses import replace
from fractions import Fraction as F

import pytest

from qonsager.linalg import Matrix, Subspace
from qonsager.lusztig import build_H
from qonsager.model import ModelError, build_model, solve_phi
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
    orientations,
    qweyl_eigenvalues,
    split_decomposition,
)

from projector_reference import lagrange_projectors

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def _spectra(model):
    return LadderSpectra(model.d, model.params.q)


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


def test_the_four_orientations_give_the_four_split_maps(golden, d2):
    for model, _, s in (golden, d2):
        names = [name for name, _, _ in orientations(model.eigenspaces_Astar, model.eigenspaces_A)]
        assert names == ["K", "B", "Kdown", "Bdown"]
        for name, star_dec, a_dec in orientations(model.eigenspaces_Astar, model.eigenspaces_A):
            dec = split_decomposition(star_dec, a_dec)
            assert dec == getattr(s, f"dec_{name}")
            assert map_from_decomposition(dec, model.params.q) == getattr(s, name)


def test_conjugates_are_the_closed_forms(golden, d2):
    """H^-1 X H = c A - c^2 X^-1 and H X^-1 H^-1 = c^-1 A - c^-2 X, c = a^-1 for K and a for B."""
    for model, lus, s in (golden, d2):
        a = model.params.a
        for name, c in (("K", 1 / a), ("B", a), ("Kdown", 1 / a), ("Bdown", a)):
            x = getattr(s, name)
            conj, conj_inv = s.conjugates
            assert conj[name] == lus.H_inv * x * lus.H == model.A.scale(c) - x.inverse().scale(c * c)
            assert conj_inv[name] == lus.H * x.inverse() * lus.H_inv == model.A.scale(1 / c) - x.scale(1 / (c * c))


def test_split_maps_golden_values(golden):
    _, _, s = golden
    assert s.K == Matrix.diagonal([2, F(1, 2)])
    assert s.B == Matrix([[2, -6], [0, F(1, 2)]])


def test_map_of_inverted_decomposition_is_inverse(golden, d2):
    for model, _, s in (golden, d2):
        q = model.params.q
        for dec, mat in ((s.dec_K, s.K), (s.dec_B, s.B), (s.dec_Kdown, s.Kdown), (s.dec_Bdown, s.Bdown)):
            assert map_from_decomposition(dec.inversion(), q) == mat.inverse()


def test_split_flags(golden, d2):
    for model, _, s in (golden, d2):
        ok, failures = check_split_flags(model, s)
        assert ok, failures


def test_KA_relations(golden, d2):
    for model, _, s in (golden, d2):
        ok, failures = check_KA_relations(model, s)
        assert ok, [name for name, _ in failures]


def test_KA_relations_fail_when_K_inverted(golden):
    model, _, s = golden
    from dataclasses import replace

    broken = replace(s, K=s.K.inverse())
    ok, failures = check_KA_relations(model, broken)
    assert not ok
    assert any("qweyl[K,A]" in name for name, _ in failures)


def test_a_inversion_swaps_K_and_B_relation_shapes(golden):
    # The K relation with a and the B relation with 1/a share one formula.
    model, _, s = golden
    q, a = model.params.q, model.params.a
    ident = Matrix.identity(model.dim)

    def bracket(x, y):
        return ((x * y).scale(q) - (y * x).scale(1 / q)).scale(1 / (q - 1 / q))

    k_form = bracket(s.K, model.A) - (s.K * s.K).scale(a) - ident.scale(1 / a)
    b_form = bracket(s.B, model.A) - (s.B * s.B).scale(1 / a) - ident.scale(a)
    assert k_form.is_zero() and b_form.is_zero()


def test_H_conjugation_golden_value(golden):
    model, lus, s = golden
    conj = lus.H_inv * s.K * lus.H
    assert conj == Matrix([[2, 0], [F(1, 3), F(1, 2)]])
    a = model.params.a
    assert conj == model.A.scale(1 / a) - s.K.inverse().scale(1 / (a * a))


def test_H_conjugation_reformulated_value(golden):
    model, lus, s = golden
    a = model.params.a
    assert lus.H * s.K.inverse() * lus.H_inv == model.A.scale(a) - s.K.scale(a * a)


def test_H_conjugation_all_eight(golden, d2):
    for model, lus, s in (golden, d2):
        ok, failures = check_H_conjugation_of_splits(lus, s)
        assert ok, [name for name, _ in failures]


def test_H_conjugation_fails_with_identity_H(golden):
    model, lus, s = golden
    from dataclasses import replace

    ident = Matrix.identity(model.dim)
    broken = replace(lus, H=ident, H_inv=ident)
    ok, failures = check_H_conjugation_of_splits(broken, s)
    assert not ok
    assert failures


def test_R_ladder_golden_values(golden):
    model, _, s = golden
    a = model.params.a
    r = model.A - s.K.scale(a) - s.K.inverse().scale(1 / a)
    assert r == Matrix([[0, 0], [1, 0]])
    assert (r * r).is_zero()
    assert r * s.K == (s.K * r).scale(4)


def test_R_ladder(golden, d2):
    for model, _, s in (golden, d2):
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
    statements.append((f"R^{d + 1} = 0", r ** (d + 1)))
    statements.append(("R K = q^2 K R", r * s.K - (s.K * r).scale(q * q)))
    return [name for name, resid in statements if not resid.is_zero()]


def _shear(n, i, j, c):
    """I + c E_ij."""
    return Matrix([[int(r == c_) + (c if (r, c_) == (i, j) else 0) for c_ in range(n)] for r in range(n)])


def test_R_ladder_negative_control_perturbs_K(golden, d2):
    """K conjugated by a shear keeps its spectrum on the ladder, so the check runs.

    A shear that moves U_d off the top A-eigenspace must fail it; every
    verdict, pass or fail, must name the statements the projector form names.
    """
    names = set()
    for model, _, s in (golden, d2):
        n = model.dim
        for i, j, c in ((0, n - 1, 1), (0, 1, -2), (n - 1, 0, F(1, 3)), (1, 0, 5)):
            shear = _shear(n, i, j, c)
            perturbed = replace(s, K=shear * s.K * shear.inverse())
            ok, failures = check_R_ladder(model, perturbed, _spectra(model))
            assert [name for name, _ in failures] == _projector_R_ladder_failures(model, perturbed)
            assert all(not resid.is_zero() for _, resid in failures)
            if i == 0:
                assert not ok, (model.d, i, j, c)
            names.update(name for name, _ in failures)
        ok, failures = check_R_ladder(model, s, _spectra(model))
        assert ok and _projector_R_ladder_failures(model, s) == []
    assert {"R U_0 inside U_1", "R kills the top part"} <= names


def test_R_ladder_K_off_the_ladder_raises(golden):
    model, _, s = golden
    with pytest.raises(ModelError):
        check_R_ladder(model, replace(s, K=s.K.scale(3)), _spectra(model))


def test_MN_golden_values(golden):
    _, _, s = golden
    assert s.M == Matrix([[2, F(3, 4)], [0, F(1, 2)]])
    assert s.N == Matrix([[F(1, 2), F(27, 4)], [0, 2]])


def test_MN_eigenvalues_golden(golden):
    model, _, s = golden
    eigs = qweyl_eigenvalues(model.d, model.params.q)
    assert eigs == (F(2), F(1, 2))
    for mat in (s.M, s.N, s.Mdown, s.Ndown):
        assert mat.trace() == F(2) + F(1, 2)


def test_MN_conjugation(golden, d2):
    for model, lus, s in (golden, d2):
        ok, failures = check_MN_conjugation(lus, s, _spectra(model))
        assert ok, failures


def test_MN_rejects_a_one():
    # ParamSet already rejects a = 1 and a = -1, so exercise the split maps directly.
    s = build_split_maps(build_model(GOLDEN))
    for a in (F(1), F(-1)):
        for name in ("M", "N", "Mdown", "Ndown"):
            with pytest.raises(ParameterError, match="M, N denominators vanish"):
                getattr(replace(s, a=a), name)
