from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager.linalg import Matrix, kernel
from qonsager.lusztig import (
    build_H,
    check_H_expansions,
    check_L_conjugation,
    check_L_eigenstructure,
    check_L_entrywise,
    lusztig_images,
)
from qonsager.model import build_model, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParamSet, t_coeff

import identity_reference
from linalg_reference import span
from projector_reference import lagrange_projectors

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))
TWISTED = Path(__file__).resolve().parent / "golden" / "twisted_d2.model"


@pytest.fixture(scope="module")
def golden():
    model = build_model(GOLDEN)
    return model, build_H(model)


@pytest.fixture(scope="module")
def d2():
    model = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    return model, build_H(model)


def test_build_H_golden(golden):
    model, lus = golden
    assert model.params.ts == (F(1), F(9))
    assert lus.H == Matrix([[1, 0], [-2, 9]])
    assert lus.H_inv == Matrix([[1, 0], [F(2, 9), F(1, 9)]])


def test_H_commutes_with_A(golden, d2):
    for model, lus in (golden, d2):
        assert (lus.H * model.A - model.A * lus.H).is_zero()


def test_lusztig_image_golden(golden):
    model, lus = golden
    img, _ = lusztig_images(model)
    assert img == Matrix([[F(81, 10), 9], [F(52, 45), F(49, 10)]])
    assert img[0, 0] + img[1, 1] == model.Astar[0, 0] + model.Astar[1, 1] == 13


def test_lusztig_image_inverse_direction_is_H_conjugate(golden):
    model, lus = golden
    assert lusztig_images(model)[1] == lus.H * model.Astar * lus.H_inv


def test_both_images_form_their_three_products_once(d2, monkeypatch):
    """A A A*, A A* A and A* A A take two integer products each, shared by L(A*) and L^-1(A*)."""
    from qonsager import linalg

    model, lus = d2
    products, original = [], linalg._numerator_product

    def counted(x, y):
        products.append((x, y))
        return original(x, y)

    monkeypatch.setattr(linalg, "_numerator_product", counted)
    assert lusztig_images(model) == (lus.LAstar, lus.LinvAstar)
    assert len(products) == 6


def test_conjugation_identities(golden, d2):
    for _, lus in (golden, d2):
        ok, residuals = check_L_conjugation(lus)
        assert ok, residuals


def test_conjugation_detects_perturbed_t(golden):
    model, lus = golden
    # Doubling t_1 inside H breaks the conjugation identity.
    bad_h = model.eigenspaces_A.diagonal_map([1, 18])
    broken = type(lus)(
        model=model,
        H=bad_h,
        H_inv=bad_h.inverse(),
        LAstar=lus.LAstar,
        LinvAstar=lus.LinvAstar,
    )
    ok, residuals = check_L_conjugation(broken)
    assert not ok
    assert any(not r.is_zero() for r in residuals.values())


def test_entrywise_coefficients(golden, d2):
    for _, lus in (golden, d2):
        ok, failures = check_L_entrywise(lus)
        assert ok, failures


def test_eigenstructure(golden, d2):
    for _, lus in (golden, d2):
        ok, failures = check_L_eigenstructure(lus)
        assert ok, failures


def test_eigenstructure_golden_spans(golden):
    model, lus = golden
    ident = Matrix.identity(2)
    plus0 = kernel(lus.LAstar - ident.scale(F(101, 10)))
    assert plus0 == span(2, [[9, 2]])
    assert plus0 == lus.Vplus[0]
    minus0 = kernel(lus.LinvAstar - ident.scale(F(101, 10)))
    assert minus0 == span(2, [[1, -2]])
    assert minus0 == lus.Vminus[0]


def test_eigenvalue_multiset_via_trace_and_det(golden):
    model, lus = golden
    image = lus.LAstar
    assert image[0, 0] + image[1, 1] == F(101, 10) + F(29, 10)
    det = image[0, 0] * image[1, 1] - image[0, 1] * image[1, 0]
    assert det == F(101, 10) * F(29, 10)


EXPANSION_PARAMS = [
    (d, q, a, b)
    for d in range(1, 7)
    for q, a, b in ((F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(3), F(5)))
]


def _with_doubled_t1(model, lus):
    """H and H^-1 rebuilt with t_1 doubled: every expansion whose flag contains V_1 fails."""
    t = list(model.params.ts)
    t[1] *= 2
    bad_h = model.eigenspaces_A.diagonal_map(t)
    return replace(lus, H=bad_h, H_inv=bad_h.inverse())


def _with_sheared_H(model, lus):
    """H -> H (I + E_0d): H^-1 is left as it was, so only the expansions of H fail."""
    n = model.dim
    shear = Matrix([[int(r == c or (r, c) == (0, n - 1)) for c in range(n)] for r in range(n)])
    return replace(lus, H=lus.H * shear)


@pytest.mark.parametrize("d, q, a, b", EXPANSION_PARAMS, ids=lambda v: str(v))
def test_paired_expansions_match_the_reference(d, q, a, b):
    """The H and H^-1 expansions of every anchor fail and witness as in the `Matrix`-operator reference check."""
    model = solve_phi(d, q, a, b, limit=1)[0]
    lus = build_H(model)
    cases = (lus, _with_doubled_t1(model, lus), _with_sheared_H(model, lus))
    outcomes = [check_H_expansions(h) for h in cases]
    assert outcomes == [identity_reference.check_H_expansions(model, h) for h in cases]
    assert [ok for ok, _ in outcomes] == [True, False, False]


def test_expansions_all_anchors(golden, d2):
    for _, lus in (golden, d2):
        ok, failures = check_H_expansions(lus)
        assert ok, [(v, i, r) for v, i, r, _ in failures]


def test_expansions_form_two_products_on_a_passing_target(d2, monkeypatch):
    """H P and H^-1 P, for P the eigenbasis of A; every expansion is a scalar on each column of P."""
    from qonsager import linalg

    model, lus = d2
    products, original = [], linalg._numerator_product

    def counted(x, y):
        products.append((x, y))
        return original(x, y)

    monkeypatch.setattr(linalg, "_numerator_product", counted)
    assert check_H_expansions(lus) == (True, [])
    assert len(products) == 2


def test_inverse_twist_of_twisted_image_returns_Astar(golden, d2):
    # Applying the inverse-direction combination to L(A*) recovers A* because
    # A commutes with H: Y + [A,[A,Y]_(q^-1)]/((q-q^-1)(q^2-q^-2)) at Y = L(A*).
    for model, lus in (golden, d2):
        assert lusztig_images(replace(model, Astar=lus.LAstar))[1] == model.Astar


def _projector_entrywise_failures(model, lus):
    """Reference: the failures of the entrywise check formed with Lagrange projectors."""
    e = lagrange_projectors(model.A, model.theta)
    failures = []
    for i in range(model.d + 1):
        for j in range(model.d + 1):
            lhs = e[i] * lus.LAstar * e[j]
            rhs = e[i] * model.Astar * e[j]
            if abs(i - j) <= 1:
                resid = lhs - rhs.scale(t_coeff(i, j, model.params))
            else:
                resid = lhs if not lhs.is_zero() else rhs
            if not resid.is_zero():
                failures.append((i, j, resid))
    return failures


def _projector_expansion_failures(model, lus):
    """Reference: the failures of the expansion check, residuals times sums of Lagrange projectors."""
    e = lagrange_projectors(model.A, model.theta)
    d = model.d
    failures = []
    for variant in ("ascending", "descending"):
        for inverse in (False, True):
            target = lus.H_inv if inverse else lus.H
            for r in range(d + 1):
                indices = range(r, d + 1) if variant == "ascending" else range(r + 1)
                flag_proj = target.scale(0)
                for i in indices:
                    flag_proj = flag_proj + e[i]
                resid = (identity_reference.expand_H(model, r, variant)[inverse] - target) * flag_proj
                if not resid.is_zero():
                    failures.append((variant, inverse, r, resid))
    return failures


def test_entrywise_witnesses_match_the_projector_reference(golden, d2):
    twisted = import_model(str(TWISTED))
    lus = build_H(twisted)
    ok, failures = check_L_entrywise(lus)
    assert not ok and failures
    assert failures == _projector_entrywise_failures(twisted, lus)
    for model, lus in (golden, d2):
        assert check_L_entrywise(lus) == (True, []) == (True, _projector_entrywise_failures(model, lus))


def test_expansion_witnesses_match_the_projector_reference(golden, d2):
    # Doubling t_1 inside H breaks every expansion whose flag contains V_1.
    for model, lus in (golden, d2):
        t = list(model.params.ts)
        t[1] *= 2
        bad_h = model.eigenspaces_A.diagonal_map(t)
        broken = replace(lus, H=bad_h, H_inv=bad_h.inverse())
        ok, failures = check_H_expansions(broken)
        assert not ok
        assert {(variant, r) for variant, inverse, r, _ in failures} == (
            {("ascending", r) for r in range(2)} | {("descending", r) for r in range(1, model.d + 1)}
        )
        assert failures == _projector_expansion_failures(model, broken)
    twisted = import_model(str(TWISTED))
    lus = build_H(twisted)
    assert check_H_expansions(lus) == (True, []) == (True, _projector_expansion_failures(twisted, lus))
