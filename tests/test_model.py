from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager import model
from qonsager.linalg import Decomposition, Matrix, kernel
from qonsager.model import (
    ModelError,
    build_model,
    check_irreducible,
    check_qdg,
    check_tridiagonal_action,
    recover_a,
    solve_phi,
    spectrum_path,
)
from qonsager.modelio import import_model
from qonsager.scalars import ParameterError, ParamSet

import model_reference
from closure_reference import invariant_closure
from linalg_reference import subspace_intersect
from model_reference import coupling, spectrum_graph
from projector_reference import lagrange_projectors

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))
TWISTED = Path(__file__).resolve().parent / "golden" / "twisted_d2.model"


@pytest.fixture(scope="module")
def golden_model():
    return build_model(GOLDEN)


@pytest.fixture(scope="module")
def d2_model():
    return solve_phi(2, F(2), F(3), F(5), limit=1)[0]


def test_build_model_golden_matrices(golden_model):
    assert golden_model.A == Matrix([[F(37, 6), 0], [1, F(13, 6)]])
    assert golden_model.Astar == Matrix([[F(101, 10), 1], [0, F(29, 10)]])


def test_build_model_golden_projectors(golden_model):
    expected = (Matrix([[1, 0], [F(1, 4), 0]]), Matrix([[0, 0], [F(-1, 4), 1]]))
    assert tuple(golden_model.eigenspaces_A.projector([i]) for i in range(2)) == expected
    assert lagrange_projectors(golden_model.A, golden_model.theta) == expected


def test_projector_laws(golden_model, d2_model):
    # E_i E_j = delta_ij E_i, sum E_i = I, X E_i = theta_i E_i, and each E_i
    # is the Lagrange projector of the reference.
    for model in (golden_model, d2_model):
        n = model.dim
        for dec, mat, eigs in (
            (model.eigenspaces_A, model.A, model.theta),
            (model.eigenspaces_Astar, model.Astar, model.theta_star),
        ):
            projs = [dec.projector([i]) for i in range(len(dec))]
            assert tuple(projs) == lagrange_projectors(mat, eigs)
            total = mat.scale(0)
            for i, pi in enumerate(projs):
                total = total + pi
                assert mat * pi == pi.scale(eigs[i])
                for j, pj in enumerate(projs):
                    assert pi * pj == (pi if i == j else pi.scale(0))
            assert total == Matrix.identity(n)
            assert dec.diagonal_map(eigs) == mat


def test_generated_eigenspaces_are_lines(golden_model, d2_model):
    # Generated models have shape (1, ..., 1): every eigenspace is a line.
    for model in (golden_model, d2_model):
        for dec in (model.eigenspaces_A, model.eigenspaces_Astar):
            assert [part.rank for part in dec.parts] == [1] * model.dim


def test_check_qdg_golden_passes(golden_model):
    ok, residuals = check_qdg(golden_model.A, golden_model.Astar, F(2))
    assert ok
    assert residuals == (None, None)


def test_check_qdg_identity_pair_passes():
    ident = Matrix.identity(2)
    ok, _ = check_qdg(ident, ident, F(2))
    assert ok


def test_check_qdg_broken_eigenvalue_fails(golden_model):
    # Shift theta*_0 off the q-Racah form; the relations must break.
    bad = Matrix([[10, 1], [0, F(29, 10)]])
    ok, residuals = check_qdg(golden_model.A, bad, F(2))
    assert not ok
    assert any(r is not None and not r.is_zero() for r in residuals)


def test_check_qdg_symmetric_in_generators(golden_model):
    r1, r2 = check_qdg(golden_model.A, golden_model.Astar, F(2))[1]
    s1, s2 = check_qdg(golden_model.Astar, golden_model.A, F(2))[1]
    assert r1 == s2 and r2 == s1


def test_check_qdg_rejects_shape_mismatch():
    from qonsager.linalg import ShapeError

    with pytest.raises(ShapeError):
        check_qdg(Matrix.identity(2), Matrix.identity(3), F(2))


def test_build_model_rejects_bad_phi():
    with pytest.raises(ModelError) as err:
        build_model(ParamSet(2, F(2), F(3), F(5), (F(1), F(1))))
    assert err.value.residual is not None
    assert not err.value.residual.is_zero()


def test_tridiagonal_action_vacuous_at_d1(golden_model):
    ok, failures = check_tridiagonal_action(golden_model)
    assert ok and not failures


def test_tridiagonal_action_d2(d2_model):
    ok, _ = check_tridiagonal_action(d2_model)
    assert ok


def _projector_tridiagonal_failures(model):
    """Reference: the failures of the tridiagonality check formed with Lagrange projectors."""
    e = lagrange_projectors(model.A, model.theta)
    e_star = lagrange_projectors(model.Astar, model.theta_star)
    failures = []
    n = model.d + 1
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                for side, proj, x in (("E_i A* E_j", e, model.Astar), ("E*_i A E*_j", e_star, model.A)):
                    resid = proj[i] * x * proj[j]
                    if not resid.is_zero():
                        failures.append((side, i, j, resid))
    return failures


def test_tridiagonal_action_dense_star_fails(d2_model):
    # P diag(theta*) P^-1 has the theta* spectrum but is not tridiagonal
    # with respect to A.
    p = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    diagonal = Matrix([[e if i == j else 0 for j in range(3)] for i, e in enumerate(d2_model.theta_star)])
    dense = p * diagonal * p.inverse()
    broken = replace(d2_model, Astar=dense)
    ok, failures = check_tridiagonal_action(broken)
    assert not ok
    assert {side for side, *_ in failures} == {"E_i A* E_j", "E*_i A E*_j"}
    assert failures == _projector_tridiagonal_failures(broken)


def test_tridiagonal_witnesses_match_the_projector_reference(d2_model):
    twisted = import_model(str(TWISTED))
    ok, failures = check_tridiagonal_action(twisted)
    assert not ok
    assert failures == _projector_tridiagonal_failures(twisted)
    assert twisted.tridiagonal_action == (ok, failures)
    assert check_tridiagonal_action(d2_model) == (True, []) == (True, _projector_tridiagonal_failures(d2_model))


def _eigenspaces(m: Matrix, eigs) -> Decomposition:
    ident = Matrix.identity(m.rows)
    return Decomposition([kernel(m - ident.scale(e)) for e in eigs])


def test_irreducible_golden(golden_model):
    assert golden_model.irreducible
    assert check_irreducible(golden_model.block_forms[1])
    assert check_irreducible(coupling(golden_model.A, golden_model.eigenspaces_Astar))


def test_reducible_when_phi_vanishes():
    # Upper-bidiagonal A* with phi_1 = 0: span(e_1) is invariant under both.
    a = Matrix([[F(37, 6), 0], [1, F(13, 6)]])
    astar = Matrix([[F(101, 10), 0], [0, F(29, 10)]])
    spaces_astar = _eigenspaces(astar, (F(101, 10), F(29, 10)))
    # A e_0 has a component on e_1 but A e_1 none on e_0: the support graph
    # has the edge 0 -> 1 only, connected but not strongly
    assert coupling(a, spaces_astar) == a
    assert not check_irreducible(coupling(a, spaces_astar))


def test_identity_pair_reducible():
    ident = Matrix.identity(2)
    whole = _eigenspaces(ident, (F(1),))
    assert not check_irreducible(coupling(ident, whole))


def test_commuting_diagonal_pair_reducible():
    # A and A* diagonal in one basis: every A*-eigenline is A-invariant, and the graph has no edge
    a, astar = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]), Matrix([[4, 0, 0], [0, 5, 0], [0, 0, 6]])
    assert not check_irreducible(coupling(a, _eigenspaces(astar, (F(4), F(5), F(6)))))


def _direct_sum(x: Matrix, y: Matrix) -> Matrix:
    n, m = x.rows, y.rows
    return Matrix([[x[i, j] if i < n and j < n else y[i - n, j - n] if i >= n and j >= n else 0
                    for j in range(n + m)] for i in range(n + m)])


def test_the_support_graph_catches_a_direct_sum_without_joint_eigenvectors(monkeypatch):
    # The d = 1 pairs at (a, b) = (3, 5) and (5, 3) swap spectra: A has
    # eigenvalues 37/6, 13/6, 101/10, 29/10, each once, and so has A*. The
    # eigenlines of A and A* meet only in 0, so there is no joint
    # eigenvector; each summand is a proper invariant subspace, and in A*'s
    # eigenbasis the support graph of A has the two summands' lines as its
    # two components.
    first = build_model(GOLDEN)
    second = build_model(ParamSet(1, F(2), F(5), F(3), (F(1),)))
    a, astar = _direct_sum(first.A, second.A), _direct_sum(first.Astar, second.Astar)
    spectrum = first.theta + second.theta
    assert set(spectrum) == set(first.theta_star + second.theta_star)
    spaces_a, spaces_astar = _eigenspaces(a, spectrum), _eigenspaces(astar, spectrum)
    assert all(subspace_intersect(u, v).is_zero() for u in spaces_a.parts for v in spaces_astar.parts)
    c = coupling(a, spaces_astar)
    assert {(i, j) for i in range(4) for j in range(4) if c[i, j]} == {(i, j) for i in (0, 1) for j in (0, 1)} | {
        (i, j) for i in (2, 3) for j in (2, 3)
    }
    assert not check_irreducible(c)
    assert not model_reference.check_irreducible(a, astar, spaces_a, spaces_astar)
    assert invariant_closure(spaces_astar[0], (a, astar)).rank == 2
    # a graph search that reached every vertex would call the pair irreducible
    monkeypatch.setattr(model, "_reaches_all", lambda edges: True)
    assert check_irreducible(c)


def test_build_model_rejects_a_reducible_pair():
    # At d = 1 every nonzero phi_1 satisfies the q-Dolan/Grady relations, but
    # phi_1 = -144/5 puts the theta*_1-eigenvector of A* on the theta_0-line
    # of A: that joint eigenvector spans an invariant line.
    with pytest.raises(ModelError, match="constructed pair is reducible"):
        build_model(ParamSet(1, F(2), F(3), F(5), (F(-144, 5),)))


def test_spectrum_graph_golden_path():
    graph = spectrum_graph([F(37, 6), F(13, 6)], F(2))
    assert graph.kind == "path"
    assert graph.order == (F(37, 6), F(13, 6))
    assert spectrum_path([F(37, 6), F(13, 6)], F(2))


def test_spectrum_graph_detects_disconnected():
    graph = spectrum_graph([F(37, 6), F(13, 6), F(100)], F(2))
    assert graph.kind == "disconnected"
    assert not spectrum_path([F(37, 6), F(13, 6), F(100)], F(2))


def test_spectrum_path_rejects_the_path_out_of_order():
    p = ParamSet(3, F(3, 2), F(5), F(3))
    thetas = p.thetas
    assert spectrum_path(thetas, p.q) and spectrum_path(thetas[::-1], p.q)
    assert not spectrum_path((thetas[1], thetas[0], thetas[2], thetas[3]), p.q)


def test_spectrum_graph_rejects_single_eigenvalue():
    with pytest.raises(ParameterError):
        spectrum_graph([F(1)], F(2))


def test_spectrum_graph_rejects_duplicates():
    with pytest.raises(ParameterError):
        spectrum_graph([F(1), F(1)], F(2))


def test_spectrum_graph_d3_path_matches_theta_order():
    p = ParamSet(3, F(3, 2), F(5), F(3))
    thetas = list(p.thetas)
    graph = spectrum_graph(thetas, p.q)
    assert graph.kind == "path"
    assert graph.order in (tuple(thetas), tuple(reversed(thetas)))
    assert spectrum_path(thetas, p.q)


def test_recover_a_golden():
    assert recover_a((F(37, 6), F(13, 6)), F(2)) == 3


def test_recover_a_round_trip():
    p = ParamSet(2, F(3, 2), F(1, 7), F(2, 9))
    thetas = list(p.thetas)
    assert recover_a(thetas, p.q) == F(1, 7)


def test_recover_a_reads_d_from_the_spectrum_and_compares_all_of_it():
    thetas = ParamSet(3, F(2), F(3), F(5)).thetas
    assert recover_a(thetas, F(2)) == 3
    with pytest.raises(ParameterError, match="theta_3 = 1 does not match the recovered form"):
        recover_a(thetas[:3] + (F(1),), F(2))
    with pytest.raises(ParameterError, match="diameter must be >= 1, got 0"):
        recover_a(thetas[:1], F(2))


def test_recover_a_rejects_repeated_eigenvalue():
    with pytest.raises(ParameterError):
        recover_a((F(37, 6), F(37, 6)), F(2))


def test_solve_phi_d1_returns_one():
    assert [m.params.phi for m in solve_phi(1, F(2), F(3), F(5))] == [(F(1),)]


def test_solve_phi_d2_validates_through_qdg():
    models = solve_phi(2, F(2), F(3), F(5), limit=2)
    assert models
    for phi in (m.params.phi for m in models):
        assert all(x != 0 for x in phi)
        model = build_model(ParamSet(2, F(2), F(3), F(5), phi))
        assert check_qdg(model.A, model.Astar, F(2))[0]


def test_solve_phi_hands_back_the_models_it_built():
    models = solve_phi(2, F(2), F(3), F(5), limit=2)
    assert len(models) == 2
    assert models == [build_model(ParamSet(2, F(2), F(3), F(5), m.params.phi)) for m in models]
    assert solve_phi(1, F(2), F(3), F(5)) == [build_model(GOLDEN)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("limit", [0, -1])
def test_solve_phi_rejects_a_limit_below_one(d, limit):
    with pytest.raises(ParameterError, match="limit must be at least 1"):
        solve_phi(d, F(2), F(3), F(5), limit=limit)


def test_solve_phi_rejects_invalid_parameters():
    with pytest.raises(ParameterError):
        solve_phi(2, F(2), F(2), F(5))  # a^2 = q^2 collides


def test_recover_a_from_generated_models():
    for d in (1, 2, 3):
        for q in (F(2), F(3, 2)):
            p = ParamSet(d, q, F(5), F(3))
            thetas = list(p.thetas)
            assert recover_a(thetas, q) == 5
