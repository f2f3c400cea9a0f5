"""Acceptance criteria, one test per criterion, all at zero tolerance.

Grid G: d in {1, 2, 3}, q in {2, 3/2, -2}, (a, b) in
{(3, 5), (5, 3), (1/7, 2/9)}; phi comes from solve_phi (phi = 1 at d = 1).
Every identity is checked by exact rational equality; there are no numeric
tolerances to tune. Each test prints one pass/fail line.
"""

import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qonsager import equitable, lusztig, splitmaps
from qonsager.linalg import Matrix
from qonsager.model import build_model, check_qdg, eigenspace_decomposition, solve_phi
from qonsager.scalars import ParameterError, ParamSet, check_chu_vandermonde
from qonsager.suite import SuiteConfig, all_passed, make_param_target, run_suite

GRID_D = (1, 2, 3)
GRID_Q = (F(2), F(3, 2), F(-2))
GRID_AB = ((F(3), F(5)), (F(5), F(3)), (F(1, 7), F(2, 9)))


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{description}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


@pytest.fixture(scope="module")
def grid():
    """All 27 grid models plus the wall time spent generating them."""
    start = time.perf_counter()
    models = []
    for d in GRID_D:
        for q in GRID_Q:
            for a, b in GRID_AB:
                if d == 1:
                    params = ParamSet(d, q, a, b, (F(1),))
                else:
                    solved = solve_phi(d, q, a, b, limit=1)
                    assert solved, f"no phi found for d={d} q={q} a={a} b={b}"
                    params = ParamSet(d, q, a, b, solved[0].params.phi)
                models.append(build_model(params))
    return models, time.perf_counter() - start


@pytest.fixture(scope="module")
def grid_structures(grid):
    """Lusztig data, completed split maps and ladder spectra for every grid model."""
    models, _ = grid
    out = []
    for model in models:
        lus = lusztig.build_H(model)
        spectra = splitmaps.LadderSpectra(model.d, model.params.q)
        out.append((model, lus, splitmaps.build_split_maps(model), spectra))
    return out


def test_criterion_1_qdg_over_grid(grid):
    models, build_seconds = grid
    start = time.perf_counter()
    ok = True
    for model in models:
        passed, residuals = check_qdg(model.A, model.Astar, model.params.q)
        ok = ok and passed and residuals == (None, None)
    elapsed = build_seconds + (time.perf_counter() - start)
    _report(
        1,
        "q-Dolan/Grady zero residuals over G",
        ok and elapsed < 5.0,
        f"{len(models)} models, {elapsed:.2f}s",
    )


def test_criterion_2_golden_regression():
    model = build_model(ParamSet(1, F(2), F(3), F(5), (F(1),)))
    lus = lusztig.build_H(model)
    s, _ = splitmaps.build_split_maps(model)
    expect = {
        "theta": model.theta == (F(37, 6), F(13, 6)),
        "theta*": model.theta_star == (F(101, 10), F(29, 10)),
        "t": model.params.ts == (F(1), F(9)),
        "H": lus.H == Matrix([[1, 0], [-2, 9]]),
        "K": s.K == Matrix([[2, 0], [0, F(1, 2)]]),
        "B": s.B == Matrix([[2, -6], [0, F(1, 2)]]),
        "M": s.M == Matrix([[2, F(3, 4)], [0, F(1, 2)]]),
        "N": s.N == Matrix([[F(1, 2), F(27, 4)], [0, 2]]),
        "L(A*)": lus.LAstar == Matrix([[F(81, 10), 9], [F(52, 45), F(49, 10)]]),
        "H^-1 K H": lus.H_inv * s.K * lus.H == Matrix([[2, 0], [F(1, 3), F(1, 2)]]),
    }
    bad = [name for name, good in expect.items() if not good]
    _report(2, "golden d=1 hand-verified values bit-exact", not bad, ", ".join(bad))


def test_criterion_3_chu_vandermonde_over_grid(grid):
    models, _ = grid
    ok = True
    witness = ""
    for model in models:
        passed, failures = check_chu_vandermonde(model.params)
        if not passed:
            ok = False
            witness = f"{model.params}: {failures[0][:3]}"
            break
    _report(3, "all four summation identities over G", ok, witness)


def test_criterion_4_lusztig_conjugation(grid_structures):
    ok = True
    for model, lus, _, _ in grid_structures:
        passed, _residuals = lusztig.check_L_conjugation(lus)
        ok = ok and passed
    _report(4, "L^(+-1)(A*) equals H^(-+1)-conjugation and H^-1 A H = A over G", ok)


def test_criterion_5_polynomial_expansions(grid_structures):
    ok = True
    for model, lus, _, _ in grid_structures:
        passed, _failures = lusztig.check_H_expansions(lus)
        ok = ok and passed
    _report(5, "all expansion families on their flags for every anchor over G", ok)


def test_criterion_6_split_relations(grid_structures):
    ok = True
    for _, _, pair, _ in grid_structures:
        passed, _failures = splitmaps.check_KA_relations(pair)
        ok = ok and passed
    _report(6, "bracket relations, inverse pairs, and down analogues over G", ok)


def test_criterion_7_split_conjugation_and_ladder(grid_structures):
    ok = True
    for model, lus, pair, spectra in grid_structures:
        conj_ok, _ = splitmaps.check_H_conjugation_of_splits(lus, pair)
        mn_ok, _ = splitmaps.check_MN_conjugation(lus, pair, spectra)
        ladder_ok, _ = splitmaps.check_R_ladder(model, pair[0], spectra)
        ok = ok and conj_ok and mn_ok and ladder_ok
    _report(7, "eight conjugation identities, M/N conjugation, R-ladder over G", ok)


def test_criterion_8_equitable_triples(grid_structures):
    ok = True
    for model, _, pair, spectra in grid_structures:
        table = equitable.build_triple_table(pair, spectra, False)
        passed, _failures = equitable.verify_triple_table(model, table, spectra, {}, None)
        ok = ok and passed
        eigs = splitmaps.qweyl_eigenvalues(model.d, model.params.q)
        for mat in (m for s in pair for m in (s.M, s.N)):  # M, N, Mdown, Ndown
            dec = eigenspace_decomposition(mat, eigs)  # raises if not diagonalizable
            ok = ok and len(dec) == model.dim
    _report(8, "all eight table rows and the q-ladder diagonalizability over G", ok)


def test_criterion_9_diagrams(grid_structures):
    ok = True
    for model, lus, pair, spectra in grid_structures:
        table = equitable.build_triple_table(pair, spectra, False)
        table_check = equitable.verify_triple_table(model, table, spectra, {}, None)
        passed, _failures = equitable.verify_diagrams(lus, pair, spectra, table_check, None)
        ok = ok and passed
    _report(9, "flag equalities and twisted-pair split maps over G", ok)


def test_criterion_10_negative_controls_and_runtime():
    golden = build_model(ParamSet(1, F(2), F(3), F(5), (F(1),)))
    lus = lusztig.build_H(golden)
    s, down = splitmaps.build_split_maps(golden)
    controls = {}

    # phi = 0 is rejected as a parameter and the degenerate pair is reducible.
    try:
        ParamSet(1, F(2), F(3), F(5), (F(0),))
        controls["phi=0 rejected"] = False
    except ParameterError:
        controls["phi=0 rejected"] = True
    from qonsager.model import check_irreducible

    from model_reference import coupling

    degenerate_star = Matrix([[F(101, 10), 0], [0, F(29, 10)]])
    star_spaces = eigenspace_decomposition(degenerate_star, golden.theta_star)
    controls["phi=0 pair reducible"] = not check_irreducible(coupling(golden.A, star_spaces))

    # Swapped K and B break the bracket relations with a nonzero residual.
    swapped = replace(s, K=s.B, B=s.K)
    ok_swapped, failures = splitmaps.check_KA_relations((swapped, down))
    controls["swapped K/B fails"] = (not ok_swapped) and not failures[0][1].is_zero()

    # H replaced by the identity breaks the conjugation identities.
    broken_lus = replace(lus, H=Matrix.identity(2), H_inv=Matrix.identity(2))
    ok_h, failures_h = splitmaps.check_H_conjugation_of_splits(broken_lus, (s, down))
    controls["H->I fails"] = (not ok_h) and not failures_h[0][1].is_zero()

    # A broken eigenvalue leaves a nonzero q-Dolan/Grady residual.
    bad_star = Matrix([[10, 1], [0, F(29, 10)]])
    ok_eig, residuals = check_qdg(golden.A, bad_star, F(2))
    controls["broken eigenvalue fails"] = (not ok_eig) and any(
        r is not None and not r.is_zero() for r in residuals
    )

    # The whole suite over G stays under the runtime budget.
    targets = []
    for d in GRID_D:
        for q in GRID_Q:
            for a, b in GRID_AB:
                phi = (F(1),) if d == 1 else ()
                targets.append(make_param_target(d, q, a, b, phi))
    start = time.perf_counter()
    reports = run_suite(SuiteConfig(targets=targets, suites=("all",)))
    elapsed = time.perf_counter() - start
    controls["whole suite passes"] = all_passed(reports)
    controls["under 60s"] = elapsed < 60.0

    bad = [name for name, good in controls.items() if not good]
    _report(
        10,
        "negative controls give residual witnesses; full grid suite runtime",
        not bad,
        ", ".join(bad) if bad else f"suite {elapsed:.1f}s",
    )
