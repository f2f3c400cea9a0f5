"""The identity checks evaluated with `linalg.Products` against their `Matrix`-chain forms.

Each converted check must return what its verbatim old form in
`identity_reference` returns, witnesses included: on built models, which
pass; on seeded imports with one A* entry changed, which fail most of the
identities; and with H or K corrupted, which fails the expansions and the
R ladder. A check that raises must raise the same error in both forms.
The q-Dolan/Grady residuals are also compared on seeded dense pairs, and
the tridiagonal action on a pair whose A* escapes the band.

`split.KA_relations` no longer tests the inverse forms
qweyl[A,X^-1] = ... for X = K, B: their residuals are X^-1 R X^-1 for the
residual R of qweyl[X,A]. Nor does it test the right products QP = I of
its two inverse pairs: for square P and Q, PQ = I exactly when QP = I, and
the left product PQ = I is listed first. The old form's failures are
compared with those names left out, and tests show that leaving them out
loses no failure and changes no first witness.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager import lusztig, model as model_module, splitmaps, suite
from qonsager.linalg import Matrix
from qonsager.model import ModelError, assemble_imported, build_model, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParamSet

import identity_reference as ref

CONTAINMENT_ESCAPE = Path(__file__).resolve().parent / "data" / "containment_escape_d3.model"

# Each KA relation no longer tested, and the relation whose residual R gives
# its residual X^-1 R X^-1, with X the split map named last.
DROPPED_KA = {
    "qweyl[A,K^-1] = a^-1 K^-2 + a I": ("qweyl[K,A] = a K^2 + a^-1 I", "K"),
    "qweyl[A,B^-1] = a B^-2 + a^-1 I": ("qweyl[B,A] = a^-1 B^2 + a I", "B"),
}


def _built(d, q, a=F(3), b=F(5)):
    if d == 1:
        return build_model(ParamSet(1, q, a, b, (F(1),)))
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


def _perturbed_import(seed):
    """(P A P^-1, P A*' P^-1) at d = 2..4: A*' is the split-basis A* with one entry above the diagonal changed.

    P = (I + strictly lower)(I + strictly upper) is dense, integral and unimodular.
    """
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    q, a, b = rng.choice([(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))])
    base = _built(d, q, a, b)
    i = rng.randint(0, d - 1)
    j = rng.randint(i + 1, d)
    rows = [list(row) for row in base.Astar.entries]
    rows[i][j] += rng.choice([F(1), F(-2), F(1, 3), F(7, 2)])
    n = d + 1
    e = [rng.randint(-2, 2) for _ in range(n * n)]
    lower = Matrix([[1 if r == c else e[r * n + c] if r > c else 0 for c in range(n)] for r in range(n)])
    upper = Matrix([[1 if r == c else e[r * n + c] if r < c else 0 for c in range(n)] for r in range(n)])
    p = lower * upper
    p_inv = p.inverse()
    return assemble_imported(base.params, p * base.A * p_inv, p * Matrix(rows) * p_inv)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ModelError, ValueError) as exc:
        return type(exc), str(exc)


def _pairs(ctx):
    """(name, new check, old check, arguments) for every check that `Products` evaluates."""
    model, lus = ctx.model, ctx.lusztig
    pairs = [
        ("qdg", model_module.check_qdg, _reference_qdg, (model.A, model.Astar, model.params.q)),
        ("tridiagonal", model_module.check_tridiagonal_action, ref.check_tridiagonal_action, (model,)),
        ("H_invertible", lambda m, h: suite._H_invertible(ctx)[0], ref.H_invertible, (model, lus)),
        ("H_commutes_A", lambda m, h: suite._H_commutes_A(ctx)[0], ref.H_commutes_A, (model, lus)),
        ("L_conjugation", lusztig.check_L_conjugation, _nonzero_L_conjugation, (model, lus)),
        ("L_entrywise", lusztig.check_L_entrywise, ref.check_L_entrywise, (model, lus)),
        ("H_expansions", lusztig.check_H_expansions, ref.check_H_expansions, (model, lus)),
    ]
    try:
        s = ctx.split_maps
    except (ModelError, ValueError):
        return pairs
    return pairs + [
        ("KA_relations", splitmaps.check_KA_relations, _kept_KA_relations, (model, s)),
        ("H_conjugation", splitmaps.check_H_conjugation_of_splits, ref.check_H_conjugation_of_splits, (lus, s)),
        ("R_ladder", splitmaps.check_R_ladder, ref.check_R_ladder, (model, s, ctx.spectra)),
        ("MN", splitmaps.check_MN_conjugation, ref.check_MN_conjugation, (lus, s, ctx.spectra)),
    ]


def _nonzero_L_conjugation(model, lus):
    """The old check, keeping only the nonzero residuals, as the new one returns them."""
    ok, residuals = ref.check_L_conjugation(model, lus)
    return ok, {name: r for name, r in residuals.items() if not r.is_zero()}


def _reference_qdg(a, astar, q):
    """The old check, with None for a zero residual, as the new one returns them."""
    residuals = tuple(None if r.is_zero() else r for r in ref.qdg_residuals(a, astar, q))
    return all(r is None for r in residuals), residuals


# Each inverse-pair relation no longer tested, QP = I, and its tested partner PQ = I
DROPPED_RIGHT = {
    "inverse pair (K^-1 B, B K^-1): right product": "inverse pair (K^-1 B, B K^-1): left product",
    "inverse pair (B^-1 K, K B^-1): right product": "inverse pair (B^-1 K, K B^-1): left product",
}


def _without_dropped(failures):
    dropped = DROPPED_KA.keys() | DROPPED_RIGHT.keys()
    return [(name, r) for name, r in failures if name.removeprefix("down:") not in dropped]


def _kept_KA_relations(model, s):
    """The old check without the relations in `DROPPED_KA`."""
    kept = _without_dropped(ref.check_KA_relations(model, s)[1])
    return not kept, kept


def _assert_agree(ctx):
    verdicts = {}
    for name, new, old, args in _pairs(ctx):
        got, want = _outcome(new, *args), _outcome(old, *args)
        assert got == want, name
        verdicts[name] = got[0] if isinstance(got, tuple) else got
    assert lusztig.lusztig_images(ctx.model) == tuple(ref.lusztig_image(ctx.model, eps) for eps in (1, -1))
    return verdicts


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-2)])
@pytest.mark.parametrize("d", range(1, 7))
def test_built_models_agree_and_pass(d, q):
    verdicts = _assert_agree(suite.TargetContext(_built(d, q)))
    assert len(verdicts) == 11 and all(v is True for v in verdicts.values())


def test_perturbed_imports_agree_witness_for_witness():
    failed = set()
    for seed in range(12):
        verdicts = _assert_agree(suite.TargetContext(_perturbed_import(seed)))
        failed |= {name for name, ok in verdicts.items() if ok is not True}
    # the changed A* entry breaks every identity that involves A* or the split maps
    assert {"qdg", "L_conjugation", "L_entrywise", "KA_relations", "H_conjugation", "MN"} <= failed


def test_the_dropped_KA_relations_lose_nothing():
    """Each dropped residual is X^-1 R X^-1 of the kept one, and the failures are the old ones without them."""
    shown = 0
    for seed in range(12):
        ctx = suite.TargetContext(_perturbed_import(seed))
        try:
            s = ctx.split_maps
        except (ModelError, ValueError):
            continue
        _, old = ref.check_KA_relations(ctx.model, s)
        residuals = dict(old)
        for tag, maps in (("", {"K": s.K, "B": s.B}), ("down:", {"K": s.Kdown, "B": s.Bdown})):
            for dropped, (kept, x) in DROPPED_KA.items():
                got, r = residuals.get(tag + dropped), residuals.get(tag + kept)
                if r is None:
                    assert got is None, (seed, tag, dropped)
                    continue
                x_inv = maps[x].inverse()
                assert got == x_inv * r * x_inv, (seed, tag, dropped)
                shown += 1
        _, new = splitmaps.check_KA_relations(ctx.model, s)
        assert new == _without_dropped(old), seed
        # the first failure, the report's witness, is not a dropped relation
        assert new[:1] == old[:1], seed
    assert shown


def test_a_right_product_fails_exactly_when_its_left_product_does():
    """On the seeded imports each dropped QP = I residual is nonzero exactly when its PQ = I one is."""
    failing = pairs = 0
    for seed in range(12):
        ctx = suite.TargetContext(_perturbed_import(seed))
        try:
            s = ctx.split_maps
        except (ModelError, ValueError):
            continue
        failed = {name for name, _ in ref.check_KA_relations(ctx.model, s)[1]}
        for tag in ("", "down:"):
            for right, left in DROPPED_RIGHT.items():
                assert (tag + right in failed) == (tag + left in failed), (seed, tag, right)
                failing += tag + left in failed
                pairs += 1
    assert pairs and failing


def test_qdg_residuals_agree_on_dense_pairs():
    """Seeded dense rational pairs, and commuting ones, whose residuals are zero."""
    rng = random.Random(16)
    nonzero = zero = 0
    for n in range(2, 6):
        for q in (F(2), F(3, 2), F(-2), F(1, 3)):
            for _ in range(3):
                x = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                y = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                for pair in ((x, y), (x, x * x - x.scale(q))):
                    got, want = model_module.check_qdg(*pair, q), _reference_qdg(*pair, q)
                    assert got == want, (n, q)
                    nonzero += sum(r is not None for r in got[1])
                    zero += sum(r is None for r in got[1])
    assert nonzero and zero


def test_an_escaping_pair_agrees_witness_for_witness():
    """A d = 3 pair whose A* maps V_2 into V_0: the tridiagonal action fails with the old witnesses."""
    ctx = suite.TargetContext(import_model(str(CONTAINMENT_ESCAPE)))
    verdicts = _assert_agree(ctx)
    assert verdicts["tridiagonal"] is False


@pytest.mark.parametrize("d", [1, 2, 3])
def test_corrupted_H_and_K_agree_witness_for_witness(d):
    ctx = suite.TargetContext(_built(d, F(2)))
    t = list(ctx.model.params.ts)
    t[1] *= 2
    bad_h = ctx.model.eigenspaces_A.diagonal_map(t)
    ctx._built["H"] = replace(ctx.lusztig, H=bad_h, H_inv=bad_h.inverse())
    s = ctx.split_maps
    shear = Matrix([[int(r == c or (r, c) == (0, d)) for c in range(d + 1)] for r in range(d + 1)])
    ctx._built["split_maps"] = replace(s, K=shear * s.K * shear.inverse())
    verdicts = _assert_agree(ctx)
    assert verdicts["H_expansions"] is False and verdicts["R_ladder"] is False
