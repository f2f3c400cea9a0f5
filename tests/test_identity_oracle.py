"""The identity checks evaluated with `linalg.Products` against their `Matrix`-chain forms.

Each converted check must return what its verbatim old form in
`identity_reference` returns, witnesses included: on built models, which
pass; on seeded imports with one A* entry changed, which fail most of the
identities; and with H or K corrupted, which fails the expansions and the
R ladder. A check that raises must raise the same error in both forms.
The q-Dolan/Grady residuals are also compared on seeded dense pairs, and
the tridiagonal action on a pair whose A* escapes the band.

`split.KA_relations` tests, per orientation, qweyl[K,A], qweyl[B,A] and
relation 3, a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0, with residual R_3. Each
other form of the old check is zero exactly when a residual listed before
it is: the inverse forms qweyl[A,X^-1] = ... for X = K, B have residual
X^-1 R X^-1 for the residual R of qweyl[X,A]; the left products P_1, P_2 of
the two inverse pairs are lam K^-1 R_3 K^-1 and mu B^-1 R_3 B^-1; the
inverse form R_4 of relation 3 is B^-1 (K^-1 R_3 K^-1 + a^-1 (ZY - YZ)) B^-1
with Y = K^-1 B and Z = B K^-1, which commute once P_1 = 0; and the right
products QP = I hold exactly when PQ = I, for square P and Q.
`split.R_ladder` no longer tests R^(d+1) = 0 nor RK = q^2 KR: on the
eigenspace U_i of K, RK - q^2 KR is -q^2 times the step residual
(K - q^(d-2i-2) I) R, and (q^-d I - q^2 K) R on U_d, and R^(d+1) kills
every U_i once R raises each. The old forms' failures are compared with
those names left out, and tests show that leaving them out loses no
failure and changes no first witness.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

from qonsager import lusztig, model as model_module, splitmaps, suite
from qonsager.linalg import Matrix
from qonsager.model import ModelError, assemble_imported, build_model, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParamSet

import identity_reference as ref

CONTAINMENT_ESCAPE = Path(__file__).resolve().parent / "data" / "containment_escape_d3.model"

RELATION_3 = "a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0"


def _inverse_form_of_relation_3(k, b, a, q, r3):
    """R_4 from R_3: B R_4 B = K^-1 R_3 K^-1 + a^-1 (ZY - YZ), Y = K^-1 B and Z = B K^-1."""
    k_inv, b_inv = k.inverse(), b.inverse()
    y, z = k_inv * b, b * k_inv
    return b_inv * (k_inv * r3 * k_inv + (z * y - y * z).scale(1 / a)) * b_inv


# Each KA relation no longer tested, the tested relation whose residual R
# decides it, and its residual as a function of (K, B, a, q, R).
DROPPED_KA = {
    "qweyl[A,K^-1] = a^-1 K^-2 + a I": (
        "qweyl[K,A] = a K^2 + a^-1 I",
        lambda k, b, a, q, r: k.inverse() * r * k.inverse(),
    ),
    "qweyl[A,B^-1] = a B^-2 + a^-1 I": (
        "qweyl[B,A] = a^-1 B^2 + a I",
        lambda k, b, a, q, r: b.inverse() * r * b.inverse(),
    ),
    "a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2 = 0": (RELATION_3, _inverse_form_of_relation_3),
    "inverse pair (K^-1 B, B K^-1): left product": (
        RELATION_3,
        lambda k, b, a, q, r: (k.inverse() * r * k.inverse()).scale(-((q - 1 / q) ** 2) / (a * (1 / a - a) ** 2)),
    ),
    "inverse pair (B^-1 K, K B^-1): left product": (
        RELATION_3,
        lambda k, b, a, q, r: (b.inverse() * r * b.inverse()).scale(-a * (q - 1 / q) ** 2 / (1 / a - a) ** 2),
    ),
}


def dropped_R_ladder(d):
    """The R-ladder claims no longer tested: the steps and the top claim decide them."""
    return (f"R^{d + 1} = 0", "R K = q^2 K R")


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
        pair = ctx.split_maps
    except (ModelError, ValueError):
        return pairs
    return pairs + [
        ("KA_relations", lambda m, pair: splitmaps.check_KA_relations(pair), _kept_KA_relations, (model, pair)),
        ("H_conjugation", splitmaps.check_H_conjugation_of_splits, ref.check_H_conjugation_of_splits, (lus, pair)),
        ("R_ladder", splitmaps.check_R_ladder, _kept_R_ladder, (model, pair[0], ctx.spectra)),
        ("MN", splitmaps.check_MN_conjugation, ref.check_MN_conjugation, (lus, pair, ctx.spectra)),
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


def _kept_KA_relations(model, pair):
    """The old check without the relations in `DROPPED_KA`."""
    kept = _without_dropped(ref.check_KA_relations(model, pair)[1])
    return not kept, kept


def _kept_R_ladder(model, s, spectra):
    """The old check without the claims of `dropped_R_ladder`."""
    kept = [(name, r) for name, r in ref.check_R_ladder(model, s, spectra)[1] if name not in dropped_R_ladder(model.d)]
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
    """Each dropped residual is its stated transform of the kept one, and the failures are the old ones without them."""
    shown = set()
    for seed in range(12):
        ctx = suite.TargetContext(_perturbed_import(seed))
        try:
            up, down = pair = ctx.split_maps
        except (ModelError, ValueError):
            continue
        a, q, zero = ctx.model.params.a, ctx.model.params.q, up.K.scale(0)
        _, old = ref.check_KA_relations(ctx.model, pair)
        residuals = dict(old)
        for tag, k, b in (("", up.K, up.B), ("down:", down.K, down.B)):
            for dropped, (kept, transform) in DROPPED_KA.items():
                got, r = residuals.get(tag + dropped, zero), residuals.get(tag + kept)
                if r is None:
                    assert got == zero, (seed, tag, dropped)
                    continue
                assert got == transform(k, b, a, q, r), (seed, tag, dropped)
                shown.add(dropped)
        _, new = splitmaps.check_KA_relations(pair)
        assert new == _without_dropped(old), seed
        # the first failure, the report's witness, is not a dropped relation
        assert new[:1] == old[:1], seed
    assert shown == DROPPED_KA.keys()


def _sheared_K_context(d):
    """A built d-target whose K is conjugated by I + E_0d, decomposed by its kernels: on the ladder, not raised by R.

    The split maps would pair the new K with the old split decomposition,
    which is not the new K's.
    """
    ctx = suite.TargetContext(_built(d, F(2)))
    up, down = ctx.split_maps
    shear = Matrix([[int(r == c or (r, c) == (0, d)) for c in range(d + 1)] for r in range(d + 1)])
    ctx._built["split_maps"] = (replace(up, K=shear * up.K * shear.inverse()), down)
    ctx._built["spectra"] = splitmaps.LadderSpectra(d, F(2))
    return ctx


def test_the_dropped_R_ladder_claims_lose_nothing():
    """On U_i, RK - q^2 KR is -q^2 times the step residual, (q^-d I - q^2 K) R on U_d; R^(d+1) fails only with a step."""
    contexts = [suite.TargetContext(_perturbed_import(seed)) for seed in range(12)]
    shown = set()
    for ctx in contexts + [_sheared_K_context(d) for d in (1, 2, 3)]:
        model = ctx.model
        try:
            s, spectra = ctx.split_maps[0], ctx.spectra
            dec = spectra.decomposition(s.K)
        except (ModelError, ValueError):
            continue
        # the argument reads U_i as the eigenspaces of K
        assert dec.acts_as(s.K, spectra.eigenvalues)
        q, d, zero = model.params.q, model.d, s.K.scale(0)
        _, old = ref.check_R_ladder(model, s, spectra)
        residuals = dict(old)
        power, commutation = dropped_R_ladder(d)
        commutation_resid = residuals.get(commutation, zero)
        for i, part in enumerate(dec.parts):
            u = Matrix(list(zip(*part.basis)))
            if i < d:
                want = residuals.get(f"R U_{i} inside U_{i + 1}", u.scale(0)).scale(-q * q)
            else:
                top = residuals.get("R kills the top part", u.scale(0))
                want = (Matrix.identity(model.dim).scale(q**-d) - s.K.scale(q * q)) * top
            assert commutation_resid * u == want, (model.params, i)
        kept = [(name, resid) for name, resid in old if name not in (power, commutation)]
        if power in residuals or commutation in residuals:
            assert any(name.startswith("R ") for name, _ in kept), model.params
            shown.update(kind for kind, name in (("power", power), ("commutation", commutation)) if name in residuals)
        _, new = splitmaps.check_R_ladder(model, s, spectra)
        assert new == kept
        assert new[:1] == old[:1]
    assert shown == {"power", "commutation"}


def test_the_KA_transforms_hold_for_any_invertible_pair():
    """The three relation-3 transforms are matrix identities: the old check on seeded random invertible K, B and A, no model."""
    rng = random.Random(28)
    shown = 0
    for n in range(2, 7):
        for q, a in ((F(2), F(3)), (F(3, 2), F(1, 7)), (F(-2), F(5)), (F(1, 3), F(-2, 5))):
            k, b, kdown, bdown = (_random_invertible(rng, n) for _ in range(4))
            model = SimpleNamespace(params=SimpleNamespace(q=q, a=a), dim=n, A=_random_invertible(rng, n))
            pair = (SimpleNamespace(K=k, B=b), SimpleNamespace(K=kdown, B=bdown))
            residuals = dict(ref.check_KA_relations(model, pair)[1])
            for tag, x, y in (("", k, b), ("down:", kdown, bdown)):
                r3 = residuals[tag + RELATION_3]
                for dropped, (kept, transform) in DROPPED_KA.items():
                    if kept == RELATION_3:
                        assert residuals[tag + dropped] == transform(x, y, a, q, r3), (n, q, a, tag, dropped)
                        shown += 1
    assert shown == 5 * 4 * 2 * 3


def _random_invertible(rng, n):
    while True:
        m = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
        except ValueError:
            continue
        return m


def test_a_right_product_fails_exactly_when_its_left_product_does():
    """On the seeded imports each dropped QP = I residual is nonzero exactly when its PQ = I one is."""
    failing = pairs = 0
    for seed in range(12):
        ctx = suite.TargetContext(_perturbed_import(seed))
        try:
            pair = ctx.split_maps
        except (ModelError, ValueError):
            continue
        failed = {name for name, _ in ref.check_KA_relations(ctx.model, pair)[1]}
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
    up, down = ctx.split_maps
    shear = Matrix([[int(r == c or (r, c) == (0, d)) for c in range(d + 1)] for r in range(d + 1)])
    ctx._built["split_maps"] = (replace(up, K=shear * up.K * shear.inverse()), down)
    verdicts = _assert_agree(ctx)
    assert verdicts["H_expansions"] is False and verdicts["R_ladder"] is False
