"""Ladder decompositions transported by H or chained down from H V*, against the kernels.

`TargetContext.spectra` registers ten relations m = g S g^-1 with the
source S already decomposed: H^-1 X H from X and H X^-1 H^-1 from X^-1 for
X = K, B, Kdown, Bdown, and N = H^-1 M H, Ndown = H^-1 Mdown H. M and
Mdown are chains: M_d = H V*_0 and M_(i-1) = (K - q^(d-2i) I) M_i, the same
with Mdown_d = H V*_d and Kdown. A relation is taken only after one product
certifies it, so it must be the decomposition the kernels give; a wrong
conjugator or a perturbed matrix must fail the certificate and fall back to
the kernels. No matrix of a passing target is left to the kernels.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager import lusztig, model, splitmaps, suite
from qonsager.linalg import Matrix, kernel
from qonsager.model import ModelError, assemble_imported, build_model, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParameterError, ParamSet

TESTS = Path(__file__).resolve().parent


def _built(d, q, a=F(3), b=F(5)):
    if d == 1:
        return build_model(ParamSet(1, q, a, b, (F(1),)))
    models = []
    assert solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


def _seeded_import(d, seed):
    """A built model's pair conjugated by a seeded dense integer matrix."""
    base = _built(d, F(2))
    rng = random.Random(seed)
    n = base.dim
    while True:
        p = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if kernel(p).is_zero():
            break
    return assemble_imported(base.params, p * base.A * p.inverse(), p * base.Astar * p.inverse())


def _targets():
    for q in (F(2), F(3, 2), F(-2)):
        for d in range(1, 7):
            yield f"d{d}-q{q}", lambda d=d, q=q: _built(d, q)
    yield "dense_d3", lambda: import_model(str(TESTS / "golden" / "dense_d3.model"))
    yield "seeded-import-d4", lambda: _seeded_import(4, 11)


TARGETS = dict(_targets())


def _ladder_matrices(pair):
    """M and Mdown, which are chained, then the ten transported matrices."""
    up, down = pair
    return (
        [("M", up.M), ("Mdown", down.M), ("N", up.N), ("Ndown", down.N)]
        + [(f"H^-1 {x}{s.down} H", s.conjugates[0][x]) for s in pair for x in ("K", "B")]
        + [(f"H {x}{s.down}^-1 H^-1", s.conjugates[1][x]) for s in pair for x in ("K", "B")]
    )


def _count_kernels(monkeypatch):
    """Record each matrix the ladder hands to the kernels."""
    calls, original = [], model.eigenspace_decomposition

    def counted(m, eigs):
        calls.append(m)
        return original(m, eigs)

    monkeypatch.setattr(splitmaps, "eigenspace_decomposition", counted)
    return calls


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_transported_decompositions_are_the_kernels(name, monkeypatch):
    ctx = suite.TargetContext(TARGETS[name]())
    pair = ctx.split_maps
    kernels = _count_kernels(monkeypatch)
    spectra = ctx.spectra
    for label, m in _ladder_matrices(pair):
        assert spectra.decomposition(m) == model.eigenspace_decomposition(m, spectra.eigenvalues), label
    assert not kernels


def test_a_wrong_conjugator_fails_the_certificate_and_falls_back(monkeypatch):
    target = _built(3, F(2))
    original = lusztig.build_H

    def sheared_H(m):
        # H (I + E_01): still invertible, but it conjugates nothing into its closed form
        lus = original(m)
        e01 = Matrix([[int((i, j) == (0, 1)) for j in range(m.dim)] for i in range(m.dim)])
        wrong = lus.H * (Matrix.identity(m.dim) + e01)
        return replace(lus, H=wrong, H_inv=wrong.inverse())

    monkeypatch.setattr(lusztig, "build_H", sheared_H)
    ctx = suite.TargetContext(target)
    up, down = ctx.split_maps
    kernels = _count_kernels(monkeypatch)
    spectra = ctx.spectra
    for label, m in _ladder_matrices((up, down)):
        assert spectra.decomposition(m) == model.eigenspace_decomposition(m, spectra.eigenvalues), label
    # every transport and the Mdown chain, whose seed H' v*_d is off Mdown_d,
    # failed their certificates and went to the kernels; the M chain
    # certified, as H' v*_0 = H v*_0 for v*_0 = e_0
    assert len(kernels) == 11 and down.M in kernels and up.M not in kernels


def test_a_perturbed_chain_fails_the_certificate_and_falls_back(monkeypatch):
    ctx = suite.TargetContext(_built(3, F(2)))
    s, lus = ctx.split_maps[0], ctx.lusztig
    kernels = _count_kernels(monkeypatch)
    e00 = Matrix([[int((i, j) == (0, 0)) for j in range(4)] for i in range(4)])
    perturbed = s.M + e00
    # M's chain, offered for M + E_00: its lines are M's eigenlines, on which M + E_00 does not act as the ladder
    chains = ((perturbed, s.K, lus.Vminus[0].numerators[0]), (s.M, s.K, lus.Vminus[0].numerators[0]))
    spectra = splitmaps.LadderSpectra(3, F(2), chains=chains)
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(perturbed)
    assert spectra.decomposition(s.M) == model.eigenspace_decomposition(s.M, spectra.eigenvalues)
    assert kernels == [perturbed]
    # the ModelError is kept: a second lookup solves no kernel
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(perturbed)
    assert kernels == [perturbed]


def test_spectra_do_not_inherit_an_H_that_raises(monkeypatch):
    def no_H(m):
        raise ParameterError("no H for this model")

    monkeypatch.setattr(lusztig, "build_H", no_H)
    target = suite.make_param_target(3, F(2), F(3), F(5))
    report = suite.run_target(target, ("splitmaps", "equitable", "diagrams"))
    records = {c.name: (c.status, c.residual) for c in report.checks}
    # the records the engine gave before transports existed
    assert records["split.R_ladder"] == ("pass", None)
    assert records["split.MN"] == ("error", "no H for this model")
    assert records["equitable.ladders"] == ("pass", None)
    assert records["diagrams.verify"] == ("error", "no H for this model")
    ctx = suite.TargetContext(_built(3, F(2)))
    kernels = _count_kernels(monkeypatch)
    spectra = ctx.spectra
    for label, m in _ladder_matrices(ctx.split_maps):
        assert spectra.decomposition(m) == model.eigenspace_decomposition(m, spectra.eigenvalues), label
    # no relation without H: all twelve went to the kernels
    assert len(kernels) == 12


def test_a_cycle_of_relations_ends_in_the_kernels(monkeypatch):
    target = _built(2, F(2))
    s = suite.TargetContext(target).split_maps[0]
    kernels = _count_kernels(monkeypatch)
    ident = Matrix.identity(target.dim)
    spectra = splitmaps.LadderSpectra(target.d, F(2), transports=((s.M, ident, s.N), (s.N, ident, s.M)))
    assert spectra.decomposition(s.M) == model.eigenspace_decomposition(s.M, spectra.eigenvalues)
    assert spectra.decomposition(s.N) == model.eigenspace_decomposition(s.N, spectra.eigenvalues)
    # M's relation sends it to N, whose relation back to M is already used up:
    # the lookups end, and neither transport certifies
    assert set(kernels) == {s.M, s.N}


def test_a_failed_transport_raises_what_the_kernels_raise():
    target = _built(2, F(2))
    s = suite.TargetContext(target).split_maps[0]
    off_ladder = s.K.scale(2)
    # the source's decomposition transported to 2K does not certify: 2K acts as 2 q^(d-2i)
    transports = ((off_ladder, Matrix.identity(target.dim), s.K),)
    spectra = splitmaps.LadderSpectra(target.d, F(2), ((s.K, s.dec_K),), transports)
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(off_ladder)
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(off_ladder)
