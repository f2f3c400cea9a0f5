"""Ladder decompositions of the H-relatives, chained from a seed line, against the kernels.

`TargetContext.spectra` registers twelve chains, six per orientation, each
from a line of V*, V+ = H^-1 V* or V- = H V*: M from v-_0 under K, N =
H^-1 M H from v*_0 under H^-1 K H, and H^-1 X H from v+_0 and H X^-1 H^-1
from v-_0 under A for X = K, B (the same from the last lines, with Kdown,
for the down orientation). H is a polynomial in A, so it commutes with the
tau_i(A) of the split chains. A chain is taken only after one product
certifies it, so it must be the decomposition the kernels give; a wrong
seed or a perturbed matrix must fail the certificate and fall back to the
kernels. No matrix of a passing target is left to the kernels.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager import lusztig, model, splitmaps, suite
from qonsager.linalg import Decomposition, Matrix, chain_lines, kernel
from qonsager.model import ModelError, assemble_imported, solve_phi
from qonsager.modelio import import_model
from qonsager.scalars import ParameterError

from test_identity_oracle import _outcome, _perturbed_import

TESTS = Path(__file__).resolve().parent


def _built(d, q, a=F(3), b=F(5)):
    return solve_phi(d, q, a, b, limit=1)[0]


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
    """The twelve chained matrices: M, Mdown, N, Ndown, then the eight H-conjugates."""
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


@pytest.mark.parametrize("seed", range(2000, 2060))
def test_every_registered_matrix_decomposes_as_the_kernels_do(seed):
    """On the perturbed imports, where many chains fail, each lookup gives the kernels' parts or their ModelError text."""
    ctx = suite.TargetContext(_perturbed_import(seed))
    spectra = ctx.spectra
    # the split maps and their inverses are known; the twelve H-relatives are chains
    registered = list(spectra._decompositions) + list(spectra._chains)
    assert len(registered) == 20
    for m in registered:
        assert _outcome(spectra.decomposition, m) == _outcome(model.eigenspace_decomposition, m, spectra.eigenvalues)


def test_a_wrong_conjugator_fails_the_certificate_and_falls_back(monkeypatch):
    target = _built(3, F(2))
    original = lusztig.build_H

    def sheared_H(m):
        # H (I + E_01): still invertible, but it maps V* to wrong seed lines
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
    # every chain from a line of V+ = H'^-1 V*, and the down chains from
    # H' v*_d, started off their first part, failed their certificates and
    # went to the kernels; the up chains from H' v*_0 = H v*_0 (v*_0 = e_0)
    # and N's chains, from v* itself, certified
    wrong_seed = [down.M] + list(up.conjugates[0].values()) + [*down.conjugates[0].values(), *down.conjugates[1].values()]
    assert kernels == wrong_seed


def test_a_perturbed_chain_fails_the_certificate_and_falls_back(monkeypatch):
    ctx = suite.TargetContext(_built(3, F(2)))
    s, lus = ctx.split_maps[0], ctx.lusztig
    kernels = _count_kernels(monkeypatch)
    e00 = Matrix([[int((i, j) == (0, 0)) for j in range(4)] for i in range(4)])
    perturbed = s.M + e00
    ladder = splitmaps.qweyl_eigenvalues(3, F(2))[:0:-1]
    # M's chain, offered for M + E_00: its lines are M's eigenlines, on which M + E_00 does not act as the ladder
    seed = lus.Vminus[0].numerators[0]
    chains = ((perturbed, s.K, seed, ladder, True), (s.M, s.K, seed, ladder, True))
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
    # the records the engine gave before the H-relatives were chained
    assert records["split.R_ladder"] == ("pass", None)
    assert records["split.MN"] == ("error", "no H for this model")
    assert records["equitable.ladders"] == ("pass", None)
    assert records["diagrams.verify"] == ("error", "no H for this model")
    ctx = suite.TargetContext(_built(3, F(2)))
    kernels = _count_kernels(monkeypatch)
    spectra = ctx.spectra
    for label, m in _ladder_matrices(ctx.split_maps):
        assert spectra.decomposition(m) == model.eigenspace_decomposition(m, spectra.eigenvalues), label
    # no chain without H: all twelve went to the kernels
    assert len(kernels) == 12


def test_a_failed_chain_raises_what_the_kernels_raise():
    target = _built(2, F(2))
    ctx = suite.TargetContext(target)
    s = ctx.split_maps[0]
    off_ladder = s.K.scale(2)
    # the K chain from v*_0 under A gives K's parts, which do not certify for 2K: it acts as 2 q^(d-2i)
    chains = ((off_ladder, target.A, target.eigenspaces_Astar[0].numerators[0], target.theta[:-1], False),)
    spectra = splitmaps.LadderSpectra(target.d, F(2), chains=chains)
    assert Decomposition.independent(chain_lines(*chains[0][1:4])) == s.dec_K
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(off_ladder)
    with pytest.raises(ModelError, match="has no eigenvector"):
        spectra.decomposition(off_ladder)


@pytest.mark.parametrize(
    "seed, reverse",
    [
        ([0, 0, 1], False),  # the seed is a q^-1 eigenvector, so its step is zero
        ([1, 0, 1], True),  # two nonzero lines, of ranks 1 + 1 < 3
    ],
    ids=["a-zero-part", "parts-short-of-the-space"],
)
def test_proposed_parts_that_are_no_decomposition_are_refused_and_the_kernels_solved(seed, reverse, monkeypatch):
    """The lines of a chain are refused before any certificate when one is zero or their ranks miss n.

    On Q^3 at d = 1 the ladder is q, q^-1, and m = P diag(q, q, q^-1) P^-1
    has parts of ranks 2 and 1. A chain under m itself from P times `seed`
    with the shift q^-1 has two lines: no product certifies anything, and
    the kernels give m's decomposition.
    """
    q = F(2)
    p = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    m = p * Matrix([[2, 0, 0], [0, 2, 0], [0, 0, F(1, 2)]]) * p.inverse()
    u = [sum(e * x for e, x in zip(row, seed)) for row in p.numerators]
    certificates, acts_as = [], Decomposition.acts_as
    monkeypatch.setattr(Decomposition, "acts_as", lambda self, *args: certificates.append(self) or acts_as(self, *args))
    kernels = _count_kernels(monkeypatch)
    spectra = splitmaps.LadderSpectra(1, q, chains=((m, m, u, [1 / q], reverse),))
    assert spectra.decomposition(m) == model.eigenspace_decomposition(m, spectra.eigenvalues)
    assert kernels == [m] and not certificates
