"""Decompositions certified from chains, and claims read from held verdicts, against the direct solves.

`build_split_maps` takes each split decomposition from its tau-chain once
the chain's flags are certified, and `LadderSpectra` takes M and Mdown from
chains down from H V*_0 and H V*_d once one product certifies them; the
flag meets and kernels are the fallback and the oracle here. Every pair of
table rows 1-4 reads its residual from the R_K, R_B and R_3 the split maps
hold, and once lusztig.H_invertible, split.H_conjugation and split.MN pass,
rows 5-8 of the table and the N-side claims of the diagrams are read from
their H-mirrors; a failed precondition takes the direct path, and a
replaced table is tested member by member. The held residuals are compared
with the q-Weyl brackets on random matrices and with `qweyl_residual` on
perturbed imports, and each held term has a negative control.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qonsager import equitable, linalg, model, splitmaps, suite
from qonsager.linalg import Matrix
from qonsager.model import assemble_imported, eigenspace_decomposition
from qonsager.splitmaps import split_decomposition

import identity_reference as ref
from test_identity_oracle import _built, _outcome, _perturbed_import, _random_invertible

PARAMS = [(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))]


def _assert_chains_are_the_direct_solves(target):
    """The split maps' decompositions are the flag meets, and M, Mdown's the kernels, or both raise alike."""
    vstar, v = target.eigenspaces_Astar, target.eigenspaces_A
    # the flag meets of K, B, Kdown and Bdown
    meets = [_outcome(split_decomposition, star, a_dec) for star in (vstar, vstar.inversion()) for a_dec in (v, v.inversion())]
    built = _outcome(splitmaps.build_split_maps, target)
    if not isinstance(built[0], splitmaps.SplitMaps):
        # the first split map without a split decomposition raises, as its flag meets do
        assert built == next(m for m in meets if isinstance(m, tuple))
        return 0
    assert [dec for s in built for dec in (s.dec_K, s.dec_B)] == meets
    ctx = suite.TargetContext(target)
    pair, spectra = ctx.split_maps, ctx.spectra
    for m in (s.M for s in pair):
        assert _outcome(spectra.decomposition, m) == _outcome(eigenspace_decomposition, m, spectra.eigenvalues)
    return sum(len(s.certified) for s in pair)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("q, a, b", PARAMS)
def test_chains_are_the_flag_meets_and_kernels_on_built_models(d, q, a, b, monkeypatch):
    kernels, original = [], model.eigenspace_decomposition

    def counted(m, eigs):
        kernels.append(m)
        return original(m, eigs)

    target = _built(d, q, a, b)
    monkeypatch.setattr(splitmaps, "eigenspace_decomposition", counted)
    ctx = suite.TargetContext(target)
    pair, spectra = ctx.split_maps, ctx.spectra
    assert [set(s.certified) for s in pair] == [{"K", "B"}] * 2
    for s in pair:
        spectra.decomposition(s.M)
    assert not kernels  # both chains certified
    assert _assert_chains_are_the_direct_solves(target) == 4


def _perturbed_A_import(seed):
    """(P A' P^-1, P A* P^-1) at d = 2..4: A' is the split-basis A with one entry below the diagonal changed."""
    rng = random.Random(seed)
    base = _built(rng.randint(2, 4), *rng.choice(PARAMS))
    n = base.dim
    i = rng.randint(1, n - 1)
    j = rng.randint(0, i - 1)
    rows = [list(row) for row in base.A.entries]
    rows[i][j] += rng.choice([F(1), F(-2), F(1, 3)])
    p = Matrix([[rng.randint(-2, 2) + (r == c) * 5 for c in range(n)] for r in range(n)])
    p_inv = p.inverse()
    return assemble_imported(base.params, p * Matrix(rows) * p_inv, p * base.Astar * p_inv)


def test_chains_are_the_flag_meets_and_kernels_on_perturbed_imports():
    certified = Counter()
    for seed in range(40):
        target = _perturbed_import(seed) if seed % 2 else _perturbed_A_import(seed)
        certified[_assert_chains_are_the_direct_solves(target)] += 1
    # on 36 imports the K and B chains certify and the Kdown and Bdown chains
    # give way to the flag meets; on 4 with A perturbed no chain certifies
    assert certified == {2: 36, 0: 4}


def test_split_flags_fails_for_a_replaced_decomposition():
    """Negative control: dec_B replaced by dec_K is no longer the certified B chain, so it is tested and fails."""
    target = _built(2, F(2))
    up, down = splitmaps.build_split_maps(target)
    assert splitmaps.check_split_flags(target, (up, down)) == (True, [])
    ctx = suite.TargetContext(target)
    ctx._built["split_maps"] = (replace(up, dec_B=up.dec_K), down)
    report = suite.Report("replaced")
    check_id, detail, check = suite.SUITES["splitmaps"][0]
    report.run(check_id, detail, lambda: check(ctx))
    assert [(c.name, c.status, c.residual) for c in report.checks] == [
        ("split.flags", "fail", "('B', 0): descending flag != A flag")
    ]


def _count_qweyl(monkeypatch):
    calls, original = [], equitable.qweyl_residual

    def counted(x, y, q):
        calls.append((x, y))
        return original(x, y, q)

    monkeypatch.setattr(equitable, "qweyl_residual", counted)
    return calls


def test_a_failed_precondition_takes_the_direct_table_and_diagrams_path(monkeypatch):
    """On a perturbed import split.H_conjugation fails, so nothing is mirrored and the verdicts are the direct ones."""
    target = _perturbed_import(3)
    ctx = suite.TargetContext(target)
    assert not ctx.H_conjugation[0] and not ctx.mirrored
    calls = _count_qweyl(monkeypatch)
    table_check = ctx.table_check
    # rows 5-8 test their (X,Y) and (Y,Z) pairs; rows 1-4 and every (Z,X)
    # pair read the relations the split maps hold
    assert len(calls) == 8
    assert table_check == equitable.verify_triple_table(target, ctx.triple_table, ctx.spectra)
    diagrams = equitable.verify_diagrams(target, ctx.lusztig, ctx.split_maps, ctx.spectra, table_check)
    check_id, detail, check = suite.SUITES["diagrams"][0]
    assert not diagrams[0] and check(ctx) == (False, suite._first_witness(diagrams[1]))


def test_a_replaced_table_is_tested_member_by_member(monkeypatch):
    """A table set in the context is tested member by member; its rows 5-8 are mirrored only while `mirrored` holds.

    A mirrored context holds rows 1-4 alone, so a replaced row 2 is tested
    and row 6 reads its failures. A test that sets all eight rows sets
    `mirrored` too, and then each row is tested.
    """
    ctx = suite.TargetContext(_built(3, F(2)))
    assert ctx.mirrored and len(ctx.triple_table) == 4
    label, x, y, z = ctx.triple_table[1]
    replaced = ctx.triple_table[:1] + ((label, x, y + Matrix.identity(4).scale(F(1, 5)), z),) + ctx.triple_table[2:]
    ctx._built["triple_table"] = replaced
    calls = _count_qweyl(monkeypatch)
    ok, failures = ctx.table_check
    # the replaced row 2's (X,Y) and (Y,Z) pairs; every other pair is held
    assert len(calls) == 2 and {row for row, *_ in failures} == {"2", "6"}
    # the direct verdict on those rows and their H-conjugates
    h, h_inv = ctx.lusztig.H, ctx.lusztig.H_inv
    mirrors = tuple((str(int(row) + 4), *(h_inv * m * h for m in members)) for row, *members in replaced)
    assert (ok, failures) == equitable.verify_triple_table(ctx.model, replaced + mirrors, ctx.spectra)

    ctx = suite.TargetContext(_built(3, F(2)))
    ctx._built["mirrored"] = False
    table = ctx.triple_table
    label, x, y, z = table[4]
    replaced = table[:4] + ((label, x, y + Matrix.identity(4).scale(F(1, 5)), z),) + table[5:]
    ctx._built["triple_table"] = replaced
    calls = _count_qweyl(monkeypatch)
    ok, failures = ctx.table_check
    assert len(calls) == 8  # the (X,Y) and (Y,Z) pairs of rows 5-8
    assert not ok and {row for row, *_ in failures} == {"5"}
    assert (ok, failures) == equitable.verify_triple_table(ctx.model, replaced, ctx.spectra)


def test_mirrored_rows_carry_their_mirrors_conjugated_witnesses():
    """With row 1 broken and row 5 its H-conjugate, the mirrored verdict is the direct one, witness for witness."""
    ctx = suite.TargetContext(_built(2, F(3, 2), F(1, 7), F(2, 9)))
    h, h_inv = ctx.lusztig.H, ctx.lusztig.H_inv
    table = list(equitable.build_triple_table(ctx.split_maps, ctx.spectra))
    label, x, y, z = table[0]
    broken = (label, x, y + Matrix.identity(3).scale(F(1, 5)), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    table[0] = broken
    table[4] = (table[4][0],) + tuple(h_inv * m * h for m in broken[1:])
    mirrored = equitable.verify_triple_table(ctx.model, table[:4], ctx.spectra, mirror=(h, h_inv))
    direct = equitable.verify_triple_table(ctx.model, table, ctx.spectra)
    assert not mirrored[0] and mirrored == direct
    assert [name for row, name, _ in direct[1] if row == "5"] == [name for row, name, _ in direct[1] if row == "1"]
    assert any(name == "Z invertible" for _, name, _ in direct[1])


def test_held_residuals_are_the_qweyl_brackets_of_any_maps_with_M_invertible():
    """The held transforms are matrix identities: on seeded random A, K, B, Kdown, Bdown, no model.

    Each pair of rows 1-4, and each (Z, X) pair of rows 5-8, reads the
    q-Weyl bracket minus I of the verbatim oracle.
    """
    rng = random.Random(29)
    compared = 0
    for n in range(2, 7):
        for q in (F(2), F(3, 2), F(-2), F(1, 3)):
            for a in (F(3), F(1, 7), F(5), F(-2, 3)):
                while True:
                    big_a, k, b, kdown, bdown = (_random_invertible(rng, n) for _ in range(5))
                    oriented = (
                        splitmaps.SplitMaps(big_a, a, q, k, b, None, None, {}, ""),
                        splitmaps.SplitMaps(big_a, a, q, kdown, bdown, None, None, {}, "down"),
                    )
                    try:
                        for s in oriented:
                            s.M.inverse()
                    except linalg.SingularMatrixError:
                        continue
                    break
                held = equitable.held_residuals(oriented)
                table = equitable.build_triple_table(oriented, mirrored=True)
                pairs = [pair for _, x, y, z in table for pair in ((x, y), (y, z), (z, x))]
                pairs += [(s.conjugates[0][name], x.inverse()) for s in oriented for name, x in (("K", s.K), ("B", s.B))]
                for left, right in pairs:
                    want = ref.qweyl_bracket(left, right, q) - Matrix.identity(n)
                    assert not want.is_zero()  # random maps: every residual is a sandwich's witness
                    assert held[left, right] == want, (n, q, a)
                    compared += 1
    assert compared == 5 * 4 * 4 * 16


def test_held_residuals_are_the_direct_ones_on_perturbed_imports():
    """On 60 seeded perturbed imports every pair of rows 1-4 of the direct table holds what `qweyl_residual` forms."""
    outcomes = Counter()
    for seed in range(2000, 2060):
        ctx = suite.TargetContext(_perturbed_import(seed))
        table = equitable.build_triple_table(ctx.split_maps, ctx.spectra)
        held = equitable.held_residuals(ctx.split_maps)
        for _, x, y, z in table[:4]:
            for left, right in ((x, y), (y, z), (z, x)):
                direct = equitable.qweyl_residual(left, right, ctx.model.params.q)
                assert held[left, right] == direct, seed
                outcomes["pass" if direct is None else "fail"] += 1
    # every import builds its table: 60 x 12 pairs, half of them failing
    assert outcomes == {"pass": 360, "fail": 360}


def _B_swapped_with_Bdown(pair):
    """Each map keeps its own decomposition, so the ladder spectra stay true."""
    up, down = pair
    return replace(up, B=down.B, dec_B=down.dec_B), replace(down, B=up.B, dec_B=up.dec_B)


def _A_shifted(pair):
    shifted = pair[0].A + Matrix.identity(pair[0].A.rows).scale(F(1, 5))
    return tuple(replace(s, A=shifted) for s in pair)


@pytest.mark.parametrize(
    "replaced, failing_relations, failing_pairs",
    [
        # (K, Bdown) and (Kdown, B) keep the q-Weyl relations with A but not relation 3
        (_B_swapped_with_Bdown, [False, False, True], {"q-Weyl (X,Y)", "q-Weyl (Y,Z)"}),
        # R_X gains X/5, relation 3 does not name A
        (_A_shifted, [True, True, False], {"q-Weyl (X,Y)", "q-Weyl (Z,X)"}),
    ],
)
@pytest.mark.parametrize("d, q, a, b", [(2, *PARAMS[1]), (3, *PARAMS[0]), (2, *PARAMS[2])])
def test_each_held_term_fails_its_pairs_as_the_direct_table_does(
    replaced, failing_relations, failing_pairs, d, q, a, b, monkeypatch
):
    """Negative controls of R_3 and of R_K, R_B: the held verdict is the verdict of a table given no `known`."""
    ctx = suite.TargetContext(_built(d, q, a, b))
    ctx._built["split_maps"] = pair = replaced(ctx.split_maps)
    assert [[r is not None for r in s.relations] for s in pair] == [failing_relations] * 2
    calls = _count_qweyl(monkeypatch)
    ok, failures = ctx.table_check
    # split.MN fails, so all eight rows are built; rows 5-8 form their (X,Y) and (Y,Z) pairs
    assert not ctx.mirrored and len(calls) == 8
    for label in "1234":
        assert {name for row, name, _ in failures if row == label and name.startswith("q-Weyl")} == failing_pairs
    assert (ok, failures) == equitable.verify_triple_table(ctx.model, ctx.triple_table, ctx.spectra)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("q, a, b", PARAMS[:2])
def test_work_per_built_target(d, q, a, b, monkeypatch):
    """What a passing built target solves: the kernels of A and A* alone, no q-Weyl product, no flag meet."""
    calls = Counter()
    for module, name in (
        (model, "kernel"),
        (linalg, "_gauss_jordan"),
        (equitable, "qweyl_residual"),
        (splitmaps, "eigenspace_decomposition"),
        (model, "eigenspace_decomposition"),
    ):
        original = getattr(module, name)

        def counted(*args, original=original, key=f"{module.__name__}.{name}"):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    flag_meets = linalg.Decomposition.flag_meets

    def counted_meets(self, ref):
        calls["flag_meets"] += 1
        return flag_meets(self, ref)

    monkeypatch.setattr(linalg.Decomposition, "flag_meets", counted_meets)
    report = suite.run_target(suite.make_param_target(d, q, a, b), suite.SUITE_NAMES)
    assert report.all_passed
    n = d + 1
    # no q-Weyl product: every pair of rows 1-4 is held and rows 5-8 are mirrored
    assert calls["qonsager.equitable.qweyl_residual"] == 0
    # no flag meet and no kernel on the ladder (splitmaps.eigenspace_decomposition)
    assert calls == {
        "qonsager.model.kernel": 2 * n,  # eigenspaces of A and A*
        "qonsager.model.eigenspace_decomposition": 2,
        # the kernels, the spans of the H-images of lines and 8 basis-matrix
        # inverses: the table forms no N^-1 or Ndown^-1
        "qonsager.linalg._gauss_jordan": 12 * n + 8,
    }
