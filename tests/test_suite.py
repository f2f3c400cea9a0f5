"""The per-target context: each shared structure is built once, and a
structure or check that raises, or a model file that cannot be read,
becomes a record instead of ending the batch.

`tests/data/split_error_d2.model` is an imported d = 2 pair whose A* has the
right spectrum but is not tridiagonal with respect to A, so its split
decompositions are not direct sums and `build_split_maps` raises.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction as F
from functools import cache, cached_property, partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qonsager import equitable, linalg, lusztig, model, scalars, splitmaps, suite
from qonsager.cli import main
from qonsager.linalg import Matrix
from qonsager.report import Report
from qonsager.scalars import ParamSet

from identity_reference import expand_H

REPO = Path(__file__).resolve().parents[1]
SPLIT_ERROR = Path(__file__).resolve().parent / "data" / "split_error_d2.model"
CONTAINMENT_ESCAPE = Path(__file__).resolve().parent / "data" / "containment_escape_d3.model"
NEEDS_SPLIT_MAPS = {
    "split.flags",
    "split.inversion",
    "split.KA_relations",
    "split.H_conjugation",
    "split.R_ladder",
    "split.MN",
    "equitable.table",
    "equitable.ladders",
    "diagrams.verify",
}


def _count_calls(monkeypatch, module, name):
    """Wrap `module.name` with a call counter wherever the package refers to it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (linalg, model, lusztig, splitmaps, equitable, suite):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


TABLES = ("thetas", "theta_stars", "ts", "t_band", "q2_poch", "q2_inv_poch")


def _count_table_builds(monkeypatch, name):
    """Wrap the builder of the cached `ParamSet` table `name` with a counter."""
    original = vars(ParamSet)[name].func
    builds = []

    def counted(self):
        builds.append(self)
        return original(self)

    table = cached_property(counted)
    table.__set_name__(ParamSet, name)
    monkeypatch.setattr(ParamSet, name, table)
    return builds


def test_each_structure_is_built_once_per_target(monkeypatch):
    calls = {
        name: _count_calls(monkeypatch, module, name)
        for module, name in (
            (model, "build_model"),
            (lusztig, "build_H"),
            (splitmaps, "build_split_maps"),
            (model, "eigenspace_decomposition"),
            (model, "check_tridiagonal_action"),
            (model, "check_irreducible"),
            (splitmaps, "h_conjugates"),
            (equitable, "qweyl_residual"),
            (model, "qdg_residuals"),
            (linalg, "_numerator_product"),
            (linalg, "_gauss_jordan"),
            (linalg, "kernel"),
        )
    }
    looking_up, ladder_inverses = [], []
    decomposition, inverse = splitmaps.LadderSpectra.decomposition, Matrix.inverse

    def counted_decomposition(self, m):
        looking_up.append(m)
        try:
            return decomposition(self, m)
        finally:
            looking_up.pop()

    eliminated = []

    def counted_inverse(self):
        if looking_up:
            ladder_inverses.append(self)
        if self.cached_inverse() is None:
            eliminated.append(self)
        return inverse(self)

    summed, sums = [], scalars._summed

    def counted_sums(p, *tables):
        summed.append(p)
        return sums(p, *tables)

    meets, flag_meets = [], linalg.Decomposition.flag_meets

    def counted_meets(self, ref):
        meets.append(self)
        return flag_meets(self, ref)

    builds = {name: _count_table_builds(monkeypatch, name) for name in TABLES}
    monkeypatch.setattr(linalg.Decomposition, "flag_meets", counted_meets)
    monkeypatch.setattr(splitmaps.LadderSpectra, "decomposition", counted_decomposition)
    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    monkeypatch.setattr(scalars, "_summed", counted_sums)
    contexts, context = [], suite.TargetContext

    def recorded_context(m):
        contexts.append(context(m))
        return contexts[-1]

    monkeypatch.setattr(suite, "TargetContext", recorded_context)
    # the ladders check, run after equitable.table has built table_check
    work, ladder_work = ("_numerator_product", "_gauss_jordan", "kernel"), []
    table_entry, (ladders_id, detail, ladders) = suite.SUITES["equitable"]

    def counted_ladders(ctx):
        assert "table_check" in ctx._built
        before = [len(calls[name]) for name in work]
        try:
            return ladders(ctx)
        finally:
            ladder_work.append([len(calls[name]) - n for name, n in zip(work, before)])

    monkeypatch.setitem(suite.SUITES, "equitable", (table_entry, (ladders_id, detail, counted_ladders)))
    report = suite.run_target(suite.make_param_target(2, F(2), F(3), F(5)), suite.SUITE_NAMES)
    assert report.all_passed and len(report.checks) == 27
    for name in ("build_model", "build_H", "build_split_maps"):
        assert len(calls[name]) == 1, name
    # the eight H-conjugates: two closed forms for each of K, B, Kdown and
    # Bdown, derived once from the split maps; the triple table holds those objects
    assert len(calls["h_conjugates"]) == 4
    ctx = contexts[0]
    rows = ctx.triple_table
    conjugates = [(s.conjugates, x) for s in ctx.split_maps for x in ("K", "B")]  # K, B, Kdown, Bdown
    assert all(row[1] is conj_inv[x] for row, ((_, conj_inv), x) in zip(rows[:4], conjugates))
    assert all(row[3] is conj[x] for row, ((conj, _), x) in zip(rows[4:], conjugates))
    # the table forms no q-Weyl product: every pair of rows 1-4 reads the
    # R_K, R_B and R_3 of split.KA_relations, and rows 5-8 are read from
    # rows 1-4 as split.H_conjugation and split.MN hold; the ladders read its
    # verdicts; build_model and model.qdg share one evaluation of the
    # q-Dolan/Grady residuals
    assert len(calls["qweyl_residual"]) == 0
    assert len(calls["qdg_residuals"]) == 1
    # every integer product of the target: split.KA_relations forms relation
    # 3's four per orientation beside R_K and R_B, sharing K^2 and B^2,
    # split.R_ladder no power of R nor RK, KR, H H^-1 is formed once for
    # lusztig.H_invertible and the mirrored reads, and split.inversion reads
    # the maps of the inverted decompositions that build_split_maps formed
    # (4 products fewer than forming them again)
    assert len(calls["_numerator_product"]) == 130
    # the ladders read the table's verdicts and the ladder spectra its
    # invertibility entries filled: no product, elimination or kernel
    assert ladder_work == [[0, 0, 0]]
    # The matrices on the q-ladder: K, B, Kdown and Bdown come with their
    # split decompositions, inverses take the reversed decomposition of a
    # matrix already decomposed, the H-conjugates that rows 1-4 and split.MN
    # read and N, Ndown are transported by H, M and Mdown are chained down
    # from H V*, and the ladder computes no inverse. None is left to the
    # kernels: the model decomposes A and A* once each, and those are the
    # only kernels the target solves.
    assert len(calls["eigenspace_decomposition"]) == 2
    assert len(calls["kernel"]) == 2 * 3
    assert not ladder_inverses
    # every inverse the target reads is the map of an inverted decomposition,
    # so only basis matrices P are eliminated (30 eliminations when M^-1,
    # N^-1, the split maps' inverses and the table's invertibility were
    # eliminated, 12 while V+ was read by the diagrams, 10 while the table
    # held N^-1 and Ndown^-1); the Chu-Vandermonde sums are summed once, for
    # scalars.chu_vandermonde and lusztig.expansions together
    assert len(eliminated) == 8
    assert summed == [ctx.model.params]
    # the four split decompositions of the model are certified tau-chains, and
    # the diagrams read the twisted pairs' slots from split.flags: no flag meet
    assert not meets
    # build_model rejects a pair that is not tridiagonal or is reducible;
    # model.tridiagonal and model.irreducible read its verdicts.
    assert len(calls["check_tridiagonal_action"]) == 1
    assert len(calls["check_irreducible"]) == 1
    # the solved target's ParamSet builds each scalar table once
    for name in TABLES:
        assert len(builds[name]) == 1, name
    assert builds["thetas"][0] is builds["ts"][0] is calls["build_model"][0][0]


def _solved_model(d):
    models = []
    assert model.solve_phi(d, F(2), F(3), F(5), limit=1, models=models)
    return models[0]


def test_corrupted_H_witnesses_equal_the_oracle_expansions_at_every_failing_anchor():
    """Each witness is (expansion - H^(+-1)) E_flag, with the expansion from the `Matrix`-operator oracle."""
    ctx = suite.TargetContext(_solved_model(2))
    m, lus = ctx.model, ctx.lusztig
    # doubling t_1 in H and H^-1 breaks both expansions at every anchor whose flag holds V_1
    t = list(m.params.ts)
    t[1] *= 2
    bad_h = m.eigenspaces_A.diagonal_map(t)
    ok, failures = lusztig.check_H_expansions(m, replace(lus, H=bad_h, H_inv=bad_h.inverse()))
    anchors = [("ascending", 0), ("ascending", 1), ("descending", 1), ("descending", 2)]
    assert not ok
    assert [(variant, inverse, r) for variant, inverse, r, _ in failures] == sorted(
        (variant, inverse, r) for variant, r in anchors for inverse in (False, True)
    )
    for variant, inverse, r, witness in failures:
        parts = range(r, m.d + 1) if variant == "ascending" else range(r + 1)
        target = bad_h.inverse() if inverse else bad_h
        want = (expand_H(m, r, variant)[inverse] - target) * m.eigenspaces_A.projector(parts)
        assert witness == want and not want.is_zero(), (variant, inverse, r)


def _scale_split_map(ctx, name):
    """Set the context's split map `name` (K, B, Kdown or Bdown) to its double, and return that."""
    pair = ctx.split_maps
    s = pair[name.endswith("down")]
    scaled = getattr(s, name[0]).scale(2)
    ctx._built["split_maps"] = tuple(replace(t, **{name[0]: scaled}) if t is s else t for t in pair)
    return scaled


@pytest.mark.parametrize("name", ["K", "B", "Kdown", "Bdown"])
def test_split_inversion_flips_under_a_scaled_split_map(name):
    """split.inversion proves X (map of X's inverted decomposition) = I with one product; 2X breaks it.

    The scaled map keeps no inverse, and the check eliminates none.
    """
    ctx = suite.TargetContext(_solved_model(2))
    detail, check = next((detail, check) for cid, detail, check in suite.SUITES["splitmaps"] if cid == "split.inversion")
    assert check(ctx) == (True, None)
    scaled = _scale_split_map(ctx, name)
    record = Report("t").run("split.inversion", detail, partial(check, ctx)).to_record()
    assert (record["status"], record["residual"]) == ("fail", f"map of inverted {name} decomposition != {name}^-1")
    assert scaled.cached_inverse() is None


@pytest.mark.parametrize("name", ["K", "B", "Kdown", "Bdown"])
def test_split_inversion_flips_after_checks_that_invert_the_scaled_map(name):
    """The verdict does not hang on check order: once the table and split.KA_relations have inverted 2X, 2X still fails."""
    ctx = suite.TargetContext(_solved_model(2))
    checks = {cid: (detail, check) for cid, detail, check in suite.SUITES["splitmaps"]}
    scaled = _scale_split_map(ctx, name)
    ctx.table_check
    Report("t").run("split.KA_relations", checks["split.KA_relations"][0], partial(checks["split.KA_relations"][1], ctx))
    assert scaled.cached_inverse() is not None  # eliminated, and (2X)(2X)^-1 = I
    record = Report("t").run("split.inversion", checks["split.inversion"][0], partial(checks["split.inversion"][1], ctx)).to_record()
    assert (record["status"], record["residual"]) == ("fail", f"map of inverted {name} decomposition != {name}^-1")


# The checks that evaluate their identities with `linalg.Products`
PRODUCT_CHECKS = (
    "lusztig.H_invertible",
    "lusztig.H_commutes_A",
    "lusztig.conjugation",
    "lusztig.entrywise",
    "lusztig.expansions",
    "split.KA_relations",
    "split.H_conjugation",
    "split.R_ladder",
    "split.MN",
)


def test_a_passing_product_check_builds_no_matrix(monkeypatch):
    """Once the context holds a check's inputs, a passing check builds no `Matrix` of its own."""
    ctx = suite.TargetContext(_solved_model(3))
    checks = {check_id: check for name in suite.SUITE_NAMES for check_id, _, check in suite.SUITES[name]}
    for check in checks.values():
        assert check(ctx)[0]
    built = _count_matrices(monkeypatch)
    for check_id in PRODUCT_CHECKS:
        assert checks[check_id](ctx) == (True, None), check_id
        assert not built, check_id


def _count_matrices(monkeypatch):
    """Record every `Matrix` built from now on."""
    built, init = [], Matrix.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    return built


def test_the_model_identities_build_no_matrix_but_the_eigenbases(monkeypatch):
    """The q-Dolan/Grady and block-form identities of a passing model build only an uncached P and P^-1."""
    built_model = _solved_model(3)
    fresh = model.assemble_imported(built_model.params, built_model.A, built_model.Astar)
    built = _count_matrices(monkeypatch)
    assert model.qdg_residuals(built_model.A, built_model.Astar, built_model.params.q) == (None, None)
    assert model.check_tridiagonal_action(built_model) == (True, [])
    # build_model checked the tridiagonal action, which formed both eigenbases
    assert not built
    assert model.check_tridiagonal_action(fresh) == (True, [])
    decs = (fresh.eigenspaces_A, fresh.eigenspaces_Astar)
    assert sorted(map(id, built)) == sorted(id(m) for dec in decs for m in (dec.basis_matrix(), dec.basis_inverse()))


def test_build_H_inverts_no_matrix(monkeypatch):
    """H^-1 comes from the 1/t_i form; `lusztig.H_invertible` is what proves H H^-1 = I."""
    built_model = _solved_model(3)
    inverted, inverse = [], Matrix.inverse

    def counted_inverse(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    lus = lusztig.build_H(built_model)
    assert not inverted
    assert lus.H * lus.H_inv == Matrix.identity(built_model.dim)


def test_a_t_table_that_disagrees_with_its_closed_form_is_a_kernel_bug_error(monkeypatch):
    original = scalars.t_coeff
    monkeypatch.setattr(scalars, "t_coeff", lambda i, j, p: original(i, j, p) + (i == 0 and j == 1))
    report = suite.run_target(suite.make_param_target(2, F(2), F(3), F(5)), ("scalars", "lusztig"))
    record = next(c for c in report.checks if c.name == "scalars.t_seq")
    # t_01 = a^2 q^(2(d-1)) = 36, corrupted to 37
    assert (record.status, record.residual) == ("error", "t_1 product form 37 != closed form 36; kernel bug")
    # the table is not cached while it raises: H cannot be built either
    assert {c.status for c in report.checks if c.name.startswith("lusztig.")} == {"error"}


def test_a_raising_structure_is_an_error_and_the_batch_goes_on(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    args = ["--file", str(SPLIT_ERROR), "--d", "1", "--q", "2", "--a", "3", "--b", "5", "--phi", "1"]
    assert main(["verify", *args, "--output", str(out), "--quiet"]) == 1
    summaries = capsys.readouterr().out.splitlines()
    assert summaries[0].endswith("FAIL (12/27 checks passed, 9 raised an error)")
    assert summaries[1].endswith("PASS (27/27 checks passed)")
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    broken = [r for r in records if r["target"] == str(SPLIT_ERROR)]
    errors = {r["check"]: r["residual"] for r in broken if r["status"] == "error"}
    assert set(errors) == NEEDS_SPLIT_MAPS
    assert all("not a direct-sum decomposition" in text for text in errors.values())
    assert {r["status"] for r in broken if r["check"] not in errors} <= {"pass", "fail"}
    rest = [r for r in records if r["target"] != str(SPLIT_ERROR)]
    assert len(rest) == 27 and all(r["status"] == "pass" for r in rest)


def test_a_failed_structure_is_built_once(monkeypatch):
    calls = _count_calls(monkeypatch, splitmaps, "build_split_maps")
    report = suite.run_target(suite.make_file_target(str(SPLIT_ERROR)), suite.SUITE_NAMES)
    assert len(calls) == 1
    assert {c.name for c in report.checks if c.status == "error"} == NEEDS_SPLIT_MAPS


def test_report_records_check_errors_and_lets_other_exceptions_through():
    report = Report("t")

    def cross_check():
        raise AssertionError

    result = report.run("c", "a construction cross-check", cross_check)
    assert (result.status, result.residual, result.passed) == ("error", "AssertionError", False)
    assert json.loads(report.to_lines()[0])["status"] == "error"
    assert not report.all_passed
    with pytest.raises(TypeError):
        report.run("bug", "not a check error", lambda: 1 + "1")


def test_a_malformed_model_file_is_a_load_failure_and_the_batch_goes_on(tmp_path, capsys):
    bad = tmp_path / "short_block.model"
    bad.write_text("1 2 3 5\nA:\n2 2\n1 0\nAstar:\n2 2\n101/10 1\n0 29/10\n")
    missing = tmp_path / "missing.model"
    out = tmp_path / "report.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "output": str(out),
        "targets": [
            {"file": str(bad)},
            {"file": str(missing)},
            {"d": 1, "q": "2", "a": "3", "b": "5", "phi": ["1"]},
        ],
    }))
    assert main(["verify", "--config", str(config), "--quiet"]) == 1
    summaries = capsys.readouterr().out.splitlines()
    assert summaries[0] == f"{bad}: FAIL (0/1 checks passed)"
    assert summaries[1] == f"{missing}: FAIL (0/1 checks passed)"
    assert summaries[2].endswith("PASS (27/27 checks passed)")
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    loads = [r for r in records if r["check"] == "target.load"]
    assert [(r["target"], r["status"]) for r in loads] == [(str(bad), "fail"), (str(missing), "fail")]
    assert loads[0]["residual"] == f"{bad}:3: expected 4 entries, got 2"
    assert str(missing) in loads[1]["residual"]
    assert len(records) == 2 + 27


REDUCIBLE_PAIR = "1 2 3 5\nA:\n2 2\n37/6 0\n1 13/6\nAstar:\n2 2\n101/10 -144/5\n0 29/10\n"


def test_an_imported_reducible_pair_fails_model_irreducible(tmp_path, capsys):
    # phi_1 = -144/5 passes the q-Dolan/Grady relations at d = 1, but the
    # theta*_1-eigenvector of A* is the theta_0-eigenvector of A.
    path = tmp_path / "reducible.model"
    path.write_text(REDUCIBLE_PAIR)
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--file", str(path), "--suite", "model", "--output", str(out), "--quiet"])
    assert code == 1
    records = {r["check"]: r for r in map(json.loads, out.read_text(encoding="utf-8").splitlines())}
    assert records["model.irreducible"]["status"] == "fail"
    assert records["model.qdg"]["status"] == "pass"
    assert [c for c, r in records.items() if r["status"] != "pass"] == ["model.irreducible"]


@pytest.mark.parametrize(
    "body",
    [
        "1 2 3 5\nphi: 1\nA:\n2 2\n1 0\n0 1\nAstar:\n2 2\n5 0\n0 7\n",
        "1 2 3 5\nphi: 1\nphi: 2\n",
    ],
    ids=["phi-and-blocks", "two-phi"],
)
def test_a_model_file_with_two_definitions_is_a_load_failure(tmp_path, capsys, body):
    path = tmp_path / "conflict.model"
    path.write_text(body)
    out = tmp_path / "report.jsonl"
    args = ["--file", str(path), "--d", "1", "--q", "2", "--a", "3", "--b", "5", "--phi", "1"]
    assert main(["verify", *args, "--output", str(out), "--quiet"]) == 1
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    conflict = [r for r in records if r["target"] == str(path)]
    assert [(r["check"], r["status"]) for r in conflict] == [("target.load", "fail")]
    assert conflict[0]["residual"].startswith(f"{path}:3: ")
    assert len(records) == 1 + 27
    assert main(["import", str(path)]) == 2
    assert f"{path}:3: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, witness",
    [
        (CONTAINMENT_ESCAPE, "A* V_2 escapes V_1+V_2+V_3"),
        (Path(__file__).resolve().parent / "golden" / "twisted_d2.model", "A* V_0 escapes V_-1+V_0+V_1"),
    ],
    ids=["first-escape-at-2", "first-escape-at-0"],
)
def test_astar_containment_names_the_first_escaping_eigenspace(path, witness):
    # Both imported pairs keep A*'s spectrum but break the band: the d = 3
    # pair first maps V_2 into V_0, the d = 2 pair first maps V_0 into V_2.
    report = suite.run_target(suite.make_file_target(str(path)), ("model",))
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["model.tridiagonal"] == statuses["model.astar_containment"] == "fail"
    containment = next(c for c in report.checks if c.name == "model.astar_containment")
    assert containment.residual == witness


def _ids(name):
    return [check_id for check_id, _, _ in suite.SUITES[name]]


def test_check_ids_are_unique_and_prefixed_by_their_suite():
    ids = [check_id for name in suite.SUITE_NAMES for check_id in _ids(name)]
    assert len(ids) == len(set(ids)) == 27
    prefix = {"splitmaps": "split"}
    for name in suite.SUITE_NAMES:
        assert {check_id.split(".")[0] for check_id in _ids(name)} == {prefix.get(name, name)}, name


def _records(report):
    return [{key: value for key, value in c.to_record().items() if key != "elapsed_ms"} for c in report.checks]


SLICE_TARGETS = {
    "passing": suite.make_param_target(2, F(2), F(3), F(5)),
    "failing": suite.make_file_target(str(REPO / "tests" / "golden" / "twisted_d2.model")),
    "escaping": suite.make_file_target(str(CONTAINMENT_ESCAPE)),
    "raising": suite.make_file_target(str(SPLIT_ERROR)),
}


@pytest.mark.parametrize(
    "target, order",
    [
        pytest.param(target, order, id=name + suffix)
        for suffix, order in (("", suite.SUITE_NAMES), ("-reversed", suite.SUITE_NAMES[::-1]))
        for name, target in SLICE_TARGETS.items()
    ],
)
def test_each_suite_alone_reports_its_slice_of_an_all_run(target, order):
    # Suites share structures that the first check to need them builds, so
    # each suite must report the same records whichever suites ran before it.
    whole = _records(suite.run_target(target, order))
    start = 0
    for name in order:
        alone = _records(suite.run_target(target, (name,)))
        assert alone == whole[start : start + len(_ids(name))], name
        start += len(alone)
    assert start == len(whole) == 27


def test_suites_report_in_the_order_requested(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    args = ["--d", "1", "--q", "2", "--a", "3", "--b", "5", "--phi", "1", "--suite", "diagrams", "--suite", "scalars"]
    assert main(["verify", *args, "--output", str(out), "--quiet"]) == 0
    checks = [json.loads(line)["check"] for line in out.read_text(encoding="utf-8").splitlines()]
    assert checks == _ids("diagrams") + _ids("scalars")


def test_readme_table_lists_each_suite_and_its_check_ids():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("The checks of each suite, in report order", 1)[1]
    table = re.search(r"^\|.*?(?=\n\n)", section, flags=re.MULTILINE | re.DOTALL).group(0)
    rows = []
    for line in table.splitlines()[2:]:
        name, ids = line.strip("|").split("|")
        rows.append((name.strip().strip("`"), re.findall(r"`([^`]+)`", ids)))
    assert rows == [(name, _ids(name)) for name in suite.SUITES]


def _e01(n):
    return Matrix([[int((r, c) == (0, 1)) for c in range(n)] for r in range(n)])


def _sheared_H(ctx):
    """H -> H (I + E_01): no longer H_inv's inverse, no longer commuting with A, no longer its expansions."""
    lus = ctx.lusztig
    ctx._built["H"] = replace(lus, H=lus.H * (Matrix.identity(ctx.model.dim) + _e01(ctx.model.dim)))


def _shifted_LAstar(ctx):
    """L(A*) -> L(A*) + E_01: no longer H^-1 A* H, and no longer diagonal on H^-1 V*."""
    lus = ctx.lusztig
    ctx._built["H"] = replace(lus, LAstar=lus.LAstar + _e01(ctx.model.dim))


def _doubled_t01(ctx):
    """t_01 doubled in the band table, after H has been built from the t_i."""
    p = ctx.model.params
    assert ctx.lusztig
    band = dict(p.t_band)
    band[0, 1] *= 2
    p.__dict__["t_band"] = band


# Each lusztig id, a perturbation that flips it, and its failing record at
# d = 2, q = 2, a = 3, b = 5; the witnesses are those the Matrix-chain checks gave.
LUSZTIG_CONTROLS = [
    ("lusztig.H_invertible", _sheared_H, None),
    ("lusztig.H_commutes_A", _sheared_H, None),
    ("lusztig.conjugation", _shifted_LAstar, "L(A*) = H^-1 A* H: nonzero residual"),
    (
        "lusztig.entrywise",
        _doubled_t01,
        "(0, 1): Matrix([[-22707/35, 22707/4, 0], [-90828/1225, 22707/35, 0], [-45414/6125, 22707/350, 0]])",
    ),
    ("lusztig.eigenstructure", _shifted_LAstar, "(1, 0): eigenspace differs from conjugated V*_i"),
    ("lusztig.expansions", _sheared_H, "('ascending', False, 0): Matrix([[0, -1, 0], [0, 4, 0], [0, -16/5, 0]])"),
]


@pytest.mark.parametrize("check_id, perturb, witness", LUSZTIG_CONTROLS, ids=[c[0] for c in LUSZTIG_CONTROLS])
def test_each_lusztig_id_flips_under_its_perturbation(check_id, perturb, witness):
    ctx = suite.TargetContext(_solved_model(2))
    detail, check = next((detail, check) for cid, detail, check in suite.SUITES["lusztig"] if cid == check_id)
    assert check(ctx) == (True, None)
    perturb(ctx)
    record = Report("t").run(check_id, detail, partial(check, ctx)).to_record()
    assert record["status"] == "fail"
    assert record.get("residual") == witness


def _replaced_table(name, replace_table):
    """A perturbation that replaces the cached `ParamSet` table `name` by replace_table(table)."""

    def perturb(ctx):
        p = ctx.model.params
        p.__dict__[name] = replace_table(getattr(p, name))

    return perturb


# Each scalars and model id that no other test makes fail, a perturbation of
# the cached tables that flips it at d = 2, q = 2, a = 3, b = 5, and every id
# of its suite that then fails, as {check id: (status, witness)}.
TABLE_CONTROLS = [
    # theta*_1 -> theta*_0: the A*-spectrum repeats
    (
        "scalars.distinct",
        _replaced_table("theta_stars", lambda t: (t[0], t[0]) + t[2:]),
        {"scalars.distinct": ("fail", None)},
    ),
    # theta_i -> 2 theta_i: the recurrence is linear and still holds; P(theta_(i-1), theta_i) is not 0
    (
        "scalars.adjacency",
        _replaced_table("thetas", lambda t: tuple(2 * x for x in t)),
        {
            "scalars.adjacency": ("fail", None),
            "scalars.chu_vandermonde": ("fail", "ascending at (r=0, s=1): 71 != 36"),
        },
    ),
    # theta_2 -> theta_0, the other root of P(theta_1, x) = 0: adjacent along the path, off the recurrence
    (
        "scalars.recurrence",
        _replaced_table("thetas", lambda t: t[:2] + (t[0],)),
        {
            "scalars.distinct": ("fail", None),
            "scalars.recurrence": ("fail", None),
            "scalars.chu_vandermonde": ("fail", "ascending at (r=0, s=2): 1 != 81"),
        },
    ),
    # t_10 doubled in the band table: t_01 t_10 = 2
    (
        "scalars.t_coeff",
        _replaced_table("t_band", lambda t: {**t, (1, 0): 2 * t[1, 0]}),
        {"scalars.t_coeff": ("fail", None)},
    ),
    # (q^2;q^2)_1 doubled: every sum with a first-order term moves
    (
        "scalars.chu_vandermonde",
        _replaced_table("q2_poch", lambda t: (t[0], 2 * t[1]) + t[2:]),
        {"scalars.chu_vandermonde": ("fail", "ascending at (r=0, s=1): 37/2 != 36")},
    ),
    # theta_0 and theta_1 swapped: the listed order is no longer the path, and no a gives this spectrum
    (
        "model.spectrum_path",
        _replaced_table("thetas", lambda t: (t[1], t[0]) + t[2:]),
        {
            "model.spectrum_path": ("fail", None),
            "model.recover_a": ("error", "theta_2 = 25/12 does not match the recovered form 2305/48"),
        },
    ),
    # the spectrum reversed: still a path, but the spectrum of 1/a
    (
        "model.recover_a",
        _replaced_table("thetas", lambda t: t[::-1]),
        {"model.recover_a": ("fail", "recovered 1/3 != 3")},
    ),
]


def _failing_after(suite_name, perturb):
    """{check id: (status, witness)} for the ids of the suite that no longer pass once `perturb` has run."""
    ctx = suite.TargetContext(_solved_model(2))
    for cid, _, check in suite.SUITES[suite_name]:
        assert check(ctx) == (True, None), cid  # the tables are built and cached before the change
    perturb(ctx)
    failing = {}
    for cid, detail, check in suite.SUITES[suite_name]:
        record = Report("t").run(cid, detail, partial(check, ctx)).to_record()
        if record["status"] != "pass":
            failing[cid] = (record["status"], record.get("residual"))
    return failing


@pytest.mark.parametrize("check_id, perturb, flipped", TABLE_CONTROLS, ids=[c[0] for c in TABLE_CONTROLS])
def test_each_table_id_flips_under_its_perturbation(check_id, perturb, flipped):
    failing = _failing_after(check_id.split(".")[0], perturb)
    assert check_id in failing
    assert failing == flipped


# (q^2;q^2)_1 or (q^-2;q^-2)_1 doubled: H is unchanged, but the Chu-Vandermonde
# sums that give the expansions of H (or of H^-1) on the eigenvectors of A move
POCHHAMMER_CONTROLS = [
    ("q2_poch", "('ascending', False, 0): Matrix([[0, 0, 0], [2, -35/2, 0], [0, 2, -20]])"),
    ("q2_inv_poch", "('ascending', True, 0): Matrix([[0, 0, 0], [-1/18, 35/72, 0], [0, -1/18, 5/9]])"),
]


@pytest.mark.parametrize("table, witness", POCHHAMMER_CONTROLS, ids=[c[0] for c in POCHHAMMER_CONTROLS])
def test_the_expansions_flip_under_a_doubled_pochhammer_entry(table, witness):
    failing = _failing_after("lusztig", _replaced_table(table, lambda t: (t[0], 2 * t[1]) + t[2:]))
    assert failing == {"lusztig.expansions": ("fail", witness)}


@cache
def _base_model(d, q, a, b):
    if d == 1:
        return model.build_model(ParamSet(1, q, a, b, (F(1),)))
    models = []
    assert model.solve_phi(d, q, a, b, limit=1, models=models)
    return models[0]


@st.composite
def conjugated_pairs(draw):
    """(P A P^-1, P A* P^-1) imported at d <= 3 for a built pair (A, A*) and a dense unimodular integral P."""
    d = draw(st.integers(1, 3))
    q, a, b = draw(st.sampled_from([(F(2), F(3), F(5)), (F(3, 2), F(1, 7), F(2, 9)), (F(-2), F(5), F(3))]))
    base = _base_model(d, q, a, b)
    # P = (I + strictly lower) (I + strictly upper)
    n = d + 1
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
    lower = Matrix([[1 if r == c else entries[r * n + c] if r > c else 0 for c in range(n)] for r in range(n)])
    upper = Matrix([[1 if r == c else entries[r * n + c] if r < c else 0 for c in range(n)] for r in range(n)])
    p = lower * upper
    p_inv = p.inverse()
    return model.assemble_imported(base.params, p * base.A * p_inv, p * base.Astar * p_inv)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(conjugated_pairs())
def test_an_isomorphic_copy_of_a_built_pair_passes_every_check(pair):
    """Each check states a basis-free property of (A, A*), so conjugating the pair by any invertible P keeps it."""
    ctx = suite.TargetContext(pair)
    report = Report("conjugated")
    for name in suite.SUITE_NAMES:
        for check_id, detail, check in suite.SUITES[name]:
            report.run(check_id, detail, partial(check, ctx))
    assert len(report.checks) == 27
    assert [(c.name, c.status, c.residual) for c in report.checks if not c.passed] == []
