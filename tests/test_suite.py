"""The per-target context: each shared structure is built once, and a
structure or check that raises, or a model file that cannot be read,
becomes a record instead of ending the batch.

`tests/data/split_error_d2.model` is an imported d = 2 pair whose A* has the
right spectrum but is not tridiagonal with respect to A, so its split
decompositions are not direct sums and `build_split_maps` raises.
"""

import json
import re
from fractions import Fraction as F
from functools import cached_property
from pathlib import Path

import pytest

from qonsager import equitable, linalg, lusztig, model, scalars, splitmaps, suite
from qonsager.cli import main
from qonsager.linalg import Matrix
from qonsager.report import Report
from qonsager.scalars import ParamSet

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


TABLES = ("thetas", "theta_stars", "ts", "q2_poch", "q2_inv_poch")


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
            (lusztig, "expand_H"),
            (linalg, "is_qweyl_pair"),
            (model, "qdg_residuals"),
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

    def counted_inverse(self):
        if looking_up:
            ladder_inverses.append(self)
        return inverse(self)

    meets, flag_meets = [], linalg.Decomposition.flag_meets

    def counted_meets(self, ref):
        meets.append(self)
        return flag_meets(self, ref)

    builds = {name: _count_table_builds(monkeypatch, name) for name in TABLES}
    monkeypatch.setattr(linalg.Decomposition, "flag_meets", counted_meets)
    monkeypatch.setattr(splitmaps.LadderSpectra, "decomposition", counted_decomposition)
    monkeypatch.setattr(Matrix, "inverse", counted_inverse)
    contexts, context = [], suite.TargetContext

    def recorded_context(m):
        contexts.append(context(m))
        return contexts[-1]

    monkeypatch.setattr(suite, "TargetContext", recorded_context)
    report = suite.run_target(suite.make_param_target(2, F(2), F(3), F(5)), suite.SUITE_NAMES)
    assert report.all_passed and len(report.checks) == 27
    for name in ("build_model", "build_H", "build_split_maps"):
        assert len(calls[name]) == 1, name
    # the eight H-conjugates: two closed forms for each of K, B, Kdown and
    # Bdown, derived once from the split maps; the triple table holds those objects
    assert len(calls["h_conjugates"]) == 4
    ctx = contexts[0]
    rows = ctx.triple_table
    conj, conj_inv = ctx.split_maps.conjugates
    names = ("K", "B", "Kdown", "Bdown")
    assert all(row[1] is conj_inv[x] for row, x in zip(rows[:4], names))
    assert all(row[3] is conj[x] for row, x in zip(rows[4:], names))
    # each expand_H call pairs the H and H^-1 expansions at one anchor and variant
    assert len(calls["expand_H"]) == 2 * (2 + 1)
    # the table tests each of its 24 pairs once and the ladders read its verdicts;
    # build_model and model.qdg share one evaluation of the q-Dolan/Grady residuals
    assert len(calls["is_qweyl_pair"]) == 24
    assert len(calls["qdg_residuals"]) == 1
    # 24 distinct matrices go through the q-ladder: K, B, Kdown and Bdown come
    # with their split decompositions, 8 take the reversed decomposition of
    # an inverse that was already decomposed, the 8 H-conjugates and N, Ndown
    # are transported by H, and the ladder computes no inverse. Only M and
    # Mdown are left to the kernels; the model decomposes A and A* once each.
    assert len(calls["eigenspace_decomposition"]) <= 2 + 2
    assert not ladder_inverses
    # the four split decompositions of the model are flag meets; those of the
    # twisted pairs are the conjugates' ladder decompositions, certified by flags
    assert len(meets) == 4
    # build_model rejects a pair that is not tridiagonal or is reducible;
    # model.tridiagonal and model.irreducible read its verdicts.
    assert len(calls["check_tridiagonal_action"]) == 1
    assert len(calls["check_irreducible"]) == 1
    # the solved target's ParamSet builds each scalar table once
    for name in TABLES:
        assert len(builds[name]) == 1, name
    assert builds["thetas"][0] is builds["ts"][0] is calls["build_model"][0][0]


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
