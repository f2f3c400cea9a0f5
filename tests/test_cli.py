import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from qonsager.cli import main
from qonsager.suite import ConfigError, load_config

GOLDEN_ARGS = ["--d", "1", "--q", "2", "--a", "3", "--b", "5", "--phi", "1"]


def test_verify_inline_golden_passes(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    code = main(["verify", *GOLDEN_ARGS, "--suite", "all", "--output", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.out
    lines = out.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in records)
    assert any(r["check"] == "model.qdg" for r in records)


def test_verify_invalid_paramset_is_check_failure(capsys):
    # a^2 = q^(2d-2) must surface as a failed validation entry, exit 1.
    code = main(["verify", "--d", "2", "--q", "2", "--a", "2", "--b", "5", "--suite", "model"])
    captured = capsys.readouterr()
    assert code == 1
    assert "paramset.validate" in captured.out


def test_verify_requires_some_target(capsys):
    code = main(["verify"])
    assert code == 2


def test_verify_unknown_suite_is_config_error(capsys):
    code = main(["verify", *GOLDEN_ARGS, "--suite", "nonsense"])
    assert code == 2


def test_verify_config_with_target_flags_is_config_error(capsys, tmp_path):
    # the config alone sets targets, suites and output; the flags would be ignored
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"targets": [{"d": 1, "q": "2", "a": "3", "b": "5", "phi": ["1"]}]}))
    args = ["--config", str(cfg_path), "--file", "x.model", "--d", "2", "--suite", "model"]
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --config sets targets, suites and output; --file, --d, --suite would be ignored\n"


def test_verify_phi_without_an_inline_target_is_config_error(capsys):
    assert main(["verify", "--file", "x.model", "--phi", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --phi belongs to an inline target, which needs --d, --q, --a and --b\n"


def test_verify_missing_config_file(capsys):
    code = main(["verify", "--config", "/nonexistent/config.json"])
    assert code == 2


def test_verify_config_file_run(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    config = {
        "suites": ["scalars", "model"],
        "output": str(out),
        "targets": [
            {"d": 1, "q": "2", "a": "3", "b": "5", "phi": ["1"]},
            {"d": 2, "q": "2", "a": "3", "b": "5"},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["verify", "--config", str(cfg_path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("PASS") == 2
    assert out.exists()


def test_verify_file_target_failing_qdg(capsys, tmp_path):
    # An imported pair with the right spectra but a twisted basis assembles
    # cleanly, then fails the relation check with a residual matrix witness.
    # (At d = 1 the relations hold for any pair with adjacent spectra, so the
    # twist must be applied at d = 2.)
    from qonsager.model import build_model, solve_phi
    from qonsager.modelio import format_matrix
    from qonsager.linalg import Matrix
    from qonsager.scalars import ParamSet

    phi = solve_phi(2, F(2), F(3), F(5), limit=1)[0]
    model = build_model(ParamSet(2, F(2), F(3), F(5), phi))
    s = Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    twisted = s * model.Astar * s.inverse()
    model_path = tmp_path / "twisted.model"
    model_path.write_text(
        f"2 2 3 5\nA:\n{format_matrix(model.A)}\nAstar:\n{format_matrix(twisted)}\n"
    )
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--file", str(model_path), "--suite", "model", "--output", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    qdg = next(r for r in records if r["check"] == "model.qdg")
    assert qdg["status"] == "fail"
    assert isinstance(qdg["residual"], list)  # exact residual matrix, row-major


def test_verify_file_target_wrong_spectrum(capsys, tmp_path):
    # A pair that is not diagonalizable with the header spectrum fails at load.
    model_path = tmp_path / "broken.model"
    model_path.write_text(
        "1 2 3 5\n"
        "A:\n2 2\n37/6 0\n1 13/6\n"
        "Astar:\n2 2\n10 1\n0 29/10\n"
    )
    out = tmp_path / "report.jsonl"
    code = main(["verify", "--file", str(model_path), "--suite", "model", "--output", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    (record,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert (record["check"], record["status"]) == ("target.load", "fail")
    assert record["detail"] == "model file semantic validation"
    # theta*_0 = 101/10 is not an eigenvalue of this A*.
    assert record["residual"] == "eigenvalue 101/10 has no eigenvector"


def test_verify_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    for out in (out1, out2):
        assert main(["verify", *GOLDEN_ARGS, "--output", str(out), "--quiet"]) == 0

    def strip_timing(path):
        rows = []
        for line in path.read_text().strip().splitlines():
            record = json.loads(line)
            record.pop("elapsed_ms")
            rows.append(record)
        return rows

    assert strip_timing(out1) == strip_timing(out2)


def test_solve_phi_command(capsys):
    code = main(["solve-phi", "--d", "2", "--q", "2", "--a", "3", "--b", "5", "--limit", "2"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [line for line in captured.out.splitlines() if line.strip()]
    assert 1 <= len(lines) <= 2
    assert all(len(line.split()) == 2 for line in lines)


def test_solve_phi_invalid_params_exits_one(capsys):
    code = main(["solve-phi", "--d", "2", "--q", "2", "--a", "2", "--b", "5"])
    assert code == 1


def test_solved_negative_phi_passes_back_through_verify(capsys):
    params = ["--d", "2", "--q", "-2", "--a", "3", "--b", "5"]
    assert main(["solve-phi", *params, "--limit", "1"]) == 0
    phi = capsys.readouterr().out.split()
    assert phi == ["-2883/16", "-867/16"]
    assert main(["verify", *params, "--phi", *phi, "--quiet"]) == 0
    assert "d=2 q=-2 a=3 b=5: PASS (27/27 checks passed)" in capsys.readouterr().out


def test_negative_fraction_q_is_a_value(capsys):
    assert main(["verify", "--d", "2", "--q", "-3/2", "--a", "3", "--b", "5", "--quiet"]) == 0
    assert "d=2 q=-3/2 a=3 b=5: PASS (27/27 checks passed)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "2", "--qq", "-3/2", "--a", "3", "--b", "5"],
    ["verify", "--d", "2", "--q", "-3/2x", "--a", "3", "--b", "5"],
    ["solve-phi", "--d", "2", "--q", "2", "--a", "3", "--b", "5", "--limti", "1"],
])
def test_misspelt_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("d", ["1", "2"])
@pytest.mark.parametrize("limit", ["0", "-1", "x"])
def test_solve_phi_limit_below_one_is_a_usage_error(capsys, d, limit):
    with pytest.raises(SystemExit) as exc:
        main(["solve-phi", "--d", d, "--q", "2", "--a", "3", "--b", "5", "--limit", limit])
    assert exc.value.code == 2
    assert "argument --limit" in capsys.readouterr().err


def test_export_import_round_trip(capsys, tmp_path):
    path = tmp_path / "exported.model"
    code = main(["export", "--d", "1", "--q", "2", "--a", "3", "--b", "5", "--phi", "1", "--out", str(path)])
    assert code == 0
    code = main(["import", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "constructed" in captured.out


def test_export_without_phi_solves(capsys, tmp_path):
    path = tmp_path / "solved.model"
    code = main(["export", "--d", "2", "--q", "2", "--a", "3", "--b", "5", "--out", str(path)])
    assert code == 0
    assert main(["import", str(path)]) == 0


def test_export_without_phi_builds_the_model_once(capsys, tmp_path, monkeypatch):
    from qonsager import cli, model

    original, calls = model.build_model, []

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(model, "build_model", counted)
    monkeypatch.setattr(cli, "build_model", counted)
    path = tmp_path / "solved.model"
    assert main(["export", "--d", "4", "--q", "2", "--a", "3", "--b", "5", "--out", str(path)]) == 0
    assert len(calls) == 1


def test_import_missing_file_is_io_error(capsys):
    code = main(["import", "/nonexistent/file.model"])
    assert code == 2


def test_import_malformed_file_is_io_error(capsys, tmp_path):
    path = tmp_path / "malformed.model"
    path.write_text("not a header\n")
    code = main(["import", str(path)])
    assert code == 2


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def _write_config(tmp_path, **fields):
    config = {"suites": ["scalars"], "targets": [{"d": 1, "q": "2", "a": "3", "b": "5", "phi": ["1"]}]}
    config.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


PARAM_TARGET = {"d": 1, "q": "2", "a": "3", "b": "5", "phi": ["1"]}


@pytest.mark.parametrize(
    "fields, key, valid",
    [
        pytest.param({"parallel": value}, "parallel", "targets, suites, output", id=f"parallel-{value}")
        for value in ("false", "true", 0, 1, None, False, True)
    ]
    + [
        pytest.param({"suite": ["all"]}, "suite", "targets, suites, output", id="suite"),
        pytest.param(
            {"targets": [{**PARAM_TARGET, "phy": ["7"]}]}, "phy", "d, q, a, b, phi", id="target-phy"
        ),
        pytest.param({"targets": [{"file": "m.model", "d": 1}]}, "d", "file", id="file-target-with-d"),
    ],
)
def test_load_config_rejects_unknown_key(tmp_path, fields, key, valid):
    message = f"unknown key '{key}'; valid: {valid}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(_write_config(tmp_path, **fields)))


def test_unknown_config_key_exits_2(capsys, tmp_path):
    # A misspelt key must not run the config as if the key were absent.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"targets": [{**PARAM_TARGET, "phy": ["7"]}], "suite": ["scalars"]}))
    assert main(["verify", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "unknown key 'suite'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param({"output": 1}, "'output' must be a string, got 1", id="output-int"),
        pytest.param({"output": ["r.jsonl"]}, "'output' must be a string, got ['r.jsonl']", id="output-list"),
        pytest.param({"suites": "scalars"}, "'suites' must be a list of suite names, got 'scalars'", id="suites-str"),
        pytest.param({"suites": ["scalars", 1]}, "'suites' must be a list of suite names, got ['scalars', 1]", id="suites-int"),
        pytest.param({"suites": None}, "'suites' must be a list of suite names, got None", id="suites-null"),
    ],
)
def test_load_config_rejects_mistyped_value(tmp_path, fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(_write_config(tmp_path, **fields)))


def test_suites_as_a_string_exits_2_naming_the_key(capsys, tmp_path):
    path = _write_config(tmp_path, suites="scalars")
    assert main(["verify", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "'suites' must be a list of suite names" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("phi", [["1/0"], ["x"], "1/0", 5])
def test_bad_phi_in_config_is_config_error(capsys, tmp_path, phi):
    target = {"d": 1, "q": "2", "a": "3", "b": "5", "phi": phi}
    path = _write_config(tmp_path, targets=[target])
    assert main(["verify", "--config", str(path), "--quiet"]) == 2
    assert "target 0" in capsys.readouterr().err


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(examples) == 1
    path = tmp_path / "config.json"
    path.write_text(examples[0])
    cfg = load_config(str(path))
    assert cfg.targets and cfg.suites


def test_undecodable_model_file_is_a_load_failure_and_import_exits_2(capsys, tmp_path):
    path = tmp_path / "bin.model"
    path.write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "report.jsonl"
    assert main(["verify", "--file", str(path), *GOLDEN_ARGS, "--output", str(out), "--quiet"]) == 1
    summaries = capsys.readouterr().out.splitlines()
    assert summaries == [f"{path}: FAIL (0/1 checks passed)", "d=1 q=2 a=3 b=5: PASS (27/27 checks passed)"]
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert (records[0]["check"], records[0]["status"]) == ("target.load", "fail")
    assert records[0]["residual"] == f"{path}:1: not UTF-8 text"
    assert len(records) == 1 + 27
    assert main(["import", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: not UTF-8 text\n"


def test_undecodable_config_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        load_config(str(path))
    assert main(["verify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: not UTF-8 text\n"
    assert captured.out == ""


@pytest.mark.parametrize("d, shown", [(2.7, "2.7"), (True, "true"), ("2.5", '"2.5"'), ("2", '"2"')])
def test_config_d_must_be_a_json_integer(capsys, tmp_path, d, shown):
    path = _write_config(tmp_path, targets=[{**PARAM_TARGET, "d": d}])
    message = f"target 0: 'd' must be an integer, got {shown}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))
    assert main(["verify", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param({"targets": 5}, "'targets' must be a list of target objects, got 5", id="targets-int"),
        pytest.param({"targets": None}, "'targets' must be a list of target objects, got None", id="targets-null"),
        pytest.param({"targets": "ab"}, "'targets' must be a list of target objects, got 'ab'", id="targets-str"),
        pytest.param({"suites": []}, "config needs at least one suite; 'suites' is empty", id="suites-empty"),
        pytest.param({"targets": [{"file": 5}]}, "target 0: 'file' must be a string, got 5", id="file-int"),
    ],
)
def test_malformed_config_exits_2_naming_the_key(capsys, tmp_path, fields, message):
    path = _write_config(tmp_path, **fields)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))
    assert main(["verify", "--config", str(path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["verify", "--d", "2", "--q", "abc", "--a", "3", "--b", "5"], "--q", id="verify-q"),
        pytest.param(["verify", "--d", "2", "--q", "2", "--a", "3", "--b", "5", "--phi", "1", "x"], "--phi", id="verify-phi"),
        pytest.param(["solve-phi", "--d", "2", "--q", "2", "--a", "3/0", "--b", "5"], "--a", id="solve-phi-a"),
        pytest.param(["export", *GOLDEN_ARGS[:-1], "1", "x", "--out", "m.model"], "--phi", id="export-phi"),
        pytest.param(["export", "--d", "1", "--q", "2", "--a", "3", "--b", "1/0", "--out", "m.model"], "--b", id="export-b"),
    ],
)
def test_malformed_inline_scalar_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: bad scalar token" in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()
