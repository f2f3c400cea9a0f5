from fractions import Fraction as F

import pytest

from qonsager.linalg import Matrix
from qonsager.model import ModelError, build_model
from qonsager.modelio import (
    ModelIOError,
    export_model,
    format_matrix,
    import_model,
    parse_matrix,
)
from qonsager.scalars import ParameterError, ParamSet

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def test_matrix_format_round_trip():
    m = Matrix([[F(37, 6), 0], [1, F(13, 6)]])
    assert parse_matrix(format_matrix(m)) == m


def test_parse_matrix_rejects_wrong_count():
    with pytest.raises(ParameterError):
        parse_matrix("2 2\n1 2 3")


def test_parse_matrix_rejects_zero_denominator():
    with pytest.raises(ParameterError):
        parse_matrix("1 2\n1/0 2")


def test_model_round_trip_constructed(tmp_path):
    model = build_model(GOLDEN)
    path = tmp_path / "golden.model"
    export_model(model, str(path))
    again = import_model(str(path))
    assert again.A == model.A
    assert again.Astar == model.Astar
    assert again.params == model.params
    assert again.theta == model.theta
    assert again.constructed


def test_model_round_trip_imported_pair(tmp_path):
    path = tmp_path / "pair.model"
    path.write_text(
        "1 2 3 5\n"
        "A:\n2 2\n37/6 0\n1 13/6\n"
        "Astar:\n2 2\n101/10 1\n0 29/10\n"
    )
    model = import_model(str(path))
    assert not model.constructed
    assert model.A == Matrix([[F(37, 6), 0], [1, F(13, 6)]])
    out = tmp_path / "pair2.model"
    export_model(model, str(out))
    again = import_model(str(out))
    assert again.A == model.A and again.Astar == model.Astar


def test_import_accepts_wrapped_matrix_tokens(tmp_path):
    path = tmp_path / "wrapped.model"
    path.write_text(
        "1 2 3 5\n"
        "A:\n2 2\n37/6 0 1\n13/6\n"
        "Astar:\n2 2\n101/10\n1 0 29/10\n"
    )
    model = import_model(str(path))
    assert model.A == Matrix([[F(37, 6), 0], [1, F(13, 6)]])


def test_import_parses_comments_and_blank_lines(tmp_path):
    path = tmp_path / "commented.model"
    path.write_text("# golden parameters\n\n1 2 3 5\nphi: 1  # any nonzero value works at d=1\n")
    model = import_model(str(path))
    assert model.params == GOLDEN


def test_import_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("1 2 3\nphi: 1\n")
    with pytest.raises(ModelIOError) as err:
        import_model(str(path))
    assert err.value.line == 1


def test_import_rejects_zero_denominator_token(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("1 2 3/0 5\nphi: 1\n")
    with pytest.raises(ModelIOError):
        import_model(str(path))


def test_import_rejects_missing_body(tmp_path):
    path = tmp_path / "empty.model"
    path.write_text("1 2 3 5\n")
    with pytest.raises(ModelIOError):
        import_model(str(path))


@pytest.mark.parametrize(
    "block, after",
    [
        ("A", "Astar:\n2 2\n101/10 1\n0 29/10\n"),
        ("Astar", "phi: 1\n"),
        ("Astar", "A:\n2 2\n1 0\n0 1\n"),
    ],
)
def test_short_block_stops_at_the_next_label(tmp_path, block, after):
    # The block has 2 of its 4 entries; the label line after it is not one of them.
    path = tmp_path / "short.model"
    path.write_text(f"1 2 3 5\n{block}:\n2 2\n1 0\n{after}")
    with pytest.raises(ModelIOError) as err:
        import_model(str(path))
    assert err.value.line == 3
    assert str(err.value) == f"{path}:3: expected 4 entries, got 2"


def test_import_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "mismatch.model"
    path.write_text(
        "2 2 3 5\n"  # d = 2 wants 3x3 blocks
        "A:\n2 2\n37/6 0\n1 13/6\n"
        "Astar:\n2 2\n101/10 1\n0 29/10\n"
    )
    with pytest.raises(Exception) as err:
        import_model(str(path))
    assert "3x3" in str(err.value) or "shape" in str(err.value).lower()


def test_import_propagates_semantic_failures(tmp_path):
    # phi violating the defining relations is a model failure, not an IO error.
    path = tmp_path / "badphi.model"
    path.write_text("2 2 3 5\nphi: 1 1\n")
    with pytest.raises(ModelError):
        import_model(str(path))


def test_import_rejects_invalid_paramset(tmp_path):
    path = tmp_path / "badparams.model"
    path.write_text("2 2 2 5\nphi: 1 1\n")  # a^2 = q^2
    with pytest.raises(ParameterError):
        import_model(str(path))


A_BLOCK = "A:\n2 2\n1 0\n0 1\n"
ASTAR_BLOCK = "Astar:\n2 2\n5 0\n0 7\n"


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("phi: 1\n" + A_BLOCK + ASTAR_BLOCK, 3, "A: conflicts with the phi: definition at line 2"),
        (A_BLOCK + ASTAR_BLOCK + "phi: 1\n", 10, "phi: conflicts with the A: definition at line 2"),
        ("phi: 1\nphi: 2\n", 3, "phi: conflicts with the phi: definition at line 2"),
        (A_BLOCK + ASTAR_BLOCK + A_BLOCK, 10, "A: conflicts with the A: definition at line 2"),
        (A_BLOCK + ASTAR_BLOCK + ASTAR_BLOCK, 10, "Astar: conflicts with the Astar: definition at line 6"),
    ],
    ids=["phi-then-blocks", "blocks-then-phi", "two-phi", "two-A", "two-Astar"],
)
def test_import_rejects_a_second_definition(tmp_path, body, line, message):
    path = tmp_path / "conflict.model"
    path.write_text("1 2 3 5\n" + body)
    with pytest.raises(ModelIOError) as err:
        import_model(str(path))
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: {message}")


def test_import_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.model"
    path.write_bytes("1 2 3 5\n# caf\u00e9\nphi: 1\n".encode("latin-1"))
    with pytest.raises(ModelIOError, match="not UTF-8 text") as exc:
        import_model(str(path))
    assert exc.value.line == 2
