"""The package surface: the names `import qonsager` exports and the public attributes of `Matrix` and `Subspace`.

The lists are pinned, so a public name added or removed edits this file and
shows in review beside the code that uses it.
"""

from types import ModuleType

import qonsager
from qonsager.linalg import Matrix, Subspace


def _public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_the_package_exports_these_names():
    # submodules are left out: which of them are attributes depends on what was imported before
    assert _public(n for n, v in vars(qonsager).items() if not isinstance(v, ModuleType)) == [
        "CheckResult", "Decomposition", "LadderSpectra", "LusztigData", "Matrix", "ModelError",
        "ModelIOError", "ParamSet", "ParameterError", "Report", "ShapeError", "SingularMatrixError",
        "SplitMaps", "Subspace", "SuiteConfig", "TDModel", "build_H", "build_model", "build_split_maps",
        "build_triple_table", "check_H_conjugation_of_splits", "check_H_expansions", "check_KA_relations",
        "check_L_conjugation", "check_L_eigenstructure", "check_L_entrywise", "check_R_ladder",
        "check_chu_vandermonde", "check_equitable_triple", "check_irreducible", "check_qdg",
        "check_split_flags", "check_tridiagonal_action", "export_model", "format_scalar", "import_model",
        "kernel", "load_config", "lusztig_images", "make_file_target", "make_param_target",
        "map_from_decomposition", "p_poly", "parse_scalar", "q_poch", "qweyl_residual", "recover_a",
        "rref", "run_suite", "solve_phi", "spectrum_path", "split_decomposition", "t_coeff",
        "verify_diagrams", "verify_triple_table",
    ]


def test_matrix_and_subspace_have_these_public_attributes():
    assert _public(dir(Matrix)) == [
        "cached_inverse", "cols", "denominator", "entries", "identity", "inverse", "is_zero",
        "numerators", "rows", "scale",
    ]
    assert _public(dir(Subspace)) == [
        "ambient_dim", "basis", "denominator", "image_under", "is_zero", "numerators", "rank", "zero",
    ]
