"""Exact rational verification of q-Onsager algebra module identities.

Builds explicit matrix models of the two-generator modules (split-basis
Leonard pairs of q-Racah type) and machine-verifies, in exact arithmetic,
the q-Dolan/Grady relations, the conjugating operator H and its polynomial
expansions, the split maps K, B and their inverted analogues, the eight
equitable triples, and the flag identities of the comparison diagrams.
"""

from .equitable import (
    build_triple_table,
    check_equitable_triple,
    qweyl_residual,
    verify_diagrams,
    verify_triple_table,
)
from .linalg import (
    Decomposition,
    Matrix,
    ShapeError,
    SingularMatrixError,
    Subspace,
    kernel,
    rref,
)
from .lusztig import (
    LusztigData,
    build_H,
    check_H_expansions,
    check_L_conjugation,
    check_L_eigenstructure,
    check_L_entrywise,
    lusztig_images,
)
from .model import (
    ModelError,
    TDModel,
    build_model,
    check_irreducible,
    check_qdg,
    check_tridiagonal_action,
    recover_a,
    solve_phi,
    spectrum_path,
)
from .modelio import ModelIOError, export_model, import_model
from .report import CheckResult, Report
from .scalars import (
    ParameterError,
    ParamSet,
    check_chu_vandermonde,
    format_scalar,
    p_poly,
    parse_scalar,
    q_poch,
    t_coeff,
)
from .splitmaps import (
    LadderSpectra,
    SplitMaps,
    build_split_maps,
    check_H_conjugation_of_splits,
    check_KA_relations,
    check_R_ladder,
    check_split_flags,
    map_from_decomposition,
    split_decomposition,
)
from .suite import SuiteConfig, load_config, make_file_target, make_param_target, run_suite

__version__ = "0.1.0"
