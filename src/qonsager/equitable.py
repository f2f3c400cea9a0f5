"""q-Weyl pairs, the eight equitable triples, and the flag assertions of the diagrams.

An equitable triple is three invertible maps X, Y, Z with
(q XY - q^-1 YX)/(q - q^-1) = I for the cyclically ordered pairs (X,Y),
(Y,Z), (Z,X). The eight rows of the triple table tie the split maps, their
inverses, and the combinations a A - a^2 K (etc.) to M, N and their down
analogues.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import (
    Matrix,
    SingularMatrixError,
    is_qweyl_pair,
    qweyl_bracket,
    shifted_product_images,
)
from .lusztig import LusztigData
from .model import ModelError, TDModel
from .splitmaps import LadderSpectra, SplitMaps, orientations, split_mismatches


def qweyl_residual(x: Matrix, y: Matrix, q: Fraction) -> Matrix:
    """(q XY - q^-1 YX)/(q - q^-1) - I."""
    return qweyl_bracket(x, y, q) - Matrix.identity(x.rows)


def check_equitable_triple(x: Matrix, y: Matrix, z: Matrix, q: Fraction):
    """All three cyclic q-Weyl relations, with invertibility verified first.

    Invertibility is certified by the memoized `Matrix.inverse()`.
    Returns (passed, failures) as (name, residual); a singular input is
    reported as a failure entry rather than raised. The residual matrix is
    built only for a relation that fails.
    """
    failures = []
    for name, mat in (("X", x), ("Y", y), ("Z", z)):
        try:
            mat.inverse()
        except SingularMatrixError as exc:
            failures.append((f"{name} invertible", str(exc)))
    if failures:
        return False, failures
    for name, left, right in (("(X,Y)", x, y), ("(Y,Z)", y, z), ("(Z,X)", z, x)):
        if not is_qweyl_pair(left, right, q):
            failures.append((f"q-Weyl {name}", qweyl_residual(left, right, q)))
    return not failures, failures


def build_triple_table(s: SplitMaps) -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """The eight equitable-triple rows (label, X, Y, Z) from the split maps and their H-conjugates.

    Rows 1-4 are (H X^-1 H^-1, M^-1 or Mdown^-1, X) and rows 5-8 are
    (X^-1, N^-1 or Ndown^-1, H^-1 X H) for X = K, B, Kdown, Bdown, with the
    conjugates in their closed forms, such as a A - a^2 K for H K^-1 H^-1.
    """
    m_inv = s.M.inverse()
    n_inv = s.N.inverse()
    md_inv = s.Mdown.inverse()
    nd_inv = s.Ndown.inverse()
    conj, conj_inv = s.conjugates
    return (
        ("1", conj_inv["K"], m_inv, s.K),
        ("2", conj_inv["B"], m_inv, s.B),
        ("3", conj_inv["Kdown"], md_inv, s.Kdown),
        ("4", conj_inv["Bdown"], md_inv, s.Bdown),
        ("5", s.K.inverse(), n_inv, conj["K"]),
        ("6", s.B.inverse(), n_inv, conj["B"]),
        ("7", s.Kdown.inverse(), nd_inv, conj["Kdown"]),
        ("8", s.Bdown.inverse(), nd_inv, conj["Bdown"]),
    )


def verify_triple_table(model: TDModel, table):
    """Every row (label, X, Y, Z) of `table` passes all three cyclic q-Weyl relations exactly.

    Returns (passed, failures) as (row label, name, residual).
    """
    q = model.params.q
    failures = []
    for label, x, y, z in table:
        ok, row_failures = check_equitable_triple(x, y, z, q)
        if not ok:
            failures.extend((label, name, resid) for name, resid in row_failures)
    return not failures, failures


def check_qweyl_ladder(x: Matrix, y: Matrix, q: Fraction, spectra: LadderSpectra):
    """The ladder and crossing-flag consequences of a q-Weyl pair (`qweyl_ladder`), after its precondition.

    The precondition that (X, Y) satisfies the q-Weyl relation is reported
    as a failure of its own. Returns (passed, failures).
    """
    if not is_qweyl_pair(x, y, q):
        return False, [("precondition", "the pair does not satisfy the q-Weyl relation")]
    return qweyl_ladder(x, y, q, spectra)


def qweyl_ladder(x: Matrix, y: Matrix, q: Fraction, spectra: LadderSpectra):
    """The ladder and crossing-flag consequences of the q-Weyl pair (X, Y).

    Precondition, reported distinctly: both are diagonalizable with the
    eigenvalues q^d, ..., q^-d of `spectra`. Then
    (i) (X - q^-2 lam I)(Y - lam^-1 I) kills the lam-eigenspace of X for each
    eigenvalue lam, and (ii) Y_0+...+Y_i = X_(d-i)+...+X_d for every i.
    Step (i) maps the basis vectors of X's eigenspaces, with no elimination
    unless a step fails; the witness is then the image of the eigenspace.
    Step (ii) is read off the change of basis between the two eigenbases.
    Eigenspace decompositions come from `spectra`.
    Returns (passed, failures).
    """
    q = Fraction(q)
    try:
        x_dec = spectra.decomposition(x)
        y_dec = spectra.decomposition(y)
    except ModelError as exc:
        return False, [("precondition", f"eigenvalue ladder missing: {exc}")]
    failures = []
    eigs = spectra.eigenvalues
    images = shifted_product_images(x_dec, x, y, [lam / (q * q) for lam in eigs], [1 / lam for lam in eigs])
    for lam, image in zip(eigs, images):
        if not image.is_zero():
            failures.append((f"ladder step from X-eigenvalue {lam}", image))
    for i in y_dec.flag_mismatches(x_dec.inversion()):
        failures.append((f"crossing flags at {i}", "Y_0+...+Y_i != X_(d-i)+...+X_d"))
    return not failures, failures


def verify_diagrams(
    model: TDModel,
    lus: LusztigData,
    s: SplitMaps,
    spectra: LadderSpectra,
    table_check,
):
    """The flag and split-map assertions of the two big comparison diagrams.

    Checks, all exactly:
      - N-flags: N_0+...+N_i = V+_0+...+V+_i and N_i+...+N_d = V*_0+...+V*_(d-i);
        mirrored for Ndown with both orders reversed.
      - M-flags: M_0+...+M_i = V*_0+...+V*_i and M_i+...+M_d = V-_0+...+V-_(d-i);
        mirrored for Mdown.
      - Lower-half edges: the split maps of the pair (A, L(A*)) equal
        a^-1 A - a^-2 K^-1 (K slot), a A - a^2 B^-1 (B slot) and the down
        analogues; those of (A, L^-1(A*)) are the inverses of a A - a^2 K,
        a^-1 A - a^-2 B and the down analogues. These are the H-conjugates
        kept on `s`. A slot holds when the conjugate's ladder decomposition
        W in `spectra` (inverted for the L^-1 pair) is the split
        decomposition of the V+ (V-) and A orders: its map is then the
        conjugate. A slot fails with "flag mismatch", or with the text of
        the ModelError when the conjugate has no ladder decomposition.
      - Oriented 3-cycles: delegated to the eight table rows.
    N, Ndown, M and Mdown are the split decompositions of (V+, V* reversed),
    (V+ reversed, V*), (V*, V- reversed) and (V* reversed, V-), so every
    claim is one `split_mismatches` test. The M/N and conjugate
    decompositions come from `spectra`, and the table verdict is
    `table_check`, the `verify_triple_table` result on the model's table.
    Returns (passed, failures) as (name, witness).
    """
    d = model.d
    failures = []

    def expect(name: str, condition: bool) -> None:
        if not condition:
            failures.append((name, "flag mismatch"))

    vstar, vplus, vminus = model.eigenspaces_Astar, lus.Vplus, lus.Vminus
    # (matrix, star order, A order, ascending name, descending name, whether descending name i tests flag d - i)
    claims = [
        (s.N, vplus, vstar.inversion(), "N flag {}: ascending = V+ ascending",
         "N flag {}: descending = V* ascending reversed", True),
        (s.Ndown, vplus.inversion(), vstar, "Ndown flag {}: ascending = V+ descending",
         "Ndown flag {}: descending = V* descending", False),
        (s.M, vstar, vminus.inversion(), "M flag {}: ascending = V* ascending",
         "M flag {}: descending = V- ascending reversed", True),
        (s.Mdown, vstar.inversion(), vminus, "Mdown flag {}: ascending = V* descending",
         "Mdown flag {}: descending = V- descending", False),
    ]
    families = []
    for mat, star_ref, a_ref, ascending_name, descending_name, mirrored in claims:
        ascending, descending = split_mismatches(spectra.decomposition(mat), star_ref, a_ref)
        families += [(ascending_name, ascending, False), (descending_name, descending, mirrored)]
    for i in range(d + 1):
        for name, mismatches, mirrored in families:
            expect(name.format(i), (d - i if mirrored else i) not in mismatches)

    # Split maps of the twisted pairs: the H^-1 X H closed forms for (A, L(A*)),
    # the inverses of the H X^-1 H^-1 closed forms for (A, L^-1(A*)).
    conj, conj_inv = s.conjugates
    for slot_name, twisted, labels, inverted in (
        ("(A, L(A*)) split map at {} slot", vplus, conj, False),
        ("(A, L^-1(A*)) split map at {} slot times its label", vminus, conj_inv, True),
    ):
        for name, star_ref, a_ref in orientations(twisted, model.eigenspaces_A):
            try:
                w = spectra.decomposition(labels[name])
            except ModelError as exc:
                failures.append((slot_name.format(name), str(exc)))
                continue
            ascending, descending = split_mismatches(w.inversion() if inverted else w, star_ref, a_ref)
            expect(slot_name.format(name), not ascending and not descending)

    # Oriented 3-cycles are equitable triples: the eight table rows.
    ok, table_failures = table_check
    if not ok:
        failures.extend(
            (f"3-cycle row {label}: {name}", resid) for label, name, resid in table_failures
        )
    return not failures, failures
