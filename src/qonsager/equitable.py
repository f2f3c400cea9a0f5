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
from .splitmaps import (
    LadderSpectra,
    SplitMaps,
    expect_zero,
    map_from_decomposition,
    orientations,
    split_decomposition,
)


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
    """The ladder and crossing-flag consequences of a q-Weyl pair.

    Preconditions reported distinctly: (X, Y) satisfies the q-Weyl relation
    and both are diagonalizable with the eigenvalues q^d, ..., q^-d of
    `spectra`. Then
    (i) (X - q^-2 lam I)(Y - lam^-1 I) kills the lam-eigenspace of X for each
    eigenvalue lam, and (ii) Y_0+...+Y_i = X_(d-i)+...+X_d for every i.
    Step (i) maps the basis vectors of X's eigenspaces, with no elimination
    unless a step fails; the witness is then the image of the eigenspace.
    Step (ii) is read off the change of basis between the two eigenbases.
    Eigenspace decompositions come from `spectra`.
    Returns (passed, failures).
    """
    q = Fraction(q)
    failures = []
    if not is_qweyl_pair(x, y, q):
        failures.append(("precondition", "the pair does not satisfy the q-Weyl relation"))
    try:
        x_dec = spectra.decomposition(x)
        y_dec = spectra.decomposition(y)
    except ModelError as exc:
        failures.append(("precondition", f"eigenvalue ladder missing: {exc}"))
        return False, failures
    if failures:
        return False, failures
    eigs = spectra.eigenvalues
    images = shifted_product_images(x_dec, x, y, [lam / (q * q) for lam in eigs], [1 / lam for lam in eigs])
    for lam, image in zip(eigs, images):
        if not image.is_zero():
            failures.append((f"ladder step from X-eigenvalue {lam}", image))
    for i in y_dec.flag_mismatches(x_dec.inversion()):
        failures.append((f"crossing flags at {i}", "Y_0+...+Y_i != X_(d-i)+...+X_d"))
    return not failures, failures


def _ladder_is_split(spectra: LadderSpectra, x: Matrix, star_ref, a_ref, inverted: bool = False) -> bool:
    """Whether x's ladder decomposition W, inverted if asked, is the split decomposition of the two orders.

    W's ascending flag equal to that of `star_ref` and its descending flag
    equal to that of `a_ref` make both meets (star_0+...+star_i) meet
    (a_i+...+a_d) sums of W-parts, so each is W_i: W is the split
    decomposition, and its map is x (x^-1 if `inverted`). False when x has
    no ladder decomposition or a flag differs.
    """
    try:
        w = spectra.decomposition(x)
    except ModelError:
        return False
    if inverted:
        w = w.inversion()
    return not w.flag_mismatches(star_ref) and not w.inversion().flag_mismatches(a_ref.inversion())


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
        kept on `s`. Each is proved from the conjugate's ladder
        decomposition W in `spectra` (inverted for the L^-1 pair): when
        W's ascending flag is the V+ (V-) flag and its descending flag is
        the A flag, W is the split decomposition and the conjugate is its
        map. Otherwise the split decomposition is built from flag meets and
        its map compared, which gives the verdict and the witness.
      - Oriented 3-cycles: delegated to the eight table rows.
    Each flag family is read off one change of basis between two eigenbases
    (`Decomposition.flag_mismatches`). The M/N and conjugate decompositions
    come from `spectra`, and the table verdict is `table_check`, the
    `verify_triple_table` result on the model's table.
    Returns (passed, failures) as (name, witness).
    """
    p = model.params
    q, d = p.q, p.d
    failures = []

    def expect(name: str, condition: bool, witness="flag mismatch") -> None:
        if not condition:
            failures.append((name, witness))

    n_dec = spectra.decomposition(s.N)
    ndown_dec = spectra.decomposition(s.Ndown)
    m_dec = spectra.decomposition(s.M)
    mdown_dec = spectra.decomposition(s.Mdown)
    vstar = model.eigenspaces_Astar
    vplus = lus.Vplus
    vminus = lus.Vminus

    # (name, indices where the two flags differ, whether name i tests flag d - i)
    families = [
        ("N flag {}: ascending = V+ ascending", n_dec.flag_mismatches(vplus), False),
        ("N flag {}: descending = V* ascending reversed", n_dec.inversion().flag_mismatches(vstar), True),
        ("Ndown flag {}: ascending = V+ descending", ndown_dec.flag_mismatches(vplus.inversion()), False),
        ("Ndown flag {}: descending = V* descending", ndown_dec.inversion().flag_mismatches(vstar.inversion()), False),
        ("M flag {}: ascending = V* ascending", m_dec.flag_mismatches(vstar), False),
        ("M flag {}: descending = V- ascending reversed", m_dec.inversion().flag_mismatches(vminus), True),
        ("Mdown flag {}: ascending = V* descending", mdown_dec.flag_mismatches(vstar.inversion()), False),
        ("Mdown flag {}: descending = V- descending", mdown_dec.inversion().flag_mismatches(vminus.inversion()), False),
    ]
    for i in range(d + 1):
        for name, mismatches, mirrored in families:
            expect(name.format(i), (d - i if mirrored else i) not in mismatches)

    # Split maps of the twisted pair (A, L(A*)): the H^-1 X H closed forms, directly.
    a_dec = model.eigenspaces_A
    conj, conj_inv = s.conjugates
    for name, star_ref, a_ref in orientations(vplus, a_dec):
        if not _ladder_is_split(spectra, conj[name], star_ref, a_ref):
            expect_zero(
                failures,
                f"(A, L(A*)) split map at {name} slot",
                map_from_decomposition(split_decomposition(star_ref, a_ref), q) - conj[name],
            )

    # Split maps of the twisted pair (A, L^-1(A*)): inverses of the H X^-1 H^-1 closed forms.
    ident = Matrix.identity(model.dim)
    for name, star_ref, a_ref in orientations(vminus, a_dec):
        if not _ladder_is_split(spectra, conj_inv[name], star_ref, a_ref, inverted=True):
            expect_zero(
                failures,
                f"(A, L^-1(A*)) split map at {name} slot times its label",
                map_from_decomposition(split_decomposition(star_ref, a_ref), q) * conj_inv[name] - ident,
            )

    # Oriented 3-cycles are equitable triples: the eight table rows.
    ok, table_failures = table_check
    if not ok:
        failures.extend(
            (f"3-cycle row {label}: {name}", resid) for label, name, resid in table_failures
        )
    return not failures, failures
