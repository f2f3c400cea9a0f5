"""q-Weyl pairs, the eight equitable triples, and the flag assertions of the diagrams.

An equitable triple is three invertible maps X, Y, Z with
(q XY - q^-1 YX)/(q - q^-1) = I for the cyclically ordered pairs (X,Y),
(Y,Z), (Z,X). The eight rows of the triple table tie the split maps, their
inverses, and the combinations a A - a^2 K (etc.) to M, N and their down
analogues. A pair's q-Weyl residual is one `Products` combination.

The ladder steps and crossing flags of a pair (X, Y) follow from that
relation once both members are diagonalizable on q^d, ..., q^-d, so
`equitable.ladders` reads the table's verdicts and the ladder spectra and
proves nothing again. With R = (q XY - q^-1 YX)/(q - q^-1) - I,
(X - lam q^-2 I)(Y - lam^-1 I) = (1 - q^-2) R on X's lam-eigenspace X_lam:
  (i) every ladder step holds exactly when R = 0;
  (ii) with R = 0, (Y - lam_i^-1 I) maps X_i into X_(i+1), and X_d to 0
       as q^-2 lam_d is off the ladder; so X_(d-i)+...+X_d is Y-invariant,
       and for a diagonalizable Y it is Y_0+...+Y_i: the crossing flags.

Every pair of rows 1-4 and the (Z, X) pairs of rows 5-8 read theirs from
the R_K, R_B and R_3 of `split.KA_relations` (`held_residuals`). Once
lusztig.H_invertible, split.H_conjugation and split.MN pass, rows 5-8 and
the N-side diagram claims are read from their H-mirrors
(`verify_triple_table`, `verify_diagrams`).
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, Products, ShapeError, SingularMatrixError
from .lusztig import LusztigData
from .model import ModelError, TDModel
from .splitmaps import LadderSpectra, split_mismatches


def qweyl_residual(x: Matrix, y: Matrix, q: Fraction) -> Matrix | None:
    """(q XY - q^-1 YX)/(q - q^-1) - I, one `Products` combination; None when zero."""
    if not x.rows == x.cols == y.rows == y.cols:
        raise ShapeError(f"q-Weyl test of {x.rows}x{x.cols} and {y.rows}x{y.cols}: need one square size")
    q = Fraction(q)
    w = 1 / (q - 1 / q)
    return Products(x.rows).residual([(q * w, (x, y)), (-w / q, (y, x)), (-1, ())])


def check_equitable_triple(x: Matrix, y: Matrix, z: Matrix, q: Fraction, spectra: LadderSpectra | None = None, known=None):
    """Invertibility of each member, then all three cyclic q-Weyl relations.

    A member that `spectra` decomposes on the ladder is invertible, as no
    ladder value is zero; any other is inverted (`Matrix.inverse()`). A
    singular input is reported as a failure entry rather than raised, and
    the q-Weyl relations are tested in that row too. A pair in `known`
    (`held_residuals`) reads its residual from there. Returns
    (passed, failures) as (name, residual), the invertibility failures first.
    """
    failures = []
    for name, mat in (("X", x), ("Y", y), ("Z", z)):
        try:
            if spectra is None or not spectra.holds(mat):
                mat.inverse()
        except SingularMatrixError as exc:
            failures.append((f"{name} invertible", str(exc)))
    for name, left, right in (("(X,Y)", x, y), ("(Y,Z)", y, z), ("(Z,X)", z, x)):
        resid = known[left, right] if known and (left, right) in known else qweyl_residual(left, right, q)
        if resid is not None:
            failures.append((f"q-Weyl {name}", resid))
    return not failures, failures


def build_triple_table(
    pair, spectra: LadderSpectra | None = None, mirrored: bool = False
) -> tuple[tuple[str, Matrix, Matrix, Matrix], ...]:
    """The eight equitable-triple rows (label, X, Y, Z) from the (up, down) split maps and their H-conjugates.

    Rows 1-4 are (H X^-1 H^-1, M^-1, X) and rows 5-8 are (X^-1, N^-1, H^-1 X H)
    for X = K, B of up, then of down (Kdown, Bdown, with Mdown and Ndown),
    with the conjugates in their closed forms, such as a A - a^2 K for
    H K^-1 H^-1. X^-1 is kept on X (`build_split_maps`); M^-1 and N^-1 are
    read from `spectra` where given (`LadderSpectra.inverse`).
    With `mirrored`, rows 1-4 alone: rows 5-8 are their H-mirrors
    (`verify_triple_table`), so no N^-1 is formed.
    """
    invert = Matrix.inverse if spectra is None else spectra.inverse
    rows = []
    for s in pair:
        m_inv, conj_inv = invert(s.M), s.conjugates[1]
        rows += [(conj_inv["K"], m_inv, s.K), (conj_inv["B"], m_inv, s.B)]
    if not mirrored:
        for s in pair:
            n_inv, conj = invert(s.N), s.conjugates[0]
            rows += [(s.K.inverse(), n_inv, conj["K"]), (s.B.inverse(), n_inv, conj["B"])]
    return tuple((str(label), *row) for label, row in enumerate(rows, 1))


def held_residuals(pair) -> dict:
    """The q-Weyl residuals of the table's pairs by pair, from R_K, R_B, R_3 (`SplitMaps.relations`); None where zero.

    With s = 1/(a - a^-1) (`sc`) and c = a^-1 for X = K, c = a for X = B, for any A, K,
    B with M = s (a K - a^-1 B) invertible, the pairs and residuals are
      - (X, c^-1 A - c^-2 X), row 1-4 (Z, X): c^-1 R_X, as the q-Weyl form of (X, X) is X^2;
      - (M^-1, X), row 1-4 (Y, Z): -s^2 c M^-1 R_3 M^-1;
      - (c^-1 A - c^-2 X, M^-1), row 1-4 (X, Y): M^-1 ((s/(c a)) (a^2 R_K - R_B) - (s^2/c) R_3) M^-1;
      - (c A - c^2 X^-1, X^-1), row 5-8 (Z, X): c X^-1 R_X X^-1;
    for each orientation of the (up, down) `pair`. Pairs are looked up by
    value, so any table holding one reads it; M^-1 is the table's once it is built.
    """
    products, held = Products(pair[0].A.rows), {}

    def sandwich(m, terms):  # m (sum c R) m over the R not None, formed only when the sum is nonzero
        bracket = products.residual([(c, (r,)) for c, r in terms if r is not None] or [(0, ())])
        return None if bracket is None else products.residual([(1, (m, bracket, m))])

    for s in pair:
        a, sc, (conj, conj_inv), (r_k, r_b, r_3) = s.a, 1 / (s.a - 1 / s.a), s.conjugates, s.relations
        m_inv = s.M.inverse()
        for name, x, r, c in (("K", s.K, r_k, 1 / a), ("B", s.B, r_b, a)):
            held[x, conj_inv[name]] = None if r is None else r.scale(1 / c)
            held[m_inv, x] = sandwich(m_inv, [(-sc * sc * c, r_3)])
            held[conj_inv[name], m_inv] = sandwich(m_inv, [(sc * a / c, r_k), (-sc / (c * a), r_b), (-sc * sc / c, r_3)])
            held[conj[name], x.inverse()] = sandwich(x.inverse(), [(c, r)])
    return held


def verify_triple_table(model: TDModel, table, spectra: LadderSpectra | None = None, known=None, mirror=None):
    """Every row (label, X, Y, Z) of `table` passes `check_equitable_triple` with `spectra` and `known`.

    With `mirror` = (H, H^-1), `table` is rows 1-4, and rows 5-8 are
    H^-1 (rows 1-4) H member by member, as once `suite.TargetContext.mirrored`
    holds. Conjugation keeps ranks and conjugates q-Weyl residuals, so row
    i + 4 reads the failures of row i, residuals conjugated, and is not tested.
    Returns (passed, failures) as (row label, name, residual).
    """
    q = model.params.q
    rows = [(label, check_equitable_triple(x, y, z, q, spectra, known)[1]) for label, x, y, z in table]
    if mirror is not None:
        h, h_inv = mirror
        rows += [
            (str(int(label) + 4), [(name, r if isinstance(r, str) else h_inv * r * h) for name, r in row_failures])
            for label, row_failures in rows
        ]
    failures = [(label, name, resid) for label, row_failures in rows for name, resid in row_failures]
    return not failures, failures


def verify_diagrams(
    model: TDModel,
    lus: LusztigData,
    pair,
    spectra: LadderSpectra,
    table_check,
    flags_check=None,
):
    """The flag and split-map assertions of the two big comparison diagrams, for the (up, down) split maps `pair`.

    Checks, all exactly:
      - N-flags: N_0+...+N_i = V+_0+...+V+_i and N_i+...+N_d = V*_0+...+V*_(d-i);
        mirrored for Ndown with both orders reversed.
      - M-flags: M_0+...+M_i = V*_0+...+V*_i and M_i+...+M_d = V-_0+...+V-_(d-i);
        mirrored for Mdown.
      - Lower-half edges: the split maps of the pair (A, L(A*)) equal
        a^-1 A - a^-2 K^-1 (K slot), a A - a^2 B^-1 (B slot) and the down
        analogues; those of (A, L^-1(A*)) are the inverses of a A - a^2 K,
        a^-1 A - a^-2 B and the down analogues. These are the H-conjugates
        kept on the split maps. A slot holds when the conjugate's ladder
        decomposition W in `spectra` (inverted for the L^-1 pair) is the
        split decomposition of the V+ (V-) and A orders: its map is then the
        conjugate. A slot fails with "flag mismatch", or with the text of
        the ModelError when the conjugate has no ladder decomposition.
      - Oriented 3-cycles: delegated to the eight table rows.
    N and M are the split decompositions of (V+, V* reversed) and
    (V*, V- reversed), each order oriented (`SplitMaps.orient`): Ndown and
    Mdown those of (V+ reversed, V*) and (V* reversed, V-). So every claim
    is one `split_mismatches` test. The M/N and conjugate decompositions
    come from `spectra`, and the table verdict is `table_check`, the
    `verify_triple_table` result on the model's table.

    `flags_check`, the `check_split_flags` verdict, is given once
    `suite.TargetContext.mirrored` holds: H^-1 then carries V* to V+, V- to V*
    and fixes each V_i (H^-1 A H = A follows from the K identities), so each
    N (Ndown) claim is read from its M (Mdown) claim, and the slot of X from
    `split.flags` for X. Returns (passed, failures) as (name, witness).
    """
    d = model.d
    failures = []

    def expect(name: str, condition: bool) -> None:
        if not condition:
            failures.append((name, "flag mismatch"))

    vstar, vminus = model.eigenspaces_Astar, lus.Vminus
    # (ascending name, descending name, whether descending name i tests flag d - i) of N, Ndown, M, Mdown
    names = [
        (
            f"{x}{s.down} flag {{}}: ascending = {star} {'descending' if s.down else 'ascending'}",
            f"{x}{s.down} flag {{}}: descending = {a} {'descending' if s.down else 'ascending reversed'}",
            not s.down,
        )
        for x, star, a in (("N", "V+", "V*"), ("M", "V*", "V-"))
        for s in pair
    ]
    # (matrix, star order, A order) of M and Mdown, after those of N and Ndown unless they are read
    tested = [(s.M, s.orient(vstar), s.orient(vminus).inversion()) for s in pair]
    if flags_check is None:
        tested = [(s.N, s.orient(lus.Vplus), s.orient(vstar).inversion()) for s in pair] + tested
    found = [split_mismatches(spectra.decomposition(mat), star_ref, a_ref) for mat, star_ref, a_ref in tested]
    if flags_check is not None:
        found *= 2  # N and Ndown read the claims of M and Mdown
    families = []
    for (ascending_name, descending_name, mirrored), (ascending, descending) in zip(names, found):
        families += [(ascending_name, ascending, False), (descending_name, descending, mirrored)]
    for i in range(d + 1):
        for name, mismatches, mirrored in families:
            expect(name.format(i), (d - i if mirrored else i) not in mismatches)

    # Split maps of the twisted pairs: the H^-1 X H closed forms for (A, L(A*)),
    # the inverses of the H X^-1 H^-1 closed forms for (A, L^-1(A*)).
    for slot, inverted in (("(A, L(A*))", False), ("(A, L^-1(A*))", True)):
        for s in pair:
            for x, a_ref in (("K", model.eigenspaces_A), ("B", model.eigenspaces_A.inversion())):
                name = f"{slot} split map at {x}{s.down} slot"
                if flags_check is not None:
                    expect(name, all(x + s.down != failed for failed, *_ in flags_check[1]))
                    continue
                try:
                    w = spectra.decomposition(s.conjugates[inverted][x])  # H X^-1 H^-1 for the inverted pair
                except ModelError as exc:
                    failures.append((name, str(exc)))
                    continue
                star_ref = s.orient(vminus if inverted else lus.Vplus)
                ascending, descending = split_mismatches(w.inversion() if inverted else w, star_ref, a_ref)
                expect(name, not ascending and not descending)

    # Oriented 3-cycles are equitable triples: the eight table rows.
    ok, table_failures = table_check
    if not ok:
        failures.extend(
            (f"3-cycle row {label}: {name}", resid) for label, name, resid in table_failures
        )
    return not failures, failures
