"""Split decompositions and their maps for one orientation of V*, and the conjugation identities.

Each split decomposition arises as ascending-star-flag meet descending-A-flag
of two ordered eigenspace decompositions; an order is reversed by passing the
decomposition's inversion. With V* and V the eigenspaces of A* and A, and V*
in the orientation's order, K comes from (V*, V) and B from (V*, V reversed).
The paper's Kdown and Bdown are the K and B of V* reversed, the relabelling
b -> b^-1 (the relative Phi-down; Terwilliger, Rocky Mountain J. Math. 32,
2002). The corresponding map acts as q^(d-2i) on the i-th part. Each is
built as the lines of a tau-chain from the first V* part and certified by its
two flags, the flag meets being the fallback (`build_split_maps`); M, N
and the H-conjugates are chains from that part's image under H^-1 or H, or
from the part itself, certified by one product (`LadderSpectra`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .linalg import Decomposition, Matrix, Numerators, Products, SingularMatrixError, chain_lines, link_inverses
from .lusztig import LusztigData
from .model import ModelError, TDModel, eigenspace_decomposition
from .scalars import ParameterError


def qweyl_eigenvalues(d: int, q: Fraction) -> tuple[Fraction, ...]:
    """The geometric eigenvalue ladder q^d, q^(d-2), ..., q^-d."""
    return tuple(q ** (d - 2 * i) for i in range(d + 1))


class LadderSpectra:
    """Eigenspace decompositions over the q-ladder q^d, ..., q^-d, one per distinct matrix.

    A matrix is looked up by its structural hash, so equal matrices built
    separately share one decomposition, obtained by the first of these that
    applies:
      - `known` holds (matrix, decomposition) pairs whose matrix was built as
        P diag(q^d, ..., q^-d) P^-1 from that decomposition, such as the
        split maps and their inverses; they are taken as they are. `inverse`
        files each inverse it builds with its decomposition in the same way.
      - `chains` holds (m, X, u, shifts, reverse) specs, such as M with X = K,
        u in H V*_0 and shifts q^-d, ..., q^(d-2): they propose the lines of
        u, (X - s_0 I) u, (X - s_1 I)(X - s_0 I) u, ... (`linalg.chain_lines`),
        last first when `reverse`. Parts are taken once certified: all
        nonzero, ranks summing to n, and m P = P diag(q^d, ..., q^-d)
        (`Decomposition.acts_as`). Parts inside the eigenspaces of distinct
        eigenvalues that fill the space are those eigenspaces, so the
        decomposition is the one the kernels give.
      - Otherwise the kernels of m - lam I are solved
        (`eigenspace_decomposition`). A matrix that is not diagonalizable on
        the ladder keeps its ModelError, raised on every lookup.

    `holds` is the spectral half of `equitable.ladders`: a q-Weyl pair whose
    members both hold has the ladder steps and crossing flags (`equitable`).
    """

    def __init__(self, d: int, q: Fraction, known=(), chains=()):
        self.eigenvalues = qweyl_eigenvalues(d, q)
        self._decompositions: dict[Matrix, Decomposition | ModelError] = dict(known)
        self._chains = {m: spec for m, *spec in chains}

    def decomposition(self, m: Matrix) -> Decomposition:
        dec = self._decompositions.get(m)
        if dec is None:
            dec = self._certified(m)
            if dec is None:
                try:
                    dec = eigenspace_decomposition(m, self.eigenvalues)
                except ModelError as exc:
                    dec = exc
            self._decompositions[m] = dec
        if isinstance(dec, ModelError):
            raise dec
        return dec

    def holds(self, m: Matrix) -> bool:
        """Whether m has a ladder decomposition, which makes it invertible: no ladder value is zero."""
        try:
            self.decomposition(m)
        except ModelError:
            return False
        return True

    def inverse(self, m: Matrix) -> Matrix:
        """m^-1, kept on m: the map of m's inverted ladder decomposition, filed with it; `Matrix.inverse` off the ladder."""
        if m.cached_inverse() is not None or not self.holds(m):
            return m.inverse()
        inverted = self.decomposition(m).inversion()
        inverse = inverted.diagonal_map(self.eigenvalues)
        link_inverses(m, inverse)
        self._decompositions[inverse] = inverted
        return inverse

    def _certified(self, m: Matrix) -> Decomposition | None:
        """The lines m's chain proposes if they certify as m's decomposition, else None."""
        if m not in self._chains:
            return None
        x, seed, shifts, reverse = self._chains[m]
        lines = chain_lines(x, seed, shifts)
        parts = lines[::-1] if reverse else lines
        if any(part.is_zero() for part in parts) or sum(part.rank for part in parts) != m.rows:
            return None
        dec = Decomposition.independent(parts)
        return dec if dec.acts_as(m, self.eigenvalues) else None


def expect_zero(failures: list, name: str, resid: Matrix | None) -> None:
    """Record (name, resid) as a failure unless there is no residual (`Products.residual` gave None)."""
    if resid is not None:
        failures.append((name, resid))


def split_decomposition(star_dec: Decomposition, a_dec: Decomposition) -> Decomposition:
    """U_i = (W*_0+...+W*_i) meet (W_i+...+W_d), W* the parts of `star_dec` and W those of `a_dec`.

    Both decompositions come in the order wanted; a reversed order is the
    decomposition's inversion. Each U_i is read off the change of basis from
    the star eigenbasis to the A eigenbasis (`Decomposition.flag_meets`). A
    degenerate (zero) intersection signals a non-tridiagonal input pair.
    """
    parts = star_dec.flag_meets(a_dec)
    for i, u in enumerate(parts):
        if u.is_zero():
            raise ModelError(f"split part U_{i} is zero; the pair is not tridiagonal")
    return Decomposition(parts)


def split_mismatches(w: Decomposition, star_ref: Decomposition, a_ref: Decomposition) -> tuple[list[int], list[int]]:
    """Where W fails to be the split decomposition of (star_ref, a_ref): (ascending, descending) flag indices.

    W is that split decomposition exactly when both lists are empty: its
    ascending flag is star_ref's and its descending flag is a_ref's
    (`Decomposition.flag_mismatches`), so each meet
    (star_0+...+star_i) meet (a_i+...+a_d) is the sum of the W-parts in
    both, which is W_i.
    """
    return w.flag_mismatches(star_ref), w.inversion().flag_mismatches(a_ref.inversion())


def map_from_decomposition(dec: Decomposition, q: Fraction) -> Matrix:
    """The unique map acting as q^(d-2i) on the i-th part."""
    return dec.diagonal_map(qweyl_eigenvalues(len(dec) - 1, Fraction(q)))


def h_conjugates(big_a: Matrix, x: Matrix, c: Fraction) -> tuple[Matrix, Matrix]:
    """The closed forms H^-1 X H = c A - c^2 X^-1 and H X^-1 H^-1 = c^-1 A - c^-2 X."""
    return big_a.scale(c) - x.inverse().scale(c * c), big_a.scale(1 / c) - x.scale(1 / (c * c))


def _mn_scale(a: Fraction) -> Fraction:
    """1/(a - a^-1), the scale of M and N."""
    if a == 1 or a == -1:
        raise ParameterError("a in {1, -1} makes the M, N denominators vanish")
    return 1 / (a - 1 / a)


@dataclass(frozen=True)
class SplitMaps:
    """K and B of one orientation, their split decompositions, and the A and a of their pair.

    `down` is "" for V* in order, "down" for V* reversed (Kdown, Bdown); report
    names append it ("Kdown", "H^-1 Mdown H = Ndown"). The values below are
    derived on first use, so `dataclasses.replace` of a map derives them from
    the new maps: M = (a K - a^-1 B)/(a - a^-1), N = (a^-1 K^-1 - a B^-1)/(a^-1 - a),
    the closed forms of H^-1 X H and H X^-1 H^-1 (`conjugates`) and the residuals
    of the relations tying A to K and B (`relations`); `inverted` from the decompositions.
    """

    A: Matrix
    a: Fraction
    q: Fraction
    K: Matrix
    B: Matrix
    dec_K: Decomposition
    dec_B: Decomposition
    certified: dict[str, Decomposition]
    down: str

    def orient(self, dec: Decomposition) -> Decomposition:
        """`dec` in this orientation's order: as it is for up, its inversion for down."""
        return dec.inversion() if self.down else dec

    @cached_property
    def inverted(self) -> SplitMaps:
        """The maps of the inverted decompositions, K^-1 and B^-1; no kept inverse is read (`split.inversion`)."""
        dec_k, dec_b = self.dec_K.inversion(), self.dec_B.inversion()
        k, b = map_from_decomposition(dec_k, self.q), map_from_decomposition(dec_b, self.q)
        return replace(self, K=k, B=b, dec_K=dec_k, dec_B=dec_b, certified={})

    @cached_property
    def conjugates(self) -> tuple[dict[str, Matrix], dict[str, Matrix]]:
        """H^-1 X H and H X^-1 H^-1 by X, K or B: `h_conjugates` with c = a^-1 for K, c = a for B."""
        conjugated, conjugated_inverse = {}, {}
        for name, x, c in (("K", self.K, 1 / self.a), ("B", self.B, self.a)):
            conjugated[name], conjugated_inverse[name] = h_conjugates(self.A, x, c)
        return conjugated, conjugated_inverse

    @cached_property
    def relations(self) -> tuple[Matrix | None, Matrix | None, Matrix | None]:
        """(R_K, R_B, R_3), None where zero, with one `Products` sharing K^2 and B^2.

        R_X = (q XA - q^-1 AX)/(q - q^-1) - c^-1 X^2 - c I for c = a^-1 (K), a (B),
        and R_3 = a K^2 - c1 KB - c2 BK + a^-1 B^2 (`check_KA_relations`).
        """
        q, a, w, big_a, k, b = self.q, self.a, 1 / (self.q - 1 / self.q), self.A, self.K, self.B
        c1, c2 = (q / a - a / q) * w, (a * q - 1 / (a * q)) * w
        terms = [[(q * w, (x, big_a)), (-w / q, (big_a, x)), (-1 / c, (x, x)), (-c, ())] for x, c in ((k, 1 / a), (b, a))]
        terms.append([(a, (k, k)), (-c1, (k, b)), (-c2, (b, k)), (1 / a, (b, b))])
        return tuple(map(Products(big_a.rows).residual, terms))

    @cached_property
    def M(self) -> Matrix:
        return (self.K.scale(self.a) - self.B.scale(1 / self.a)).scale(_mn_scale(self.a))

    @cached_property
    def N(self) -> Matrix:
        return (self.K.inverse().scale(1 / self.a) - self.B.inverse().scale(self.a)).scale(-_mn_scale(self.a))


def build_split_maps(model: TDModel) -> tuple[SplitMaps, SplitMaps]:
    """The split maps of V* in order and of V* reversed, as (up, down).

    Each of K and B is the lines of its tau-chain (Terwilliger, LAA 330,
    2001), u_0 = v*_0 (v*_d for down) and u_(i+1) = (A - theta'_i I) u_i for
    theta' the A order, once they are nonzero, independent and have both
    flags (`split_mismatches`): then each line is its flag meet. Otherwise
    the flag meets are solved (`split_decomposition`). Each map keeps the
    map of its inverted decomposition (`SplitMaps.inverted`) as its inverse.
    """
    q, thetas, a_dec = model.params.q, model.theta, model.eigenspaces_A
    pair = []
    for down, star_dec in (("", model.eigenspaces_Astar), ("down", model.eigenspaces_Astar.inversion())):
        decs, certified = {}, {}
        for name, a_order, shifts in (("K", a_dec, thetas), ("B", a_dec.inversion(), thetas[::-1])):
            lines = chain_lines(model.A, star_dec[0].numerators[0], shifts[:-1])
            try:
                if not any(line.is_zero() for line in lines):
                    dec = Decomposition.independent(lines)
                    dec.basis_inverse()  # raises unless the lines are independent
                    if split_mismatches(dec, star_dec, a_order) == ([], []):
                        certified[name] = dec
            except SingularMatrixError:
                pass
            decs[name] = certified[name] if name in certified else split_decomposition(star_dec, a_order)
        k, b = map_from_decomposition(decs["K"], q), map_from_decomposition(decs["B"], q)
        s = SplitMaps(model.A, model.params.a, q, k, b, decs["K"], decs["B"], certified, down)
        link_inverses(k, s.inverted.K), link_inverses(b, s.inverted.B)
        pair.append(s)
    return tuple(pair)


def check_split_flags(model: TDModel, pair):
    """Each split decomposition of the (up, down) `pair` satisfies both of its defining flag equalities.

    Ascending U-flag = ascending flag of the orientation's A*-eigenspace
    list; descending U-flag = descending flag of the (for B inverted)
    A-eigenspace list (`split_mismatches`), read for the decompositions
    `build_split_maps` certified (`SplitMaps.certified`). Returns (passed, failures).
    """
    failures = []
    for s in pair:
        star_ref = s.orient(model.eigenspaces_Astar)
        for name, dec, a_ref in (("K", s.dec_K, model.eigenspaces_A), ("B", s.dec_B, model.eigenspaces_A.inversion())):
            ascending, descending = ([], []) if s.certified.get(name) is dec else split_mismatches(dec, star_ref, a_ref)
            for i in range(model.d + 1):
                if i in ascending:
                    failures.append((name + s.down, i, "ascending flag != star flag"))
                if i in descending:
                    failures.append((name + s.down, i, "descending flag != A flag"))
    return not failures, failures


def check_KA_relations(pair):
    """The defining relations tying A to the split maps of each orientation of `pair`, all exact.

    For (K, B) with parameter a, the down names tagged "down:":
      (q KA - q^-1 AK)/(q - q^-1) = a K^2 + a^-1 I
      (q BA - q^-1 AB)/(q - q^-1) = a^-1 B^2 + a I
      a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0
    with c1 = (a^-1 q - a q^-1)/(q - q^-1), c2 = (a q - a^-1 q^-1)/(q - q^-1).
    The residuals are held on the split maps (`SplitMaps.relations`), where the table reads them too.

    The other forms are not tested apart: each is zero exactly when a
    tested residual listed before it is (tests/identity_reference.py keeps
    them). With Y = K^-1 B and Z = B K^-1:
      - the inverse q-Weyl forms have residuals X^-1 R_X X^-1;
      - the left products of the inverse pairs (K^-1 B, B K^-1) and
        (B^-1 K, K B^-1) have residuals P_1, P_2 with K P_1 K = lam R_3 and
        B P_2 B = mu R_3, lam = -(q - q^-1)^2/(a (a^-1 - a)^2) and
        mu = -a (q - q^-1)^2/(a^-1 - a)^2; a right product QP = I holds
        exactly when PQ = I, P and Q being square;
      - the inverse form R_4 = a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2
        has B R_4 B = K^-1 R_3 K^-1 + a^-1 (ZY - YZ), and Y and Z commute
        once P_1 = 0, as the factors of the first pair are then inverse.
    These forms name K^-1 and B^-1, so a singular map raises as they would.
    Returns (passed, failures) as (name, residual).
    """
    failures = []
    for s in pair:
        tag = s.down and s.down + ":"
        s.K.inverse(), s.B.inverse()  # kept on a split map; a singular replaced map raises
        r_k, r_b, r_3 = s.relations
        expect_zero(failures, tag + "qweyl[K,A] = a K^2 + a^-1 I", r_k)
        expect_zero(failures, tag + "qweyl[B,A] = a^-1 B^2 + a I", r_b)
        expect_zero(failures, tag + "a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0", r_3)
    return not failures, failures


def check_H_conjugation_of_splits(lus: LusztigData, pair):
    """The eight conjugation identities for the split maps of `pair` under H.

    H^-1 B H = a A - a^2 B^-1 and H^-1 K H = a^-1 A - a^-2 K^-1 for each
    orientation, then the reformulations H B^-1 H^-1 = a^-1 A - a^-2 B and
    H K^-1 H^-1 = a A - a^2 K; the right-hand sides are the closed forms
    kept on the split maps.
    Returns (passed, failures) as (name, residual).
    """
    h, h_inv, products = lus.H, lus.H_inv, Products(lus.H.rows)
    # the closed forms' scalars of H^-1 X H and of H X^-1 H^-1, by X
    forms = {"B": ("a A - a^2", "a^-1 A - a^-2"), "K": ("a^-1 A - a^-2", "a A - a^2")}
    cases, inverse_cases = [], []
    for s in pair:
        conj, conj_inv = s.conjugates
        for x, m in (("B", s.B), ("K", s.K)):
            name, (form, inverse_form) = x + s.down, forms[x]
            cases.append((f"H^-1 {name} H = {form} {name}^-1", (h_inv, m, h), conj[x]))
            inverse_cases.append((f"H {name}^-1 H^-1 = {inverse_form} {name}", (h, m.inverse(), h_inv), conj_inv[x]))
    failures = []
    for name, lhs, rhs in cases + inverse_cases:
        expect_zero(failures, name, products.residual([(1, lhs), (-1, (rhs,))]))
    return not failures, failures


def check_R_ladder(model: TDModel, up: SplitMaps, spectra: LadderSpectra):
    """The raising-ladder properties of R = A - a K - a^-1 K^-1, K the split map of the `up` orientation.

    U_0, ..., U_d are the eigenspaces of K for q^d, ..., q^-d, taken from
    `spectra`. With U_i's basis as the columns of a matrix:
    a K + a^-1 K^-1 acts as theta_i on U_i; R maps U_i into U_(i+1), that is
    (K - q^(d-2i-2) I) R kills U_i; R kills U_d. R is formed once, on
    integer numerators (`Products`). R^(d+1) = 0 and RK = q^2 KR are not
    tested apart: the U_i are the eigenspaces of K and fill the space, so
    once R raises each U_i into U_(i+1) and kills U_d, R^(d+1) kills every
    U_i, and RK and q^2 KR both act on U_i as q^(d-2i) R (the old forms are
    kept in tests/identity_reference.py).
    Returns (passed, failures) as (name, residual).
    """
    a, d = model.params.a, model.d
    k = up.K
    parts = spectra.decomposition(k).parts
    eigs = spectra.eigenvalues
    products = Products(model.dim)
    theta_map = [(a, (k,)), (1 / a, (k.inverse(),))]
    r = products.combination([(1, (model.A,))] + [(-c, x) for c, x in theta_map])
    failures = []
    for i, part in enumerate(parts):
        u = Numerators(list(zip(*part.numerators)), part.denominator)
        expect_zero(
            failures,
            f"(a K + a^-1 K^-1) acts as theta_{i} on U_{i}",
            products.residual([(c, x + (u,)) for c, x in theta_map] + [(-model.theta[i], (u,))]),
        )
        if i < d:
            step = products.residual([(1, (k, r, u)), (-eigs[i + 1], (r, u))])
            expect_zero(failures, f"R U_{i} inside U_{i + 1}", step)
        else:
            expect_zero(failures, "R kills the top part", products.residual([(1, (r, u))]))
    return not failures, failures


def check_MN_conjugation(lus: LusztigData, pair, spectra: LadderSpectra):
    """M and N of each orientation of `pair` are diagonalizable on the q-ladder and H^-1 M H = N, exactly.

    The four decompositions are left in `spectra`; a matrix off the ladder
    raises ModelError (ParameterError when a is 1 or -1).
    """
    for s in pair:
        spectra.decomposition(s.M), spectra.decomposition(s.N)
    products, failures = Products(lus.H.rows), []
    for s in pair:
        residual = products.residual([(1, (lus.H_inv, s.M, lus.H)), (-1, (s.N,))])
        expect_zero(failures, f"H^-1 M{s.down} H = N{s.down}", residual)
    return not failures, failures
