"""The four split decompositions, their corresponding maps, and the conjugation identities.

Each split decomposition arises as ascending-star-flag meet descending-A-flag
of two ordered eigenspace decompositions; an order is reversed by passing the
decomposition's inversion. With V* and V the eigenspaces of A* and A:
K from (V*, V), B from (V*, V reversed), Kdown from (V* reversed, V) and
Bdown from (V* reversed, V reversed) (`orientations`). The corresponding map
acts as q^(d-2i) on the i-th part.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Decomposition, Matrix, qweyl_bracket
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
        split maps; they are taken as they are.
      - The ladder is closed under lam -> lam^-1 and ker(m^-1 - lam^-1 I) =
        ker(m - lam I), so a matrix whose inverse has already been computed
        and decomposed gets the inversion of that decomposition; no inverse
        is computed here.
      - `transports` holds (m, g, S) triples with m = g S g^-1 expected, such
        as H^-1 K H = a^-1 A - a^-2 K^-1 with g = H^-1 and S = K. The parts
        g W_i of S's decomposition are taken once they are certified: all
        nonzero, ranks summing to n, and m P = P diag(q^d, ..., q^-d)
        (`Decomposition.acts_as`). Parts inside the eigenspaces of distinct
        eigenvalues that fill the space are those eigenspaces, so the
        decomposition is the one the kernels give. A relation is tried once.
      - Otherwise the kernels of m - lam I are solved
        (`eigenspace_decomposition`). A matrix that is not diagonalizable on
        the ladder raises ModelError on every lookup.
    """

    def __init__(self, d: int, q: Fraction, known=(), transports=()):
        self.eigenvalues = qweyl_eigenvalues(d, q)
        self._decompositions: dict[Matrix, Decomposition] = dict(known)
        self._transports = {m: (g, source) for m, g, source in transports}

    def decomposition(self, m: Matrix) -> Decomposition:
        dec = self._decompositions.get(m)
        if dec is None:
            inverse = m.cached_inverse()
            known = None if inverse is None else self._decompositions.get(inverse)
            dec = known.inversion() if known is not None else self._transported(m)
            if dec is None:
                dec = eigenspace_decomposition(m, self.eigenvalues)
            self._decompositions[m] = dec
        return dec

    def _transported(self, m: Matrix) -> Decomposition | None:
        """The parts g W_i of the source's decomposition if they certify as m's, else None."""
        relation = self._transports.pop(m, None)  # popped first, so a cycle of relations ends
        if relation is None:
            return None
        g, source = relation
        try:
            parts = [w.image_under(g) for w in self.decomposition(source).parts]
        except ModelError:
            return None
        if any(part.is_zero() for part in parts) or sum(part.rank for part in parts) != m.rows:
            return None
        dec = Decomposition.independent(parts)
        return dec if dec.acts_as(m, self.eigenvalues) else None


def expect_zero(failures: list, name: str, resid: Matrix) -> None:
    """Record (name, resid) as a failure unless the residual is the zero matrix."""
    if not resid.is_zero():
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


def orientations(star_dec: Decomposition, a_dec: Decomposition):
    """(split map name, star order, A order) for K, B, Kdown and Bdown, in that order."""
    star_rev, a_rev = star_dec.inversion(), a_dec.inversion()
    return (("K", star_dec, a_dec), ("B", star_dec, a_rev), ("Kdown", star_rev, a_dec), ("Bdown", star_rev, a_rev))


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
    """K, B, Kdown, Bdown and their split decompositions, with the A and a of their pair.

    The values below are derived from the four maps on first use, so
    `dataclasses.replace` of a map derives them from the new maps:
    M = (a K - a^-1 B)/(a - a^-1), N = (a^-1 K^-1 - a B^-1)/(a^-1 - a) and
    the down analogues, and the closed forms of H^-1 X H and H X^-1 H^-1
    (`conjugates`).
    """

    A: Matrix
    a: Fraction
    K: Matrix
    B: Matrix
    Kdown: Matrix
    Bdown: Matrix
    dec_K: Decomposition
    dec_B: Decomposition
    dec_Kdown: Decomposition
    dec_Bdown: Decomposition

    @cached_property
    def conjugates(self) -> tuple[dict[str, Matrix], dict[str, Matrix]]:
        """H^-1 X H and H X^-1 H^-1 by X: `h_conjugates` with c = a^-1 for K, Kdown and c = a for B, Bdown."""
        conjugated, conjugated_inverse = {}, {}
        for name in ("K", "B", "Kdown", "Bdown"):
            c = self.a if name.startswith("B") else 1 / self.a
            conjugated[name], conjugated_inverse[name] = h_conjugates(self.A, getattr(self, name), c)
        return conjugated, conjugated_inverse

    @cached_property
    def M(self) -> Matrix:
        return (self.K.scale(self.a) - self.B.scale(1 / self.a)).scale(_mn_scale(self.a))

    @cached_property
    def N(self) -> Matrix:
        return (self.K.inverse().scale(1 / self.a) - self.B.inverse().scale(self.a)).scale(-_mn_scale(self.a))

    @cached_property
    def Mdown(self) -> Matrix:
        return (self.Kdown.scale(self.a) - self.Bdown.scale(1 / self.a)).scale(_mn_scale(self.a))

    @cached_property
    def Ndown(self) -> Matrix:
        return (self.Kdown.inverse().scale(1 / self.a) - self.Bdown.inverse().scale(self.a)).scale(-_mn_scale(self.a))


def build_split_maps(model: TDModel) -> SplitMaps:
    """Construct K, B, Kdown, Bdown from the four split decompositions.

    Every check that needs H^-1 X H or H X^-1 H^-1 reads the closed forms
    the maps derive (`SplitMaps.conjugates`).
    """
    decs, maps = {}, {}
    for name, star_dec, a_dec in orientations(model.eigenspaces_Astar, model.eigenspaces_A):
        decs[name] = split_decomposition(star_dec, a_dec)
        maps[name] = map_from_decomposition(decs[name], model.params.q)
    return SplitMaps(A=model.A, a=model.params.a, **maps, **{f"dec_{name}": dec for name, dec in decs.items()})


def check_split_flags(model: TDModel, s: SplitMaps):
    """Each split decomposition satisfies both of its defining flag equalities.

    Ascending U-flag = ascending flag of the (possibly inverted) A*-eigenspace
    list; descending U-flag = descending flag of the (possibly inverted)
    A-eigenspace list (`split_mismatches`). Returns (passed, failures).
    """
    failures = []
    d = model.d
    for name, star_ref, a_ref in orientations(model.eigenspaces_Astar, model.eigenspaces_A):
        ascending, descending = split_mismatches(getattr(s, f"dec_{name}"), star_ref, a_ref)
        for i in range(d + 1):
            if i in ascending:
                failures.append((name, i, "ascending flag != star flag"))
            if i in descending:
                failures.append((name, i, "descending flag != A flag"))
    return not failures, failures


def check_KA_relations(model: TDModel, s: SplitMaps):
    """The defining relations tying A to each split-map pair, all exact.

    For (K, B) with parameter a (and the same with Kdown, Bdown):
      (q KA - q^-1 AK)/(q - q^-1) = a K^2 + a^-1 I
      (q BA - q^-1 AB)/(q - q^-1) = a^-1 B^2 + a I
      a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0
      (q A K^-1 - q^-1 K^-1 A)/(q - q^-1) = a^-1 K^-2 + a I
      (q A B^-1 - q^-1 B^-1 A)/(q - q^-1) = a B^-2 + a^-1 I
      a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2 = 0
    with c1 = (a^-1 q - a q^-1)/(q - q^-1), c2 = (a q - a^-1 q^-1)/(q - q^-1),
    plus the two inverse-pair statements built from KB cross terms.
    Returns (passed, failures) as (name, residual).
    """
    p = model.params
    q, a = p.q, p.a
    ident = Matrix.identity(model.dim)
    c1 = (q / a - a / q) / (q - 1 / q)
    c2 = (a * q - 1 / (a * q)) / (q - 1 / q)
    failures = []
    for tag, k, b in (("", s.K, s.B), ("down:", s.Kdown, s.Bdown)):
        k_inv = k.inverse()
        b_inv = b.inverse()
        expect_zero(
            failures,
            f"{tag}qweyl[K,A] = a K^2 + a^-1 I",
            qweyl_bracket(k, model.A, q) - (k * k).scale(a) - ident.scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[B,A] = a^-1 B^2 + a I",
            qweyl_bracket(b, model.A, q) - (b * b).scale(1 / a) - ident.scale(a),
        )
        expect_zero(
            failures,
            f"{tag}a K^2 - c1 KB - c2 BK + a^-1 B^2 = 0",
            (k * k).scale(a) - (k * b).scale(c1) - (b * k).scale(c2) + (b * b).scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[A,K^-1] = a^-1 K^-2 + a I",
            qweyl_bracket(model.A, k_inv, q) - (k_inv * k_inv).scale(1 / a) - ident.scale(a),
        )
        expect_zero(
            failures,
            f"{tag}qweyl[A,B^-1] = a B^-2 + a^-1 I",
            qweyl_bracket(model.A, b_inv, q) - (b_inv * b_inv).scale(a) - ident.scale(1 / a),
        )
        expect_zero(
            failures,
            f"{tag}a^-1 K^-2 - c1 K^-1 B^-1 - c2 B^-1 K^-1 + a B^-2 = 0",
            (k_inv * k_inv).scale(1 / a)
            - (k_inv * b_inv).scale(c1)
            - (b_inv * k_inv).scale(c2)
            + (b_inv * b_inv).scale(a),
        )
        # Two inverse-pair reformulations of the KB relations.
        inv_a = 1 / a - a
        a_inv = a - 1 / a
        p1 = (k_inv * b).scale((q - 1 / q) / (a * inv_a)) - ident.scale((q / a - a / q) / inv_a)
        q1 = (b * k_inv).scale((q - 1 / q) / (a * a_inv)) - ident.scale((a * q - 1 / (a * q)) / a_inv)
        expect_zero(failures, f"{tag}inverse pair (K^-1 B, B K^-1): left product", p1 * q1 - ident)
        expect_zero(failures, f"{tag}inverse pair (K^-1 B, B K^-1): right product", q1 * p1 - ident)
        p2 = (b_inv * k).scale(a * (q - 1 / q) / a_inv) - ident.scale((a * q - 1 / (a * q)) / a_inv)
        q2 = (k * b_inv).scale(a * (q - 1 / q) / inv_a) - ident.scale((q / a - a / q) / inv_a)
        expect_zero(failures, f"{tag}inverse pair (B^-1 K, K B^-1): left product", p2 * q2 - ident)
        expect_zero(failures, f"{tag}inverse pair (B^-1 K, K B^-1): right product", q2 * p2 - ident)
    return not failures, failures


def check_H_conjugation_of_splits(lus: LusztigData, s: SplitMaps):
    """The eight conjugation identities for the split maps under H.

    H^-1 B H = a A - a^2 B^-1 and H^-1 K H = a^-1 A - a^-2 K^-1 (with the
    down analogues), plus the reformulations H B^-1 H^-1 = a^-1 A - a^-2 B
    and H K^-1 H^-1 = a A - a^2 K (with the down analogues); the right-hand
    sides are the closed forms kept on `s`.
    Returns (passed, failures) as (name, residual).
    """
    h, h_inv = lus.H, lus.H_inv
    conj, conj_inv = s.conjugates
    failures = []
    cases = [
        ("H^-1 B H = a A - a^2 B^-1", h_inv * s.B * h, conj["B"]),
        ("H^-1 K H = a^-1 A - a^-2 K^-1", h_inv * s.K * h, conj["K"]),
        ("H^-1 Bdown H = a A - a^2 Bdown^-1", h_inv * s.Bdown * h, conj["Bdown"]),
        ("H^-1 Kdown H = a^-1 A - a^-2 Kdown^-1", h_inv * s.Kdown * h, conj["Kdown"]),
        ("H B^-1 H^-1 = a^-1 A - a^-2 B", h * s.B.inverse() * h_inv, conj_inv["B"]),
        ("H K^-1 H^-1 = a A - a^2 K", h * s.K.inverse() * h_inv, conj_inv["K"]),
        ("H Bdown^-1 H^-1 = a^-1 A - a^-2 Bdown", h * s.Bdown.inverse() * h_inv, conj_inv["Bdown"]),
        ("H Kdown^-1 H^-1 = a A - a^2 Kdown", h * s.Kdown.inverse() * h_inv, conj_inv["Kdown"]),
    ]
    for name, lhs, rhs in cases:
        expect_zero(failures, name, lhs - rhs)
    return not failures, failures


def check_R_ladder(model: TDModel, s: SplitMaps, spectra: LadderSpectra):
    """The raising-ladder properties of R = A - a K - a^-1 K^-1.

    U_0, ..., U_d are the eigenspaces of K for q^d, ..., q^-d, taken from
    `spectra`. With U_i's basis as the columns of a matrix:
    a K + a^-1 K^-1 acts as theta_i on U_i; R maps U_i into U_(i+1), that is
    (K - q^(d-2i-2) I) R kills U_i; R kills U_d. Then R^(d+1) = 0 and
    RK = q^2 KR. Returns (passed, failures) as (name, residual).
    """
    p = model.params
    q, a, d = p.q, p.a, p.d
    parts = spectra.decomposition(s.K).parts
    eigs = spectra.eigenvalues
    theta_map = s.K.scale(a) + s.K.inverse().scale(1 / a)
    r = model.A - theta_map
    failures = []
    for i, part in enumerate(parts):
        u = Matrix(part.basis).transpose()
        expect_zero(
            failures, f"(a K + a^-1 K^-1) acts as theta_{i} on U_{i}", theta_map * u - u.scale(model.theta[i])
        )
        ru = r * u
        if i < d:
            expect_zero(failures, f"R U_{i} inside U_{i + 1}", s.K * ru - ru.scale(eigs[i + 1]))
        else:
            expect_zero(failures, "R kills the top part", ru)
    expect_zero(failures, f"R^{d + 1} = 0", r ** (d + 1))
    expect_zero(failures, "R K = q^2 K R", r * s.K - (s.K * r).scale(q * q))
    return not failures, failures


def check_MN_conjugation(lus: LusztigData, s: SplitMaps, spectra: LadderSpectra):
    """M, N, Mdown and Ndown are diagonalizable on the q-ladder; H^-1 M H = N and H^-1 Mdown H = Ndown, exactly.

    The four decompositions are left in `spectra`; a matrix off the ladder
    raises ModelError (ParameterError when a is 1 or -1).
    """
    for mat in (s.M, s.N, s.Mdown, s.Ndown):
        spectra.decomposition(mat)
    failures = []
    for name, m, n in (("H^-1 M H = N", s.M, s.N), ("H^-1 Mdown H = Ndown", s.Mdown, s.Ndown)):
        expect_zero(failures, name, lus.H_inv * m * lus.H - n)
    return not failures, failures
