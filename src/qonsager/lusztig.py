"""The conjugating operator H, the twisted images of A*, and the polynomial expansions of H.

H = sum_i t_i E_i acts on a model so that conjugation by H realizes the
algebra automorphism fixing A and shifting A*; its inverse is the same sum
with 1/t_i. L(A*) and L^-1(A*) share their products (`lusztig_images`).
Four terminating polynomial expansions of H and H^-1 in A hold on
ascending/descending eigenflags of A; on an eigenvector of A each is a
scalar, a Chu-Vandermonde sum, so `check_H_expansions` compares H P and
H^-1 P with the eigenbasis P scaled by those sums, witnesses included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import Decomposition, Matrix, Products, kernel
from .model import TDModel
from .scalars import chu_vandermonde_table


@dataclass(frozen=True)
class LusztigData:
    model: TDModel
    H: Matrix
    H_inv: Matrix
    LAstar: Matrix
    LinvAstar: Matrix

    # H = P diag(t_i) P^-1 is invertible, with inverse P diag(1/t_i) P^-1,
    # so it maps the direct sum of the A*-eigenspaces to a direct sum of
    # nonzero parts.
    @cached_property
    def Vplus(self) -> Decomposition:
        """Eigenspaces of L(A*): images of the A*-eigenspaces under H^-1."""
        return Decomposition.independent(
            [s.image_under(self.H_inv) for s in self.model.eigenspaces_Astar.parts]
        )

    @cached_property
    def Vminus(self) -> Decomposition:
        """Eigenspaces of L^-1(A*): images of the A*-eigenspaces under H."""
        return Decomposition.independent(
            [s.image_under(self.H) for s in self.model.eigenspaces_Astar.parts]
        )

    @cached_property
    def H_invertible(self) -> bool:
        """H H^-1 = I, formed once per H: the `lusztig.H_invertible` verdict, also read by `suite.TargetContext.mirrored`."""
        return Products(self.H.rows).residual([(1, (self.H, self.H_inv)), (-1, ())]) is None


def lusztig_images(model: TDModel) -> tuple[Matrix, Matrix]:
    """L(A*) and L^-1(A*): A* + [A, [A, A*]_(q^eps)] / ((q - q^-1)(q^2 - q^-2)) for eps = +1, -1.

    With qe = q^eps the bracket expands to qe A A A* - (qe + qe^-1) A A* A + qe^-1 A* A A;
    both sums combine the same three products, formed once (`Products`), and
    each is built as one `Matrix`.
    """
    q = model.params.q
    denom = (q - 1 / q) * (q * q - 1 / (q * q))
    big_a, star = model.A, model.Astar
    products = Products(model.dim)
    images = []
    for qeps in (q, 1 / q):
        terms = [
            (1, (star,)),
            (qeps / denom, (big_a, big_a, star)),
            (-(qeps + 1 / qeps) / denom, (big_a, star, big_a)),
            (1 / (qeps * denom), (star, big_a, big_a)),
        ]
        images.append(Matrix(*products.combination(terms)))
    return images[0], images[1]


def build_H(model: TDModel) -> LusztigData:
    """Assemble H = sum t_i E_i and its inverse, plus both twisted images of A*.

    H^-1 is assembled from the 1/t_i eigenvalue formula, not by inverting
    H; the check `lusztig.H_invertible` proves H H^-1 = I.
    """
    t = model.params.ts
    h = model.eigenspaces_A.diagonal_map(t)
    h_inv = model.eigenspaces_A.diagonal_map([1 / ti for ti in t])
    l_astar, linv_astar = lusztig_images(model)
    return LusztigData(model=model, H=h, H_inv=h_inv, LAstar=l_astar, LinvAstar=linv_astar)


def check_L_conjugation(lus: LusztigData):
    """L(A*) = H^-1 A* H, L^-1(A*) = H A* H^-1, and H^-1 A H = A, all exactly.

    Each identity is one combination of products (`Products`).
    Returns (passed, residuals) with the nonzero residuals keyed by identity name.
    """
    model = lus.model
    products = Products(model.dim)
    h, h_inv = lus.H, lus.H_inv
    identities = (
        ("L(A*) = H^-1 A* H", [(1, (lus.LAstar,)), (-1, (h_inv, model.Astar, h))]),
        ("L^-1(A*) = H A* H^-1", [(1, (lus.LinvAstar,)), (-1, (h, model.Astar, h_inv))]),
        ("H^-1 A H = A", [(1, (h_inv, model.A, h)), (-1, (model.A,))]),
    )
    residuals = {}
    for name, terms in identities:
        resid = products.residual(terms)
        if resid is not None:
            residuals[name] = resid
    return not residuals, residuals


def check_L_entrywise(lus: LusztigData):
    """E_i L(A*) E_j = t_ij E_i A* E_j for |i-j| <= 1, both sides zero beyond.

    Both sides are read as blocks of P^-1 X P on integer numerators, for P
    the eigenbasis of A, P^-1 A* P held by the model (`TDModel.block_forms`);
    within the band the two blocks are compared entry by entry with t_ij
    from `ParamSet.t_band`. E_i X E_j is formed only as a failure's witness.
    Returns (passed, failures) with failures as (i, j, residual).
    """
    model, failures = lus.model, []
    band = model.params.t_band
    dec = model.eigenspaces_A
    image = Products(model.dim).product((dec.basis_inverse(), lus.LAstar, dec.basis_matrix()))
    star = model.block_forms[0]

    def witness(i, j, x):
        failures.append((i, j, dec.projector([i]) * x * dec.projector([j])))

    for i in range(model.d + 1):
        for j in range(model.d + 1):
            if abs(i - j) <= 1:
                t = band[i, j]
                # image / D_image = t * star / D_star, on the numerators of block (i, j)
                f, g = star.denominator * t.denominator, t.numerator * image.denominator
                if any(f * image.numerators[r][c] != g * star.numerators[r][c] for r, c in dec.block_cells(i, j)):
                    witness(i, j, lus.LAstar - model.Astar.scale(t))
            elif not dec.block_is_zero(image, i, j):
                witness(i, j, lus.LAstar)
            elif not dec.block_is_zero(star, i, j):
                witness(i, j, model.Astar)
    return not failures, failures


def check_L_eigenstructure(lus: LusztigData):
    """Both twisted images are diagonalizable with the A*-spectrum on conjugated eigenspaces.

    For eps in {+1, -1}: eigenvalues of L^eps(A*) are the theta*_i, with
    theta*_i-eigenspace H^(-eps) V*_i. With P the basis matrix of the
    conjugated eigenspaces, one product certifies L^eps(A*) P = P diag(theta*):
    the conjugated eigenspaces are a checked direct sum and the theta*_i are
    pairwise distinct, so that is the same statement. Kernels are computed
    only to name a failure.
    Returns (passed, failures) as (eps, i, description) triples.
    """
    model, failures = lus.model, []
    ident = Matrix.identity(model.dim)
    cases = [(1, lus.LAstar, lus.Vplus), (-1, lus.LinvAstar, lus.Vminus)]
    for eps, image, expected_parts in cases:
        if expected_parts.acts_as(image, model.theta_star):
            continue
        total = 0
        for i, th in enumerate(model.theta_star):
            eigenspace = kernel(image - ident.scale(th))
            total += eigenspace.rank
            if eigenspace != expected_parts[i]:
                failures.append((eps, i, "eigenspace differs from conjugated V*_i"))
        if total != model.dim:
            failures.append((eps, -1, f"eigenspace dimensions sum to {total} != {model.dim}"))
    return not failures, failures


def check_H_expansions(lus: LusztigData):
    """All four expansion families agree with H or H^-1 on their stated flags.

    ascending (anchor r): t_r sum_i a^i q^(i(d-2r)) (A-th_r)...(A-th_(r+i-1)) / (q^2;q^2)_i,
    valid on V_r + ... + V_d.
    descending (anchor s=r): t_s sum_i a^-i q^(i(2s-d)) (A-th_s)...(A-th_(s-i+1)) / (q^2;q^2)_i,
    valid on V_0 + ... + V_s.
    The H^-1 expansion flips a -> 1/a, q -> 1/q and uses 1/t_r.
    On a column of P, the eigenbasis of A, in V_s each factor A - th_k acts
    as th_s - th_k, so the expansion at anchor r acts as t_r^(+-1) times the
    sum `chu_vandermonde_table` holds at (min(r, s), max(r, s)). H P and
    H^-1 P are formed once each (`Products`), and a flag's columns of them
    are compared with P's scaled by those values; the columns are a basis
    of the flag. The flag projector is those columns of P times its rows of
    P^-1, so a failing residual times those rows is the witness
    (expansion - H^(+-1)) times the exact flag projector.
    Returns (passed, failures) as (variant, inverse, r, residual).
    """
    model = lus.model
    d, n, p = model.d, model.dim, model.params
    dec = model.eigenspaces_A
    basis = dec.basis_matrix()  # integral: its denominator is 1
    part_of = [s for s in range(d + 1) for _ in dec[s].numerators]  # the V_s of each column of P
    sums = chu_vandermonde_table(p)
    images = [Products(n).product((target, basis)) for target in (lus.H, lus.H_inv)]
    failures = []
    # report order: ascending before descending, H before H^-1, then by anchor
    for variant in ("ascending", "descending"):
        for inverse in (False, True):
            image, den = images[inverse]
            family = variant + "_inv" * inverse
            for r in range(d + 1):
                scale = 1 / p.ts[r] if inverse else p.ts[r]
                row = [sums[min(r, s), max(r, s)][family] for s in range(d + 1)]
                # the value on each column c of the flag V_r+...+V_d (ascending) or V_0+...+V_r (descending)
                values = {
                    c: (scale.numerator * row[s][0], scale.denominator * row[s][1])
                    for c, s in enumerate(part_of)
                    if (s >= r if variant == "ascending" else s <= r)
                }
                if all(
                    image[i][c] * vd == vn * den * basis.numerators[i][c]
                    for c, (vn, vd) in values.items()
                    for i in range(n)
                ):
                    continue
                resid = [
                    [Fraction(*v) * basis.numerators[i][c] - Fraction(image[i][c], den) for c, v in values.items()]
                    for i in range(n)
                ]
                p_inv = dec.basis_inverse()
                rows = [p_inv.numerators[c] for c in values]
                failures.append((variant, inverse, r, Matrix(resid) * Matrix(rows, p_inv.denominator)))
    return not failures, failures
