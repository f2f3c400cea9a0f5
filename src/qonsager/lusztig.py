"""The conjugating operator H and its polynomial expansions.

H = sum_i t_i E_i acts on a model so that conjugation by H realizes the
algebra automorphism fixing A and shifting A*; its inverse is the same sum
with 1/t_i. Four terminating polynomial expansions of H and H^-1 in A hold
on ascending/descending eigenflags of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import mul

from .linalg import Decomposition, Matrix, commutator, kernel, q_commutator
from .model import TDModel
from .scalars import ONE, ParameterError, t_coeff


@dataclass(frozen=True)
class LusztigData:
    model: TDModel
    H: Matrix
    H_inv: Matrix
    LAstar: Matrix
    LinvAstar: Matrix

    # H is invertible (`build_H` checks H^-1 against the inverse), so it maps
    # the direct sum of the A*-eigenspaces to a direct sum of nonzero parts.
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


def lusztig_image(model: TDModel, direction: int) -> Matrix:
    """A* + [A, [A, A*]_(q^eps)] / ((q - q^-1)(q^2 - q^-2)) for eps = +1 or -1."""
    if direction not in (1, -1):
        raise ParameterError(f"direction must be +1 or -1, got {direction}")
    q = model.params.q
    qeps = q if direction == 1 else 1 / q
    denom = (q - 1 / q) * (q * q - 1 / (q * q))
    return model.Astar + commutator(model.A, q_commutator(model.A, model.Astar, qeps)).scale(1 / denom)


def build_H(model: TDModel) -> LusztigData:
    """Assemble H = sum t_i E_i and its inverse, plus both twisted images of A*.

    H^-1 is assembled from the 1/t_i eigenvalue formula and cross-checked
    against the exact matrix inverse.
    """
    t = model.params.ts
    h = model.eigenspaces_A.diagonal_map(t)
    h_inv = model.eigenspaces_A.diagonal_map([1 / ti for ti in t])
    if h_inv != h.inverse():
        raise AssertionError("eigenvalue form of H^-1 disagrees with matrix inversion")
    return LusztigData(
        model=model,
        H=h,
        H_inv=h_inv,
        LAstar=lusztig_image(model, +1),
        LinvAstar=lusztig_image(model, -1),
    )


def check_L_conjugation(model: TDModel, lus: LusztigData):
    """L(A*) = H^-1 A* H, L^-1(A*) = H A* H^-1, and H^-1 A H = A, all exactly.

    Returns (passed, residuals) keyed by identity name.
    """
    residuals = {
        "L(A*) = H^-1 A* H": lus.LAstar - lus.H_inv * model.Astar * lus.H,
        "L^-1(A*) = H A* H^-1": lus.LinvAstar - lus.H * model.Astar * lus.H_inv,
        "H^-1 A H = A": lus.H_inv * model.A * lus.H - model.A,
    }
    return all(r.is_zero() for r in residuals.values()), residuals


def check_L_entrywise(model: TDModel, lus: LusztigData):
    """E_i L(A*) E_j = t_ij E_i A* E_j for |i-j| <= 1, both sides zero beyond.

    Both sides are read as blocks in the eigenbasis of A; a product
    E_i X E_j is formed only as the witness of a nonzero block.
    Returns (passed, failures) with failures as (i, j, residual).
    """
    failures = []
    p = model.params
    dec = model.eigenspaces_A
    image, star = dec.block_form(lus.LAstar), dec.block_form(model.Astar)

    def witness(i, j, x):
        failures.append((i, j, dec.projector([i]) * x * dec.projector([j])))

    for i in range(p.d + 1):
        for j in range(p.d + 1):
            if abs(i - j) <= 1:
                t = t_coeff(i, j, p)
                if not dec.block_is_zero(image - star.scale(t), i, j):
                    witness(i, j, lus.LAstar - model.Astar.scale(t))
            elif not dec.block_is_zero(image, i, j):
                witness(i, j, lus.LAstar)
            elif not dec.block_is_zero(star, i, j):
                witness(i, j, model.Astar)
    return not failures, failures


def check_L_eigenstructure(model: TDModel, lus: LusztigData):
    """Both twisted images are diagonalizable with the A*-spectrum on conjugated eigenspaces.

    For eps in {+1, -1}: eigenvalues of L^eps(A*) are the theta*_i, with
    theta*_i-eigenspace H^(-eps) V*_i. With P the basis matrix of the
    conjugated eigenspaces, one product certifies L^eps(A*) P = P diag(theta*):
    the conjugated eigenspaces are a checked direct sum and the theta*_i are
    pairwise distinct, so that is the same statement. Kernels are computed
    only to name a failure.
    Returns (passed, failures) as (eps, i, description) triples.
    """
    failures = []
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


def expand_H(model: TDModel, r: int, variant: str = "ascending") -> tuple[Matrix, Matrix]:
    """Evaluate one terminating polynomial expansion of H and its H^-1 partner in A.

    ascending (anchor r): t_r sum_i a^i q^(i(d-2r)) (A-th_r)...(A-th_(r+i-1)) / (q^2;q^2)_i,
    valid on V_r + ... + V_d.
    descending (anchor s=r): t_s sum_i a^-i q^(i(2s-d)) (A-th_s)...(A-th_(s-i+1)) / (q^2;q^2)_i,
    valid on V_0 + ... + V_s.
    The H^-1 expansion flips a -> 1/a, q -> 1/q and uses 1/t_r; it sums the
    same products of (A - theta I) factors, so both are built from one chain.
    Returns (expansion of H, expansion of H^-1).
    """
    d = model.d
    if not 0 <= r <= d:
        raise ParameterError(f"anchor index {r} out of range 0..{d}")
    if variant not in ("ascending", "descending"):
        raise ParameterError(f"variant must be 'ascending' or 'descending', got {variant!r}")
    p = model.params
    q, a = p.q, p.a
    ident = Matrix.identity(model.dim)
    tr = p.ts[r]
    out, out_inv = Matrix.zero(model.dim), Matrix.zero(model.dim)
    running = ident  # the growing product of (A - theta I) factors
    coeff = ONE  # the growing power of the step below
    if variant == "ascending":
        length, step = d - r, a * q ** (d - 2 * r)
    else:
        length, step = r, q ** (2 * r - d) / a
    for i in range(length + 1):
        if i > 0:
            idx = (r + i - 1) if variant == "ascending" else (r - i + 1)
            running = running * (model.A - ident.scale(model.theta[idx]))
            coeff *= step
        out = out + running.scale(coeff / p.q2_poch[i])
        out_inv = out_inv + running.scale(1 / (coeff * p.q2_inv_poch[i]))
    return out.scale(tr), out_inv.scale(1 / tr)


def check_H_expansions(model: TDModel, lus: LusztigData):
    """All four expansion families agree with H or H^-1 on their stated flags.

    Each call of `expand_H` gives the H and H^-1 expansions at one anchor.
    The residual (expansion - H^(+-1)) is multiplied by the flag's columns
    of P, the eigenspace bases of its parts. Those columns are a basis of
    the flag, so a zero product proves that the expansion equals H^(+-1)
    on the whole flag. A failing residual's witness is the residual times
    the exact flag projector.
    Returns (passed, failures) as (variant, inverse, r, residual).
    """
    failures = []
    dec = model.eigenspaces_A
    d = model.d
    for variant in ("ascending", "descending"):
        expansions = [expand_H(model, r, variant) for r in range(d + 1)]
        for inverse, target in ((False, lus.H), (True, lus.H_inv)):
            for r in range(d + 1):
                # the flag V_r+...+V_d (ascending) or V_0+...+V_r (descending)
                parts = range(r, d + 1) if variant == "ascending" else range(r + 1)
                columns = chain.from_iterable(dec[k].numerators for k in parts)
                resid = expansions[r][inverse] - target
                if any(sum(map(mul, row, col)) for col in columns for row in resid.numerators):
                    failures.append((variant, inverse, r, resid * dec.projector(parts)))
    return not failures, failures
