"""Matrix realizations of the two-generator modules and their defining checks.

Generated models live in the split basis: A is lower bidiagonal with diagonal
theta_0..theta_d and subdiagonal 1, A* is upper bidiagonal with diagonal
theta*_0..theta*_d and superdiagonal phi_1..phi_d. All verification
operations also accept arbitrary imported square pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (
    Decomposition,
    Matrix,
    ShapeError,
    Subspace,
    commutator,
    invariant_closure,
    kernel,
    q_commutator,
)
from .scalars import ONE, ParameterError, ParamSet, p_poly


class ModelError(ValueError):
    """Raised when a model fails its defining relations at construction time."""

    def __init__(self, message: str, residual: Matrix | None = None):
        super().__init__(message)
        self.residual = residual


def qdg_residuals(a: Matrix, astar: Matrix, q: Fraction) -> tuple[Matrix, Matrix]:
    """Residuals of the two q-Dolan/Grady relations, in order.

    Relation 1: [A,[A,[A,A*]_q]_(q^-1)] - (q^2-q^-2)^2 [A*,A].
    Relation 2: the same with A and A* interchanged.
    """
    if a.rows != a.cols or a.rows != astar.rows or a.cols != astar.cols:
        raise ShapeError("q-Dolan/Grady check needs square matrices of equal shape")
    q = Fraction(q)
    scale = (q * q - 1 / (q * q)) ** 2
    res1 = commutator(a, q_commutator(a, q_commutator(a, astar, q), 1 / q)) - commutator(astar, a).scale(scale)
    res2 = commutator(astar, q_commutator(astar, q_commutator(astar, a, q), 1 / q)) - commutator(a, astar).scale(scale)
    return res1, res2


def check_qdg(a: Matrix, astar: Matrix, q: Fraction):
    """Check both q-Dolan/Grady relations exactly.

    Returns (passed, residuals); each residual is the zero matrix on pass.
    """
    residuals = qdg_residuals(a, astar, q)
    return all(r.is_zero() for r in residuals), residuals


def eigenspace_decomposition(m: Matrix, eigs) -> Decomposition:
    """Decomposition of the ambient space into kernels of (m - eig I).

    Raises ModelError unless the kernels are nonzero and fill the space, i.e.
    m is diagonalizable with exactly the given eigenvalues. The eigenvalues
    are pairwise distinct, so the kernels are independent and their ranks
    summing to the size makes them a direct sum; nothing more is eliminated.
    """
    eigs = [Fraction(e) for e in eigs]
    if len(set(eigs)) != len(eigs):
        raise ModelError(f"eigenvalues {eigs} are not pairwise distinct")
    ident = Matrix.identity(m.rows)
    parts = []
    total = 0
    for e in eigs:
        space = kernel(m - ident.scale(e))
        if space.is_zero():
            raise ModelError(f"eigenvalue {e} has no eigenvector")
        total += space.rank
        parts.append(space)
    if total != m.rows:
        raise ModelError(
            f"eigenspace dimensions sum to {total} != {m.rows}; not diagonalizable on this list"
        )
    return Decomposition.independent(parts)


@dataclass(frozen=True)
class TDModel:
    """The bundle one verification run consumes.

    ``constructed`` is true for split-basis models built from a phi sequence
    and false for imported pairs, which are verified but never assumed to be
    bidiagonal.
    """

    params: ParamSet
    A: Matrix
    Astar: Matrix
    constructed: bool = True

    @property
    def theta(self) -> tuple[Fraction, ...]:
        return self.params.thetas

    @property
    def theta_star(self) -> tuple[Fraction, ...]:
        return self.params.theta_stars

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def dim(self) -> int:
        return self.A.rows

    @cached_property
    def eigenspaces_A(self) -> Decomposition:
        return eigenspace_decomposition(self.A, self.theta)

    @cached_property
    def eigenspaces_Astar(self) -> Decomposition:
        return eigenspace_decomposition(self.Astar, self.theta_star)

    @cached_property
    def qdg(self):
        """The `check_qdg` verdict: (passed, residuals)."""
        return check_qdg(self.A, self.Astar, self.params.q)

    @cached_property
    def tridiagonal_action(self):
        """The `check_tridiagonal_action` verdict: (passed, failures)."""
        return check_tridiagonal_action(self)

    @cached_property
    def irreducible(self) -> bool:
        """No proper nonzero subspace is invariant under both A and A*."""
        return check_irreducible(self.A, self.Astar, self.eigenspaces_A, self.eigenspaces_Astar)


def build_model(p: ParamSet) -> TDModel:
    """Construct the split-basis model for a full ParamSet and verify it.

    Raises ModelError (with the violated relation's residual) if the phi
    sequence does not satisfy the q-Dolan/Grady relations, or if the pair is
    reducible or fails the block-tridiagonal action.
    """
    if len(p.phi) != p.d:
        raise ParameterError(
            f"ParamSet needs a phi sequence of length d={p.d} to build a model"
        )
    n = p.d + 1
    thetas, theta_stars = p.thetas, p.theta_stars
    a_rows = [[Fraction(0)] * n for _ in range(n)]
    astar_rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a_rows[i][i] = thetas[i]
        astar_rows[i][i] = theta_stars[i]
    for i in range(p.d):
        a_rows[i + 1][i] = ONE
        astar_rows[i][i + 1] = p.phi[i]
    model = TDModel(params=p, A=Matrix(a_rows), Astar=Matrix(astar_rows))
    passed, residuals = model.qdg
    if not passed:
        which = 1 if not residuals[0].is_zero() else 2
        raise ModelError(
            f"q-Dolan/Grady relation {which} violated by phi={p.phi}",
            residuals[which - 1],
        )
    ok, failures = model.tridiagonal_action
    if not ok:
        side, i, j, resid = failures[0]
        raise ModelError(f"tridiagonal action violated at {side} ({i},{j})", resid)
    if not model.irreducible:
        raise ModelError("constructed pair is reducible")
    return model


def assemble_imported(p: ParamSet, a: Matrix, astar: Matrix) -> TDModel:
    """Wrap an imported (A, A*) pair with the spectra implied by the header.

    The pair is only bundled, never reshaped. Raises ModelError unless both
    matrices are diagonalizable with the stated q-Racah spectra.
    """
    n = p.d + 1
    if a.rows != n or a.cols != n or astar.rows != n or astar.cols != n:
        raise ShapeError(f"imported matrices must be {n}x{n} for d={p.d}")
    model = TDModel(params=p, A=a, Astar=astar, constructed=False)
    # Each decomposition raises ModelError unless its matrix is diagonalizable
    # on the header's spectrum; the checks then share them.
    model.eigenspaces_A
    model.eigenspaces_Astar
    return model


def check_tridiagonal_action(model: TDModel):
    """E_i A* E_j = 0 and E*_i A E*_j = 0 whenever |i - j| > 1.

    Each product is read as a block of A* (or A) in the eigenbasis of A (or
    A*); the product itself is formed only as the witness of a nonzero block.
    Returns (passed, failures) with failures as (side, i, j, residual).
    """
    sides = [("E_i A* E_j", model.eigenspaces_A, model.Astar), ("E*_i A E*_j", model.eigenspaces_Astar, model.A)]
    forms = [dec.block_form(x) for _, dec, x in sides]
    failures = []
    n = model.d + 1
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= 1:
                continue
            for (side, dec, x), y in zip(sides, forms):
                if not dec.block_is_zero(y, i, j):
                    failures.append((side, i, j, dec.projector([i]) * x * dec.projector([j])))
    return not failures, failures


def check_irreducible(
    a: Matrix, astar: Matrix, spaces_a: Decomposition, spaces_astar: Decomposition
) -> bool:
    """True iff no proper nonzero subspace is invariant under both maps.

    `spaces_a` and `spaces_astar` are the eigenspace decompositions of the
    two maps. Any joint invariant subspace contains an eigenvector of each
    map, so it suffices to close every eigenspace basis vector of either map
    under the pair and demand full rank. Complete whenever either map has
    all eigenspaces one-dimensional, which holds for every model: both are
    diagonalizable with d + 1 distinct eigenvalues on Q^(d+1). A joint
    eigenvector then needs no separate pass: it spans one of those lines,
    whose basis vector closes to that line alone.
    """
    if a.rows != a.cols or a.rows != astar.rows or a.cols != astar.cols:
        raise ShapeError("irreducibility check needs square matrices of equal shape")
    n = a.rows
    pair = (a, astar)
    for space in spaces_a.parts + spaces_astar.parts:
        for vec in space.basis:
            seed = Subspace.from_vectors(n, [vec])
            if invariant_closure(seed, pair).rank < n:
                return False
    return True


def spectrum_path(eigs, q: Fraction) -> bool:
    """Whether the graph with edges {lam, mu}, P(lam, mu) = 0, is the path eigs[0], ..., eigs[-1].

    For pairwise distinct eigenvalues this holds exactly when
    P(eigs[i], eigs[j]) = 0 for j = i + 1 and for no other i < j.
    """
    n = len(eigs)
    return all(
        (p_poly(eigs[i], eigs[j], q) == 0) == (j == i + 1) for i in range(n) for j in range(i + 1, n)
    )


def recover_a(theta0: Fraction, theta1: Fraction, d: int, q: Fraction, spectrum=None) -> Fraction:
    """Recover the scalar a with theta_i = a q^(d-2i) + a^-1 q^(2i-d) from theta_0, theta_1.

    Solves u + v = theta_0, u q^-2 + v q^2 = theta_1 for u = a q^d and checks
    the consistency condition u v = 1; with a full spectrum supplied, every
    theta_i is re-derived and compared.
    """
    if d < 1:
        raise ParameterError(f"diameter must be >= 1, got {d}")
    q = Fraction(q)
    if q == 0 or q == 1 or q == -1:
        raise ParameterError(f"q must lie outside {{0, 1, -1}}, got {q}")
    u = (q * q * theta0 - theta1) / (q * q - 1 / (q * q))
    v = theta0 - u
    if u * v != 1:
        raise ParameterError(
            f"spectrum is not of q-Racah shape: u*v = {u * v} != 1 for theta_0={theta0}, theta_1={theta1}"
        )
    a = u / q**d
    if a == 0:
        raise ParameterError("recovered a = 0")
    if spectrum is not None:
        for i, th in enumerate(spectrum):
            expected = a * q ** (d - 2 * i) + q ** (2 * i - d) / a
            if Fraction(th) != expected:
                raise ParameterError(
                    f"theta_{i} = {th} does not match the recovered form {expected}"
                )
    return a


# c values scanned by solve_phi; c and 1/c give the same sequence, so only
# one representative of each reciprocal pair appears.
DEFAULT_C_SCAN = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    Fraction(-2),
    Fraction(5),
    Fraction(-3),
    Fraction(7),
    Fraction(1, 7),
    Fraction(-5),
    Fraction(2, 3),
    Fraction(-2, 3),
)


def phi_candidate(d: int, q: Fraction, a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, ...]:
    """One-parameter family of split sequences for the q-Racah eigenvalue data.

    phi_i = h h* Q^(1-2i) (1-Q^i)(1-Q^(i-d-1))(1-r1 Q^i)(1-r2 Q^i) with
    Q = q^2, h = a q^d, h* = b q^d, r1 r2 = (a b q^(d+1))^-2; the free
    rational parameter c fixes r1 = c/(a b q^(d+1)). Candidates are never
    trusted directly; solve_phi re-validates each through check_qdg.
    """
    if c == 0:
        raise ParameterError("family parameter c must be nonzero")
    big_q = q * q
    h = a * q**d
    h_star = b * q**d
    r1 = c / (a * b * q ** (d + 1))
    r2 = 1 / (c * a * b * q ** (d + 1))
    return tuple(
        h
        * h_star
        * big_q ** (1 - 2 * i)
        * (1 - big_q**i)
        * (1 - big_q ** (i - d - 1))
        * (1 - r1 * big_q**i)
        * (1 - r2 * big_q**i)
        for i in range(1, d + 1)
    )


def solve_phi(d: int, q: Fraction, a: Fraction, b: Fraction, limit: int = 3, models=None):
    """Find rational phi sequences making the split-basis pair satisfy check_qdg.

    Scans the one-parameter candidate family over rational c values and keeps
    the sequences whose built model passes every construction check. Returns
    up to ``limit`` (at least 1) distinct validated sequences ([] when none
    validate, which signals the caller to vary parameters). When ``models``
    is a list, the built model of each returned sequence is appended to it,
    in order, so the caller need not build it again.
    """
    if limit < 1:
        raise ParameterError(f"limit must be at least 1, got {limit}")
    if models is None:
        models = []
    base = ParamSet(d, Fraction(q), Fraction(a), Fraction(b))  # validates the scalars
    if d == 1:
        # Any nonzero phi_1 satisfies the relations at d=1.
        models.append(build_model(base.with_phi((ONE,))))
        return [(ONE,)]
    found = []
    seen = set()
    for c in DEFAULT_C_SCAN:
        phi = phi_candidate(d, base.q, base.a, base.b, Fraction(c))
        if any(p == 0 for p in phi) or phi in seen:
            continue
        seen.add(phi)
        try:
            model = build_model(base.with_phi(phi))
        except (ModelError, ParameterError):
            continue
        models.append(model)
        found.append(phi)
        if len(found) >= limit:
            break
    return found
