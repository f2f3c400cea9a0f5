"""Lagrange projectors: the reference oracle for checks that read eigenspace blocks.

The package gets every spectral structure from kernel decompositions; the
tests compare its results and witnesses with these products of shifted
matrices, which share no code with it beyond `Matrix` arithmetic.
"""

from fractions import Fraction

from qonsager.linalg import Matrix
from qonsager.model import ModelError
from qonsager.scalars import ParameterError


def lagrange_projectors(m: Matrix, eigs) -> tuple[Matrix, ...]:
    """Spectral projectors of a diagonalizable matrix with the given distinct eigenvalues.

    E_i = prod_(j != i) (m - eig_j I)/(eig_i - eig_j). Raises ModelError unless
    (m - eig_i I) E_i = 0 and E_i != 0 for every i, which together certify that
    m is diagonalizable with spectrum exactly the given list.
    """
    eigs = [Fraction(e) for e in eigs]
    if len(set(eigs)) != len(eigs):
        raise ParameterError("projector eigenvalues must be pairwise distinct")
    n = m.rows
    ident = Matrix.identity(n)
    projectors = []
    for i, ei in enumerate(eigs):
        proj = ident
        for j, ej in enumerate(eigs):
            if j != i:
                proj = (proj * (m - ident.scale(ej))).scale(1 / (ei - ej))
        if proj.is_zero():
            raise ModelError(f"eigenvalue {ei} does not occur in the spectrum")
        resid = (m - ident.scale(ei)) * proj
        if not resid.is_zero():
            raise ModelError(
                f"matrix is not diagonalizable with the stated spectrum at {ei}",
                resid,
            )
        projectors.append(proj)
    return tuple(projectors)
