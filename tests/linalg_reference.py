"""Sums and intersections of subspaces: the tests' subspace-lattice oracle.

`subspace_sum` and `subspace_intersect` below are the lattice operations
`linalg` kept until no check needed them: flags and split parts are read
off changes of basis, and irreducibility reads the support graph of
P*^-1 A P* instead of intersecting eigenspaces. They use only the public
`Subspace` API.
"""

from qonsager.linalg import ShapeError, Subspace


def _check_ambient(s: Subspace, t: Subspace) -> None:
    if s.ambient_dim != t.ambient_dim:
        raise ShapeError(f"ambient mismatch: {s.ambient_dim} vs {t.ambient_dim}")


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    _check_ambient(s, t)
    return Subspace.from_vectors(s.ambient_dim, s.basis + t.basis)


def subspace_intersect(s: Subspace, t: Subspace) -> Subspace:
    """Intersection by the Zassenhaus block trick on the stacked bases.

    The reduced row-echelon form of [[S, S], [T, 0]] ends in the rows with a
    zero left half, and their right halves span the intersection.
    """
    _check_ambient(s, t)
    n = s.ambient_dim
    if s.is_zero() or t.is_zero():
        return Subspace.zero(n)
    block = [row + row for row in s.basis] + [row + (0,) * n for row in t.basis]
    reduced = Subspace.from_vectors(2 * n, block).basis
    return Subspace.from_vectors(n, [row[n:] for row in reduced if not any(row[:n])])
