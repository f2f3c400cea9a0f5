"""Spans, sums and intersections of subspaces: the tests' subspace-lattice oracle.

`span` eliminates rational vectors into a `Subspace`, as the reference
oracles need. `subspace_sum` and `subspace_intersect` below are the lattice
operations `linalg` kept until no check needed them: flags and split parts
are read off changes of basis, and irreducibility reads the support graph
of P*^-1 A P* instead of intersecting eigenspaces.
"""

from fractions import Fraction
from math import lcm

from qonsager.linalg import ShapeError, Subspace, _span


def span(n: int, vectors) -> Subspace:
    """The span of rational vectors of length n, each scaled to integers."""
    rows = []
    for vec in vectors:
        vec = [Fraction(e) for e in vec]
        den = lcm(*(e.denominator for e in vec))
        rows.append([e.numerator * (den // e.denominator) for e in vec])
    return _span(n, rows)


def _check_ambient(s: Subspace, t: Subspace) -> None:
    if s.ambient_dim != t.ambient_dim:
        raise ShapeError(f"ambient mismatch: {s.ambient_dim} vs {t.ambient_dim}")


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    _check_ambient(s, t)
    return span(s.ambient_dim, s.basis + t.basis)


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
    reduced = span(2 * n, block).basis
    return span(n, [row[n:] for row in reduced if not any(row[:n])])
