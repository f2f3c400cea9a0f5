"""Invariant closures: the oracles for `model.check_irreducible` and for each other.

`invariant_closure` is the worklist closure `linalg` kept while
irreducibility was decided by closing eigenvectors; `model` now reads the
support graph of P*^-1 A P* instead. `_closure` is the round-based closure
it was first checked against: each round adds the images of the whole
current subspace under every map and re-eliminates the sum, until a round
adds nothing. The two share no code beyond `Subspace` arithmetic.
"""

from math import gcd
from operator import mul

from qonsager.linalg import ShapeError, Subspace

from linalg_reference import span, subspace_sum


def _reduce(vec, rows, pivots):
    """vec with each echelon row's pivot eliminated, in insertion order; divided by its gcd.

    Each row is zero at the pivots of the rows before it, so eliminating a
    later pivot never brings an earlier one back: the result is zero exactly
    when vec lies in the span of the rows.
    """
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            p = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            vec = [a * x - b * y for x, y in zip(vec, row)]
    g = gcd(*vec)
    return [e // g for e in vec] if g > 1 else vec


def invariant_closure(seed: Subspace, maps) -> Subspace:
    """Smallest subspace containing seed and invariant under every map.

    A worklist: each queued vector is reduced against an integer echelon
    basis of the span so far, and only a vector that grows the span has its
    images under the maps queued. The search stops once the span is the
    whole space.
    """
    n = seed.ambient_dim
    for m in maps:
        if m.rows != n or m.cols != n:
            raise ShapeError(f"closure under a {m.rows}x{m.cols} map in Q^{n}")
    rows, pivots = [], []
    queue = [list(v) for v in seed.numerators]
    while queue and len(rows) < n:
        vec = _reduce(queue.pop(), rows, pivots)
        if not any(vec):
            continue
        rows.append(vec)
        pivots.append(next(c for c, e in enumerate(vec) if e))
        queue.extend([sum(map(mul, row, vec)) for row in m.numerators] for m in maps)
    return span(n, rows)


def _closure(seed: Subspace, maps) -> Subspace:
    """Smallest subspace containing seed and invariant under every map."""
    current = seed
    while True:
        grown = current
        for m in maps:
            grown = subspace_sum(grown, current.image_under(m))
        if grown.rank == current.rank:
            return current
        current = grown
