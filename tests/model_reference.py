"""`check_irreducible` and `spectrum_graph` as `model` had them: the oracles of the two rewritten checks.

`coupling` forms the matrix the support-graph check of `model` reads.

The irreducibility check below rejects joint eigenvectors by intersecting
every pair of eigenspaces before it closes eigenvectors; `model` now only
closes them. The spectrum classifier builds the whole adjacency graph and
walks it; `model.spectrum_path` tests the path's edges directly. Both are
verbatim apart from their imports (the span and the intersection come from
`linalg_reference`).
"""

from dataclasses import dataclass
from fractions import Fraction

from qonsager.linalg import Decomposition, Matrix, ShapeError
from qonsager.scalars import ParameterError, p_poly

from closure_reference import invariant_closure
from linalg_reference import span, subspace_intersect


def check_irreducible(
    a: Matrix, astar: Matrix, spaces_a: Decomposition, spaces_astar: Decomposition
) -> bool:
    """True iff no proper nonzero subspace is invariant under both maps.

    `spaces_a` and `spaces_astar` are the eigenspace decompositions of the
    two maps. Any joint invariant subspace contains an eigenvector of each
    map, so it suffices to (i) reject joint eigenvectors outright and (ii)
    close every eigenspace basis vector of either map under the pair and
    demand full rank. Complete whenever either map has all eigenspaces
    one-dimensional (true for every generated model).
    """
    if a.rows != a.cols or a.rows != astar.rows or a.cols != astar.cols:
        raise ShapeError("irreducibility check needs square matrices of equal shape")
    n = a.rows
    if n == 1:
        return True
    for va in spaces_a.parts:
        for vs in spaces_astar.parts:
            if not subspace_intersect(va, vs).is_zero():
                return False  # a joint eigenvector spans an invariant line
    pair = (a, astar)
    for space in spaces_a.parts + spaces_astar.parts:
        for vec in space.basis:
            seed = span(n, [vec])
            if invariant_closure(seed, pair).rank < n:
                return False
    return True


def coupling(a: Matrix, spaces_astar: Decomposition) -> Matrix:
    """P*^-1 A P*, for P* the basis matrix of A*'s eigenspaces: what `model.check_irreducible` reads."""
    return spaces_astar.basis_inverse() * a * spaces_astar.basis_matrix()


@dataclass(frozen=True)
class SpectrumGraph:
    """Classification of the adjacency graph on a set of eigenvalues."""

    kind: str  # "path" | "cycle" | "disconnected" | "branching"
    order: tuple[Fraction, ...] | None = None


def spectrum_graph(eigs, q: Fraction) -> SpectrumGraph:
    """Classify the graph with edges {lam != mu, P(lam, mu) = 0} on the given eigenvalues.

    A valid q-Racah spectrum yields a path, returned with one of its two
    traversal orders (starting from the endpoint earliest in the input).
    Over Q the "cycle" and "branching" outcomes cannot actually arise (a
    cycle forces q to be a root of unity and P is quadratic in each slot,
    capping vertex degree at 2); they are kept for the classification
    contract on arbitrary inputs.
    """
    eigs = [Fraction(e) for e in eigs]
    if len(set(eigs)) != len(eigs):
        raise ParameterError("eigenvalues must be pairwise distinct")
    if len(eigs) < 2:
        raise ParameterError("at least two eigenvalues are required")
    n = len(eigs)
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if p_poly(eigs[i], eigs[j], q) == 0:
                adj[i].append(j)
                adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < n:
        return SpectrumGraph("disconnected")
    if any(len(adj[v]) > 2 for v in range(n)):
        return SpectrumGraph("branching")
    endpoints = [v for v in range(n) if len(adj[v]) == 1]
    if not endpoints:
        return SpectrumGraph("cycle")
    start = min(endpoints)
    order = [start]
    prev = None
    while len(order) < n:
        nxt = next(w for w in adj[order[-1]] if w != prev)
        prev = order[-1]
        order.append(nxt)
    return SpectrumGraph("path", tuple(eigs[i] for i in order))
