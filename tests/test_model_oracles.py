"""The rewritten irreducibility and spectrum-path checks against their previous code.

`model_reference` keeps `check_irreducible` with its joint-eigenvector pass
and eigenvector closures, and the `spectrum_graph` classifier, verbatim; the
verdicts of `model` must agree with them on every input drawn here.
`model.check_irreducible` reads the support graph of P*^-1 A P*, so it is
also compared with the closures on seeded dense, reducible and
non-tridiagonal pairs.
"""

import random
from collections import Counter
from fractions import Fraction as F

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qonsager.linalg import Matrix, SingularMatrixError, kernel
from qonsager.model import check_irreducible, eigenspace_decomposition, spectrum_path
from qonsager.scalars import ParameterError, ParamSet

from closure_reference import invariant_closure
import model_reference
from model_reference import coupling

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SCALARS = st.sampled_from([F(2), F(3), F(-2), F(3, 2), F(5), F(1, 7), F(2, 9), F(-1, 3)])
# phi_1 = -144/5 at (d, q, a, b) = (1, 2, 3, 5) puts an eigenvector of A* on an
# eigenline of A; phi_i = 0 makes the span of e_i..e_d invariant under both.
PHI = st.sampled_from([F(0), F(-144, 5), F(1), F(-1), F(2, 3), F(7)])


@st.composite
def param_sets(draw, max_d: int):
    try:
        return ParamSet(draw(st.integers(1, max_d)), draw(SCALARS), draw(SCALARS), draw(SCALARS))
    except ParameterError:
        assume(False)


def bidiagonal_pair(p: ParamSet, phi):
    """A lower bidiagonal on theta with subdiagonal 1, A* upper bidiagonal on theta* with superdiagonal phi."""
    n = p.d + 1
    a = [[p.thetas[i] if i == j else int(i == j + 1) for j in range(n)] for i in range(n)]
    astar = [[p.theta_stars[i] if i == j else phi[i] if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return Matrix(a), Matrix(astar)


@st.composite
def conjugated_pairs(draw):
    """(P A P^-1, P A* P^-1, theta, theta*) for a bidiagonal pair at d <= 4 and an integer P."""
    p = draw(param_sets(4))
    n = p.d + 1
    a, astar = bidiagonal_pair(p, draw(st.lists(PHI, min_size=p.d, max_size=p.d)))
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    conj = Matrix([entries[i * n : (i + 1) * n] for i in range(n)])
    try:
        conj_inv = conj.inverse()
    except SingularMatrixError:
        assume(False)
    return conj * a * conj_inv, conj * astar * conj_inv, p.thetas, p.theta_stars


GOLDEN = ParamSet(1, F(2), F(3), F(5))


@SETTINGS
@given(conjugated_pairs())
@example(bidiagonal_pair(GOLDEN, [F(-144, 5)]) + (GOLDEN.thetas, GOLDEN.theta_stars))
@example(bidiagonal_pair(GOLDEN, [F(0)]) + (GOLDEN.thetas, GOLDEN.theta_stars))
@example(bidiagonal_pair(GOLDEN, [F(1)]) + (GOLDEN.thetas, GOLDEN.theta_stars))
def test_irreducibility_verdict_matches_the_joint_eigenvector_check(case):
    a, astar, thetas, theta_stars = case
    spaces_a, spaces_astar = eigenspace_decomposition(a, thetas), eigenspace_decomposition(astar, theta_stars)
    assert check_irreducible(coupling(a, spaces_astar)) == model_reference.check_irreducible(
        a, astar, spaces_a, spaces_astar
    )


def test_the_joint_eigenvector_pair_is_reducible_to_both():
    a, astar = bidiagonal_pair(GOLDEN, [F(-144, 5)])
    spaces = eigenspace_decomposition(a, GOLDEN.thetas), eigenspace_decomposition(astar, GOLDEN.theta_stars)
    assert not check_irreducible(coupling(a, spaces[1]))
    assert not model_reference.check_irreducible(a, astar, *spaces)


def _seeded_coupled_pair(seed):
    """(A, A*, A*-eigenspaces, kind): A* = P D P^-1 with distinct D, A = P C P^-1 for a seeded C.

    C is dense, block triangular on a random index set (so the span of those
    A*-eigenlines is invariant), or sparse with random support (tridiagonal
    or not); P is a dense integer matrix.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if kernel(p).is_zero():
            break
    eigs = rng.sample(range(-9, 10), n)
    kind = ("dense", "block", "sparse")[seed % 3]
    c = [[rng.randint(-3, 3) or 1 for _ in range(n)] for _ in range(n)]
    if kind == "block":
        closed = set(rng.sample(range(n), rng.randint(1, n - 1)))
        c = [[0 if j in closed and i not in closed else e for j, e in enumerate(row)] for i, row in enumerate(c)]
    elif kind == "sparse":
        c = [[e if rng.random() < 0.35 else 0 for e in row] for row in c]
    p_inv = p.inverse()
    diagonal = Matrix([[e if i == j else 0 for j in range(n)] for i, e in enumerate(eigs)])
    a, astar = p * Matrix(c) * p_inv, p * diagonal * p_inv
    return a, astar, eigenspace_decomposition(astar, eigs), kind


def test_the_support_graph_agrees_with_the_closures_on_seeded_pairs():
    """The graph verdict is the closure oracle's on 300 seeded pairs, n = 2..6.

    A joint invariant subspace is A*-invariant, so it contains an A*-eigenline:
    the pair is irreducible exactly when each of those lines closes to Q^n.
    """
    verdicts = Counter()
    for seed in range(300):
        a, astar, spaces_astar, kind = _seeded_coupled_pair(seed)
        n = a.rows
        closes = all(invariant_closure(line, (a, astar)).rank == n for line in spaces_astar.parts)
        assert check_irreducible(coupling(a, spaces_astar)) == closes, seed
        verdicts[kind, closes] += 1
    # every block triangular pair is reducible, and 178 of the 300 are
    assert verdicts == {("dense", True): 100, ("block", False): 100, ("sparse", False): 78, ("sparse", True): 22}


def old_verdict(eigs, q) -> bool:
    """The suite's previous `model.spectrum_path` verdict."""
    graph = model_reference.spectrum_graph(eigs, q)
    return graph.kind == "path" and graph.order in (tuple(eigs), tuple(eigs)[::-1])


@SETTINGS
@given(param_sets(9))
def test_spectrum_path_matches_the_classifier_on_valid_spectra(p):
    for eigs in (p.thetas, p.theta_stars):
        assert spectrum_path(eigs, p.q) == old_verdict(eigs, p.q)
        assert spectrum_path(eigs, p.q)


@st.composite
def eigenvalue_lists(draw):
    """Distinct eigenvalues: a q-Racah spectrum, cut, shuffled or mixed with other rationals."""
    p = draw(param_sets(6))
    extra = draw(st.lists(st.fractions(-50, 50, max_denominator=12), max_size=3))
    pool = list(dict.fromkeys(p.thetas + tuple(extra)))
    assume(len(pool) >= 2)
    start = draw(st.integers(0, len(pool) - 2))
    eigs = draw(st.one_of(st.just(pool[start:]), st.permutations(pool), st.permutations(pool[start:])))
    return eigs, p.q


@SETTINGS
@given(eigenvalue_lists())
def test_spectrum_path_matches_the_classifier_on_distinct_lists(case):
    eigs, q = case
    assert spectrum_path(eigs, q) == old_verdict(eigs, q)
