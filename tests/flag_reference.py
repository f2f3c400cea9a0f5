"""Partial sums of a decomposition, eliminated as subspaces: the tests' flag oracle.

`flag` below spans the parts' bases directly, as `linalg` did before flag
equalities and split parts were read off changes of basis
(`Decomposition.flag_mismatches`, `Decomposition.flag_meets`). It shares
no code with either. The ascending partial sums are kept per
decomposition; the descending ones are those of the inversion.
"""

from weakref import WeakKeyDictionary

from qonsager.linalg import Decomposition, Subspace

from linalg_reference import span

_ASCENDING = WeakKeyDictionary()


def flag(dec: Decomposition, i: int, direction: str = "ascending") -> Subspace:
    """Partial sums of a decomposition: ascending W_0+...+W_i, descending W_d+...+W_(d-i)."""
    d = len(dec) - 1
    if not 0 <= i <= d:
        raise IndexError(f"flag index {i} out of range 0..{d}")
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be 'ascending' or 'descending', got {direction!r}")
    if direction == "descending":
        dec = dec.inversion()
    sums = _ASCENDING.get(dec)
    if sums is None:
        sums, vectors = [], ()
        for part in dec.parts:
            sums.append(span(dec.ambient_dim, vectors + part.basis))
            vectors = sums[-1].basis
        _ASCENDING[dec] = sums
    return sums[i]
