"""The round-based invariant closure: the reference oracle for `linalg.invariant_closure`.

Each round adds the images of the whole current subspace under every map and
re-eliminates the sum, until a round adds nothing. It shares no code with
the worklist beyond `Subspace` arithmetic.
"""

from qonsager.linalg import Subspace

from linalg_reference import subspace_sum


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
