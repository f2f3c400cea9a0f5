"""The partial-sum construction of split decompositions: the reference oracle.

`split_decomposition` below builds U_i = (star-flag through i) meet (A-flag
from i up) from the flags' partial-sum subspaces and one Zassenhaus
intersection per part, as `splitmaps` did before it read the parts off a
change of basis. It shares no code with `Decomposition.flag_meets`. Like
`splitmaps.split_decomposition` it takes both eigenspace decompositions in
the order wanted; a reversed order is passed as the inversion.
"""

from qonsager.linalg import Decomposition
from qonsager.model import ModelError

from flag_reference import flag
from linalg_reference import subspace_intersect


def split_decomposition(star_dec, a_dec):
    d = len(star_dec) - 1
    parts = []
    for i in range(d + 1):
        u = subspace_intersect(
            flag(star_dec, i, "ascending"), flag(a_dec, d - i, "descending")
        )
        if u.is_zero():
            raise ModelError(f"split part U_{i} is zero; the pair is not tridiagonal")
        parts.append(u)
    return Decomposition(parts)
