"""The partial-sum construction of split decompositions: the reference oracle.

`split_from_decompositions` below builds U_i = (star-flag through i) meet
(A-flag from i up) from the flags' partial-sum subspaces and one Zassenhaus
intersection per part, as `splitmaps` did before it read the parts off a
change of basis. It shares no code with `Decomposition.flag_meets`.
"""

from qonsager.linalg import Decomposition, flag, subspace_intersect
from qonsager.model import ModelError
from qonsager.scalars import ParameterError


def split_from_decompositions(star_dec, a_dec, star_order, a_order):
    for name, value in (("star_order", star_order), ("a_order", a_order)):
        if value not in ("forward", "reversed"):
            raise ParameterError(f"{name} must be 'forward' or 'reversed', got {value!r}")
    if star_order == "reversed":
        star_dec = star_dec.inversion()
    if a_order == "reversed":
        a_dec = a_dec.inversion()
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
