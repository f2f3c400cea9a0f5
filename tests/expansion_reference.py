"""The one-expansion-per-call evaluation of H and H^-1: the reference oracle.

`expand_H` below is the form `lusztig.expand_H` had before it paired the two
expansions on one chain of (A - theta I) products: each call evaluates the
expansion of H, or with ``inverse=True`` that of H^-1, with its own chain.
"""

from qonsager.linalg import Matrix
from qonsager.model import TDModel
from qonsager.scalars import ONE, ParameterError


def expand_H(model: TDModel, r: int, variant: str = "ascending", inverse: bool = False) -> Matrix:
    """Evaluate one terminating polynomial expansion of H or H^-1 in A.

    ascending (anchor r): t_r sum_i a^i q^(i(d-2r)) (A-th_r)...(A-th_(r+i-1)) / (q^2;q^2)_i,
    valid on V_r + ... + V_d; the inverse flips a -> 1/a, q -> 1/q and uses 1/t_r.
    descending (anchor s=r): t_s sum_i a^-i q^(i(2s-d)) (A-th_s)...(A-th_(s-i+1)) / (q^2;q^2)_i,
    valid on V_0 + ... + V_s; inverse analogous.
    """
    d = model.d
    if not 0 <= r <= d:
        raise ParameterError(f"anchor index {r} out of range 0..{d}")
    if variant not in ("ascending", "descending"):
        raise ParameterError(f"variant must be 'ascending' or 'descending', got {variant!r}")
    p = model.params
    q, a = p.q, p.a
    ident = Matrix.identity(model.dim)
    tr = p.ts[r]
    out = Matrix.zero(model.dim)
    running = ident  # the growing product of (A - theta I) factors
    coeff = ONE  # the growing power of the step below
    if variant == "ascending":
        length, step = d - r, a * q ** (d - 2 * r)
    else:
        length, step = r, q ** (2 * r - d) / a
    if inverse:
        step, poch = 1 / step, p.q2_inv_poch
    else:
        poch = p.q2_poch
    for i in range(length + 1):
        if i > 0:
            idx = (r + i - 1) if variant == "ascending" else (r - i + 1)
            running = running * (model.A - ident.scale(model.theta[idx]))
            coeff *= step
        out = out + running.scale(coeff / poch[i])
    prefactor = 1 / tr if inverse else tr
    return out.scale(prefactor)
