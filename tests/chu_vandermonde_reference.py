"""The summation identities term by term: the reference oracle for `scalars.chu_vandermonde_table`.

Each term's theta product and a/q powers are formed directly: theta_i
and t_i from their closed forms, the shifted factorials from `q_poch`, none
from the `ParamSet` tables the table sums.
"""

from fractions import Fraction

from qonsager.scalars import ONE, ParameterError, ParamSet, q_poch

ZERO = Fraction(0)


def _theta(i: int, p: ParamSet) -> Fraction:
    """theta_i = a q^(d-2i) + a^-1 q^(2i-d)."""
    return p.a * p.q ** (p.d - 2 * i) + p.q ** (2 * i - p.d) / p.a


def _t(i: int, p: ParamSet) -> Fraction:
    """t_i = a^(2i) q^(2i(d-i))."""
    return p.a ** (2 * i) * p.q ** (2 * i * (p.d - i))


def _rising_theta_product(s: int, r: int, i: int, p: ParamSet, descending: bool) -> Fraction:
    """(th_s - th_r)(th_s - th_(r+1))...: the i-factor product in the summation identities."""
    out = ONE
    for k in range(i):
        if descending:
            out *= _theta(r, p) - _theta(s - k, p)
        else:
            out *= _theta(s, p) - _theta(r + k, p)
    return out


def chu_vandermonde_sums(r: int, s: int, p: ParamSet) -> dict[str, tuple[Fraction, Fraction]]:
    """Evaluate the four terminating summation identities at (r, s).

    Returns a map from identity name to (sum value, expected t-ratio); the
    identity holds when the pair is equal. Names: "ascending" and
    "ascending_inv" sum products (th_s - th_(r+k)); "descending" and
    "descending_inv" sum products (th_r - th_(s-k)).
    """
    if not 0 <= r <= s <= p.d:
        raise ParameterError(f"need 0 <= r <= s <= d, got r={r}, s={s}, d={p.d}")
    q, a, d = p.q, p.a, p.d
    q2 = q * q
    asc = ZERO
    asc_inv = ZERO
    desc = ZERO
    desc_inv = ZERO
    for i in range(s - r + 1):
        up = _rising_theta_product(s, r, i, p, descending=False)
        down = _rising_theta_product(s, r, i, p, descending=True)
        asc += a**i * q ** (i * (d - 2 * r)) * up / q_poch(q2, q2, i)
        asc_inv += a**-i * q ** (i * (2 * r - d)) * up / q_poch(1 / q2, 1 / q2, i)
        desc += a**-i * q ** (i * (2 * s - d)) * down / q_poch(q2, q2, i)
        desc_inv += a**i * q ** (i * (d - 2 * s)) * down / q_poch(1 / q2, 1 / q2, i)
    ts_tr = _t(s, p) / _t(r, p)
    return {
        "ascending": (asc, ts_tr),
        "ascending_inv": (asc_inv, 1 / ts_tr),
        "descending": (desc, 1 / ts_tr),
        "descending_inv": (desc_inv, ts_tr),
    }

