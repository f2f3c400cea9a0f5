"""The summation identities term by term: the reference oracle for `scalars.chu_vandermonde_sums`.

Each term's theta product and a/q powers are formed from scratch, and the
shifted factorials come from `q_poch`, not from the `ParamSet` tables.
"""

from fractions import Fraction

from qonsager.scalars import ONE, ParameterError, ParamSet, q_poch, t_seq, theta

ZERO = Fraction(0)


def _rising_theta_product(s: int, r: int, i: int, p: ParamSet, descending: bool) -> Fraction:
    """(th_s - th_r)(th_s - th_(r+1))...: the i-factor product in the summation identities."""
    out = ONE
    for k in range(i):
        if descending:
            out *= theta(r, p) - theta(s - k, p)
        else:
            out *= theta(s, p) - theta(r + k, p)
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
    ts_tr = t_seq(s, p) / t_seq(r, p)
    return {
        "ascending": (asc, ts_tr),
        "ascending_inv": (asc_inv, 1 / ts_tr),
        "descending": (desc, 1 / ts_tr),
        "descending_inv": (desc_inv, ts_tr),
    }

