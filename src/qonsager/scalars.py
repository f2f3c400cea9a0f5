"""Exact rational scalars and the closed-form quantities of the q-Racah eigenvalue data.

The ground field is Q, realized by ``fractions.Fraction`` (arbitrary-precision,
always stored reduced with positive denominator, so equality is structural).
A rational q outside {0, 1, -1} is never a root of unity, which is all the
genericity the identity checks need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

ONE = Fraction(1)


class ParameterError(ValueError):
    """Raised when scalar parameters violate the standing hypotheses."""


def parse_scalar(token: str) -> Fraction:
    """Parse a "p/q" or "p" token into an exact rational.

    >>> parse_scalar("37/6")
    Fraction(37, 6)
    >>> parse_scalar("-2")
    Fraction(-2, 1)
    """
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad scalar token {token!r}: {exc}") from None


def format_scalar(x: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)


def _require_valid_q(q: Fraction) -> None:
    if q == 0 or q == 1 or q == -1:
        raise ParameterError(f"q must lie outside {{0, 1, -1}}, got {q}")


def q_poch(z: Fraction, t: Fraction, n: int) -> Fraction:
    """Shifted factorial (z;t)_n = (1-z)(1-zt)...(1-zt^(n-1)); empty product at n=0."""
    if n < 0:
        raise ParameterError(f"q_poch length must be nonnegative, got {n}")
    out = ONE
    zt = Fraction(z)
    for _ in range(n):
        out *= 1 - zt
        zt *= t
    return out


@dataclass(frozen=True)
class ParamSet:
    """Parameters (d, q, a, b, phi) of one generated module.

    The constructor enforces the standing hypotheses: d >= 1, q outside
    {0, 1, -1}, a and b nonzero with a^2 (resp. b^2) avoiding
    q^(2d-2), q^(2d-4), ..., q^(2-2d) so both eigenvalue sequences are
    pairwise distinct, and every phi_i nonzero.

    The q-Racah scalars of the instance are tables indexed 0..d, each built
    once, on first use: `thetas`, `theta_stars`, `ts`, the band `t_band` of
    t_ij for |i - j| <= 1 and the two Pochhammer rows `q2_poch` and
    `q2_inv_poch`.
    """

    d: int
    q: Fraction
    a: Fraction
    b: Fraction
    phi: tuple[Fraction, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ParameterError(f"diameter d must be an integer >= 1, got {self.d!r}")
        _require_valid_q(self.q)
        if self.a == 0:
            raise ParameterError("a must be nonzero")
        if self.b == 0:
            raise ParameterError("b must be nonzero")
        forbidden = {self.q ** (2 * k) for k in range(1 - self.d, self.d)}
        if self.a * self.a in forbidden:
            raise ParameterError(
                f"a^2 = {self.a * self.a} lies among q^(2d-2), ..., q^(2-2d); "
                "the eigenvalues of A would collide"
            )
        if self.b * self.b in forbidden:
            raise ParameterError(
                f"b^2 = {self.b * self.b} lies among q^(2d-2), ..., q^(2-2d); "
                "the eigenvalues of A* would collide"
            )
        object.__setattr__(self, "phi", tuple(Fraction(p) for p in self.phi))
        if self.phi:
            if len(self.phi) != self.d:
                raise ParameterError(
                    f"phi sequence must have length d={self.d}, got {len(self.phi)}"
                )
            if any(p == 0 for p in self.phi):
                raise ParameterError("every phi_i must be nonzero")

    def with_phi(self, phi) -> "ParamSet":
        return ParamSet(self.d, self.q, self.a, self.b, tuple(phi))

    def _eigenvalues(self, x: Fraction) -> tuple[Fraction, ...]:
        """x q^(d-2i) + x^-1 q^(2i-d) for i = 0..d."""
        return tuple(x * self.q ** (self.d - 2 * i) + self.q ** (2 * i - self.d) / x for i in range(self.d + 1))

    @cached_property
    def thetas(self) -> tuple[Fraction, ...]:
        """theta_0..theta_d: theta_i = a q^(d-2i) + a^-1 q^(2i-d), the eigenvalues of A."""
        return self._eigenvalues(self.a)

    @cached_property
    def theta_stars(self) -> tuple[Fraction, ...]:
        """theta*_0..theta*_d: theta*_i = b q^(d-2i) + b^-1 q^(2i-d), the eigenvalues of A*."""
        return self._eigenvalues(self.b)

    @cached_property
    def ts(self) -> tuple[Fraction, ...]:
        """t_0..t_d: t_i = t_01 t_12 ... t_(i-1,i), with t_0 = 1.

        Each t_i is compared with its closed form a^(2i) q^(2i(d-i)) as the
        table is built; disagreement would mean a kernel bug, not bad input.
        """
        prod, out = ONE, [ONE]
        for i in range(1, self.d + 1):
            prod *= self.t_band[i - 1, i]
            closed = self.a ** (2 * i) * self.q ** (2 * i * (self.d - i))
            if prod != closed:
                raise AssertionError(
                    f"t_{i} product form {prod} != closed form {closed}; kernel bug"
                )
            out.append(prod)
        return tuple(out)

    @cached_property
    def t_band(self) -> dict[tuple[int, int], Fraction]:
        """`t_coeff` t_ij for |i - j| <= 1, keyed by (i, j)."""
        n = self.d + 1
        return {(i, j): t_coeff(i, j, self) for i in range(n) for j in range(max(i - 1, 0), min(i + 2, n))}

    @cached_property
    def q2_poch(self) -> tuple[Fraction, ...]:
        """(q^2;q^2)_i for i = 0..d."""
        q2 = self.q * self.q
        return tuple(q_poch(q2, q2, i) for i in range(self.d + 1))

    @cached_property
    def q2_inv_poch(self) -> tuple[Fraction, ...]:
        """(q^-2;q^-2)_i for i = 0..d."""
        q2 = self.q * self.q
        return tuple(q_poch(1 / q2, 1 / q2, i) for i in range(self.d + 1))


def _check_index(i: int, p: ParamSet) -> None:
    if not 0 <= i <= p.d:
        raise ParameterError(f"index {i} out of range 0..{p.d}")


def p_poly(lam: Fraction, mu: Fraction, q: Fraction) -> Fraction:
    """Adjacency polynomial P(lam, mu) = lam^2 - (q^2+q^-2) lam mu + mu^2 + (q^2-q^-2)^2.

    Two distinct eigenvalues are adjacent exactly when this vanishes; P is
    symmetric in its first two arguments.
    """
    _require_valid_q(q)
    q2 = q * q
    return lam * lam - (q2 + 1 / q2) * lam * mu + mu * mu + (q2 - 1 / q2) ** 2


def t_coeff(i: int, j: int, p: ParamSet) -> Fraction:
    """Conjugation coefficient t_ij = 1 + (th_i - th_j)(q th_i - q^-1 th_j) / ((q-q^-1)(q^2-q^-2))."""
    _check_index(i, p)
    _check_index(j, p)
    ti, tj = p.thetas[i], p.thetas[j]
    q = p.q
    return 1 + (ti - tj) * (q * ti - tj / q) / ((q - 1 / q) * (q * q - 1 / (q * q)))


def _summed(p: ParamSet, thetas, poch, poch_inv, ts) -> dict[tuple[int, int], dict[str, tuple[int, ...]]]:
    """`chu_vandermonde_table` from the tables given.

    With theta_k = th[k]/D and 1/(q^2;q^2)_i = w[i]/W, each sum of
    (x/y)^i F_i w[i]/(D^i W) over i <= m, F_i its first i theta factors
    multiplied, is taken over (y D)^m W by Horner's rule; the partner family
    shares F_i, with the step y/x and (q^-2;q^-2)_i.
    """
    th_den = lcm(*(t.denominator for t in thetas))
    th = [t.numerator * (th_den // t.denominator) for t in thetas]
    w_den, w_inv_den = lcm(*(v.numerator for v in poch)), lcm(*(v.numerator for v in poch_inv))
    w = [v.denominator * (w_den // v.numerator) for v in poch]
    w_inv = [v.denominator * (w_inv_den // v.numerator) for v in poch_inv]
    steps = [p.a * p.q ** (p.d - 2 * k) for k in range(p.d + 1)]

    def family_pair(factors, x, y, want):
        xd, yd = x * th_den, y * th_den
        g, h, acc, acc_inv = 1, 1, w[0], w_inv[0]  # g = x^i F_i and h = y^i F_i
        for i, f in enumerate(factors, 1):
            g, h = g * x * f, h * y * f
            acc, acc_inv = acc * yd + g * w[i], acc_inv * xd + h * w_inv[i]
        return (acc, yd ** len(factors) * w_den, *want), (acc_inv, xd ** len(factors) * w_inv_den, *want[::-1])

    table = {}
    names = ("ascending", "ascending_inv", "descending", "descending_inv")
    for r in range(p.d + 1):
        for s in range(r, p.d + 1):
            up, down = steps[r], steps[s]  # q^(2s-d)/a, the descending step, is 1/(a q^(d-2s))
            ratio = (ts[s].numerator * ts[r].denominator, ts[s].denominator * ts[r].numerator)
            sums = family_pair([th[s] - th[r + k] for k in range(s - r)], up.numerator, up.denominator, ratio)
            sums += family_pair([th[r] - th[s - k] for k in range(s - r)], down.denominator, down.numerator, ratio[::-1])
            table[r, s] = dict(zip(names, sums))
    return table


def chu_vandermonde_table(p: ParamSet) -> dict[tuple[int, int], dict[str, tuple[int, ...]]]:
    """The four summation identities at every 0 <= r <= s <= d, on integers, summed once per set of tables.

    Entry (r, s) maps each identity name to (sum numerator, sum denominator,
    t-ratio numerator, t-ratio denominator), not reduced. "ascending(_inv)"
    sum products (th_s - th_(r+k)) with powers (a q^(d-2r))^(+-i), against
    t_s/t_r or its inverse; "descending(_inv)" products (th_r - th_(s-k))
    with (a^-1 q^(2s-d))^(+-i), against t_r/t_s or its inverse. The table is
    kept on `p` with `thetas`, `q2_poch`, `q2_inv_poch` and `ts`, and summed
    again once one of them is replaced.
    """
    tables = (p.thetas, p.q2_poch, p.q2_inv_poch, p.ts)
    held = p.__dict__.get("_chu_vandermonde")
    if held is None or any(x is not y for x, y in zip(held[0], tables)):
        held = p.__dict__["_chu_vandermonde"] = tables, _summed(p, *tables)
    return held[1]


def check_chu_vandermonde(p: ParamSet):
    """Verify all four summation identities for every 0 <= r <= s <= d (`chu_vandermonde_table`).

    Returns (passed, failures) where failures lists (name, r, s, got, want)
    for each violated identity.
    """
    failures = []
    for (r, s), entry in chu_vandermonde_table(p).items():
        for name, (n, m, wn, wm) in entry.items():
            if n * wm != wn * m:
                failures.append((name, r, s, Fraction(n, m), Fraction(wn, wm)))
    return not failures, failures
