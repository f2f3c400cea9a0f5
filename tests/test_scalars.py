from fractions import Fraction as F

import pytest

from qonsager.scalars import (
    ParameterError,
    ParamSet,
    check_chu_vandermonde,
    chu_vandermonde_table,
    format_scalar,
    p_poly,
    parse_scalar,
    q_poch,
    t_coeff,
)

from chu_vandermonde_reference import chu_vandermonde_sums as reference_sums

GOLDEN = ParamSet(1, F(2), F(3), F(5), (F(1),))


def test_parse_and_format_round_trip():
    assert parse_scalar("37/6") == F(37, 6)
    assert parse_scalar("-2") == F(-2)
    assert format_scalar(F(37, 6)) == "37/6"
    assert format_scalar(F(-2)) == "-2"
    assert format_scalar(F(4, 2)) == "2"


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParameterError):
        parse_scalar("1/0")
    with pytest.raises(ParameterError):
        parse_scalar("abc")


def test_q_poch_values():
    assert q_poch(F(5), F(7), 0) == 1
    assert q_poch(F(1), F(3), 2) == 0
    assert q_poch(F(2), F(3), 2) == 5


def test_theta_golden():
    assert GOLDEN.thetas == (F(37, 6), F(13, 6))
    assert GOLDEN.theta_stars == (F(101, 10), F(29, 10))


def test_theta_sequences_distinct():
    p = ParamSet(3, F(3, 2), F(5), F(3))
    assert len(set(p.thetas)) == 4
    assert len(set(p.theta_stars)) == 4


def test_p_poly_vanishes_on_adjacent_eigenvalues():
    assert p_poly(*GOLDEN.thetas, F(2)) == 0


def test_p_poly_at_origin():
    assert p_poly(F(0), F(0), F(2)) == F(225, 16)


def test_p_poly_symmetry():
    assert p_poly(F(1), F(2), F(2)) == p_poly(F(2), F(1), F(2))


def test_three_term_recurrence():
    p = ParamSet(3, F(2), F(3), F(5))
    q2, th = p.q**2 + p.q**-2, p.thetas
    for i in range(1, 3):
        assert th[i - 1] - q2 * th[i] + th[i + 1] == 0


def test_t_coeff_diagonal_is_one():
    for p in (GOLDEN, ParamSet(3, F(3, 2), F(1, 7), F(2, 9))):
        for i in range(p.d + 1):
            assert t_coeff(i, i, p) == 1


def test_t_coeff_golden_off_diagonal():
    assert t_coeff(0, 1, GOLDEN) == 9
    assert t_coeff(1, 0, GOLDEN) == F(1, 9)


def test_t_coeff_adjacent_product_is_one():
    p = ParamSet(3, F(2), F(5), F(3))
    for i in range(1, 4):
        assert t_coeff(i - 1, i, p) * t_coeff(i, i - 1, p) == 1


def test_t_coeff_adjacent_closed_form():
    p = ParamSet(3, F(2), F(5), F(3))
    for i in range(1, 4):
        assert t_coeff(i - 1, i, p) == p.a**2 * p.q ** (2 * (p.d - 2 * i + 1))


def test_t_seq_values():
    assert GOLDEN.ts == (1, 9)
    assert ParamSet(2, F(2), F(3), F(5)).ts[1] == 36


def test_chu_vandermonde_single_term():
    n, m, wn, wm = chu_vandermonde_table(GOLDEN)[1, 1]["ascending"]
    assert F(n, m) == F(wn, wm) == 1


def test_chu_vandermonde_golden_two_term():
    n, m, wn, wm = chu_vandermonde_table(GOLDEN)[0, 1]["ascending"]
    assert F(n, m) == F(wn, wm) == 9


def test_chu_vandermonde_full_grid():
    ok, failures = check_chu_vandermonde(ParamSet(3, F(3, 2), F(5), F(3)))
    assert ok, failures


# (q, a, b, largest d): eight sets at d <= 8, and three at d <= 12
REFERENCE_TABLE_PARAMS = [(q, a, F(5, 7), 8) for q in (F(2), F(3, 2), F(-2), F(1, 3)) for a in (F(7), F(-2, 5))] + [
    (F(2), F(3), F(5), 12),
    (F(3, 2), F(1, 7), F(2, 9), 12),
    (F(-2), F(5), F(3), 12),
]


@pytest.mark.parametrize("q, a, b, top", REFERENCE_TABLE_PARAMS)
def test_chu_vandermonde_table_equals_the_term_by_term_reference(q, a, b, top):
    for d in range(1, top + 1):
        p = ParamSet(d, q, a, b)
        table = chu_vandermonde_table(p)
        assert list(table) == [(r, s) for r in range(d + 1) for s in range(r, d + 1)]
        for (r, s), entry in table.items():
            got = {name: (F(n, m), F(wn, wm)) for name, (n, m, wn, wm) in entry.items()}
            assert got == reference_sums(r, s, p), (d, r, s)


def test_tables_hold_the_closed_forms_and_are_built_once():
    p = ParamSet(4, F(3, 2), F(7), F(-2, 5))
    q, a, b, d = p.q, p.a, p.b, p.d
    assert p.thetas == tuple(a * q ** (d - 2 * i) + q ** (2 * i - d) / a for i in range(d + 1))
    assert p.theta_stars == tuple(b * q ** (d - 2 * i) + q ** (2 * i - d) / b for i in range(d + 1))
    assert p.ts == tuple(a ** (2 * i) * q ** (2 * i * (d - i)) for i in range(d + 1))
    assert p.q2_poch == tuple(q_poch(q * q, q * q, i) for i in range(d + 1))
    assert p.q2_inv_poch == tuple(q_poch(1 / (q * q), 1 / (q * q), i) for i in range(d + 1))
    for name in ("thetas", "theta_stars", "ts", "q2_poch", "q2_inv_poch"):
        assert getattr(p, name) is getattr(p, name), name


@pytest.mark.parametrize("call", [
    lambda p: t_coeff(0, 3, p),
    lambda p: t_coeff(-1, 0, p),
    lambda p: t_coeff(3, 0, p),
    lambda p: t_coeff(0, -1, p),
])
def test_table_reads_keep_their_range_checks(call):
    with pytest.raises(ParameterError, match="out of range"):
        call(ParamSet(2, F(2), F(3), F(5)))


def test_paramset_rejects_bad_q():
    for bad in (F(0), F(1), F(-1)):
        with pytest.raises(ParameterError):
            ParamSet(1, bad, F(3), F(5))


def test_paramset_rejects_zero_scalars():
    with pytest.raises(ParameterError):
        ParamSet(1, F(2), F(0), F(5))
    with pytest.raises(ParameterError):
        ParamSet(1, F(2), F(3), F(0))
    with pytest.raises(ParameterError):
        ParamSet(1, F(2), F(3), F(5), (F(0),))


def test_paramset_rejects_colliding_eigenvalues():
    # a^2 = q^0 = 1 is always forbidden, so a = 1 never validates.
    with pytest.raises(ParameterError):
        ParamSet(2, F(2), F(1), F(5))
    # a^2 = q^2 at d = 2.
    with pytest.raises(ParameterError):
        ParamSet(2, F(2), F(2), F(5))
    # the same constraint applies to b.
    with pytest.raises(ParameterError):
        ParamSet(2, F(2), F(3), F(2))


def test_paramset_rejects_bad_phi_length():
    with pytest.raises(ParameterError):
        ParamSet(2, F(2), F(3), F(5), (F(1),))


def test_paramset_rejects_small_d():
    with pytest.raises(ParameterError):
        ParamSet(0, F(2), F(3), F(5))


def test_exact_arithmetic_round_trip():
    values = [F(3, 7), F(-11, 5), F(1000000007, 3), F(2) ** 40]
    for x in values:
        for y in values:
            assert (x + y) - y == x
            assert (x * y) / y == x
