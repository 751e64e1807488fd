"""Cyclotomic machinery and divisibility checks for the q-polynomials."""

import random
from collections import Counter
from math import factorial

import pytest

from altdes import checks, divisibility
from altdes.divisibility import (
    _gn_powers,
    binomial_criterion,
    build_Ev,
    build_Gn,
    check_pochhammer_orders,
    check_qj_parity,
    cyclotomic,
    e_hat_claims,
    extract_Ehat,
    order_of_factor,
    thm411_bijection_check,
    verify_conj410,
)
from altdes.oracle import stat_multiset
from altdes.polynomials import BiPolyTQ, IntPoly, one_plus_pow, q_pochhammer
from altdes.recurrences import (
    euler_numbers,
    faa_di_bruno_altmaj,
    specialized_recursion_check,
)
from altdes.transfer import qpow_rows, tq_rows

rng = random.Random(99)


def test_cyclotomic_products():
    # x^n - 1 factors into the cyclotomics of the divisors of n, which
    # fixes every Phi_n; n <= 210 reaches mu(n) = -1 with three primes
    for n in range(1, 211):
        prod = IntPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly.monomial(n, 1) - IntPoly.one()
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    for p in (2, 3, 5, 7, 11):
        assert cyclotomic(p) == IntPoly((1,) * p)
    assert min(cyclotomic(105)) == -2  # first coefficient outside {-1,0,1}


def test_build_gn_methods_and_values():
    assert all(row.status == "pass" for row in checks.run("qfact", 40))  # G_n = cyclotomic form
    assert build_Gn(1) == IntPoly.one()
    assert build_Gn(2) == one_plus_pow(1)
    assert build_Gn(8) == one_plus_pow(1) ** 3 * one_plus_pow(2) ** 2 \
        * one_plus_pow(3) * one_plus_pow(4)


def test_build_ev_and_product_identity():
    assert build_Ev(1) == IntPoly((1, 1))
    assert build_Ev(2) == IntPoly((1, 1, 1, 1))
    assert build_Ev(6) == one_plus_pow(6) * one_plus_pow(3)
    for n in range(1, 9):
        prod = IntPoly.one()
        for k in range(1, n + 1):
            prod = prod * build_Ev(k)
        assert build_Gn(2 * n) == prod
        assert build_Gn(2 * n + 1) == prod


def test_order_of_factor():
    for _ in range(100):
        m = rng.randint(1, 4)
        r = rng.randint(0, 4)
        extra = IntPoly([rng.randint(-4, 4) for _ in range(5)] + [1])
        f = one_plus_pow(m) ** r * extra
        assert order_of_factor(f, m) >= r
    assert order_of_factor(q_pochhammer(4), 1) == 2
    assert order_of_factor(IntPoly((1, 1)) ** 3, 1) == 3
    assert order_of_factor(IntPoly((1, 2)), 1) == 0


def test_extract_ehat_identity_and_verdicts():
    E = euler_numbers(13)
    alt = list(qpow_rows(12))
    for n in range(2, 13):
        f = extract_Ehat(n, alt[n - 1])
        assert isinstance(f, IntPoly)
        assert build_Gn(n) * f == faa_di_bruno_altmaj(n)
        assert e_hat_claims(n, f) == {"e_hat_palindromic": None,
                                      "constant_term_is_euler": None}
        assert f[0] == E[n]
    assert e_hat_claims(2, IntPoly()) == {  # the zero polynomial is not palindromic
        "e_hat_palindromic": "reduced factor not palindromic",
        "constant_term_is_euler": "constant term is not the zigzag number"}


def test_extract_ehat_printed_values():
    alt = list(qpow_rows(6))
    assert extract_Ehat(3, alt[2]) == IntPoly((2, -1, 2))
    assert extract_Ehat(6, alt[5]) == IntPoly((61, -87, 66, -82, 129, -82, 66, -87, 61))
    with pytest.raises(ValueError):
        extract_Ehat(1, alt[0])


def test_check_thm42_and_orders():
    for n in range(1, 19):
        ok = check_pochhammer_orders(n)
        assert ok.ok, ok.witness


def test_gn_factor_list_carries_the_orders():
    # 1 + q^m divides 1 + q^i exactly when i = m (mod 2m); G_n has
    # floor(n/2m) such factors, and its factor count is v_2(n!) (Legendre)
    for n in range(1, 301):
        powers = Counter(_gn_powers(n))
        for m in range(1, n // 2 + 1):
            assert sum(powers[i] for i in range(m, n + 1, 2 * m)) == n // (2 * m), (n, m)
        assert powers.total() == (factorial(n) & -factorial(n)).bit_length() - 1, n


def test_thm42_divides_no_g_n(monkeypatch):
    # thm4.2 reads its orders off G_n's factor list
    def raising(*args):
        raise AssertionError("thm4.2 built G_n or measured an order")

    monkeypatch.setattr(divisibility, "build_Gn", raising)
    monkeypatch.setattr(divisibility, "order_of_factor", raising)
    assert all(row.status == "pass" for row in checks.run("thm4.2", 24))


def test_parity_checks():
    alt = [BiPolyTQ.one(), *tq_rows(11)]  # one pass
    for n in range(1, 11):
        for j in range(5):
            ok = check_qj_parity(n, j, alt[n])
            assert ok.ok, ok.witness
            if j:
                ok2 = specialized_recursion_check(n, j, alt)
                assert ok2.ok, ok2.witness


def test_binomial_criterion_edges():
    assert binomial_criterion({0: 2}, 1, 1) is False
    assert binomial_criterion({0: 1, 1: 1}, 1, 1) is True
    assert binomial_criterion(stat_multiset(4, "altmaj"), 1, 2) is True
    assert binomial_criterion(stat_multiset(4, "altmaj"), 2, 1) is True
    with pytest.raises(ValueError):
        binomial_criterion({0: 1, 1: 1}, 1, 0)


def test_verify_conj410_small():
    for n in range(1, 9):
        ok = verify_conj410(n)
        assert ok.ok, ok.witness


def test_thm411_bijection():
    for n in range(2, 9):
        for m in range(1, n // 2 + 1):
            ok = thm411_bijection_check(n, m)
            assert ok.ok, ok.witness
    with pytest.raises(ValueError):
        thm411_bijection_check(5, 3)
