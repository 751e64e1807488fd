"""Recurrences, series identities, and the derivative route."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdes import cli, recurrences
from altdes.divisibility import check_pochhammer_orders
from altdes.oracle import brute_alt_eulerian, brute_qalt, brute_simsun
from altdes.permutations import double_count_check
from altdes.polynomials import BiPolyTQ, IntPoly, q_pochhammer
from altdes.recurrences import (
    FiveTermWalk,
    ParityViolation,
    chebikin_check,
    egf_check,
    euler_numbers,
    faa_di_bruno_altmaj,
    five_term,
    gamma_rec,
    quadratic_tq,
    simsun_rec,
    specialized_recursion_check,
)
from altdes.transfer import alt_at_t_qpow, qpow_rows

GOLDEN = {
    1: (1,),
    2: (1, 1),
    3: (2, 2, 2),
    4: (5, 7, 7, 5),
    5: (16, 26, 36, 26, 16),
}

ZIGZAG = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792)


def test_five_term_golden():
    assert five_term(0) == IntPoly.one()
    for n, coeffs in GOLDEN.items():
        assert five_term(n) == IntPoly(coeffs)


def test_five_term_structure():
    for n in range(1, 30):
        f = five_term(n)
        assert f(1) == math.factorial(n)
        assert f.coeffs == f.coeffs[::-1]
        if n < len(ZIGZAG):
            assert f[0] == ZIGZAG[n]


def test_five_term_matches_oracle():
    for n in range(0, 9):
        assert five_term(n) == brute_alt_eulerian(n)


def test_euler_numbers():
    assert euler_numbers(11) == ZIGZAG
    assert euler_numbers(0) == (1,)


def test_chebikin_convolution():
    for n in range(1, 11):
        ok = chebikin_check(n)
        assert ok.ok, ok.witness


def triple_loop_chebikin(n):
    """The convolution identity coefficient by coefficient, summing
    C(n,i) A_{i,j} A_{n-i,k-j} over i and j for each k."""
    rows = recurrences._alt_rows.upto(n)

    def at(i, j):
        r = rows[i]
        return r[j] if 0 <= j < len(r) else 0

    for k in range(n):
        lhs = 0
        for i in range(n + 1):
            for j in range(k + 1):
                lhs += math.comb(n, i) * at(i, j) * at(n - i, k - j)
        rhs = (n + 1 - k) * at(n, k) + (k + 1) * at(n, k + 1)
        if lhs != rhs:
            return False, f"n={n}, k={k}: {lhs} != {rhs}"
    return True, None


def test_chebikin_matches_triple_loop(monkeypatch):
    for n in range(0, 41):
        cr = chebikin_check(n)
        assert (cr.ok, cr.witness) == triple_loop_chebikin(n), n
    # a corrupted row: both report the same first failing k
    rows = list(recurrences._alt_rows.upto(12)[:13])
    for bad in (5, 12):
        table = list(rows)
        table[bad] = table[bad][:2] + (table[bad][2] + 1,) + table[bad][3:]
        monkeypatch.setattr(recurrences._alt_rows, "_rows", tuple(table))
        for n in range(1, 13):
            cr = chebikin_check(n)
            assert (cr.ok, cr.witness) == triple_loop_chebikin(n), (bad, n)
        assert not chebikin_check(bad).ok


def test_five_term_walk_matches_table():
    walk = FiveTermWalk()
    up = list(range(0, 121))
    for seq in (up, up[::-1], up, [7, 7, 3, 3, 120, 120]):
        for n in seq:
            assert walk.row(n) == five_term(n), n
    with pytest.raises(ValueError):
        walk.row(-1)


def _odd_at(m_bad):
    """_five_term_next with its input row at m = m_bad corrupted so that
    the real parity check fires at n = m_bad + 1, k = 0."""
    step = recurrences._five_term_next
    return lambda m, row: step(m, (row[0] + 1,) + row[1:] if m == m_bad else row)


def test_five_term_walk_keeps_last_good_row(monkeypatch):
    walk = FiveTermWalk()
    monkeypatch.setattr(recurrences, "_five_term_next", _odd_at(6))
    assert walk.row(6) == five_term(6)
    for n in (7, 9):
        with pytest.raises(ParityViolation, match=r"^odd total at n=7, k=0$"):
            walk.row(n)
    # the shared table fails the same way from cold
    _cold(monkeypatch, recurrences._alt_rows)
    with pytest.raises(ParityViolation, match=r"^odd total at n=7, k=0$"):
        five_term(9)
    monkeypatch.undo()
    assert walk.row(7) == five_term(7) and walk.row(9) == five_term(9)


def test_quadratic_tq_matches_oracle():
    for n in range(0, 8):
        assert quadratic_tq(n) == brute_qalt(n)


def test_quadratic_tq_marginals():
    for n in range(1, 14):
        p = quadratic_tq(n)
        assert IntPoly(row(1) for _, row in p.rows) == five_term(n)  # q = 1
        assert p.at_t1()(1) == math.factorial(n)
        # top alternating-major index is the full triangular number
        assert max(j for _, j, _ in p.terms()) == n * (n - 1) // 2


def test_alt_at_t_qpow_is_substitution():
    for n in range(1, 9):
        p = quadratic_tq(n)
        for j in range(0, 4):
            assert alt_at_t_qpow(n, j) == p.at_t_qpow(j)


def test_specialized_recursion():
    for n in range(1, 11):
        for j in range(1, 4):
            ok = specialized_recursion_check(n, j)
            assert ok.ok, ok.witness


def test_simsun_rec_methods_agree_and_match_oracle():
    for n in range(1, 9):
        r1 = simsun_rec(n, "derivative")
        r2 = simsun_rec(n, "quadratic")
        assert r1 == r2 == brute_simsun(n)
        assert r1(1) == ZIGZAG[n + 1]
    with pytest.raises(ValueError):
        simsun_rec(3, "guess")


def test_gamma_rec_values():
    assert gamma_rec(5) == IntPoly((16, 19, 4))
    assert gamma_rec(8) == IntPoly((1385, 3144, 2256, 496))
    for n in range(1, 13):
        # the gamma vector is the simsun descent polynomial shifted by one
        assert gamma_rec(n) == simsun_rec(n - 1).compose(IntPoly((1, 1)))


def test_gamma_rec_column_identity():
    E = euler_numbers(13)
    for n in range(3, 13):
        assert gamma_rec(n)[1] == n * E[n] - E[n + 1]


def test_egf_orders(monkeypatch):
    _cold(monkeypatch, recurrences._alt_rows)
    for order in (0, 1, 4, 8, 10, 30):
        ok = egf_check(order)
        assert ok.ok, ok.witness
    # the series check walks its rows and publishes none
    assert len(recurrences._alt_rows._rows) == 2


@pytest.mark.parametrize("bad", range(2, 11))
def test_egf_witness_is_first_failing_power(monkeypatch, bad):
    # row `bad` read with its constant term off by 2; E_bad, its leading
    # coefficient, and the walk's own state stay intact
    row = FiveTermWalk.row
    monkeypatch.setattr(FiveTermWalk, "row", lambda self, n: (
        row(self, n) + 2 if n == bad else row(self, n)))
    cr = egf_check(10)
    assert (cr.ok, cr.witness) == (False, f"z^{bad} coefficients differ")


@pytest.mark.parametrize("check", [chebikin_check, double_count_check,
                                   check_pochhammer_orders, euler_numbers,
                                   egf_check, q_pochhammer])
def test_negative_sizes_are_rejected(check):
    with pytest.raises(ValueError, match=r"^n must be nonnegative$"):
        check(-1)


def test_faa_di_bruno_matches_pattern_count():
    # one pass of the count gives every row up to 60
    for n, row in enumerate(qpow_rows(60, 0), 1):
        assert faa_di_bruno_altmaj(n) == row, n


def test_corrupted_derivative_row_is_a_fail_row(monkeypatch, capsys):
    # rows 0..6 with row 6 off by one; row 7 is built from it
    rows = list(recurrences._fdb_rows.upto(6)[:7])
    rows[6] = rows[6] + 1
    monkeypatch.setattr(recurrences._fdb_rows, "_rows", tuple(rows))
    assert cli.main(["verify", "eq-fn0", "--max-n", "7", "--format", "csv"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[6:] == [
        f"derivative route matches recursion n={n},fail,major-index polynomials disagree at n={n}"
        for n in (6, 7)]
    assert all(",pass," in line for line in out[1:6])


def test_faa_di_bruno_matches_recursion():
    for n in range(1, 13):
        assert faa_di_bruno_altmaj(n) == quadratic_tq(n).at_t1()
    with pytest.raises(ValueError):
        faa_di_bruno_altmaj(0)


def dict_loop_tq(n):
    """A_n(t, q) by the quadratic recursion on {(t_exp, q_exp): coeff}
    dicts, one term at a time."""
    rows = [{(0, 0): 1}, {(0, 0): 1}]
    for m in range(1, n):
        total = {}

        def acc(terms, dt=0, dq=0, scale=1):
            for (k, j), c in terms.items():
                key = (k + dt, j + dq)
                total[key] = total.get(key, 0) + scale * c

        def subst(terms, s):  # t -> t q^s
            return {(k, j + s * k): c for (k, j), c in terms.items()}

        acc(subst(rows[m], 1))
        acc(subst(rows[m], 1), 1, 1)
        acc(rows[m])
        acc(rows[m], 1, m)
        for i in range(1, m):
            prod = {}
            for (k1, j1), c1 in rows[i].items():
                for (k2, j2), c2 in subst(rows[m - i], i + 1).items():
                    key = (k1 + k2, j1 + j2)
                    prod[key] = prod.get(key, 0) + c1 * c2
            acc(prod, scale=math.comb(m, i))
            acc(prod, 2, 2 * i + 1, math.comb(m, i))
        assert all(c % 2 == 0 for c in total.values())
        rows.append({key: c // 2 for key, c in total.items() if c})
    return BiPolyTQ(rows[n])


def test_quadratic_tq_matches_dict_loop():
    for n in range(0, 15):
        assert quadratic_tq(n) == dict_loop_tq(n), n
    for n in range(0, 15):
        p = quadratic_tq(n)
        for j in range(4):
            assert alt_at_t_qpow(n, j) == p.at_t_qpow(j)


def _cold(monkeypatch, *tables):
    """Forget every row past n = 1 for the rest of the test."""
    for table in tables:
        monkeypatch.setattr(table, "_rows", table._rows[:2])


def test_walked_checks_publish_no_five_term_row(monkeypatch, capsys):
    _cold(monkeypatch, recurrences._alt_rows)
    assert cli.main(["verify", "conj5.1", "--max-n", "300"]) == 0
    assert cli.main(["verify", "thm3.1", "--max-n", "40"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "40/40 passed" and "300/300 passed" in out
    assert len(recurrences._alt_rows._rows) == 2


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 22), min_size=1, max_size=6))
def test_faa_di_bruno_rows_ignore_call_order(order):
    expected = {n: faa_di_bruno_altmaj(n) for n in order}
    with pytest.MonkeyPatch.context() as mp:
        _cold(mp, recurrences._fdb_rows)
        assert {n: faa_di_bruno_altmaj(n) for n in order} == expected
    for seq in (sorted(order), sorted(order, reverse=True)):
        with pytest.MonkeyPatch.context() as mp:
            _cold(mp, recurrences._fdb_rows)
            assert [faa_di_bruno_altmaj(n) for n in seq] == [expected[n] for n in seq]
    for n in order:
        assert faa_di_bruno_altmaj(n) == quadratic_tq(n).at_t1()


def test_recurrence_tables_are_thread_safe(monkeypatch):
    """Four threads extend the three row tables from cold at once, each
    to its own length; every caller gets the single-threaded answer, no
    row is duplicated and no shorter table replaces a longer one."""
    sizes = [(60 + 20 * i, 10 + 2 * i, 12 + 4 * i) for i in range(4)]

    def rows(a, b, c):
        return five_term(a), quadratic_tq(b), faa_di_bruno_altmaj(c)

    expected = {size: rows(*size) for size in sizes}
    tables = (recurrences._alt_rows, recurrences._tq_rows, recurrences._fdb_rows)
    _cold(monkeypatch, *tables)
    results, errors = [], []

    def work(size):
        try:
            results.append((size, rows(*size)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(size,)) for size in sizes]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == sorted(expected.items())
    assert [len(t._rows) for t in tables] == [121, 17, 25]
