"""Recurrences, series identities, and the derivative route."""

import math
import sys
import threading
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdes import checks, cli, recurrences
from altdes.divisibility import check_pochhammer_orders
from altdes.oracle import brute_alt_eulerian, brute_qalt, brute_simsun
from altdes.permutations import double_count_check
from altdes.polynomials import BiPolyTQ, IntPoly, q_pochhammer
from altdes.recurrences import (
    ParityViolation,
    chebikin_check,
    egf_check,
    euler_numbers,
    faa_di_bruno_altmaj,
    faa_di_bruno_rows,
    five_term,
    five_term_rows,
    gamma_rec,
    quadratic_tq,
    simsun_rec,
    simsun_rows,
    specialized_recursion_check,
)
from altdes.transfer import qpow_rows, t_rows, tq_rows

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
    # the boustrophedon against the leading coefficients A_{n,n-1}
    E = euler_numbers(80)
    assert [a[n - 1] for n, a in enumerate(five_term_rows(80), 1)] == list(E[1:])


def test_chebikin_convolution():
    for n in range(1, 11):
        ok = chebikin_check(n)
        assert ok.ok, ok.witness


def triple_loop_chebikin(n, rows):
    """The convolution identity coefficient by coefficient on rows
    A_0..A_n, summing C(n,i) A_{i,j} A_{n-i,k-j} over i and j for each k."""

    def at(i, j):
        r = rows[i].coeffs
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


def test_chebikin_matches_triple_loop():
    rows = [IntPoly.one(), *five_term_rows(40)]
    for n in range(0, 41):
        cr = chebikin_check(n)
        assert (cr.ok, cr.witness) == triple_loop_chebikin(n, rows), n
        assert chebikin_check(n, rows) == cr
    # a corrupted row: both report the same first failing k
    for bad in (5, 12):
        table = rows[:13]
        table[bad] = table[bad] + IntPoly.monomial(2)
        for n in range(1, 13):
            cr = chebikin_check(n, table)
            assert (cr.ok, cr.witness) == triple_loop_chebikin(n, table), (bad, n)
        assert not chebikin_check(bad, table).ok


def test_five_term_walk_matches_table():
    # one pass yields the rows of the count, and five_term the last row
    # of its own pass, whatever the order of the calls
    rows = list(five_term_rows(120))
    assert rows == list(t_rows(120)) and list(five_term_rows(0)) == []
    for n in (120, 7, 7, 1, 60):
        assert five_term(n) == rows[n - 1], n
    with pytest.raises(ValueError):
        five_term(-1)


def _odd_at(m_bad):
    """_five_term_next with its input row at m = m_bad corrupted so that
    the real parity check fires at n = m_bad + 1, k = 0."""
    step = recurrences._five_term_next
    return lambda m, row: step(m, (row[0] + 1,) + row[1:] if m == m_bad else row)


def test_five_term_walk_keeps_last_good_row(monkeypatch):
    good = list(t_rows(9))
    monkeypatch.setattr(recurrences, "_five_term_next", _odd_at(6))
    rows = five_term_rows(9)
    # the pass yields every row before the failing step, which raises
    # when row 7 is read
    assert [next(rows) for _ in range(6)] == good[:6]
    with pytest.raises(ParityViolation, match=r"^odd total at n=7, k=0$"):
        next(rows)
    assert five_term(6) == good[5]
    for n in (7, 9):
        with pytest.raises(ParityViolation, match=r"^odd total at n=7, k=0$"):
            five_term(n)
    monkeypatch.undo()
    assert [five_term(7), five_term(9)] == [good[6], good[8]]


def test_quadratic_tq_matches_oracle():
    for n in range(0, 8):
        assert quadratic_tq(n) == brute_qalt(n)


def test_quadratic_tq_marginals():
    for n in range(1, 14):
        p = quadratic_tq(n)
        assert IntPoly(row(1) for _, row in p.rows) == five_term(n)  # q = 1
        assert p.at_t_qpow()(1) == math.factorial(n)
        # top alternating-major index is the full triangular number
        assert max(j for _, j, _ in p.terms()) == n * (n - 1) // 2


def test_specialized_recursion():
    alt = [BiPolyTQ.one(), *tq_rows(11)]  # one pass
    for n in range(1, 11):
        for j in range(1, 4):
            ok = specialized_recursion_check(n, j, alt)
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


def test_egf_orders():
    for order in (0, 1, 4, 8, 10, 30):
        ok = egf_check(order)
        assert ok.ok, ok.witness


@pytest.mark.parametrize("bad", range(2, 11))
def test_egf_witness_is_first_failing_power(monkeypatch, bad):
    # row `bad` read with its constant term off by 2; E_bad, its leading
    # coefficient, and the rows the pass steps from stay intact
    rows = recurrences.five_term_rows
    monkeypatch.setattr(recurrences, "five_term_rows", lambda n: (
        a + 2 if m == bad else a for m, a in enumerate(rows(n), 1)))
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
    for n, row in enumerate(qpow_rows(60), 1):
        assert faa_di_bruno_altmaj(n) == row, n


def test_corrupted_derivative_row_is_a_fail_row(monkeypatch, capsys):
    # the step to row 6 off by one; row 7 is built from it
    step = recurrences._fdb_step
    monkeypatch.setattr(recurrences, "_fdb_step", lambda rows, E: (
        step(rows, E) + (1 if len(rows) == 6 else 0)))
    assert cli.main(["verify", "eq-fn0", "--max-n", "7", "--format", "csv"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[6:] == [
        f"derivative route matches recursion n={n},fail,major-index polynomials disagree at n={n}"
        for n in (6, 7)]
    assert all(",pass," in line for line in out[1:6])


def test_parity_violation_in_a_quadratic_step_is_fail_rows(monkeypatch, capsys):
    # the step to row 6 raises; that case and every later one fail with
    # its witness, and the rows before it pass
    step = recurrences._tq_step

    def odd(rows):
        if len(rows) == 6:
            raise ParityViolation("odd total at n=6, t^2 q^7")
        return step(rows)

    monkeypatch.setattr(recurrences, "_tq_step", odd)
    for token, name, passed in (
            ("eq-fn0", "derivative route matches recursion n={}", 0),
            ("transfer", "quadratic recurrence matches pattern count n={}", 16)):
        assert cli.main(["verify", token, "--max-n", "8", "--format", "csv"]) == 1
        out = capsys.readouterr()
        assert out.err == ""
        lines = out.out.splitlines()[1 + passed:]
        assert lines == [f"{name.format(n)},pass," for n in range(1, 6)] + [
            f'{name.format(n)},fail,"odd total at n=6, t^2 q^7"' for n in (6, 7, 8)]


def test_tq_step_parity_check_names_the_odd_term():
    # the step's own check, on rows A_0..A_5 with t^2 q^5 added to A_5
    rows = [BiPolyTQ.one(), *tq_rows(5)]
    coeffs = rows[5].coeffs
    coeffs[(2, 5)] = coeffs.get((2, 5), 0) + 1
    rows[5] = BiPolyTQ(coeffs)
    with pytest.raises(ParityViolation, match=r"^odd total at n=6, t\^2 q\^5$"):
        recurrences._tq_step(rows)


def test_quadratic_simsun_pass_forms_each_product_once(monkeypatch):
    # the terms i and m+1-i share R_{i-1} R_{m-i}, so step m forms
    # ceil(m/2) products, and one more for the factor x
    products = 0
    mul = IntPoly.__mul__

    def counting(self, other):
        nonlocal products
        products += isinstance(other, IntPoly)
        return mul(self, other)

    monkeypatch.setattr(IntPoly, "__mul__", counting)
    counts = []
    for _ in simsun_rows(12, "quadratic"):
        counts.append(products)
        products = 0
    assert counts == [(m + 1) // 2 + 1 for m in range(12)]
    monkeypatch.undo()
    assert list(simsun_rows(60, "quadratic")) == list(simsun_rows(60, "derivative"))


def test_corrupted_simsun_row_is_a_fail_row(monkeypatch, capsys):
    # row 5 of the derivative pass off by one
    rows = recurrences.simsun_rows
    monkeypatch.setattr(recurrences, "simsun_rows", lambda n, method: (
        r + (1 if (m, method) == (5, "derivative") else 0)
        for m, r in enumerate(rows(n, method), 1)))
    assert cli.main(["verify", "cor3.5", "--max-n", "7", "--format", "csv"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if ",fail," in line] == [
        "simsun descent polynomial n=5,fail,the two recurrences disagree; "
        "total count is not E_6; oracle disagrees"]


def test_wrong_euler_number_is_a_fail_row(monkeypatch, capsys):
    # E_7 off by one; 273 is not 2^3 times any count, and the row says so
    # without enumerating
    real = recurrences.euler_numbers
    monkeypatch.setattr(recurrences, "euler_numbers", lambda upto: tuple(
        e + (1 if k == 7 else 0) for k, e in enumerate(real(upto))))
    counted, count = [], checks.oracle.down_up_simsun_count
    monkeypatch.setattr(checks.oracle, "down_up_simsun_count", lambda length, **kw: (
        counted.append(length) or count(length, **kw)))
    assert cli.main(["verify", "cor3.3", "--format", "csv"]) == 1
    assert counted == [2, 4]
    failed = [line for line in capsys.readouterr().out.splitlines() if ",fail," in line]
    assert failed[0] == "value at -1 equals zigzag count n=7,fail,five_term(7)(-1) != E_7"
    assert failed[1:] == ["down-up simsun count length 6,fail,E_7 = 273 is not divisible by 2^3"]


def test_faa_di_bruno_matches_recursion():
    for n in range(1, 13):
        assert faa_di_bruno_altmaj(n) == quadratic_tq(n).at_t_qpow()
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


def test_walked_checks_publish_no_five_term_row(capsys):
    # conj5.1 reads each row once, so its pass holds one row at a time:
    # rows 1..300 together would hold about 8.6 MB
    tracemalloc.start()
    try:
        rows = checks.run("conj5.1", 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 300 and all(r.status == "pass" for r in rows)
    assert peak < 2 * 2 ** 20
    assert cli.main(["verify", "conj5.1", "--max-n", "300"]) == 0
    assert cli.main(["verify", "thm3.1", "--max-n", "40"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "40/40 passed" and "300/300 passed" in out


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 22), min_size=1, max_size=6))
def test_faa_di_bruno_rows_ignore_call_order(order):
    expected = [IntPoly.one(), *faa_di_bruno_rows(22)]
    for seq in (order, sorted(order), sorted(order, reverse=True)):
        assert [faa_di_bruno_altmaj(n) for n in seq] == [expected[n] for n in seq]
    for n in order:
        assert expected[n] == quadratic_tq(n).at_t_qpow()


def test_recurrence_tables_are_thread_safe():
    """Four threads run the three recurrences at once, each to its own
    length, beside two threads that run checks sharing passes; every
    caller gets the single-threaded answer."""
    sizes = [(60 + 20 * i, 10 + 2 * i, 12 + 4 * i) for i in range(4)]

    def rows(a, b, c):
        return five_term(a), quadratic_tq(b), faa_di_bruno_altmaj(c)

    calls = [partial(rows, *size) for size in sizes] + [
        partial(checks.run, "eq-fn0", 16), partial(checks.run, "transfer", 12)]
    expected = [call() for call in calls]
    results, errors = {}, []

    def work(i):
        try:
            results[i] = calls[i]()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
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
    assert [results[i] for i in range(len(calls))] == expected
    assert [len(r) for r in expected[4:]] == [16, 36]
