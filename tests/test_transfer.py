"""The count of A_n(t, q) by up-down pattern, against enumeration and
against the paper's recursions."""

import ast
import inspect
import tracemalloc

import pytest

from altdes import cli, recurrences, transfer
from altdes.oracle import brute_alt_eulerian, brute_qalt, stat_multiset
from altdes.polynomials import IntPoly
from altdes.recurrences import faa_di_bruno_altmaj, five_term, quadratic_tq
from altdes.transfer import alt_at_t_qpow, alt_tq, qpow_rows, t_rows, tq_rows


def test_count_matches_enumeration():
    for n, (a, b, c) in enumerate(zip(t_rows(9), qpow_rows(9, 0), tq_rows(9)), 1):
        assert a == brute_alt_eulerian(n), n
        assert b == stat_multiset(n, "altmaj").polynomial(), n
        assert c == brute_qalt(n) == alt_tq(n), n


def test_count_matches_the_recursions():
    for n, (a, b, c) in enumerate(zip(t_rows(20), qpow_rows(20, 0), tq_rows(20)), 1):
        assert a == five_term(n), n
        assert b == faa_di_bruno_altmaj(n), n
        assert c == quadratic_tq(n), n
        for j in range(5):
            at_t_qpow = IntPoly.from_terms((k * j + e, x) for k, e, x in c.terms())
            assert alt_at_t_qpow(n, j) == at_t_qpow, (n, j)
    assert alt_tq(0) == quadratic_tq(0) and alt_at_t_qpow(0, 3) == IntPoly.one()
    for bad in (lambda: alt_tq(-1), lambda: alt_at_t_qpow(2, -1), lambda: qpow_rows(2, -1)):
        with pytest.raises(ValueError):
            bad()


def test_transfer_imports_only_polynomials():
    nodes = list(ast.walk(ast.parse(inspect.getsource(transfer))))
    relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert relative == {"polynomials"}
    assert all(name.split(".")[0] != "altdes" for name in absolute)
    assert alt_at_t_qpow.cache_info().maxsize == 4096


def test_cold_count_keeps_one_step():
    # one step of A_28(t, q) holds about 1.2 MiB of packed windows, and
    # the step before it 1.1 MiB; keeping both, or every row, would pass 2 MiB
    tracemalloc.start()
    try:
        got = alt_tq(28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == quadratic_tq(28)
    assert peak < 1.75 * 2 ** 20


def test_wrong_row_is_a_substituted_recursion_fail_row(capsys, monkeypatch):
    real = recurrences.alt_at_t_qpow
    monkeypatch.setattr(recurrences, "alt_at_t_qpow", lambda n, c: (
        real(n, c) + IntPoly.monomial(n + c) if (n, c) == (3, 2) else real(n, c)))
    assert cli.main(["verify", "thm4.6", "--max-n", "3", "--format", "csv"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if ",fail," in line] == [
        'substituted recursion n=2,fail,"n=2, j=2"',
        'substituted recursion n=3,fail,"n=3, j=1; n=3, j=2"']
