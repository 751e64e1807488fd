"""The count of A_n(t, q) by up-down pattern, against enumeration and
against the paper's recursions."""

import ast
import inspect
import tracemalloc
from pathlib import Path

import pytest

import altdes
from altdes import checks, cli, transfer
from altdes.oracle import brute_alt_eulerian, brute_qalt, stat_multiset
from altdes.polynomials import BiPolyTQ, IntPoly
from altdes.recurrences import faa_di_bruno_altmaj, five_term, quadratic_tq
from altdes.transfer import alt_tq, qpow_rows, t_rows, tq_rows


def test_count_matches_enumeration():
    for n, (a, b, c) in enumerate(zip(t_rows(9), qpow_rows(9), tq_rows(9)), 1):
        assert a == brute_alt_eulerian(n), n
        assert b == stat_multiset(n, "altmaj").polynomial(), n
        assert c == brute_qalt(n) == alt_tq(n), n


def test_count_matches_the_recursions():
    for n, (a, b, c) in enumerate(zip(t_rows(20), qpow_rows(20), tq_rows(20)), 1):
        assert a == five_term(n), n
        assert b == faa_di_bruno_altmaj(n), n
        assert c == quadratic_tq(n), n
    assert alt_tq(0) == quadratic_tq(0)
    with pytest.raises(ValueError):
        alt_tq(-1)


def test_at_t_qpow_is_substitution():
    for n, (a, b) in enumerate(zip(tq_rows(20), qpow_rows(20)), 1):
        for c in range(5):
            want = IntPoly.from_terms((k * c + e, x) for k, e, x in a.terms())
            assert a.at_t_qpow(c) == want, (n, c)  # t -> q^c, term by term
        assert a.at_t_qpow() == a.at_t_qpow(0) == b, n  # t = 1
    assert BiPolyTQ.one().at_t_qpow(3) == IntPoly.one()
    assert BiPolyTQ({}).at_t_qpow(2) == IntPoly()
    with pytest.raises(ValueError, match="power must be nonnegative"):
        alt_tq(2).at_t_qpow(-1)


def test_transfer_imports_only_polynomials():
    nodes = list(ast.walk(ast.parse(inspect.getsource(transfer))))
    relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert relative == {"polynomials"}
    assert all(name.split(".")[0] != "altdes" for name in absolute)


def test_no_process_wide_memo_outside_the_oracle():
    for path in sorted(Path(altdes.__file__).parent.glob("*.py")):
        if path.stem == "oracle":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        used = {a.name for n in nodes if isinstance(n, ast.ImportFrom)
                and n.module == "functools" for a in n.names}
        used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == "functools"}
        assert not used & {"lru_cache", "cache"}, path.name


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
    # A_3(t, q) + t q (1 + q): every A_3(q^j, q) gains q^(j+1) (1 + q), so
    # the recursion fails for every j at n = 2 and 3, which read A_3, while
    # the (1+q)-orders, at least 1 at n = 3, still hold
    real = transfer.tq_rows
    monkeypatch.setattr(transfer, "tq_rows", lambda n: (
        BiPolyTQ({key: c + (key in ((1, 1), (1, 2))) for key, c in p.coeffs.items()})
        if m == 3 else p for m, p in enumerate(real(n), 1)))
    assert cli.main(["verify", "thm4.6", "--max-n", "3", "--format", "csv"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if ",fail," in line] == [
        f'substituted recursion n={n},fail,"' + "; ".join(f"n={n}, j={j}" for j in range(1, 5))
        + '"' for n in (2, 3)]


def test_thm46_reads_one_pass_and_substitutes_each_row_once(monkeypatch):
    passes, made = [], []
    real_rows, real_at = transfer.tq_rows, BiPolyTQ.at_t_qpow

    def counting(n):
        passes.append(n)
        return real_rows(n)

    def recording(self, c=0):
        made.append((self, c))  # keeps self alive, so its id stays its own
        return real_at(self, c)

    monkeypatch.setattr(transfer, "tq_rows", counting)
    monkeypatch.setattr(BiPolyTQ, "at_t_qpow", recording)
    assert all(r.status == "pass" for r in checks.run("thm4.6", 12))
    assert passes == [13]  # both families read one pass
    subs = [(id(row), c) for row, c in made]
    assert len(subs) == len(set(subs))  # each t = q^c once per row
