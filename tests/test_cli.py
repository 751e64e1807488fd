"""Command-line behavior: formats, exit codes, report schema."""

import ast
import csv
import errno
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import altdes
from altdes import checks, cli, divisibility, gamma, oracle, permutations, recurrences, transfer
from altdes.cli import main, ser_bipoly, ser_poly
from altdes.gamma import ExpansionFailed
from altdes.polynomials import BiPolyTQ, IntPoly
from altdes.recurrences import five_term, quadratic_tq
from altdes.reporting import CheckResult, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_poly(value: list) -> IntPoly:
    """Invert ser_poly, so JSON values round-trip."""
    return IntPoly(value)


def parse_bipoly(value: list) -> BiPolyTQ:
    """Invert ser_bipoly, so JSON values round-trip."""
    return BiPolyTQ({(d["t_exp"], d["q_exp"]): d["coeff"] for d in value})


def test_compute_alt_text(capsys):
    code, out, err = run(capsys, "compute", "alt", "--n", "5")
    assert code == 0 and err == ""
    assert out == "16 + 26t + 36t^2 + 26t^3 + 16t^4\n"


def test_compute_variants(capsys):
    code, out, _ = run(capsys, "compute", "simsun", "--n", "4")
    assert code == 0 and out == "1 + 11t + 4t^2\n"
    code, out, _ = run(capsys, "compute", "gamma", "--n", "5")
    assert code == 0 and out == "16 + 19x + 4x^2\n"
    code, out, _ = run(capsys, "compute", "gamma", "--n", "4", "--q")
    assert code == 0
    assert out.splitlines() == [
        "qgamma n=4 k=0 = 5",
        "qgamma n=4 k=1 = 2 + 4q + 2q^2",
    ]
    code, out, _ = run(capsys, "compute", "two-sided", "--n", "3")
    assert code == 0 and out == "1 + t^2 + 2st + s^2 + s^2t^2\n"


def test_compute_alt_q_json_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "alt", "--n", "6", "--q", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "parameters", "results", "elapsed_ms"}
    assert report["command"] == "compute"
    assert report["parameters"] == {"table": "alt", "n": 6, "q": True}
    (row,) = report["results"]
    assert row["status"] == "pass"
    assert parse_bipoly(row["value"]) == quadratic_tq(6)


def test_json_univariate_roundtrip(capsys):
    code, out, _ = run(capsys, "compute", "alt", "--n", "7", "--format", "json")
    report = json.loads(out)
    assert report["results"][0]["value"] == list(five_term(7))
    assert parse_poly(report["results"][0]["value"]) == five_term(7)
    assert parse_poly([]) == IntPoly.zero()
    assert parse_bipoly([]) == BiPolyTQ({})
    bi = [{"t_exp": 1, "q_exp": 2, "coeff": -3}]
    assert parse_bipoly(bi) == BiPolyTQ({(1, 2): -3})


def test_factor_outputs(capsys):
    code, out, _ = run(capsys, "factor", "--n", "6", "--format", "json")
    assert code == 0
    values = {r["name"]: r.get("value") for r in json.loads(out)["results"]}
    assert values["e_hat"] == [61, -87, 66, -82, 129, -82, 66, -87, 61]
    statuses = {r["name"]: r["status"] for r in json.loads(out)["results"]}
    assert statuses["e_hat_palindromic"] == "pass"
    assert statuses["constant_term_is_euler"] == "pass"
    code, out, _ = run(capsys, "factor", "--n", "3")
    assert out.splitlines() == [
        "g_n = 1 + q",
        "e_hat = 2 - q + 2q^2",
        "e_hat_palindromic: pass",
        "constant_term_is_euler: pass",
    ]


def test_oracle_output_and_csv(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--stat", "altdes")
    assert code == 0 and out == "altdes n=4 = 5 + 7t + 7t^2 + 5t^3\n"
    code, out, _ = run(capsys, "oracle", "--n", "3", "--stat", "maj",
                       "--format", "csv")
    assert out.splitlines() == [
        "name,exponent,coefficient",
        "maj n=3,0,1",
        "maj n=3,1,2",
        "maj n=3,2,2",
        "maj n=3,3,1",
    ]


def test_csv_bivariate(capsys):
    code, out, _ = run(capsys, "compute", "alt", "--n", "2", "--q",
                       "--format", "csv")
    # the name field holds a comma, so the csv writer quotes it
    assert out.splitlines() == [
        "name,t_exp,q_exp,coefficient",
        '"alt n=2 (t,q)",0,0,1',
        '"alt n=2 (t,q)",1,1,1',
    ]


def test_verify_text_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "eq1", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4/4 passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "double-count", "--max-n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,witness"
    assert len(lines) == 4


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "thm3.1", "--max-n", "5",
                       "--format", "json")
    report = json.loads(out)
    assert report["command"] == "verify"
    assert report["parameters"]["token"] == "thm3.1"
    assert report["parameters"]["max_n"] == 5
    for row in report["results"]:
        assert row["status"] == "pass"
        assert "witness" not in row


def test_verify_failure_has_witness_and_exit_one(capsys, monkeypatch):
    forced = checks._Check("forced", lambda n: CheckResult.failed("broken"))
    monkeypatch.setitem(checks.SUITES, "eq1", (3, (forced,)))
    code, out, _ = run(capsys, "verify", "eq1", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["results"][0]["witness"] == "broken"


def test_finding_exits_one(capsys, monkeypatch):
    witness = CheckResult.failed("counterexample n=3")
    open_case = checks._Check("open case", lambda n: witness, finding=True)
    monkeypatch.setitem(checks.SUITES, "conj5.1", (3, (open_case,)))
    code, out, _ = run(capsys, "verify", "conj5.1")
    assert code == 1
    assert out.splitlines()[0].startswith("FINDING")


def test_failing_theorem_is_a_fail_row(capsys, monkeypatch):
    # a non-palindromic A_3 must read as a broken theorem, not a usage error
    step = recurrences._five_term_next
    monkeypatch.setattr(recurrences, "_five_term_next",
                        lambda m, row: (1, 2) if m == 2 else step(m, row))
    code, out, err = run(capsys, "verify", "thm3.1", "--max-n", "3",
                         "--format", "json")
    assert code == 1 and err == ""
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    bad = rows["palindromic unimodal gamma-nonnegative n=3"]
    assert bad["status"] == "fail" and "not palindromic" in bad["witness"]


def test_parity_violation_in_a_walk_is_fail_rows(capsys, monkeypatch):
    # row 6 corrupted so that the real parity check fires stepping to row 7
    step = recurrences._five_term_next
    monkeypatch.setattr(recurrences, "_five_term_next", lambda m, row: step(
        m, (row[0] + 1,) + row[1:] if m == 6 else row))
    for token, name in (("conj5.1", "log-concave n={}"),
                        ("thm3.1", "palindromic unimodal gamma-nonnegative n={}")):
        code, out, err = run(capsys, "verify", token, "--max-n", "10",
                             "--format", "csv")
        assert code == 1 and err == ""
        assert out.splitlines()[1:] == (
            [f"{name.format(n)},pass," for n in range(1, 7)]
            + [f'{name.format(n)},fail,"odd total at n=7, k=0"' for n in range(7, 11)])


def test_false_factorization_is_a_fail_row(capsys, monkeypatch):
    # A_n(1, q) + 1 is not divisible by 1 + q, so no G_n divides it; factor
    # reads the last row of one pass of the count, thm4.2 every row of one
    rows = transfer.qpow_rows
    monkeypatch.setattr(transfer, "qpow_rows", lambda n: (p + 1 for p in rows(n)))
    code, out, err = run(capsys, "factor", "--n", "6", "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["results"] == [{
        "name": "e_hat", "status": "fail",
        "witness": "(1+q^1) does not divide the altmaj polynomial at n=6"}]
    code, out, err = run(capsys, "verify", "thm4.2", "--max-n", "5", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        f"factorization n={n},fail,(1+q^1) does not divide the altmaj polynomial "
        f"at n={n}" for n in range(2, 6)]


def test_corrupted_e_hat_is_fail_rows(capsys, monkeypatch):
    # A_n(1, q) + G_n = G_n (E^_n + 1): every division by G_n is exact, the
    # constant term is E_n + 1, and E^_n + 1 is palindromic only at n = 2
    rows, g = transfer.qpow_rows, divisibility.build_Gn
    monkeypatch.setattr(transfer, "qpow_rows", lambda n: (
        p + g(m) for m, p in enumerate(rows(n), 1)))
    code, out, err = run(capsys, "verify", "thm4.2", "--max-n", "6", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == (
        ["factorization n=2,fail,constant term is not the zigzag number"]
        + [f"factorization n={n},fail,reduced factor not palindromic; constant term "
           "is not the zigzag number" for n in range(3, 7)])
    code, out, err = run(capsys, "factor", "--n", "5", "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out)["results"][2:] == [
        {"name": "e_hat_palindromic", "status": "fail",
         "witness": "reduced factor not palindromic"},
        {"name": "constant_term_is_euler", "status": "fail",
         "witness": "constant term is not the zigzag number"}]
    # and E^_n(1) + 1, the odd part of n! plus one, is even
    code, out, err = run(capsys, "verify", "qfact", "--max-n", "4", "--format", "csv")
    assert code == 1 and err == ""
    assert [line for line in out.splitlines() if ",fail," in line] == [
        f"E^_n(1) is the odd part of n! n={n},fail,E^_{n}(1) = {e + 1} is even; "
        f"E^_{n}(1) 2^{ell} != {n}!" for n, e, ell in ((2, 1, 1), (3, 3, 1), (4, 3, 3))]


def test_expansion_errors_are_failures_not_findings(capsys, monkeypatch):
    def broken(p, n):
        raise ExpansionFailed(f"forced at n={n}")

    monkeypatch.setattr(gamma, "q_gamma_extract", broken)
    code, out, _ = run(capsys, "verify", "conj5.2", "--max-n", "3",
                       "--format", "csv")
    assert code == 1
    assert out.splitlines()[1:] == [
        f"q-gamma expansion n={n},fail,forced at n={n}" for n in (1, 2, 3)]


def test_thm42_reads_the_orders_off_g_n(capsys, monkeypatch):
    # G_4's factor list one 1 + q short: A_4(1, q) divides by every factor
    # left, and the list carries 1 + q once where n = 4 needs it twice
    real = divisibility._gn_powers
    monkeypatch.setattr(divisibility, "_gn_powers", lambda n: (
        [2, 1] if n == 4 else real(n)))
    code, out, err = run(capsys, "verify", "thm4.2", "--max-n", "5", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        "factorization n=2,pass,", "factorization n=3,pass,",
        'factorization n=4,fail,"n=4, m=1: order 1 < 2"', "factorization n=5,pass,"]


def test_down_up_lengths_stop_at_max_n(capsys):
    code, out, _ = run(capsys, "verify", "cor3.3", "--max-n", "4", "--format", "csv")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("down-up")] == [
        "down-up simsun count length 2,pass,", "down-up simsun count length 4,pass,"]


def _plus(p, *terms):
    """p plus each dict {(t_exp, q_exp): coeff} of terms, by editing p.coeffs."""
    coeffs = p.coeffs
    for added in terms:
        for key, c in added.items():
            coeffs[key] = coeffs.get(key, 0) + c
    return BiPolyTQ(coeffs)


def _two_sided_element(n, i, j, e):
    """e (-st)^i (1+st)^j (s+t)^(n-1-j-2i), s in the t slot: the terms
    e (-1)^i C(j, x) C(r, y) s^(i+x+y) t^(i+x+r-y), r = n-1-j-2i."""
    r = n - 1 - j - 2 * i
    return {(i + x + y, i + x + r - y): e * (-1) ** i * comb(j, x) * comb(r, y)
            for x in range(j + 1) for y in range(r + 1)}


def test_negative_two_sided_entry_is_a_finding(capsys, monkeypatch):
    # 1000 (B(1,0) - B(1,2)) is symmetric and vanishes at s = 1, so the peel
    # and its check at s = 1 pass, and the entry (1, 2) turns negative
    real = oracle.brute_two_sided

    def shifted(n, **kw):
        a = real(n, **kw)
        if n < 5:
            return a
        return _plus(a, _two_sided_element(n, 1, 0, 1000), _two_sided_element(n, 1, 2, -1000))

    monkeypatch.setattr(oracle, "brute_two_sided", shifted)
    code, out, err = run(capsys, "verify", "conj5.3", "--max-n", "6", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == (
        [f"two-sided expansion n={n},pass," for n in range(1, 5)]
        + [f"two-sided expansion n={n},finding,negative expansion entry" for n in (5, 6)])


def _q_gamma_element(n, k, g):
    """g(q) q^C(k+1,2) (-t)^k prod_{i=k+1}^{n-1-k} (1 + t q^i) as a dict,
    multiplied out one binomial at a time."""
    element = {(k, comb(k + 1, 2) + j): (-1) ** k * c for j, c in enumerate(g.coeffs)}
    for i in range(k + 1, n - k):
        lifted = {(a + 1, b + i): c for (a, b), c in element.items()}
        element = {key: element.get(key, 0) + lifted.get(key, 0)
                   for key in element.keys() | lifted.keys()}
    return element


def test_q_gamma_entry_without_one_plus_q_is_a_finding(capsys, monkeypatch):
    # g_1 gains 1 - q, which is 0 at q = 1: the peel and its check at q = 1
    # pass, and 1 + q no longer divides g_1
    real = transfer.tq_rows
    monkeypatch.setattr(transfer, "tq_rows", lambda n: (
        _plus(p, _q_gamma_element(m, 1, IntPoly((1, -1)))) if m >= 4 else p
        for m, p in enumerate(real(n), 1)))
    code, out, err = run(capsys, "verify", "conj5.2", "--max-n", "6", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == (
        [f"q-gamma expansion n={n},pass," for n in range(1, 4)]
        + [f"q-gamma expansion n={n},finding,negative coefficient or missing 1+q factor"
           for n in (4, 5, 6)])


def test_usage_errors(capsys):
    assert run(capsys, "verify", "nosuch")[0] == 2
    assert run(capsys, "compute", "simsun", "--n", "3", "--q")[0] == 2
    assert run(capsys, "compute", "alt")[0] == 2
    assert run(capsys, "verify", "eq1", "--max-n", "0")[0] == 2
    assert run(capsys, "oracle", "--n", "3", "--stat", "des")[0] == 2
    code, _, err = run(capsys, "oracle", "--n", "30", "--stat", "altmaj")
    assert code == 2 and "exceeds" in err
    assert run(capsys, "compute", "alt", "--n", "3", "--jobs", "0")[0] == 2
    assert run(capsys, "factor", "--n", "1")[0] == 2


def test_brute_max_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "compute", "two-sided", "--n", "6",
                       "--brute-max", "5")
    assert code == 2 and "exceeds" in err
    monkeypatch.setenv("ALTDES_BRUTE_MAX", "5")
    assert run(capsys, "compute", "two-sided", "--n", "6")[0] == 2
    assert run(capsys, "compute", "two-sided", "--n", "5")[0] == 0
    monkeypatch.setenv("ALTDES_BRUTE_MAX", "many")
    assert run(capsys, "compute", "two-sided", "--n", "3")[0] == 2
    # an explicit flag wins over the environment
    monkeypatch.setenv("ALTDES_BRUTE_MAX", "4")
    assert run(capsys, "compute", "two-sided", "--n", "6",
               "--brute-max", "7")[0] == 0


def test_thm21_stops_at_brute_max(capsys):
    code, out, err = run(capsys, "verify", "thm2.1", "--brute-max", "5",
                         "--format", "csv")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["name"] for r in rows] == [
        f"five-term matches oracle n={n}" for n in range(1, 6)]
    assert all(r["status"] == "pass" for r in rows)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "eq2", "--max-n", "6",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    report = json.loads(target.read_text())
    assert report["parameters"]["max_n"] == 6


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.txt"
    code, out, err = run(capsys, "verify", "eq1", "--max-n", "2",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_failed_write_keeps_the_old_report(tmp_path, capsys, monkeypatch):
    target = tmp_path / "report.txt"
    target.write_text("old report\n")

    class DiskFull(io.TextIOWrapper):
        def write(self, text):
            super().write(text[: len(text) // 2])
            self.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def opener(path, mode, encoding):
        return DiskFull(open(path, mode + "b"), encoding=encoding)

    monkeypatch.setattr(cli, "open", opener, raising=False)
    code, out, err = run(capsys, "verify", "eq1", "--max-n", "3",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'\n"
    assert target.read_text() == "old report\n"
    assert os.listdir(tmp_path) == ["report.txt"]
    monkeypatch.undo()
    assert run(capsys, "verify", "eq1", "--max-n", "3", "--out", str(target))[0] == 0
    assert target.read_text().endswith("3/3 passed\n")
    assert os.listdir(tmp_path) == ["report.txt"]


def test_value_error_in_a_check_is_a_fail_row(capsys, monkeypatch):
    def broken(n, rows):
        raise ValueError(f"forced at n={n}")

    default_max, (check,) = checks.SUITES["eq1"]
    monkeypatch.setitem(checks.SUITES, "eq1",
                        (default_max, (check._replace(run=broken),)))
    code, out, err = run(capsys, "verify", "eq1", "--max-n", "2", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        f"convolution identity n={n},fail,forced at n={n}" for n in (1, 2)]
    for exc in (UsageError, altdes.LimitExceeded):
        assert issubclass(exc, altdes.AltdesError) and issubclass(exc, ValueError)
    # a bad argument the library rejects is still a usage error
    assert run(capsys, "compute", "gamma", "--n", "0") == (
        2, "", "error: n must be positive\n")


def test_public_names_resolve():
    assert len(set(altdes.__all__)) == len(altdes.__all__)
    assert [name for name in altdes.__all__ if not hasattr(altdes, name)] == []
    # and every public name the package imports is exported
    imported = {name for name, v in vars(altdes).items()
                if not name.startswith("_") and not inspect.ismodule(v)}
    assert imported == set(altdes.__all__)


def test_reports_are_deterministic(capsys):
    _, a, _ = run(capsys, "verify", "thm4.5", "--max-n", "8", "--format", "csv")
    _, b, _ = run(capsys, "verify", "thm4.5", "--max-n", "8", "--format", "csv")
    assert a == b
    _, ja, _ = run(capsys, "verify", "thm4.5", "--max-n", "8", "--format", "json")
    _, jb, _ = run(capsys, "verify", "thm4.5", "--max-n", "8", "--format", "json")
    da, db = json.loads(ja), json.loads(jb)
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def test_jobs_flag_passes_through(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "6", "--stat", "altdes",
                       "--jobs", "2")
    assert code == 0
    assert out == "altdes n=6 = 61 + 117t + 182t^2 + 182t^3 + 117t^4 + 61t^5\n"


# sha256 of each `verify <token> --max-n 2 --format csv` report, recorded
# before the verify registry moved from altdes.cli to altdes.checks; cor3.3's
# since its down-up lengths stop at --max-n (lengths 4 and 6 dropped)
_VERIFY_DIGESTS = {
    "conj4.10": "ec3912f34831b0b4bd6184cd4d2764138140238f63a2aaa82443902b5f810f93",
    "conj5.1": "a5100c9c2a80a83c1ff8600cc33f5024217a940a3d3043b35cd2a2152021e8bb",
    "conj5.2": "c2c0716c0bea54e2a67c7a8ccf3ade2759ec8de3f06e1818e3ebe52deffe96e9",
    "conj5.3": "4042ac55574d504b21b9ca95586a448914ba40dc1c8632b798dd9999981df32c",
    "cor3.3": "858abe99b1b7d2b60ed242bbc371d13a2f95db92f44950a0ce7fee4778b0ad1f",
    "cor3.5": "ed6cb859582bc602d99382fbc54106f08b465264d7e6d6a16b7fb26cdc032e8d",
    "double-count": "396217798a3880166c259adcb1ef3be0334e1213996a22f541071956e883ab0e",
    "eq-fn0": "4bba902f7c8d9732295f3bac4db83afa1d5b83d6010da30a5cfcd9b01c57a3e6",
    "eq1": "b82462bc5b14f1fc29db2c6a23162fd93961fad44754826836acf56f56cef874",
    "eq2": "b8d2916bbe4231e8d5c9929bc0caa7eec26b365c46aa4bcf37428684ca3aa252",
    "equidist": "9535b6ab10f01510a08c026a7cd6727344c71dc6ba07d7c40741c8e2c974b448",
    "prop3.4": "e9bb85e556107e3160e66b7d49b6845b4978a2cb1ad62824cd7f1c18a4611fd9",
    "thm2.1": "8dd22160cf582979e1e62f1ef7e12543501320ebf20fc07fdd2deb8953971caf",
    "thm3.1": "7157423c7a1a84721ddcf07f535e71abf52a6308587232f06c47a737708fc7dd",
    "thm3.2": "024ca457cff62c23775a04c20dda54b53da76c3b6d172e8f269b96ff6a1eaf5c",
    "thm4.11": "22352c6b5f36e5430e510e09b1a44030fe5396c099d5df46cdd6f64ec5f581ae",
    "thm4.2": "0c4c6eca90a8c74da1c4b8f0369410b5c028d09093db29939a94645efc1a4a4d",
    "thm4.5": "c776b09958eb0be5e200c6232cd46965cd833fc88375e76ec18d8ee262c6d6fc",
    "thm4.6": "108afb2dceee4b80ab7d9a870b4f031b5b8d49e56c22b93f31149cffc1f9357a",
    "qrec": "f22eeac13a594914a1cfe3b7ac9efd112769dff1de870befadd7f57606848c50",
    "qfact": "03f2332c475e6f6deb2e7e0e0ff1acf28c081551b22f44a685359a41617921fa",
    "theta": "77fe6bafaf33680ffe0a89297a0b73872a0957b9bbc41f22826b7f847cfc5e4e",
    "gamma-col": "333ce4482a9193a13cc8443d5eb2aaf08f7d48b6225702af38fd5b90480ea539",
    "transfer": "afb210549c53a9304bcda47309e13c0227a8389d0722ade25bb08a1d46bb3019",
}


def test_every_token_has_a_handler(capsys):
    assert set(_VERIFY_DIGESTS) == set(checks.SUITES)
    for token, (default_max, suite) in checks.SUITES.items():
        assert default_max >= 1 and suite and all(callable(c.run) for c in suite)
        code, out, _ = run(capsys, "verify", token, "--max-n", "2",
                           "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows, token
        assert all(r["status"] == "pass" for r in rows), token
        assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_DIGESTS[token], token


def test_every_exported_check_is_in_the_registry():
    # each exported check is registered as itself or called by an adapter
    registered = {c.run for _, suite in checks.SUITES.values() for c in suite}
    adapted = {a.attr for a in ast.walk(ast.parse(inspect.getsource(checks)))
               if isinstance(a, ast.Attribute)}
    exported = {f for f in map(altdes.__dict__.get, altdes.__all__) if inspect.isfunction(f)
                and inspect.signature(f).return_annotation in ("CheckResult", CheckResult)}
    assert {altdes.check_qj_parity, altdes.theta_check} <= exported
    assert {f.__name__ for f in exported - registered} <= adapted


def test_broken_cyclotomic_is_fail_rows(capsys, monkeypatch):
    real = divisibility.cyclotomic
    monkeypatch.setattr(divisibility, "cyclotomic", lambda k: real(k) + 1 if k == 4 else real(k))
    code, out, err = run(capsys, "verify", "qfact", "--max-n", "5", "--format", "csv")
    assert code == 1 and err == ""
    assert [line for line in out.splitlines() if ",fail," in line] == [
        f"G_n as a cyclotomic product n={n},fail,G_{n} is not prod_m Phi_2m^floor(n/2m)"
        for n in (4, 5)] + ["Foata factors k=2,fail,Ev_2 is not prod_d|k Phi_2d"]


def test_broken_oracle_is_a_qrec_fail_row(capsys, monkeypatch):
    real = oracle.brute_qalt
    monkeypatch.setattr(oracle, "brute_qalt", lambda n, **kw: (
        _plus(real(n, **kw), {(0, 0): 1}) if n == 3 else real(n, **kw)))
    code, out, err = run(capsys, "verify", "qrec", "--max-n", "4", "--format", "csv")
    assert code == 1 and err == ""
    assert [line for line in out.splitlines() if ",fail," in line] == [
        "quadratic recurrence matches oracle n=3,fail,quadratic recurrence disagrees at n=3"]


_CD_RELATIONS = ("descent-set index; alternating-descent-set index; "
                 "alternating descent polynomial; gamma vector link")


@pytest.mark.parametrize("field, letter, witness", [
    ("phi", "c", _CD_RELATIONS), ("psi", "a", "descent-set index")])
def test_corrupted_cd_index_is_fail_rows(capsys, monkeypatch, field, letter, witness):
    # the word letter^(n-1) of phi (or of psi alone) counts one more: every
    # relation that reads it fails at every n
    real = oracle.brute_cd_index

    def corrupted(n, **kw):
        cd = real(n, **kw)
        words, w = getattr(cd, field), letter * (n - 1)
        return cd._replace(**{field: {**words, w: words[w] + 1}})

    monkeypatch.setattr(oracle, "brute_cd_index", corrupted)
    assert [(r.name, r.status, r.witness) for r in checks.run("prop3.4", 6)] == [
        (f"cd-index relations n={n}", "fail", witness) for n in range(1, 7)]
    code, out, err = run(capsys, "verify", "prop3.4", "--max-n", "6", "--format", "csv")
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == [
        f"cd-index relations n={n},fail,{witness}" for n in range(1, 7)]


@pytest.mark.parametrize("module, attr, extra, token, failed", [
    (gamma, "gamma_rec", 1, "thm3.2",
     {n: f"n={n}: recursion and peel disagree" for n in (3, 4, 5)}),
    (gamma, "simsun_rec", 1, "thm3.2",  # thm3.2 reads R_(n-1)
     {n: f"n={n}: a_n != R_(n-1)(x+1)" for n in (4, 5)}),
    (recurrences, "gamma_rec", IntPoly((0, 1)), "gamma-col",
     {3: "a(3, 1) = 2, not 1", 4: "a(4, 1) = 5, not 4", 5: "a(5, 1) = 20, not 19"}),
], ids=["thm3.2-gamma_rec", "thm3.2-simsun_rec", "gamma-col"])
def test_corrupted_gamma_row_is_fail_rows(capsys, monkeypatch, module, attr, extra,
                                          token, failed):
    # the row off from argument 3 on
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda n: real(n) + extra if n >= 3 else real(n))
    want = [("fail", failed[n]) if n in failed else ("pass", None) for n in range(1, 6)]
    assert [(r.status, r.witness) for r in checks.run(token, 5)] == want
    code, out, err = run(capsys, "verify", token, "--max-n", "5", "--format", "json")
    assert code == 1 and err == ""
    assert [(r["status"], r.get("witness")) for r in json.loads(out)["results"]] == want


_real_stat_multiset, _real_stat_vector = oracle.stat_multiset, oracle._stat_vector


def _moved_word(n, stat, **kw):
    # one word of S_6 moved from altmaj 0 to altmaj 1
    ms = _real_stat_multiset(n, stat, **kw)
    if n != 6:
        return ms
    return ms._replace(values={**ms.values, 0: ms.values[0] - 1, 1: ms.values[1] + 1})


def _first_letter_smallest(W, stat):
    # altmaj + 1 on the 5-letter words that start with their smallest letter
    out = _real_stat_vector(W, stat)
    return out + (W[0] == W.min(axis=0)) if W.shape[0] == 5 else out


_real_brute_alt, _real_des3 = oracle.brute_alt_eulerian, oracle.brute_des3_first1
_real_inserted = permutations._inserted
_real_tq_rows = transfer.tq_rows


def _moved_des3_word(n, **kw):
    # from n = 4 on, one word moved from des3 value 0 to 1
    ms = _real_des3(n, **kw)
    if n < 4:
        return ms
    return ms._replace(values={**ms.values, 0: ms.values[0] - 1, 1: ms.values[1] + 1})


def _min_insertion_twice(w, j):
    # 123 at space 0 yields its min insertion 1432 twice, never its max 4321
    low, high = _real_inserted(w, j)
    return (low, low) if (w, j) == ((1, 2, 3), 0) else (low, high)


# the subject of a divisibility token, or of an oracle or bijection token
@pytest.mark.parametrize("module, attr, fake, token, max_n, failed", [
    # A_6(t, q) + 1: every A_6(q^j, q) gains 1, so every j fails at n = 6
    (transfer, "tq_rows", lambda n: (_plus(p, {(0, 0): 1}) if m == 6 else p
                                     for m, p in enumerate(_real_tq_rows(n), 1)), "thm4.5", 6,
     {"one-plus-q order parity n=6": ("fail", "; ".join(
         f"n=6, j={j}: (1+q)-order 0 < {2 if j % 2 else 3}" for j in range(5)))}),
    (oracle, "stat_multiset", _moved_word, "conj4.10", 6,
     {"binomial criterion n=6": ("finding", "n=6, m=1: binomial sums unbalanced")}),
    (oracle, "_stat_vector", _first_letter_smallest, "thm4.11", 5,
     {f"prefix-reversal bijection n=5 m={m}": (
         "fail", f"n=5, m={m}: shift fails at (1, 2, 3, 4, 5)") for m in (1, 2)}),
    (oracle, "brute_alt_eulerian", lambda n, **kw: _real_brute_alt(n, **kw) + (n == 3),
     "thm2.1", 4,
     {"five-term matches oracle n=3": ("fail", "five-term recurrence disagrees at n=3")}),
    (oracle, "brute_des3_first1", _moved_des3_word, "equidist", 6,
     {f"alternating descents match triple-pattern class n={n}": (
         "fail", f"distributions differ at n={n}") for n in (4, 5, 6)}),
    (permutations, "theta", permutations.reversal, "theta", 3,
     {"theta involution n=3": ("fail", "statistics mismatch at 123 -> 321")}),
    (permutations, "_inserted", _min_insertion_twice, "double-count", 4,
     {"insertion double count n=3": ("fail", "1432 constructed 3 times")}),
], ids=["thm4.5", "conj4.10", "thm4.11", "thm2.1", "equidist", "theta", "double-count"])
def test_corrupted_divisibility_subject_is_a_negative_row(capsys, monkeypatch, module, attr,
                                                          fake, token, max_n, failed):
    monkeypatch.setattr(module, attr, fake)
    rows = checks.run(token, max_n)
    assert {r.name: (r.status, r.witness) for r in rows if r.status != "pass"} == failed
    code, out, err = run(capsys, "verify", token, "--max-n", str(max_n), "--format", "json")
    assert code == 1 and err == ""
    assert [(r["name"], r["status"], r.get("witness")) for r in json.loads(out)["results"]] \
        == [(r.name, r.status, r.witness) for r in rows]


def test_theta_is_capped_by_brute_max(capsys):
    code, out, _ = run(capsys, "verify", "theta", "--max-n", "12", "--brute-max", "8",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [f"theta involution n={n},pass," for n in range(1, 9)]


def test_run_rejects_an_empty_range(capsys):
    with pytest.raises(UsageError, match="--max-n must be at least 1"):
        checks.run("eq1", 0)
    # a range that lists no case is a usage error, never "0/0 passed"
    for token, max_n, brute_max in (("thm4.2", 1, 11), ("thm4.11", 1, 11),
                                    ("thm4.11", None, 1)):
        message = f"{token} has no case up to --max-n {max_n or 9} and --brute-max {brute_max}"
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            checks.run(token, max_n, brute_max=brute_max)
        argv = ["--max-n", str(max_n)] if max_n else ["--brute-max", str(brute_max)]
        assert run(capsys, "verify", token, *argv) == (2, "", f"error: {message}\n")


def test_run_rejects_an_unknown_token():
    with pytest.raises(UsageError, match="unknown token 'thm9.9'; choose from thm2.1, "):
        checks.run("thm9.9")


def test_numpy_loader_caps_the_openblas_pool_unless_set():
    # the oracle's loader sets OPENBLAS_NUM_THREADS=1 only around its import
    # of numpy: library callers and `verify thm4.11` start no BLAS thread and
    # find the environment as it was, and a value the user set is honoured
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted in /proc/self/task")
    library = 'from altdes import oracle; assert oracle.stat_multiset(5, "des").total() == 120'
    command = 'import altdes.cli; assert altdes.cli.main(["verify", "thm4.11"]) == 0'
    src = os.path.dirname(os.path.dirname(altdes.__file__))

    def threads_and_value(call, value):
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("OPENBLAS_NUM_THREADS", None)
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        script = call + textwrap.dedent("""
            import os
            print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    assert threads_and_value(library, None) == ["1", "None"]
    assert threads_and_value(command, None) == ["1", "None"]
    # OpenBLAS starts at most one thread per available cpu
    honoured = str(min(2, len(os.sched_getaffinity(0))))
    assert threads_and_value(library, "2") == [honoured, "2"]


_small = st.integers(-(1 << 70), 1 << 70)


@settings(max_examples=100, deadline=None)
@given(st.lists(_small, max_size=30), st.dictionaries(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), _small, max_size=30))
def test_parse_poly_value_inverts_json(coeffs, terms):
    f = IntPoly(coeffs)
    assert parse_poly(json.loads(json.dumps(ser_poly(f)))) == f
    p = BiPolyTQ(terms)
    assert parse_bipoly(json.loads(json.dumps(ser_bipoly(p)))) == p


def test_numpy_is_imported_only_to_enumerate():
    script = textwrap.dedent("""
        import os
        import sys
        import altdes
        layers = ("polynomials", "permutations", "oracle", "recurrences",
                  "gamma", "divisibility", "checks")
        assert all(f"altdes.{m}" in sys.modules for m in layers)
        import altdes.cli
        assert "altdes.cli" in sys.modules and "numpy" not in sys.modules
        assert "concurrent.futures.process" not in sys.modules
        assert altdes.cli.main(["factor", "--n", "12"]) == 0
        assert altdes.cli.main(["verify", "conj5.1", "--max-n", "30"]) == 0
        assert "numpy" not in sys.modules
        assert "concurrent.futures.process" not in sys.modules
        from altdes import oracle
        assert oracle.stat_multiset(5, "des").values == {0: 1, 1: 26, 2: 66, 3: 26, 4: 1}
        assert "numpy" in sys.modules and oracle.np is sys.modules["numpy"]
        assert "OPENBLAS_NUM_THREADS" not in os.environ  # the loader restores it
        oracle.os.cpu_count = lambda: 2
        assert oracle.brute_alt_eulerian(11, jobs=2)(1) == 39916800  # forks a child
        assert not [m for m in sys.modules if m.startswith(("concurrent", "multiprocessing"))]
    """)
    src = os.path.dirname(os.path.dirname(altdes.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_start_up_loads_no_code_generation_or_output_formats():
    # every command pays for what `import altdes, altdes.cli` loads: no
    # dataclass code generation, no Fraction, and json and csv only when
    # a report is rendered in that format
    script = textwrap.dedent("""
        import sys
        import altdes, altdes.cli
        assert "numpy" not in sys.modules
        unwanted = ("dataclasses", "fractions", "json", "csv", "inspect")
        assert [m for m in unwanted if m in sys.modules] == []
    """)
    src = os.path.dirname(os.path.dirname(altdes.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# sha256 of the CSV and JSON reports (JSON without its elapsed_ms line),
# recorded before the bivariate carrier moved to per-t-degree q-slices
_BIVARIATE_DIGESTS = {
    ("compute alt --q --n 7", "csv"):
        "0fd5e01dc1855cb84019ce06dd2a8a1312c63ffe16dcd5f97c6504eeac76d256",
    ("compute alt --q --n 7", "json"):
        "2b43dbc0337b63e22b5d46fec54053f0d07f905e235b2f57f661a96d6c6fe219",
    ("compute gamma --q --n 9", "csv"):
        "6ec43f520c048a41f2b50a1ffc60c4f3c84fe9e1bc0514ccb51b84daccd552e4",
    ("compute gamma --q --n 9", "json"):
        "3fcfba222e8404c108643da26416e9eb7e37ac4bcd438dbe554e0487d41ef663",
    ("compute two-sided --n 5", "csv"):
        "6aa0b2f95c27fdb031ffe060d22b3b1713469c15ae7e45d22222debe75fa9377",
    ("compute two-sided --n 5", "json"):
        "8b088de25962b9123e4bdfc0062d9cd320fafad3bed0aac172ad708ac89b4037",
}


def test_bivariate_reports_are_byte_pinned(capsys):
    for (command, fmt), digest in _BIVARIATE_DIGESTS.items():
        code, out, err = run(capsys, *command.split(), "--format", fmt)
        assert code == 0 and err == ""
        out = re.sub(r'\n  "elapsed_ms": \d+,', "", out)
        assert '"elapsed_ms"' not in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, fmt)
