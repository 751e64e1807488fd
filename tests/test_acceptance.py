"""Acceptance gate: eleven criteria, one summary line each.

Each criterion prints a single "PASS criterion k: ..." or "FAIL
criterion k: ..." line (collected for the terminal summary as well) and
enforces its time budget where one applies.  All polynomial comparisons
are exact.
"""

import json
import time

from altdes import checks, cli
from altdes.divisibility import build_Ev, e_hat_claims, extract_Ehat
from altdes.gamma import q_gamma_extract, two_sided_extract
from altdes.oracle import brute_two_sided, down_up_simsun_count
from altdes.polynomials import IntPoly, one_plus_pow
from altdes.recurrences import (euler_numbers, faa_di_bruno_altmaj, five_term, gamma_rec,
                                quadratic_tq)
from altdes.transfer import qpow_rows
from test_cli import parse_poly

RESULTS = []


def P(*cs):
    return IntPoly(cs)


def _criterion(num, label, body, budget=None):
    t0 = time.perf_counter()
    try:
        body()
        ok, detail = True, ""
    except Exception as exc:  # a crash is a failure, not an error
        ok, detail = False, f" - {exc}"
    elapsed = time.perf_counter() - t0
    if ok and budget is not None and elapsed > budget:
        ok = False
        detail = f" - took {elapsed:.2f}s, budget {budget}s"
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} ({elapsed:.2f}s){detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _passes(*tokens, max_n=None, jobs=1):
    """Every row of each token's verify suite passes up to max_n (the
    token's default range when None)."""
    for token in tokens:
        for row in checks.run(token, max_n, jobs=jobs):
            assert row.status == "pass", \
                f"{token}: {row.status} {row.name} [{row.witness}]"


def test_criterion_01_golden_polynomials():
    def body():
        golden = {
            1: P(1),
            2: P(1, 1),
            3: P(2, 2, 2),
            4: P(5, 7, 7, 5),
            5: P(16, 26, 36, 26, 16),
        }
        for n, f in golden.items():
            assert five_term(n) == f, f"n={n}"

    _criterion(1, "golden polynomials through n=5", body, budget=1.0)


def test_criterion_02_factorization_table(tmp_path):
    out = tmp_path / "factor.json"

    def body():
        printed = {
            2: P(1),
            3: P(2, -1, 2),
            4: P(5, -7, 5),
            5: P(16, -23, 18, -7, 18, -23, 16),
            6: P(61, -87, 66, -82, 129, -82, 66, -87, 61),
            7: P(272, -389, 298, -375, 603, -497, 617, -743,
                 617, -497, 603, -375, 298, -389, 272),
            8: P(1385, -3364, 3490, -3406, 4915, -5397, 4873, -4677,
                 4873, -5397, 4915, -3406, 3490, -3364, 1385),
        }
        for n, expected in printed.items():
            code = cli.main(["factor", "--n", str(n), "--format", "json",
                             "--out", str(out)])
            assert code == 0, f"factor --n {n} exited {code}"
            report = json.loads(out.read_text(encoding="utf-8"))
            values = {r["name"]: r.get("value") for r in report["results"]}
            assert values["e_hat"] == list(expected), f"n={n}"
            got = parse_poly(values["g_n"]) * expected
            assert got == faa_di_bruno_altmaj(n), f"n={n} product"
        E = euler_numbers(20)
        alt = list(qpow_rows(20))
        for n in range(2, 21):
            f = extract_Ehat(n, alt[n - 1])
            assert e_hat_claims(n, f) == dict.fromkeys(
                ("e_hat_palindromic", "constant_term_is_euler")), f"n={n}"
            assert f[0] == E[n], f"n={n}"

    _criterion(2, "factorization table n=2..8 and reduced factors to n=20",
               body, budget=10.0)


def test_criterion_03_oracle_equivalence():
    def body():
        _passes("eq-fn0")
        _passes("thm2.1", "qrec", "cor3.5", max_n=11, jobs=2)

    _criterion(3, "recurrences match the oracle to n=10, n=11 with jobs=2",
               body, budget=60.0)


def test_criterion_04_convolution():
    _criterion(4, "convolution identity to n=10", lambda: _passes("eq1"))


def test_criterion_05_generating_function():
    _criterion(5, "exact series match through order 10", lambda: _passes("eq2"),
               budget=5.0)


def test_criterion_06_gamma_pipeline():
    def body():
        _passes("thm3.1", "gamma-col")
        assert gamma_rec(5) == P(16, 19, 4)

    _criterion(6, "gamma positivity, gamma vectors, and column identity", body)


def test_criterion_07_cd_index():
    _criterion(7, "cd-index relations to n=7, simsun shift to n=12",
               lambda: _passes("prop3.4", "thm3.2"), budget=30.0)


def test_criterion_08_values_at_minus_one():
    def body():
        _passes("cor3.3")
        assert [down_up_simsun_count(k) for k in (2, 4, 6)] == [1, 4, 34]

    _criterion(8, "odd values at -1 and down-up simsun counts", body)


def test_criterion_09_divisibility():
    def body():
        _passes("thm4.2", "thm4.5", "thm4.6", "qfact")
        assert build_Ev(6) == one_plus_pow(6) * one_plus_pow(3)

    _criterion(9, "divisibility suite: orders, products, parity", body)


def test_criterion_10_conjecture_suite():
    def body():
        _passes("conj5.1", "conj5.2", "conj5.3", "conj4.10")
        table = {
            2: [P(1)],
            3: [P(2), P(1, 1)],
            4: [P(5), 2 * P(1, 1) ** 2],
            5: [P(16), P(1, 1) * P(7, 5, 7), P(1, 1) ** 2 * P(2, 0, 2)],
            6: [P(61), P(1, 1) ** 2 * P(26, -5, 26),
                P(1, 1) ** 2 * P(1, 0, 1) * P(5, 7, 5)],
            7: [P(272), P(1, 1) * P(117, 91, 103, 91, 117),
                P(1, 1) ** 2 * P(1, 0, 1) * P(1, 1, 1) * P(26, -5, 26),
                P(1, 1) ** 2 * P(1, 0, 1) * P(1, 0, 0, 1) * P(12, -7, 12)],
            8: [P(1385), 6 * P(1, 1) ** 2 * P(99, -21, 106, -21, 99),
                2 * P(1, 1) ** 2 * P(1, 0, 1) * P(63, 62, 98, 118, 98, 62, 63),
                2 * P(1, 1) ** 3 * P(1, 0, 1) * P(1, 0, 0, 1)
                * P(21, -14, 48, -14, 21)],
        }
        for n, gammas in table.items():
            got = q_gamma_extract(quadratic_tq(n), n)
            assert got == tuple(gammas), f"q-gamma n={n}"
        expansions = {
            2: {(0, 1): 1},
            3: {(0, 2): 1, (0, 0): 1, (1, 0): 2},
            4: {(0, 3): 2, (0, 0): 1, (0, 1): 2, (1, 1): 5, (1, 0): 3},
            5: {(0, 4): 3, (0, 3): 2, (0, 2): 6, (0, 1): 2, (0, 0): 3,
                (1, 2): 14, (1, 1): 10, (1, 0): 14, (2, 0): 16},
        }
        for n, entries in expansions.items():
            assert two_sided_extract(brute_two_sided(n)) == entries, \
                f"two-sided n={n}"

    _criterion(10, "conjecture suite: log-concavity, refined expansions, "
                   "binomial criterion", body)


def test_criterion_11_combinatorial_proofs():
    def body():
        _passes("double-count", "thm4.11", "equidist", "theta")

    _criterion(11, "bijective arguments: double count, involution, "
                   "prefix reversal, equidistribution", body)
