"""Acceptance gate: eleven criteria, one summary line each.

Each criterion prints a single "PASS criterion k: ..." or "FAIL
criterion k: ..." line (collected for the terminal summary as well) and
enforces its time budget where one applies.  All polynomial comparisons
are exact.
"""

import json
import time

from altdes import cli
from altdes.divisibility import (
    build_Ev,
    build_Gn,
    check_pochhammer_orders,
    check_qj_parity,
    check_thm42,
    extract_Ehat,
    thm411_bijection_check,
    verify_conj410,
)
from altdes.gamma import (
    cd_transform,
    q_gamma_extract,
    simsun_relation_check,
    two_sided_extract,
)
from altdes.oracle import (
    brute_alt_eulerian,
    brute_cd_index,
    brute_des3_first1,
    brute_qalt,
    brute_simsun,
    brute_two_sided,
    down_up_simsun_count,
    stat_multiset,
)
from altdes.permutations import double_count_check, theta_check
from altdes.polynomials import (
    IntPoly,
    NCPoly,
    gamma_expand,
    one_plus_pow,
    shape_predicates,
)
from altdes.recurrences import (
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


def test_criterion_02_factorization_table():
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
                             "--out", "/tmp/altdes_factor.json"])
            assert code == 0, f"factor --n {n} exited {code}"
            with open("/tmp/altdes_factor.json", encoding="utf-8") as fh:
                report = json.load(fh)
            values = {r["name"]: r.get("value") for r in report["results"]}
            assert values["e_hat"] == list(expected), f"n={n}"
            got = cli.parse_poly(values["g_n"]) * expected
            assert got == faa_di_bruno_altmaj(n), f"n={n} product"
        E = euler_numbers(20)
        for n in range(2, 21):
            f = extract_Ehat(n)
            assert f.verdicts.e_hat_palindromic, f"n={n}"
            assert f.verdicts.constant_term_is_euler, f"n={n}"
            assert f.e_hat[0] == E[n], f"n={n}"

    _criterion(2, "factorization table n=2..8 and reduced factors to n=20",
               body, budget=10.0)


def test_criterion_03_oracle_equivalence():
    def body():
        for n in range(1, 11):
            assert five_term(n) == brute_alt_eulerian(n), f"alt n={n}"
            assert quadratic_tq(n) == brute_qalt(n), f"qalt n={n}"
            assert simsun_rec(n, "derivative") == simsun_rec(n, "quadratic") \
                == brute_simsun(n), f"simsun n={n}"
        n = 11
        assert five_term(n) == brute_alt_eulerian(n, jobs=2), "alt n=11"
        assert quadratic_tq(n) == brute_qalt(n, jobs=2), "qalt n=11"
        assert simsun_rec(n, "derivative") == simsun_rec(n, "quadratic") \
            == brute_simsun(n, jobs=2), "simsun n=11"

    _criterion(3, "recurrences match the oracle to n=10, n=11 with jobs=2",
               body, budget=60.0)


def test_criterion_04_convolution():
    def body():
        for n in range(1, 11):
            ok = chebikin_check(n)
            assert ok.ok, ok.witness

    _criterion(4, "convolution identity to n=10", body)


def test_criterion_05_generating_function():
    def body():
        ok = egf_check(10)
        assert ok.ok, ok.witness

    _criterion(5, "exact series match through order 10", body, budget=5.0)


def test_criterion_06_gamma_pipeline():
    def body():
        x_plus_1 = P(1, 1)
        for n in range(1, 13):
            a = gamma_rec(n)
            assert gamma_expand(five_term(n), n).polynomial() == a, f"n={n}"
            assert a == simsun_rec(n - 1).compose(x_plus_1), f"n={n}"
        assert gamma_rec(5) == P(16, 19, 4)
        E = euler_numbers(13)
        for n in range(3, 13):
            assert gamma_rec(n)[1] == n * E[n] - E[n + 1], f"n={n}"

    _criterion(6, "gamma vectors, simsun shift, and column identity", body)


def test_criterion_07_cd_index():
    def body():
        images = {"c": NCPoly({"a": 1, "b": 1}), "d": NCPoly({"ab": 1, "ba": 1})}
        for n in range(1, 8):
            cd = brute_cd_index(n)
            tr = cd_transform(cd.phi)
            assert cd.psi == cd.phi.substitute(images), f"psi n={n}"
            assert cd.psi_hat == tr.phi_hat.substitute(images), f"psi-hat n={n}"
            assert tr.alt_poly == five_term(n), f"eval n={n}"
            ok = simsun_relation_check(n)
            assert ok.ok, ok.witness

    _criterion(7, "cd-index relations to n=7", body, budget=30.0)


def test_criterion_08_values_at_minus_one():
    def body():
        E = euler_numbers(13)
        for n in range(1, 14, 2):
            assert five_term(n)(-1) == E[n], f"n={n}"
        assert [down_up_simsun_count(k) for k in (2, 4, 6)] == [1, 4, 34]

    _criterion(8, "odd values at -1 and down-up simsun counts", body)


def test_criterion_09_divisibility():
    def body():
        for n in range(2, 17):
            ok = check_thm42(n)
            assert ok.ok, ok.witness
        for n in range(1, 21):
            ok = check_pochhammer_orders(n)
            assert ok.ok, ok.witness
        for n in range(1, 31):
            assert build_Gn(n, "product") == build_Gn(n, "cyclotomic"), f"n={n}"
        for k in range(1, 9):
            prod = IntPoly.one()
            for i in range(1, k + 1):
                prod = prod * build_Ev(i)
            assert build_Gn(2 * k) == prod == build_Gn(2 * k + 1), f"k={k}"
        assert build_Ev(6) == one_plus_pow(6) * one_plus_pow(3)
        for n in range(1, 15):
            for j in range(5):
                ok = check_qj_parity(n, j)
                assert ok.ok, ok.witness
                if j:
                    ok2 = specialized_recursion_check(n, j)
                    assert ok2.ok, ok2.witness

    _criterion(9, "divisibility suite: orders, products, parity", body)


def test_criterion_10_conjecture_suite():
    def body():
        for n in range(1, 201):
            assert shape_predicates(five_term(n)).log_concave, f"n={n}"
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
            assert list(got.gammas) == gammas, f"q-gamma n={n}"
        for n in range(1, 11):
            p = quadratic_tq(n)
            got = q_gamma_extract(p, n)
            assert got.reconstruct() == p, f"n={n}"
            assert got.conjecture_holds(), f"n={n}"
        expansions = {
            2: {(0, 1): 1},
            3: {(0, 2): 1, (0, 0): 1, (1, 0): 2},
            4: {(0, 3): 2, (0, 0): 1, (0, 1): 2, (1, 1): 5, (1, 0): 3},
            5: {(0, 4): 3, (0, 3): 2, (0, 2): 6, (0, 1): 2, (0, 0): 3,
                (1, 2): 14, (1, 1): 10, (1, 0): 14, (2, 0): 16},
        }
        for n, entries in expansions.items():
            assert two_sided_extract(brute_two_sided(n)).entries == entries, \
                f"two-sided n={n}"
        for n in range(1, 11):
            a = brute_two_sided(n)
            ext = two_sided_extract(a)
            assert ext.reconstruct() == a, f"n={n}"
            assert ext.nonnegative(), f"n={n}"
        for n in range(1, 12):
            ok = verify_conj410(n)
            assert ok.ok, ok.witness

    _criterion(10, "conjecture suite: log-concavity, refined expansions, "
                   "binomial criterion", body)


def test_criterion_11_combinatorial_proofs():
    def body():
        for n in range(1, 8):
            ok = double_count_check(n)
            assert ok.ok, ok.witness
        for n in range(1, 9):
            ok = theta_check(n)
            assert ok.ok, ok.witness
        for n in range(2, 10):
            for m in range(1, n // 2 + 1):
                ok = thm411_bijection_check(n, m)
                assert ok.ok, ok.witness
        for n in range(1, 8):
            left = stat_multiset(n, "altdes")
            right = brute_des3_first1(n)
            assert left.values == right.values, f"n={n}"

    _criterion(11, "bijective arguments: double count, involution, "
                   "prefix reversal, equidistribution", body)
