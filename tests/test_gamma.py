"""q-refined and two-sided gamma expansions."""

import pytest

from altdes.divisibility import order_of_factor
from altdes.gamma import (
    ExpansionFailed,
    q_gamma_extract,
    simsun_relation_check,
    two_sided_extract,
)
from altdes.oracle import (
    LimitExceeded,
    brute_two_sided,
    down_up_simsun_count,
)
from altdes.polynomials import BiPolyTQ, IntPoly
from altdes.recurrences import five_term, gamma_rec, quadratic_tq


def P(*cs):
    return IntPoly(cs)


def test_simsun_relation():
    for n in range(1, 13):
        ok = simsun_relation_check(n)
        assert ok.ok, ok.witness


def test_q_gamma_small_expansions():
    expected = {
        2: [P(1)],
        3: [P(2), P(1, 1)],
        4: [P(5), 2 * P(1, 1) ** 2],
        5: [P(16), P(1, 1) * P(7, 5, 7), P(1, 1) ** 2 * P(2, 0, 2)],
    }
    for n, gammas in expected.items():
        got = q_gamma_extract(quadratic_tq(n), n)
        assert got == tuple(gammas)
        assert all(min(g.coeffs) >= 0 and order_of_factor(g, 1) >= k
                   for k, g in enumerate(got))


def test_q_gamma_reconstruct_and_q1():
    for n in range(1, 11):
        p = quadratic_tq(n)
        got = q_gamma_extract(p, n)
        assert isinstance(got, tuple) and len(got) == (n - 1) // 2 + 1
        a = gamma_rec(n)
        for k, g in enumerate(got):
            assert g(1) == 2 ** k * a[k]
            # nonnegative, with at least k factors of 1 + q
            assert min(g.coeffs) >= 0 and order_of_factor(g, 1) >= k


def test_q_gamma_rejects_bad_input():
    with pytest.raises(ExpansionFailed):
        q_gamma_extract(BiPolyTQ({(0, 0): 1, (1, 0): 3}), 2)
    with pytest.raises(ExpansionFailed):
        q_gamma_extract(BiPolyTQ({(3, 0): 1}), 2)  # t-degree out of range


def test_two_sided_small_entries():
    expected = {
        2: {(0, 1): 1},
        3: {(0, 2): 1, (0, 0): 1, (1, 0): 2},
        4: {(0, 3): 2, (0, 0): 1, (0, 1): 2, (1, 1): 5, (1, 0): 3},
        5: {(0, 4): 3, (0, 3): 2, (0, 2): 6, (0, 1): 2, (0, 0): 3,
            (1, 2): 14, (1, 1): 10, (1, 0): 14, (2, 0): 16},
    }
    for n, entries in expected.items():
        got = two_sided_extract(brute_two_sided(n))
        assert isinstance(got, dict)
        assert got == entries
        assert all(e >= 0 for e in got.values())


def test_two_sided_reconstruct():
    for n in range(1, 9):
        a = brute_two_sided(n)
        got = two_sided_extract(a)
        assert all(e >= 0 for e in got.values())
        # setting one side to 1 recovers the one-sided polynomial
        assert a.at_t1() == five_term(n)


def test_two_sided_rejects_asymmetric():
    with pytest.raises(ExpansionFailed):
        two_sided_extract(BiPolyTQ({(0, 1): 1}))


def test_down_up_simsun_wrapper():
    assert [down_up_simsun_count(k) for k in (2, 4, 6)] == [1, 4, 34]
    with pytest.raises(LimitExceeded):
        down_up_simsun_count(6, brute_max=5)
