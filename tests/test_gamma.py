"""q-refined and two-sided gamma expansions."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdes.divisibility import order_of_factor
from altdes.gamma import (
    ExpansionFailed,
    gamma_expand,
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
    residual = "^nonzero residual after the final peel step$"
    with pytest.raises(ExpansionFailed, match=residual):
        q_gamma_extract(BiPolyTQ({(0, 0): 1, (1, 0): 3}), 2)
    with pytest.raises(ExpansionFailed, match=residual):
        q_gamma_extract(BiPolyTQ({(3, 0): 1}), 2)  # t-degree out of range
    for n in (0, -1):
        for p in (BiPolyTQ({}), BiPolyTQ.one()):
            with pytest.raises(ValueError, match="^n must be positive$"):
                q_gamma_extract(p, n)


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
        assert a.at_t_qpow() == five_term(n)


def test_two_sided_rejects_asymmetric():
    with pytest.raises(ExpansionFailed):
        two_sided_extract(BiPolyTQ({(0, 1): 1}))


# "nonzero residual after the peel" of gamma_expand is a guard: every
# basis element is palindromic about (n-1)/2, so once the palindromic
# input's low half is peeled nothing is left
@pytest.mark.parametrize("peel, message", [
    (lambda: gamma_expand(P(1, 1, 1), 2), "degree 2 exceeds 1"),
    (lambda: gamma_expand(P(1, 2), 2), "not palindromic about 1/2"),
    (lambda: gamma_expand(P(1, 3, 1), 3), "entry 1: 1 not divisible by -2"),
    (lambda: two_sided_extract(BiPolyTQ({(0, 1): 1})), "not symmetric at exponents (0, 1)"),
    (lambda: two_sided_extract(BiPolyTQ({(0, 1): 1, (1, 0): 1, (2, 2): 1})),
     "term s^1 t^2 lies outside the basis"),
    (lambda: two_sided_extract(BiPolyTQ({(1, 1): 1})),
     "nonzero residual after the final peel step"),
    pytest.param(lambda: q_gamma_extract(BiPolyTQ({(0, 0): 2, (1, 0): 1}), 3),
                 "t^1 slice has q-valuation 0 < 1", id="q-valuation"),
    pytest.param(lambda: q_gamma_extract(BiPolyTQ({(3, 0): 1}), 2),
                 "nonzero residual after the final peel step", id="q-residual"),
])
def test_peel_failure_messages(peel, message):
    with pytest.raises(ExpansionFailed, match=f"^{re.escape(message)}$"):
        peel()


def _dict_mul(a, b):
    """The product as a convolution of {exponent pair: coeff} dicts."""
    out = {}
    for (k1, j1), c1 in a.items():
        for (k2, j2), c2 in b.items():
            key = (k1 + k2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


@st.composite
def _two_sided_entries(draw):
    """n <= 8 and entries {(i, j): e} of its basis, one with i = 0
    nonzero, so that s^(n-1) occurs and the peel reads n back."""
    n = draw(st.integers(1, 8))
    keys = [(i, j) for i in range((n - 1) // 2 + 1) for j in range(n - 2 * i)]
    entries = draw(st.dictionaries(st.sampled_from(keys), st.integers(-50, 50)))
    entries[(0, draw(st.integers(0, n - 1)))] = draw(st.integers(-50, 50).filter(bool))
    return n, entries


@settings(max_examples=150, deadline=None)
@given(_two_sided_entries())
def test_two_sided_peel_inverts_the_expansion(case):
    n, entries = case
    total = {}
    for (i, j), e in entries.items():
        element = {(i, i): (-1) ** i * e}
        for _ in range(j):
            element = _dict_mul(element, {(0, 0): 1, (1, 1): 1})
        for _ in range(n - 1 - j - 2 * i):
            element = _dict_mul(element, {(1, 0): 1, (0, 1): 1})
        for key, c in element.items():
            total[key] = total.get(key, 0) + c
    got = two_sided_extract(BiPolyTQ(total))
    assert got == {key: e for key, e in entries.items() if e}


@st.composite
def _q_gamma_entries(draw):
    """n <= 8 and signed entries g_0(q), ..., g_((n-1)//2)(q)."""
    n = draw(st.integers(1, 8))
    entries = draw(st.lists(st.lists(st.integers(-50, 50), max_size=5),
                            min_size=(n - 1) // 2 + 1, max_size=(n - 1) // 2 + 1))
    return n, [IntPoly(g) for g in entries]


@settings(max_examples=150, deadline=None)
@given(_q_gamma_entries())
def test_q_gamma_peel_inverts_the_expansion(case):
    n, entries = case
    total = {}
    for k, g in enumerate(entries):
        element = {(k, k * (k + 1) // 2 + j): (-1) ** k * c for j, c in enumerate(g.coeffs)}
        for i in range(k + 1, n - k):
            element = _dict_mul(element, {(0, 0): 1, (1, i): 1})
        for key, c in element.items():
            total[key] = total.get(key, 0) + c
    assert q_gamma_extract(BiPolyTQ(total), n) == tuple(entries)


def test_down_up_simsun_wrapper():
    assert [down_up_simsun_count(k) for k in (2, 4, 6)] == [1, 4, 34]
    with pytest.raises(LimitExceeded):
        down_up_simsun_count(6, brute_max=5)
