"""Exact polynomial arithmetic, shape predicates, and expansions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdes import polynomials
from altdes.gamma import ExpansionFailed, gamma_expand
from altdes.polynomials import (
    BiPolyTQ,
    IntPoly,
    one_plus_pow,
    q_pochhammer,
    shape_predicates,
)

rng = random.Random(20260814)


def rand_poly(max_deg=8, lo=-9, hi=9):
    return IntPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg) + 1)])


def test_ring_axioms_by_evaluation():
    # evaluation at integer points is a ring homomorphism, so random
    # evaluations catch arithmetic slips in +, -, * and **
    for _ in range(300):
        f, g = rand_poly(), rand_poly()
        x = rng.randint(-6, 6)
        assert (f + g)(x) == f(x) + g(x)
        assert (f - g)(x) == f(x) - g(x)
        assert (f * g)(x) == f(x) * g(x)
        assert (-f)(x) == -f(x)
    for _ in range(40):
        f = rand_poly(4)
        k = rng.randint(0, 4)
        x = rng.randint(-4, 4)
        assert (f ** k)(x) == f(x) ** k


def test_normalization_and_accessors():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly(()) == IntPoly.zero()
    assert not IntPoly.zero()
    assert IntPoly.zero().degree == -1
    f = IntPoly((3, 0, 5))
    assert f.degree == 2 and f[0] == 3 and f[1] == 0 and f[2] == 5 and f[7] == 0
    assert list(f) == [3, 0, 5]
    assert IntPoly.monomial(3, -2) == IntPoly((0, 0, 0, -2))
    # from_terms adds repeated exponents, so full cancellation is zero
    assert IntPoly.from_terms([(1, 2), (3, 1), (1, -2), (3, -1)]) == IntPoly.zero()
    with pytest.raises(ValueError):
        IntPoly.from_terms([(-1, 1)])
    assert hash(IntPoly((1, 1))) == hash(IntPoly([1, 1]))


def test_immutable():
    f = IntPoly((1, 2))
    with pytest.raises(AttributeError):
        f.coeffs = (9,)


def test_div_binomial_matches_exact_div():
    for _ in range(200):
        k = rng.randint(1, 5)
        sign = rng.choice((1, -1))
        b = IntPoly.one().mul_binomial(k, sign)
        f = rand_poly(6)
        quot, exact = (f * b).div_binomial(k, sign)
        assert exact and quot == f
        g = f * b + IntPoly.one()
        quot2, exact2 = g.div_binomial(k, sign)
        assert not exact2
        # multiples of b are exactly the polynomials the peel accepts
        _, again = (g - IntPoly.one()).div_binomial(k, sign)
        assert again


def test_structure_helpers():
    f = IntPoly((0, 0, 2, 3))
    assert f.valuation() == 2
    assert f.shift(2) == IntPoly((0, 0, 0, 0, 2, 3))
    for p in (IntPoly((1, 2)), IntPoly.zero()):
        with pytest.raises(ValueError):
            p.shift(-1)
    assert IntPoly((5, 1, 4)).derivative() == IntPoly((1, 8))
    comp = IntPoly((1, 1)).compose(IntPoly((2, 3)))  # 1 + (2+3x)
    assert comp == IntPoly((3, 3))
    for _ in range(50):
        f, g = rand_poly(4), rand_poly(3)
        x = rng.randint(-3, 3)
        assert f.compose(g)(x) == f(g(x))


def test_pretty_formats():
    assert IntPoly((16, 26, 36, 26, 16)).pretty() == "16 + 26t + 36t^2 + 26t^3 + 16t^4"
    assert IntPoly((2, -1, 2)).pretty("q") == "2 - q + 2q^2"
    assert IntPoly((0, 1)).pretty() == "t"
    assert IntPoly((0, -1)).pretty() == "-t"
    assert IntPoly.zero().pretty() == "0"
    assert IntPoly((7,)).pretty() == "7"


def test_q_pochhammer_and_factorial():
    def one_minus_pow(i):
        return IntPoly.one() - IntPoly.monomial(i)

    for n in range(7):
        prod = IntPoly.one()
        for i in range(1, n + 1):
            prod = prod * one_minus_pow(i)
        assert q_pochhammer(n) == prod


def test_shape_predicates():
    sh = shape_predicates(IntPoly((1, 3, 3, 1)))
    assert sh.palindromic and sh.unimodal and sh.log_concave
    assert not shape_predicates(IntPoly((1, 2, 1, 2))).palindromic
    assert not shape_predicates(IntPoly((1, 5, 2, 5, 1))).unimodal
    # unimodal but not log-concave: 1, 1, 3
    sh2 = shape_predicates(IntPoly((1, 1, 3)))
    assert sh2.unimodal and not sh2.log_concave
    assert shape_predicates(IntPoly((4,))).unimodal


def test_gamma_expand_roundtrip():
    for _ in range(150):
        n = rng.randint(1, 9)
        ks = (n - 1) // 2 + 1
        coeffs = tuple(rng.randint(-6, 6) for _ in range(ks))
        f = sum((a * IntPoly.monomial(k, (-2) ** k) * IntPoly((1, 1)) ** (n - 1 - 2 * k)
                 for k, a in enumerate(coeffs)), IntPoly())
        # an IntPoly drops trailing zero entries
        assert gamma_expand(f, n) == IntPoly(coeffs)


def test_gamma_expand_failures():
    with pytest.raises(ExpansionFailed):
        gamma_expand(IntPoly((1, 2)), 2)
    with pytest.raises(ExpansionFailed):
        gamma_expand(IntPoly((1, 1, 1, 1)), 3)  # degree too high for center
    with pytest.raises(ExpansionFailed):
        gamma_expand(IntPoly((1, 3, 1)), 3)  # middle entry forces a half


def test_bipoly_views():
    a = BiPolyTQ({(0, 0): 1, (1, 2): 3, (2, 1): -4})
    assert IntPoly(row(1) for _, row in a.rows) == IntPoly((1, 3, -4))  # q = 1
    assert a.at_t_qpow() == IntPoly((1, -4, 3))
    assert BiPolyTQ({(0, 0): 0}) == BiPolyTQ({})


def test_bipoly_pretty():
    a = BiPolyTQ({(0, 0): 2, (1, 1): 1, (2, 0): -3})
    assert a.pretty() == "2 + tq - 3t^2"
    assert a.pretty("s", "t") == "2 + st - 3s^2"


# ---------------------------------------------------------------------------
# properties of the product kernel


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return IntPoly(out)


# coefficient sizes from a few bits to well over 1000 bits, runs of zeros
# included, lengths on both sides of the Kronecker crossover
_coeff = st.one_of(
    st.integers(-9, 9),
    st.just(0),
    st.integers(-(1 << 64), 1 << 64),
    st.integers(-(1 << 1100), 1 << 1100),
)


def _polys(max_len):
    """Nonzero polynomials with a length drawn uniformly from 1..max_len."""
    return st.integers(1, max_len).flatmap(
        lambda n: st.lists(_coeff, min_size=n, max_size=n)).map(IntPoly).filter(bool)


@settings(max_examples=100, deadline=None)
@given(_polys(48), _polys(48))
def test_kronecker_matches_schoolbook(f, g):
    expected = schoolbook(f.coeffs, g.coeffs)
    assert IntPoly(polynomials._kronecker(f.coeffs, g.coeffs)) == expected
    assert f * g == expected
    assert f * f == schoolbook(f.coeffs, f.coeffs)


# a long operand: a short pattern repeated to 150..400 coefficients
_long_polys = st.builds(
    lambda pattern, n: IntPoly((pattern * n)[:n]),
    st.lists(_coeff, min_size=1, max_size=7), st.integers(150, 400)).filter(bool)


@settings(max_examples=40, deadline=None)
@given(_polys(30), _long_polys)
def test_kronecker_unequal_lengths(f, g):
    expected = schoolbook(f.coeffs, g.coeffs)
    assert IntPoly(polynomials._kronecker(f.coeffs, g.coeffs)) == expected
    assert IntPoly(polynomials._kronecker(g.coeffs, f.coeffs)) == expected
    assert g * f == expected


def test_kronecker_signed_extremes():
    # every coefficient at the same magnitude with alternating and equal
    # signs drives the product coefficients to the width bound
    big = (1 << 1024) - 1
    for n in (polynomials._KRONECKER_MIN, 3 * polynomials._KRONECKER_MIN):
        for f in (IntPoly([big] * n), IntPoly([(-1) ** i * big for i in range(n)]),
                  IntPoly([-big] * n), IntPoly([-1] * n)):
            for g in (f, -f, IntPoly([big, -big] * n)):
                assert f * g == schoolbook(f.coeffs, g.coeffs)


_binomial = st.tuples(st.integers(1, 40), st.sampled_from((1, -1)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_coeff, max_size=80).map(IntPoly), _binomial)
def test_mul_binomial_is_product(f, ks):
    k, sign = ks
    assert f.mul_binomial(k, sign) == f * (IntPoly.one() + sign * IntPoly.monomial(k))


@settings(max_examples=100, deadline=None)
@given(st.lists(_coeff, max_size=80).map(IntPoly), _binomial)
def test_div_binomial_inverts_mul_binomial(f, ks):
    k, sign = ks
    quot, exact = f.mul_binomial(k, sign).div_binomial(k, sign)
    assert exact and quot == f


def test_mul_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        IntPoly((1, 1)).mul_binomial(0, 1)
    with pytest.raises(ValueError):
        IntPoly((1, 1)).mul_binomial(2, 2)
    for k in (0, -2):
        with pytest.raises(ValueError):
            one_plus_pow(k)


# ---------------------------------------------------------------------------
# ring axioms, the bivariate term key, and the log-concavity filter

@settings(max_examples=60, deadline=None)
@given(_polys(30), _polys(30), _polys(30))
def test_intpoly_ring_axioms(f, g, h):
    zero, one = IntPoly.zero(), IntPoly.one()
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f * zero == zero
    assert f - f == zero and f + (-f) == zero and f - g == f + (-g)
    assert 3 * f == f + f + f == f * 3


_bi_key = st.tuples(st.integers(0, 200),
                    st.one_of(st.integers(0, 50), st.just(5000)))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_bi_key, _coeff, max_size=30))
def test_bipoly_term_key_round_trip(d):
    nonzero = {key: c for key, c in d.items() if c}
    p = BiPolyTQ(d)
    assert p.coeffs == nonzero
    assert p.terms() == sorted((k, j, c) for (k, j), c in nonzero.items())
    assert BiPolyTQ(p.coeffs) == p


def test_bipoly_rejects_keys_outside_the_encoding():
    for key in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            BiPolyTQ({key: 1})


# the univariate tests above cover the coefficient sizes
_bi_coeff = st.one_of(st.integers(-9, 9), st.integers(-(1 << 70), 1 << 70))


@st.composite
def _bi_dicts(draw):
    """Runs of q-coefficients at offsets near 0 or near 5000, so one
    t-degree may hold two runs with a long gap, some none at all."""
    d = {}
    for k in draw(st.lists(st.integers(0, 6), max_size=6)):
        lo = draw(st.one_of(st.integers(0, 40), st.integers(4900, 5000)))
        for i, c in enumerate(draw(st.lists(_bi_coeff, max_size=30))):
            d[(k, lo + i)] = c
    return d


@settings(max_examples=40, deadline=None)
@given(_bi_dicts())
def test_bipoly_matches_dict_reference(d):
    # p has the terms of the dict, and its rows are normalized
    p = BiPolyTQ(d)
    ref = {key: c for key, c in d.items() if c}
    assert p.coeffs == ref
    assert p == BiPolyTQ(ref)
    assert not p.rows or p.rows[-1][1]
    assert all(s[0] != 0 if s else lo == 0 for lo, s in p.rows)
    assert p.at_t_qpow() == IntPoly.from_terms((j, c) for (_, j), c in ref.items())


def _exact_log_concave(cs):
    """The definition: c_i^2 >= c_{i-1} c_{i+1} on the interior of the
    support, by exact products only."""
    support = [i for i, c in enumerate(cs) if c]
    if not support:
        return True
    return all(cs[i] * cs[i] >= cs[i - 1] * cs[i + 1]
               for i in range(support[0] + 1, support[-1]))


def _geometric(a, r, s, n):
    """a r^i s^(n-1-i): every interior index has c_i^2 = c_{i-1} c_{i+1}."""
    return [a * r ** i * s ** (n - 1 - i) for i in range(n)]


# geometric runs with coefficients up to several thousand bits, then
# nudged by +-1, given a zero or a sign flip, or padded with zeros
_big = st.one_of(st.integers(1, 9), st.integers(1, 1 << 64),
                 st.integers(1 << 500, 1 << 700))


@st.composite
def _near_equality(draw):
    n = draw(st.integers(1, 12))
    cs = _geometric(draw(_big), draw(_big), draw(_big), n)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        cs[i] = draw(st.sampled_from((cs[i] + 1, cs[i] - 1, 0, -cs[i], -1)))
    pad = [0] * draw(st.integers(0, 3))
    return pad + cs


@settings(max_examples=300, deadline=None)
@given(st.one_of(_near_equality(), st.lists(_coeff, max_size=40)))
def test_log_concave_filter_matches_exact_definition(cs):
    assert shape_predicates(IntPoly(cs)).log_concave == _exact_log_concave(cs)


def test_log_concave_filter_on_fixed_edge_cases():
    from altdes.recurrences import five_term

    cases = [
        [], [5], [0, 0, 7], [2, 3], [1, 0, 1], [1, -1, 1], [-1, -1, -1],
        [1, 2, 4], [1, 2, 5], [4, 2, 1, 0, 0], [3, 0, 0, 3],
        [(1 << 4000) + 1, 1 << 4000, (1 << 4000) - 1],   # 2^8000 - 1 < 2^8000
        [(1 << 4000) - 1, 1 << 4000, (1 << 4000) + 1],
        [1 << 4000, (1 << 4000) + 1, 1 << 4000],
        [1 << 4000, (1 << 4000) - 1, 1 << 4000],
        _geometric(3, 1 << 3000, 7, 6),
        list(five_term(300).coeffs),
    ]
    for cs in cases:
        assert shape_predicates(IntPoly(cs)).log_concave == _exact_log_concave(cs), cs
