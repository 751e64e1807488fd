"""Word-level statistics, involutions, insertions, and structural checks."""

import itertools
import random

import pytest

from altdes.oracle import brute_des3_first1, stat_multiset
from altdes.permutations import (
    PrefixTooLong,
    alt_stats,
    cd_word,
    classic_stats,
    complement,
    double_count_check,
    format_word,
    insertions,
    inverse,
    is_down_up,
    is_simsun,
    normalize,
    reversal,
    reverse_prefix,
    theta,
    theta_check,
)
from altdes.permutations import _inserted

rng = random.Random(41)


def rand_perm(n):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def naive_alt(w):
    # a position counts when descent/ascent disagrees with its parity:
    # descents at odd positions, ascents at even positions (1-based)
    ds = set()
    for i in range(1, len(w)):
        if (w[i - 1] > w[i]) == (i % 2 == 1):
            ds.add(i)
    return ds


def naive_classic(w):
    ds = {i for i in range(1, len(w)) if w[i - 1] > w[i]}
    return len(ds), sum(ds)


def naive_des3(w):
    # windows matching any of the three patterns with middle extreme or
    # fully decreasing: a>b>c, or a single descent with endpoints rising
    count = 0
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a > b > c:
            count += 1
        elif a < c and ((a > b) != (b > c)) and not (a < b < c):
            count += 1
    return count


def test_alt_stats_matches_naive():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            st = alt_stats(w)
            ds = naive_alt(w)
            assert set(st.alt_descent_set) == ds
            assert st.altdes == len(ds)
            assert st.altmaj == sum(ds)
    for _ in range(200):
        w = rand_perm(rng.randint(1, 40))
        st = alt_stats(w)
        assert st.altdes == len(naive_alt(w)) and st.altmaj == sum(naive_alt(w))


def test_classic_stats_matches_naive():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            st = classic_stats(w)
            des, maj = naive_classic(w)
            assert (st.des, st.maj) == (des, maj)
            assert st.des3 == naive_des3(w)


def test_symmetries_are_involutions():
    for _ in range(100):
        w = rand_perm(rng.randint(1, 12))
        assert complement(complement(w)) == w
        assert reversal(reversal(w)) == w
        assert inverse(inverse(w)) == w
        assert theta(theta(w)) == w


def test_theta_statistics_identity():
    # the involution flips the alternating descent count to n-1-altdes
    # and moves altmaj by a multiple of altdes
    for n in range(1, 8):
        ok = theta_check(n)
        assert ok.ok, ok.witness
    for _ in range(100):
        w = rand_perm(rng.randint(2, 30))
        n = len(w)
        a, b = alt_stats(w), alt_stats(theta(w))
        assert b.altdes == n - 1 - a.altdes
        assert b.altmaj == n * (n - 1) // 2 - n * a.altdes + a.altmaj


def test_normalize_and_complement():
    assert normalize((0, 4, 2)) == (1, 3, 2)
    assert normalize((7, 3, 9)) == (2, 1, 3)
    assert complement((2, 4, 3, 1, 5)) == (4, 2, 3, 5, 1)
    with pytest.raises(ValueError):
        insertions((1, 1), 0, "min")


def test_reverse_prefix():
    assert reverse_prefix((9, 4, 2, 3, 5, 7, 8, 6, 1), 2) == (3, 2, 4, 9, 5, 7, 8, 6, 1)
    for _ in range(100):
        n = rng.randint(2, 14)
        w = rand_perm(n)
        m = rng.randint(1, n // 2)
        v = reverse_prefix(w, m)
        assert reverse_prefix(v, m) == w
        assert v[2 * m:] == w[2 * m:]
        assert sorted(v) == sorted(w)
    with pytest.raises(PrefixTooLong):
        reverse_prefix((2, 1, 3), 2)
    with pytest.raises(PrefixTooLong):
        reverse_prefix((2, 1, 3), 0)


def test_insertions_examples_and_range():
    assert insertions((2, 4, 3, 1, 5), 2, "min") == (3, 5, 1, 4, 6, 2)
    assert insertions((2, 4, 3, 1, 5), 2, "max") == (2, 4, 6, 3, 5, 1)
    w = (1, 2, 3)
    spaces = {insertions(w, j, kind) for j in range(4) for kind in ("min", "max")}
    assert all(sorted(v) == [1, 2, 3, 4] for v in spaces)
    with pytest.raises(ValueError):
        insertions(w, 4, "min")
    with pytest.raises(ValueError):
        insertions(w, 0, "mid")


def test_unchecked_insert_matches_the_normalize_definition():
    for n in range(0, 7):
        for w in itertools.permutations(range(1, n + 1)):
            for j in range(n + 1):
                suffix = complement(w[j:])
                low, high = _inserted(w, j)
                assert low == normalize(w[:j] + (0,) + suffix)
                assert high == w[:j] + (n + 1,) + suffix


def test_double_count_small():
    # every length-(n+1) word arises from exactly two insertions
    for n in range(1, 7):
        ok = double_count_check(n)
        assert ok.ok, ok.witness


def test_simsun_and_down_up_counts():
    # simsun counts are the zigzag numbers 1, 1, 2, 5, 16, 61
    expected = [1, 1, 2, 5, 16, 61]
    for n, e in zip(range(1, 7), expected[1:] + [272]):
        count = sum(is_simsun(w) for w in itertools.permutations(range(1, n + 1)))
        assert count == e
    for n in range(1, 8):
        count = sum(is_down_up(w) for w in itertools.permutations(range(1, n + 1)))
        assert count == [1, 1, 2, 5, 16, 61, 272][n - 1]


def test_simsun_definition_survives_deletion():
    # deleting the largest letter preserves the simsun property
    for w in itertools.permutations(range(1, 7)):
        if is_simsun(w):
            shorter = tuple(x for x in w if x != 6)
            assert is_simsun(shorter)


def test_cd_word_shape():
    # the rewriting never leaves an isolated descent letter and is only
    # defined for words whose descent pattern supports it
    assert cd_word((1, 2, 3)) == "cc"
    assert cd_word((2, 1, 3)) == "d"
    assert cd_word((1, 3, 2)) is None  # must end in the largest letter
    for w in itertools.permutations(range(1, 6)):
        word = cd_word(w)
        if word is not None:
            assert set(word) <= {"c", "d"}
            assert sum(2 if ch == "d" else 1 for ch in word) == 4
    w = (2, 1, 3)
    assert is_simsun(w) and is_down_up(w) and cd_word(w) == "d"


def test_word_serialization():
    assert format_word((9, 4, 2)) == "942"
    assert format_word((10, 4, 2)) == "10,4,2"


def test_equidist_small():
    # altdes on S_n is equidistributed with des3 on the words of S_{n+1}
    # that start with 1; the scalar tally pins the oracle's side
    for n in range(1, 7):
        altdes = {}
        for w in itertools.permutations(range(1, n + 1)):
            k = alt_stats(w).altdes
            altdes[k] = altdes.get(k, 0) + 1
        assert stat_multiset(n, "altdes").values == altdes
        assert brute_des3_first1(n).values == altdes
