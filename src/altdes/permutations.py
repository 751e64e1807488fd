"""Permutation statistics and transforms.

Permutations are plain tuples of distinct positive ints, usually the
word form of a member of S_n.  Positions are 1-based throughout: the
alternating descent set of w is

    {i odd : w_i > w_{i+1}}  union  {i even : w_i < w_{i+1}}.

Most functions only compare letters, so they accept arbitrary words
with distinct letters, not just permutations of 1..n.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations as _perms
from math import comb, factorial
from typing import Iterable, NamedTuple

from .reporting import AltdesError, CheckResult


class PrefixTooLong(AltdesError, ValueError):
    """Raised when a prefix reversal does not fit inside the word."""


Word = tuple[int, ...]


def check_permutation(w: Iterable[int]) -> Word:
    """Validate that w is a permutation of 1..n and return it."""
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


class AltStats(NamedTuple):
    alt_descent_set: frozenset[int]
    altdes: int
    altmaj: int


class ClassicStats(NamedTuple):
    des: int
    maj: int
    des3: int


def alt_stats(w: Iterable[int]) -> AltStats:
    """Alternating descent set, its size, and the alternating major
    index (sum of the set).

    >>> alt_stats((9, 4, 2, 3, 5, 7, 8, 6, 1))[1:]
    (4, 18)
    """
    w = tuple(w)
    dset = []
    for i in range(1, len(w)):
        if (w[i - 1] > w[i]) == (i % 2 == 1):
            dset.append(i)
    return AltStats(frozenset(dset), len(dset), sum(dset))


def classic_stats(w: Iterable[int]) -> ClassicStats:
    """Descent number, major index, and the number of 3-descents
    (windows whose pattern is 132, 213, or 321)."""
    w = tuple(w)
    des = 0
    maj = 0
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            des += 1
            maj += i
    d3 = 0
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a > b > c:
            d3 += 1
        elif a < b < c:
            pass
        elif a < c:
            d3 += 1
    return ClassicStats(des, maj, d3)


def complement(w: Iterable[int]) -> Word:
    """Send the l-th largest letter to the l-th smallest.

    >>> complement((3, 6, 7, 5, 2))
    (6, 3, 2, 5, 7)
    """
    w = tuple(w)
    s = sorted(w)
    m = dict(zip(s, reversed(s)))
    return tuple(map(m.__getitem__, w))


def reversal(w: Iterable[int]) -> Word:
    return tuple(reversed(tuple(w)))


def inverse(w: Iterable[int]) -> Word:
    w = check_permutation(w)
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[val - 1] = pos
    return tuple(out)


def normalize(w: Iterable[int]) -> Word:
    """Replace letters by their ranks (the standardization pattern).

    >>> normalize((3, 6, 7, 5, 2))
    (2, 4, 5, 3, 1)
    """
    w = tuple(w)
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[x] for x in w)


def theta(w: Iterable[int]) -> Word:
    """Involution flipping altdes to n-1-altdes.

    Reversal alone does this in even length; in odd length reversal
    preserves altdes, so the complement is applied on top.  Either way
    altmaj moves by the affine rule tested in theta_check.
    """
    w = tuple(w)
    r = reversal(w)
    return r if len(w) % 2 == 0 else complement(r)


def reverse_prefix(w: Iterable[int], m: int) -> Word:
    """Reverse the first 2m letters, fixing the rest.

    >>> reverse_prefix((9, 4, 2, 3, 5, 7, 8, 6, 1), 3)
    (7, 5, 3, 2, 4, 9, 8, 6, 1)
    """
    w = tuple(w)
    if m < 1 or 2 * m > len(w):
        raise PrefixTooLong(f"2m = {2 * m} does not fit in length {len(w)}")
    return w[2 * m - 1 :: -1] + w[2 * m :]


def insertions(w: Iterable[int], j: int, kind: str) -> Word:
    """Insert a new smallest respectively largest letter into space j
    (0 <= j <= n), complementing the suffix.

    The min insertion is normalize(w_1..w_j, 0, complement(w_{j+1}..w_n));
    the max insertion keeps the prefix and places n+1 in the space.

    >>> insertions((2, 4, 3, 1, 5), 2, "min")
    (3, 5, 1, 4, 6, 2)
    >>> insertions((2, 4, 3, 1, 5), 2, "max")
    (2, 4, 6, 3, 5, 1)
    """
    w = check_permutation(w)
    n = len(w)
    if not 0 <= j <= n:
        raise ValueError(f"space {j} out of range 0..{n}")
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    return _inserted(w, j)[kind == "max"]


def _inserted(w: Word, j: int) -> tuple[Word, Word]:
    """The min and max insertions of a permutation w of 1..n into a
    space 0 <= j <= n, unchecked, from one complement of the suffix.  The
    complemented suffix keeps its letters, so the min insertion
    normalizes by shifting every letter up by one."""
    suffix = complement(w[j:])
    return (tuple([x + 1 for x in w[:j] + (0,) + suffix]),
            w[:j] + (len(w) + 1,) + suffix)


# ---------------------------------------------------------------------------
# Simsun machinery

def is_simsun(w: Iterable[int]) -> bool:
    """No double descents, even after repeatedly deleting the largest
    letter.  The empty word is Simsun."""
    w = list(w)
    while len(w) >= 3:
        for i in range(len(w) - 2):
            if w[i] > w[i + 1] > w[i + 2]:
                return False
        w.remove(max(w))
    return True


def is_down_up(w: Iterable[int]) -> bool:
    """w_1 > w_2 < w_3 > w_4 ..."""
    w = tuple(w)
    return all(
        (w[i] > w[i + 1]) == (i % 2 == 0) for i in range(len(w) - 1)
    )


def cd_word(w: Iterable[int]) -> str | None:
    """The cd-monomial of a Simsun permutation ending in its largest
    letter; None when w is outside that class.

    The descent word over {a, b} is scanned left to right, each 'ba'
    contributing a d and each remaining 'a' a c.

    >>> cd_word((4, 2, 3, 5, 1, 6))
    'dcd'
    """
    w = tuple(w)
    if not w:
        return ""
    if w[-1] != max(w) or not is_simsun(w):
        return None
    return ab_to_cd("".join("b" if a > b else "a" for a, b in zip(w, w[1:])))


def ab_to_cd(u: str) -> str:
    """The cd-word of the descent word u over {a, b} of a Simsun
    permutation ending in its largest letter.

    >>> ab_to_cd("baaba")
    'dcd'
    """
    out = []
    i = 0
    while i < len(u):
        if u[i] == "b":
            # Simsun forbids 'bb' and the final letter is 'a'
            out.append("d")
            i += 2
        else:
            out.append("c")
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# word formatting for witnesses

def format_word(w: Iterable[int]) -> str:
    w = tuple(w)
    if w and max(w) > 9:
        return ",".join(str(x) for x in w)
    return "".join(str(x) for x in w)


# ---------------------------------------------------------------------------
# exhaustive structural checks (small n)

def theta_check(n: int) -> CheckResult:
    """theta is an involution with altdes(theta w) = n-1-altdes(w) and
    altmaj(theta w) = C(n,2) - n*altdes(w) + altmaj(w), for all of S_n."""
    base = comb(n, 2)
    for w in _perms(range(1, n + 1)):
        v = theta(w)
        if theta(v) != w:
            return CheckResult.failed(f"not an involution at {format_word(w)}")
        _, ad, am = alt_stats(w)
        _, ad2, am2 = alt_stats(v)
        if ad2 != n - 1 - ad or am2 != base - n * ad + am:
            return CheckResult.failed(
                f"statistics mismatch at {format_word(w)} -> {format_word(v)}"
            )
    return CheckResult.passed()


def double_count_check(n: int) -> CheckResult:
    """Min and max insertions over all spaces hit every member of
    S_{n+1} exactly twice."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    hits = Counter(v for w in _perms(range(1, n + 1))
                   for j in range(n + 1) for v in _inserted(w, j))
    targets = factorial(n + 1)
    if len(hits) != targets:
        return CheckResult.failed(f"covered {len(hits)} of {targets} targets")
    for v in _perms(range(1, n + 2)):
        if hits.get(v, 0) != 2:
            return CheckResult.failed(
                f"{format_word(v)} constructed {hits.get(v, 0)} times"
            )
    return CheckResult.passed()
