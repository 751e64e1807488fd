"""A_n(t, q) counted by up-down pattern, with no words and no recursion
of the paper.

Position i of w_1 ... w_n is an alternating descent when it is a
descent and i is odd, or an ascent and i is even, so its weight t q^i
depends only on whether the word rises at i.  Let f_i(j) be the
weighted count of the patterns of length i whose last letter has rank
j.  Appending a letter of rank j' in 0..i makes position i an ascent
exactly when j < j', so

    f_{i+1}(j') = W_asc(i) sum_{j<j'} f_i(j) + W_desc(i) sum_{j>=j'} f_i(j),

one of the two weights being t q^i and the other 1, and A_i = sum_j f_i(j).
This is the count of permutations by up-down pattern (N. G. de Bruijn,
"Permutations with given ups and downs", Nieuw Arch. Wisk. 1970)
applied to Chebikin's alternating descents; one pass to n yields every
row up to n.

The kernel takes both partial sums from one running total: the new
values differ in j' by (W_asc - W_desc) f_i(j'), so they are the running
sums of those differences, started at f_{i+1}(0) = W_desc(i) A_i.
Values are packed integers, one digit of `bits` bits per power of the
variable, and every digit is a count of at most n! patterns, so no sum
carries between digits and a weight x^e is a shift by e digits.  The
univariate forms weight position i by q^i, or by t alone; the
bivariate form keeps one integer per power t^k, its window based at
q^(k(k+1)/2), the least altmaj of k alternating descents, so that
multiplying by t q^i moves slice k to slice k+1 shifted by i-k-1 digits;
BiPolyTQ.at_t_qpow(c) reads A_n(q^c, q) off that form's row.
A pass updates its row in place, so it holds one step at a time.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial
from typing import Callable, Iterable, Iterator

from .polynomials import BiPolyTQ, IntPoly, unpack_coeffs


def _bits(n: int) -> int:
    """Digit width, whole bytes, for counts of at most n! patterns."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 8 * (factorial(n).bit_length() // 8 + 1)


def _step(col: list[int], lower: Iterable[int], shift: int, odd: bool, acc: int) -> None:
    """Replace col, in place, by its column of the next row: acc, then
    the running sums of col[j] - lower[j] << shift when the weighted
    position is a descent (odd), or of their negatives when it is an
    ascent.  lower may be col itself: each old value is read before it
    is overwritten."""
    for j, (x, y) in enumerate(zip(col, lower)):
        col[j] = acc
        y <<= shift
        acc += x - y if odd else y - x
    col.append(acc)


def _univariate(n: int, exponent: Callable[[int], int], bits: int) -> Iterator[int]:
    """A_1, ..., A_n packed, the weight of position i being x^exponent(i)."""
    row = [1]  # f_1(0)
    for i in range(1, n + 1):
        total = sum(row)
        yield total
        if i < n:
            shift = bits * exponent(i)
            _step(row, row, shift, i % 2 == 1, total << shift if i % 2 else total)


def _bivariate(n: int, bits: int) -> Iterator[list[int]]:
    """A_1(t, q), ..., A_n(t, q) as lists of packed q-windows, one per
    power of t."""
    cols = [[1]]  # cols[k][j]: the t^k window of f_i(j)
    for i in range(1, n + 1):
        totals = [sum(col) for col in cols]
        yield totals
        if i == n:
            return
        odd = i % 2 == 1
        cols.append([0] * i)
        for k in range(i, -1, -1):  # column k reads k - 1, so go down
            shift = bits * (i - k)
            if odd:
                start = totals[k - 1] << shift if k else 0
            else:
                start = totals[k] if k < i else 0
            _step(cols[k], cols[k - 1] if k else repeat(0), shift, odd, start)


def _poly(x: int, bits: int) -> IntPoly:
    return IntPoly(unpack_coeffs(x, bits // 8))


def _bipoly(totals: list[int], bits: int) -> BiPolyTQ:
    return BiPolyTQ.from_rows((k * (k + 1) // 2, _poly(x, bits)) for k, x in enumerate(totals))


def _last(rows: Iterator, empty):
    """The last of rows, or empty (A_0 = 1) when there is none."""
    row = empty
    for row in rows:
        pass
    return row


def t_rows(n: int) -> Iterator[IntPoly]:
    """A_1(t), ..., A_n(t), with weight t per alternating descent.

    >>> [p.coeffs for p in t_rows(4)]
    [(1,), (1, 1), (2, 2, 2), (5, 7, 7, 5)]
    """
    bits = _bits(n)
    return (_poly(x, bits) for x in _univariate(n, lambda i: 1, bits))


def qpow_rows(n: int) -> Iterator[IntPoly]:
    """A_1(1, q), ..., A_n(1, q): weight q^i per alternating descent at i.

    The pass holds one packed integer per rank, about n^2/2 digits of
    _bits(n) bits each, so about n^4 log n bits: `verify thm4.2` peaks at
    102-104 MB RSS at --max-n 120 and 301-303 MB at 160.

    >>> [p.coeffs for p in qpow_rows(3)]
    [(1,), (1, 1), (2, 1, 1, 2)]
    """
    bits = _bits(n)
    return (_poly(x, bits) for x in _univariate(n, lambda i: i, bits))


def tq_rows(n: int) -> Iterator[BiPolyTQ]:
    """A_1(t, q), ..., A_n(t, q).  The pass holds about n^2 packed integers,
    one per power t^k and rank, that of t^k a q-window of up to k(n-k)
    digits of _bits(n) bits, so about n^5 log n bits: `verify thm4.5` peaks
    at 96 MB RSS at --max-n 60 and 382 MB at 80."""
    bits = _bits(n)
    return (_bipoly(totals, bits) for totals in _bivariate(n, bits))


def alt_tq(n: int) -> BiPolyTQ:
    """A_n(t, q).

    >>> alt_tq(3).terms()
    [(0, 0, 2), (1, 1, 1), (1, 2, 1), (2, 3, 2)]
    """
    bits = _bits(n)
    return _bipoly(_last(_bivariate(n, bits), [1]), bits)
