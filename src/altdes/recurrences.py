"""Recurrences and generating-function identities for alternating
descent polynomials.

The polynomial family A_n(t) = sum over S_n of t^altdes and its
refinement A_n(t, q) = sum t^altdes q^altmaj are computed here by
recursion only; the oracle module recomputes the same objects by
enumeration so that each route checks the other.  The derivative route
faa_di_bruno_altmaj reads A_n(1, q) off the generating function
prod_{j>=0} (sec(z q^j) + tan(z q^j)) through a recursion on integer
polynomials that the functional equation F(z) = (sec z + tan z) F(qz)
gives.

Each recurrence but gamma_rec is a pass, like the count of
altdes.transfer: a generator of rows 1..n that holds only the rows its
step reads.  A one-n function returns the last row of one pass; a caller
that reads rows in ascending order shares one pass.  gamma_rec rebuilds
from a_1 on every call.  Nothing is kept between calls.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb, factorial
from typing import Iterator

from .polynomials import BiPolyTQ, IntPoly, pack_coeffs, unpack_coeffs
from .reporting import AltdesError, CheckResult
from .transfer import _bipoly, _last


class ParityViolation(AltdesError, ArithmeticError):
    """A doubled recurrence produced an odd coefficient."""


def _nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


# ---------------------------------------------------------------------------
# five-term coefficient recurrence

def _five_term_next(m: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """Row m+1 of the five-term recurrence from row m."""
    p = (0, 0) + row + (0, 0)  # p[k + 2] = A_{m,k}
    nxt = []
    for k, (a, b, c, d) in enumerate(zip(p, p[1:], p[2:], p[3:])):
        val = (k + 1) * (d + b) + (m - k + 1) * (c + a)
        if val & 1:
            raise ParityViolation(f"odd total at n={m + 1}, k={k}")
        nxt.append(val >> 1)
    return tuple(nxt)


def five_term_rows(n: int) -> Iterator[IntPoly]:
    """A_1(t), ..., A_n(t) from the five-term recurrence

        2 A_{n+1,k} = (k+1)(A_{n,k+1} + A_{n,k-1})
                      + (n-k+1)(A_{n,k} + A_{n,k-2}),

    with A_1 = 1; out-of-range coefficients read as zero.  The pass
    holds only its newest row, and steps to row m when row m is read.

    >>> [p.coeffs for p in five_term_rows(5)][3:]
    [(5, 7, 7, 5), (16, 26, 36, 26, 16)]
    """
    row = (1,)
    for m in range(1, n + 1):
        if m > 1:
            row = _five_term_next(m - 1, row)
        yield IntPoly(row)


def five_term(n: int) -> IntPoly:
    """A_n(t), the last row of one five_term_rows pass; A_0 = 1.

    >>> five_term(5).coeffs
    (16, 26, 36, 26, 16)
    """
    _nonnegative(n)
    return _last(five_term_rows(n), IntPoly.one())


def euler_numbers(upto: int) -> tuple[int, ...]:
    """E_0..E_upto, the zigzag numbers 1, 1, 1, 2, 5, 16, 61, ...
    counting down-up permutations, from the Seidel-Entringer
    (boustrophedon) triangle: row n is the running sums of row n-1
    read backwards, starting at 0, and E_n is its last entry.  This is
    O(upto^2) additions and reads no recurrence row.
    """
    _nonnegative(upto)
    row, numbers = [1], [1]
    for _ in range(upto):
        row = list(accumulate(reversed(row), initial=0))
        numbers.append(row[-1])
    return tuple(numbers)


def chebikin_check(n: int, rows: list[IntPoly] | None = None) -> CheckResult:
    """Convolution identity linking consecutive rows:

        sum_{i,j} C(n,i) A_{i,j} A_{n-i,k-j}
            = (n+1-k) A_{n,k} + (k+1) A_{n,k+1},

    for 0 <= k <= n-1, with A_0 = 1 and absent coefficients zero.  rows
    is A_0..A_n when the caller already has them; otherwise one five-term
    pass gives them.
    """
    _nonnegative(n)
    if rows is None:
        rows = [IntPoly.one(), *five_term_rows(n)]
    lhs = IntPoly()
    for i in range(n // 2 + 1):  # the terms i and n-i are equal
        weight = comb(n, i) if 2 * i == n else 2 * comb(n, i)
        lhs = lhs + rows[i] * rows[n - i] * weight
    a = rows[n]
    for k in range(n):
        rhs = (n + 1 - k) * a[k] + (k + 1) * a[k + 1]
        if lhs[k] != rhs:
            return CheckResult.failed(f"n={n}, k={k}: {lhs[k]} != {rhs}")
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# bivariate quadratic recursion

def _tq_step(rows: list[BiPolyTQ]) -> BiPolyTQ:
    """Row m+1 of the quadratic recursion, on packed integers.

    Every coefficient is nonnegative and the doubled row sums to
    2 (m+1)!, so with digits of `width` bytes above that bound each
    t-slice is one integer, q^s is a shift by s digits, a slice product
    is one integer product, and sums never carry between digits.  Slice
    k is based at q^(k(k+1)/2), as in altdes.transfer, so slice a of A_r
    times slice b of A_{m-r}(tq^(r+1), q) sits b(r+1-a) digits up in
    slice a+b, and t^2 q^(2r+1) moves slice K by 2(r-1-K) digits to
    slice K+2.  A sum for slice K >= r is kept the 2(K+1-r) digits down
    that are zero unless A_r has a slice a >= r; such a row makes a shift
    negative, which Python refuses, so no digit is lost silently.
    """
    m = len(rows) - 1
    width = (2 * factorial(m + 1)).bit_length() // 8 + 1
    bits = 8 * width
    packed = [[pack_coeffs(p, width) << bits * (lo - k * (k + 1) // 2) if p else 0
               for k, (lo, p) in enumerate(row.rows)] for row in rows]
    vals = [0] * (m + 1)
    for k, x in enumerate(packed[m]):
        vals[k] += (x << bits * k) + x  # A_m(tq, q) + A_m(t, q)
        vals[k + 1] += x + (x << bits * (m - k - 1))  # times tq and tq^m
    # sum_i C(m,i) (1 + t^2 q^(2i+1)) A_i(t,q) A_{m-i}(tq^(i+1),q): the
    # terms i and m-i share their slice products and differ in shifts
    for i in range(1, m // 2 + 1):
        j = m - i
        sums = {i: [0] * (m - 1), j: [0] * (m - 1)}
        drop = {r: [bits * max(0, 2 * (K + 1 - r)) for K in range(m - 1)] for r in sums}
        si, sj, di, dj = sums[i], sums[j], drop[i], drop[j]
        for a, x1 in enumerate(packed[i]):
            for b, x2 in enumerate(packed[j]):
                x, K = x1 * x2, a + b
                si[K] += x << (bits * b * (i + 1 - a) - di[K])
                if j != i:
                    sj[K] += x << (bits * a * (j + 1 - b) - dj[K])
        cmi = comb(m, i)
        for r, sum_r in sums.items():
            for K, (x, d) in enumerate(zip(sum_r, drop[r])):
                x *= cmi
                vals[K] += x << d
                vals[K + 2] += x << (d + bits * 2 * (r - 1 - K))
    # the lowest bit of each digit a slice can have (q-degree <= m(m+1)/2);
    # when no such bit is set, x >> 1 halves every digit at once
    parity = pack_coeffs(repeat(1, m * (m + 1) // 2 + 1), width)
    for k, x in enumerate(vals):
        if x & parity:
            odd = next(i for i, c in enumerate(unpack_coeffs(x, width)) if c & 1)
            raise ParityViolation(f"odd total at n={m + 1}, t^{k} q^{k * (k + 1) // 2 + odd}")
    return _bipoly([x >> 1 for x in vals], bits)


def quadratic_tq_rows(n: int) -> Iterator[BiPolyTQ]:
    """A_1(t, q), ..., A_n(t, q) from the doubled product recursion

        2 A_{n+1}(t,q) = (1+tq) A_n(tq,q) + (1+tq^n) A_n(t,q)
          + sum_{i=1}^{n-1} (1+t^2 q^(2i+1)) C(n,i) A_i(t,q) A_{n-i}(tq^(i+1),q),

    with A_1 = 1.  Every doubled coefficient must be even.  The pass
    holds every row, which each step reads: row m has at most m slices
    of at most m(m-1)/2 + 1 coefficients below m!, about n^5 log n / 10
    bits in all; passes to n = 30, 45 and 60 peak at 16, 28 and 70 MB RSS.
    """
    rows = [BiPolyTQ.one(), BiPolyTQ.one()]  # n = 0, 1
    for m in range(1, n + 1):
        if m > 1:
            rows.append(_tq_step(rows))
        yield rows[m]


def quadratic_tq(n: int) -> BiPolyTQ:
    """A_n(t, q), the last row of one quadratic_tq_rows pass; A_0 = 1.

    >>> quadratic_tq(3).terms()
    [(0, 0, 2), (1, 1, 1), (1, 2, 1), (2, 3, 2)]
    """
    _nonnegative(n)
    return _last(quadratic_tq_rows(n), BiPolyTQ.one())


def specialized_recursion_check(n: int, j: int, alt: list[BiPolyTQ]) -> CheckResult:
    """The quadratic recursion survives the substitution t -> q^j:

        2 A_{n+1}(q^j, q) = (1+q^(j+1)) A_n(q^(j+1), q)
          + (1+q^(n+j)) A_n(q^j, q)
          + sum_i (1+q^(2i+2j+1)) C(n,i) A_i(q^j,q) A_{n-i}(q^(i+j+1),q),

    on alt[m] = A_m(t, q) for m <= n + 1, rows of the pattern count,
    which does not use the recursion.  The sides are compared packed:
    pack_coeffs refuses negative coefficients, so none exceeds its
    side's value at q = 1, which the digits hold.
    """
    one = IntPoly.one()
    # (C(n, i), m, a, b) for each term C(n, i) (1 + q^m) a b of the right side
    terms = [(1, j + 1, alt[n].at_t_qpow(j + 1), one), (1, n + j, alt[n].at_t_qpow(j), one)] + [
        (comb(n, i), 2 * i + 2 * j + 1, alt[i].at_t_qpow(j), alt[n - i].at_t_qpow(i + j + 1))
        for i in range(1, n)]
    lhs = alt[n + 1].at_t_qpow(j)
    bound = 2 * max(sum(lhs), sum(c * sum(a) * sum(b) for c, _, a, b in terms))
    width = bound.bit_length() // 8 + 1
    rhs = 0
    for c, m, a, b in terms:
        x = c * pack_coeffs(a, width) * pack_coeffs(b, width)
        rhs += x + (x << 8 * width * m)
    ok = 2 * pack_coeffs(lhs, width) == rhs
    return CheckResult(ok, None if ok else f"n={n}, j={j}")


# ---------------------------------------------------------------------------
# Simsun descent polynomials

def simsun_rows(n: int, method: str = "derivative") -> Iterator[IntPoly]:
    """R_1(x), ..., R_n(x), the Simsun descent polynomials, from

    derivative:  R_n = ((n-1)x + 1) R_{n-1} + x(1-2x) R'_{n-1}
    quadratic:   R_{n+1} = R_n + x sum_{i=1}^n C(n,i) R_{i-1} R_{n-i}

    with R_0 = 1.  The derivative pass holds its newest row, the
    quadratic pass every row.  The terms i and n+1-i of the quadratic
    sum share their product, so it is formed once, weighted
    C(n,i) + C(n,i-1) = C(n+1,i).
    """
    if method == "derivative":
        r = IntPoly.one()
        for m in range(1, n + 1):
            r = IntPoly((1, m - 1)) * r + IntPoly((0, 1, -2)) * r.derivative()
            yield r
    elif method == "quadratic":
        rows = [IntPoly.one()]
        for m in range(n):
            s = IntPoly()
            for i in range(1, (m + 1) // 2 + 1):  # terms i and m+1-i are equal
                weight = comb(m, i) if 2 * i == m + 1 else comb(m + 1, i)
                s = s + rows[i - 1] * rows[m - i] * weight
            rows.append(rows[m] + IntPoly((0, 1)) * s)
            yield rows[-1]
    else:
        raise ValueError(f"unknown method {method!r}")


def simsun_rec(n: int, method: str = "derivative") -> IntPoly:
    """R_n(x), the last row of one simsun_rows pass.

    >>> simsun_rec(3).coeffs
    (1, 4)
    """
    _nonnegative(n)
    return _last(simsun_rows(n, method), IntPoly.one())


# ---------------------------------------------------------------------------
# gamma vector recursion

def gamma_rec(n: int) -> IntPoly:
    """a_n(x) = sum_k a(n,k) x^k from

        a_{n+1} = (n + (n-1)x) a_n - (1+x)(1+2x) a_n',   a_1 = 1.

    >>> gamma_rec(5).coeffs
    (16, 19, 4)
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = IntPoly.one()
    for m in range(1, n):
        a = IntPoly((m, m - 1)) * a - IntPoly((1, 3, 2)) * a.derivative()
    return a


# ---------------------------------------------------------------------------
# exponential generating function identity

def egf_check(order: int) -> CheckResult:
    """Compare L = 1 + sum_n t A_n(t) z^n / n! with the closed form

        (1-t) / (1 - t(sec((1-t)z) + tan((1-t)z))) = 1 / (1 - W)

    through z^order, where W = sum_{m>=1} t E_m (1-t)^(m-1) z^m / m!.
    Since 1 - W is a unit, this is L (1 - W) = 1, which at z^n / n! is
    the integer convolution

        t A_n(t) = sum_{m=1}^n C(n,m) t E_m (1-t)^(m-1) L_{n-m},

    with L_0 = 1 and L_j = t A_j(t).  It is divided by t and summed by
    Horner in (1-t).  The first n where it fails is also the first
    z-power where the two series differ.
    """
    _nonnegative(order)
    rows = [IntPoly.one(), *five_term_rows(order)]
    L = [IntPoly.one()] + [a.shift(1) for a in rows[1:]]
    for n in range(1, order + 1):
        acc = IntPoly()
        for m in range(n, 0, -1):  # E_m is the leading coefficient of A_m
            acc = acc.mul_binomial(1, -1) + comb(n, m) * rows[m][m - 1] * L[n - m]
        if acc != rows[n]:
            return CheckResult.failed(f"z^{n} coefficients differ")
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# derivative route for A_n(1, q)

def _fdb_step(rows: list[IntPoly], E: tuple[int, ...]) -> IntPoly:
    """A_n(1, q), n = len(rows), from the rows before it and the Euler
    numbers E_0..E_n or more.

    F(z) = sum_n A_n(1,q) z^n / (n! (q;q)_n) = prod_{j>=0} (sec(z q^j) + tan(z q^j))
    satisfies F(z) = (sec z + tan z) F(qz).  Leibniz's rule at z = 0,
    with sec z + tan z = sum_k E_k z^k / k!, gives

        A_n(1,q) / (q;q)_n = sum_{k=0}^n C(n,k) E_k q^(n-k) A_{n-k}(1,q) / (q;q)_{n-k},

    and moving the term k = 0 to the left and multiplying by (q;q)_{n-1}
    leaves a recursion with no division:

        A_n(1,q) = sum_{k=1}^n C(n,k) E_k q^(n-k) A_{n-k}(1,q) prod_{i=n-k+1}^{n-1} (1 - q^i).

    It is summed by Horner from k = n down to 1: the running sum is
    multiplied by (1 - q^(n-k)) before term k is added.
    """
    n = len(rows)
    acc = IntPoly((E[n],))
    for k in range(n - 1, 0, -1):
        acc = acc.mul_binomial(n - k, -1) + comb(n, k) * E[k] * rows[n - k].shift(n - k)
    return acc


def faa_di_bruno_rows(n: int) -> Iterator[IntPoly]:
    """A_1(1, q), ..., A_n(1, q) by the derivative route, reading
    E_0..E_n once.  The pass holds every row, which each step reads."""
    E = euler_numbers(n)
    rows = [IntPoly.one()]  # n = 0
    for _ in range(n):
        rows.append(_fdb_step(rows, E))
        yield rows[-1]


def faa_di_bruno_altmaj(n: int) -> IntPoly:
    """A_n(1, q) = F^{(n)}(0) (q;q)_n for F(z) = prod_{j>=0} (sec(z q^j) + tan(z q^j)),
    the last row of one faa_di_bruno_rows pass.

    >>> faa_di_bruno_altmaj(3).coeffs
    (2, 1, 1, 2)
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _last(faa_di_bruno_rows(n), None)
