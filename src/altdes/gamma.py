"""Gamma-type expansions: classical, q-refined, and two-sided.

The classical expansion writes A_n(t) in the basis (-2t)^k (1+t)^(n-1-2k)
(gamma_expand); here live it, its Simsun interpretation, and the two
refinements that are still conjectural (its cd-index relations are
checked on word counts, by prop3.4 in altdes.checks):

* the q-expansion  A_n(t,q) = sum_k g_k(q) q^C(k+1,2) (-t)^k
                              prod_{i=k+1}^{n-1-k} (1 + t q^i),
* the two-sided expansion of sum s^altdes(w^-1) t^altdes(w) in the
  basis (-st)^i (1+st)^j (s+t)^(n-1-j-2i).

All three are triangular peels that return the entries and raise
ExpansionFailed unless the input is exactly its expansion; each
subtracts plain coefficients (binomial ones, or for the q-expansion
q-binomial ones on the count's slice layout).  Whether the entries
are nonnegative, or divisible by powers of 1 + q, is for the checks of
Conjectures 5.2 and 5.3 in altdes.checks to decide.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from math import comb
from operator import sub
from typing import Iterator

from .polynomials import BiPolyTQ, IntPoly
from .recurrences import five_term, gamma_rec, simsun_rec
from .reporting import AltdesError, CheckResult


class ExpansionFailed(AltdesError, ArithmeticError):
    """A gamma-type peel met an input that is not exactly its expansion."""


def _binomial_row(m: int, c: int) -> Iterator[int]:
    """c C(m, i) for i = 0..m, each from the one before."""
    for i in range(m + 1):
        yield c
        c = c * (m - i) // (i + 1)


# ---------------------------------------------------------------------------
# classical gamma vector versus Simsun polynomials

def gamma_expand(f: IntPoly, n: int) -> IntPoly:
    """Expand a palindromic polynomial of center (n-1)/2 in the basis
    (-2t)^k (1+t)^(n-1-2k), 0 <= k <= (n-1)/2, and return the entries
    as the polynomial sum_k a(n,k) x^k.

    Step k reads c, the coefficient of t^k, and subtracts
    c t^k (1+t)^(n-1-2k) one binomial coefficient at a time.

    >>> gamma_expand(IntPoly([5, 7, 7, 5]), 4).coeffs
    (5, 4)
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = n - 1
    if f.degree > d:
        raise ExpansionFailed(f"degree {f.degree} exceeds {d}")
    residual = list(f.coeffs) + [0] * (d + 1 - len(f.coeffs))
    if residual != residual[::-1]:
        raise ExpansionFailed(f"not palindromic about {d}/2")
    out: list[int] = []
    for k in range(d // 2 + 1):
        c = residual[k]
        sign = (-2) ** k
        a, r = divmod(c, sign)
        if r:
            raise ExpansionFailed(f"entry {k}: {c} not divisible by {sign}")
        out.append(a)
        for i, v in enumerate(_binomial_row(d - 2 * k, c), k):
            residual[i] -= v
    if any(residual):
        raise ExpansionFailed("nonzero residual after the peel")
    return IntPoly(out)


def simsun_relation_check(n: int) -> CheckResult:
    """a_n(x) = R_{n-1}(x+1), with a_n from the derivative recursion and
    independently from peeling A_n(t)."""
    a_rec = gamma_rec(n)
    a_peel = gamma_expand(five_term(n), n)
    if a_rec != a_peel:
        return CheckResult.failed(f"n={n}: recursion and peel disagree")
    shifted = simsun_rec(n - 1).compose(IntPoly((1, 1)))
    if a_rec != shifted:
        return CheckResult.failed(f"n={n}: a_n != R_(n-1)(x+1)")
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# q-refined gamma vectors

def q_gamma_extract(p: BiPolyTQ, n: int) -> tuple[IntPoly, ...]:
    """The entries (g_0(q), ..., g_((n-1)//2)(q)) of A_n(t,q) in the
    q-gamma basis, zero entries included, peeled ascending in t.

    The residual is one coefficient list per power of t, slice K from
    q^C(K+1,2) as in altdes.transfer: C(k+1,2) + jk + j + C(j,2) is
    C(k+j+1,2), so no basis element reaches below a slice's base, and
    on this layout the t^j part of prod_{i=k+1}^{n-1-k} (1 + t q^i) is
    the q-binomial [r choose j]_q, r = n-1-2k.  Step k reads
    g_k = (-1)^k slice k and subtracts slice k times each [r choose j]_q
    from slice k+j, stepping j by one product with 1 - q^(r-j) and one
    exact division by 1 - q^(j+1).  A term below the base of slice
    k <= (n-1)//2, or a residual after the last step, raises
    ExpansionFailed.

    >>> a3 = BiPolyTQ({(0, 0): 2, (1, 1): 1, (1, 2): 1, (2, 3): 2})
    >>> [g.coeffs for g in q_gamma_extract(a3, 3)]
    [(2,), (1, 1)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = (n - 1) // 2
    residual = [[] for _ in range(max(n, len(p.rows)))]
    for k, (lo, s) in enumerate(p.rows):
        shift = comb(k + 1, 2)
        if s and lo < shift:
            raise ExpansionFailed(f"t^{k} slice has q-valuation {lo} < {shift}" if k <= m
                                  else "nonzero residual after the final peel step")
        residual[k] = [0] * (lo - shift) + list(s.coeffs)
    gammas: list[IntPoly] = []
    for k in range(m + 1):
        row, r = IntPoly(residual[k]), n - 1 - 2 * k
        gammas.append(row * (-1) ** k)
        for j in range(r + 1):  # row is slice k times [r choose j]_q
            residual[k + j] = list(starmap(sub, zip_longest(residual[k + j], row, fillvalue=0)))
            if j < r:
                row = row.mul_binomial(r - j, -1).div_binomial(j + 1, -1)[0]
    if any(map(any, residual)):
        raise ExpansionFailed("nonzero residual after the final peel step")
    return tuple(gammas)


# ---------------------------------------------------------------------------
# two-sided expansion

def two_sided_extract(a: BiPolyTQ) -> dict[tuple[int, int], int]:
    """The entries {(i, j): e} of a symmetric polynomial in s, t (slots
    of the carrier) in the two-sided basis, peeling ascending powers of s.

    The basis element of (i, j) has no term of s-degree below i and one
    of s-degree i, (-1)^i s^i t^(n-1-i-j), so the s^i slice of the
    residual gives every entry e[(i, j)] at once.  With r = n-1-j-2i,
    e times the element is c s^i t^i (1+st)^j (s+t)^r, c = (-1)^i e:
    the peel subtracts c C(j, x) C(r, y) at s^(i+x+y) t^(i+x+r-y).
    """
    coeffs = a.coeffs
    n = 1 + max((max(k, j) for (k, j) in coeffs), default=0)
    for (k, j), c in coeffs.items():
        if coeffs.get((j, k)) != c:
            raise ExpansionFailed(f"not symmetric at exponents ({k}, {j})")
    entries: dict[tuple[int, int], int] = {}
    residual = dict(coeffs)
    for i in range((n - 1) // 2 + 1):
        for b in sorted(b for (k, b), c in residual.items() if k == i and c):
            c, j, r = residual[(i, b)], n - 1 - i - b, b - i
            if r < 0 or j < 0:
                raise ExpansionFailed(f"term s^{i} t^{b} lies outside the basis")
            entries[(i, j)] = c * (-1) ** i
            for x, cx in enumerate(_binomial_row(j, c), i):
                for y, v in enumerate(_binomial_row(r, cx)):
                    key = (x + y, x + r - y)
                    residual[key] = residual.get(key, 0) - v
    if any(residual.values()):
        raise ExpansionFailed("nonzero residual after the final peel step")
    return entries
