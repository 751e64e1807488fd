"""Gamma-type expansions: classical, q-refined, and two-sided.

The classical expansion writes A_n(t) in the basis (-2t)^k (1+t)^(n-1-2k)
(see polynomials.gamma_expand); here live its Simsun interpretation
plus the two refinements that are still conjectural (its cd-index
relations are checked on word counts, by prop3.4 in altdes.checks):

* the q-expansion  A_n(t,q) = sum_k g_k(q) q^C(k+1,2) (-t)^k
                              prod_{i=k+1}^{n-1-k} (1 + t q^i),
* the two-sided expansion of sum s^altdes(w^-1) t^altdes(w) in the
  basis (-st)^i (1+st)^j (s+t)^(n-1-j-2i).

Both extractions are deterministic triangular peels that return the
entries and raise ExpansionFailed unless the input is exactly its
expansion; whether the entries are nonnegative, or divisible by powers
of 1 + q, is for the checks of Conjectures 5.2 and 5.3 in altdes.checks
to decide.
"""

from __future__ import annotations

from math import comb

from .polynomials import BiPolyTQ, IntPoly, gamma_expand
from .recurrences import five_term, gamma_rec, simsun_rec
from .reporting import AltdesError, CheckResult


class ExpansionFailed(AltdesError, ArithmeticError):
    """The triangular peel left a nonzero residual or hit a term that
    is not divisible by the required q power."""


# ---------------------------------------------------------------------------
# classical gamma vector versus Simsun polynomials

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

def _q_basis_element(n: int, k: int, g: IntPoly) -> BiPolyTQ:
    """g(q) q^C(k+1,2) (-t)^k prod_{i=k+1}^{n-1-k} (1 + t q^i)."""
    base = BiPolyTQ.from_rows([(0, IntPoly())] * k + [(comb(k + 1, 2), g * (-1) ** k)])
    for i in range(k + 1, n - k):
        base = base.mul_binomial(i)
    return base


def q_gamma_extract(p: BiPolyTQ, n: int) -> tuple[IntPoly, ...]:
    """The entries (g_0(q), ..., g_((n-1)//2)(q)) of A_n(t,q) in the
    q-gamma basis, zero entries included, peeled ascending in the t
    degree.

    At step k the residual must start at t^k and its t^k slice must be
    divisible by q^C(k+1,2); otherwise ExpansionFailed.  Integrality is
    automatic.
    """
    residual = p
    gammas: list[IntPoly] = []
    for k in range((n - 1) // 2 + 1):
        low = residual.min_t_degree()
        if not residual or low > k:
            gammas.append(IntPoly())
            continue
        if low < k:
            raise ExpansionFailed(f"residual has t-degree {low} below {k}")
        lo, slice_k = residual.rows[k]
        shift = comb(k + 1, 2)
        if lo < shift:
            raise ExpansionFailed(f"t^{k} slice has q-valuation {lo} < {shift}")
        g = (slice_k * (-1) ** k).shift(lo - shift)
        gammas.append(g)
        residual = residual - _q_basis_element(n, k, g)
    if residual:
        raise ExpansionFailed("nonzero residual after the final peel step")
    return tuple(gammas)


# ---------------------------------------------------------------------------
# two-sided expansion

def _two_sided_basis(n: int, i: int, j: int) -> BiPolyTQ:
    """(-st)^i (1+st)^j (s+t)^(n-1-j-2i), with s in the t slot and t in
    the q slot, so 1 + st is the binomial 1 + tq."""
    s_plus_t = BiPolyTQ({(1, 0): 1, (0, 1): 1})
    base = BiPolyTQ.term(i, i, (-1) ** i) * s_plus_t ** (n - 1 - j - 2 * i)
    for _ in range(j):
        base = base.mul_binomial(1)
    return base


def two_sided_extract(a: BiPolyTQ) -> dict[tuple[int, int], int]:
    """The entries {(i, j): e} of a symmetric polynomial in s, t (slots
    of the carrier) in the two-sided basis, peeling ascending powers of s.

    The basis element of (i, j) has no term of s-degree below i and one
    of s-degree i, (-1)^i s^i t^(n-1-i-j), so the s^i slice of the
    residual gives every entry e[(i, j)] at once.
    """
    coeffs = a.coeffs
    n = 1 + max((max(k, j) for (k, j) in coeffs), default=0)
    for (k, j), c in coeffs.items():
        if coeffs.get((j, k)) != c:
            raise ExpansionFailed(f"not symmetric at exponents ({k}, {j})")
    entries: dict[tuple[int, int], int] = {}
    residual = a
    for i in range((n - 1) // 2 + 1):
        for b, c in enumerate(residual.slice_t(i)):
            if c == 0:
                continue
            j = n - 1 - i - b
            if b < i or j < 0:
                raise ExpansionFailed(f"term s^{i} t^{b} lies outside the basis")
            e = entries[(i, j)] = c * (-1) ** i
            residual = residual - e * _two_sided_basis(n, i, j)
    if residual:
        raise ExpansionFailed("nonzero residual after the final peel step")
    return entries
