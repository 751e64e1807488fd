"""Gamma-type expansions: classical, q-refined, and two-sided.

The classical expansion writes A_n(t) in the basis (-2t)^k (1+t)^(n-1-2k)
(see polynomials.gamma_expand); here live its Simsun and cd-index
interpretations plus the two refinements that are still conjectural:

* the q-expansion  A_n(t,q) = sum_k g_k(q) q^C(k+1,2) (-t)^k
                              prod_{i=k+1}^{n-1-k} (1 + t q^i),
* the two-sided expansion of sum s^altdes(w^-1) t^altdes(w) in the
  basis (-st)^i (1+st)^j (s+t)^(n-1-j-2i).

Both extractions are deterministic triangular peels; verdicts about
positivity or divisibility are reported as data, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .divisibility import order_of_factor
from .polynomials import BiPolyTQ, IntPoly, NCPoly, gamma_expand
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
    a_peel = gamma_expand(five_term(n), n).polynomial()
    if a_rec != a_peel:
        return CheckResult.failed(f"n={n}: recursion and peel disagree")
    shifted = simsun_rec(n - 1).compose(IntPoly((1, 1)))
    if a_rec != shifted:
        return CheckResult.failed(f"n={n}: a_n != R_(n-1)(x+1)")
    return CheckResult.passed()


# ---------------------------------------------------------------------------
# cd-index transform

class CdTransform:
    """Result of substituting d -> cc - d into a cd-polynomial."""

    __slots__ = ("phi_hat", "alt_poly")

    def __init__(self, phi_hat: NCPoly, alt_poly: IntPoly):
        self.phi_hat = phi_hat
        self.alt_poly = alt_poly


def cd_transform(phi: NCPoly) -> CdTransform:
    """phi_hat = phi(c, cc - d), plus its commutative shadow at
    c = 1 + t, d = 2t (which must reproduce A_n(t))."""
    images = {"d": NCPoly({"cc": 1, "d": -1})}
    phi_hat = phi.substitute(images)
    alt = phi_hat.eval_commutative({"c": IntPoly((1, 1)), "d": IntPoly((0, 2))})
    return CdTransform(phi_hat, alt)


# ---------------------------------------------------------------------------
# q-refined gamma vectors

@dataclass(frozen=True)
class QGammaVector:
    """Entries g_k(q) of the q-expansion of A_n(t,q), with verdict data:
    per-entry coefficient nonnegativity and the exact power of (1+q)
    dividing each entry."""

    n: int
    gammas: tuple[IntPoly, ...]
    nonnegative: tuple[bool, ...]
    one_plus_q_orders: tuple[int, ...]

    def conjecture_holds(self) -> bool:
        return all(self.nonnegative) and all(
            o >= k for k, o in enumerate(self.one_plus_q_orders)
        )

    def reconstruct(self) -> BiPolyTQ:
        out = BiPolyTQ.zero()
        for k, g in enumerate(self.gammas):
            out = out + _q_basis_element(self.n, k, g)
        return out


def _q_basis_element(n: int, k: int, g: IntPoly) -> BiPolyTQ:
    """g(q) q^C(k+1,2) (-t)^k prod_{i=k+1}^{n-1-k} (1 + t q^i)."""
    sign = -1 if k % 2 else 1
    base = BiPolyTQ({(k, comb(k + 1, 2) + e): sign * c for e, c in enumerate(g.coeffs) if c})
    for i in range(k + 1, n - k):
        base = base * BiPolyTQ({(0, 0): 1, (1, i): 1})
    return base


def q_gamma_extract(p: BiPolyTQ, n: int) -> QGammaVector:
    """Peel A_n(t,q) in the q-gamma basis, ascending in the t degree.

    At step k the residual must start at t^k and its t^k slice must be
    divisible by q^C(k+1,2); otherwise ExpansionFailed.  Integrality is
    automatic, positivity and (1+q)-divisibility are reported only.
    """
    residual = p
    gammas: list[IntPoly] = []
    for k in range((n - 1) // 2 + 1):
        if not residual:
            gammas.append(IntPoly())
            continue
        if residual.min_t_degree() < k:
            raise ExpansionFailed(
                f"residual has t-degree {residual.min_t_degree()} below {k}"
            )
        slice_k = residual.slice_t(k)
        if not slice_k:
            gammas.append(IntPoly())
            continue
        shift = comb(k + 1, 2)
        if slice_k.valuation() < shift:
            raise ExpansionFailed(
                f"t^{k} slice has q-valuation {slice_k.valuation()} < {shift}"
            )
        sign = -1 if k % 2 else 1
        g = IntPoly(tuple(sign * c for c in slice_k.coeffs[shift:]))
        gammas.append(g)
        residual = residual - _q_basis_element(n, k, g)
    if residual:
        raise ExpansionFailed("nonzero residual after the final peel step")
    nonneg = tuple(all(c >= 0 for c in g.coeffs) for g in gammas)
    orders = tuple(order_of_factor(g, 1) if g else 0 for g in gammas)
    return QGammaVector(n, tuple(gammas), nonneg, orders)


# ---------------------------------------------------------------------------
# two-sided expansion

@dataclass(frozen=True)
class TwoSidedGamma:
    """Entries e[(i, j)] of the expansion of a symmetric two-sided
    polynomial in the basis (-st)^i (1+st)^j (s+t)^(n-1-j-2i)."""

    n: int
    entries: dict[tuple[int, int], int]

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.entries.values())

    def reconstruct(self) -> BiPolyTQ:
        st = BiPolyTQ({(1, 1): 1})
        one_st = BiPolyTQ({(0, 0): 1, (1, 1): 1})
        s_plus_t = BiPolyTQ({(1, 0): 1, (0, 1): 1})
        out = BiPolyTQ.zero()
        for (i, j), c in self.entries.items():
            sign = -1 if i % 2 else 1
            out = out + (sign * c) * (st**i * one_st**j * s_plus_t ** (self.n - 1 - j - 2 * i))
        return out


def two_sided_extract(a: BiPolyTQ) -> TwoSidedGamma:
    """Expand a symmetric polynomial in s, t (slots of the carrier) in
    the two-sided basis, peeling ascending powers of e = st inside each
    power of p = s + t.

    The rewrite in (p, e) uses s^a t^b + s^b t^a = e^a (s^(b-a)+t^(b-a))
    and the power-sum recursion P_k = p P_{k-1} - e P_{k-2}.
    """
    coeffs = a.coeffs
    n = 1 + max((max(k, j) for (k, j) in coeffs), default=0)
    for (k, j), c in coeffs.items():
        if coeffs.get((j, k)) != c:
            raise ExpansionFailed(f"not symmetric at exponents ({k}, {j})")
    # P_k(s, t) = s^k + t^k, tracked as dict p_exp -> IntPoly in e
    power_sums: list[dict[int, IntPoly]] = [{0: IntPoly((2,))}, {1: IntPoly.one()}]
    while len(power_sums) < n:
        k = len(power_sums)
        prev, prev2 = power_sums[k - 1], power_sums[k - 2]
        out: dict[int, IntPoly] = {}
        for pe, poly in prev.items():
            out[pe + 1] = out.get(pe + 1, IntPoly()) + poly
        for pe, poly in prev2.items():
            out[pe] = out.get(pe, IntPoly()) - IntPoly((0, 1)) * poly
        power_sums.append({pe: poly for pe, poly in out.items() if poly})
    by_p: dict[int, IntPoly] = {}

    def add_pe(pe: int, poly: IntPoly) -> None:
        if poly:
            by_p[pe] = by_p.get(pe, IntPoly()) + poly

    for (k, j), c in coeffs.items():
        if k > j:
            continue
        if k == j:
            add_pe(0, IntPoly.monomial(k, c))
        else:
            for pe, poly in power_sums[j - k].items():
                add_pe(pe, c * poly.shift(k))
    by_p = {pe: poly for pe, poly in by_p.items() if poly}
    entries: dict[tuple[int, int], int] = {}
    for pe, poly in sorted(by_p.items()):
        cap = n - 1 - pe  # j + 2i must equal this
        if cap < 0:
            raise ExpansionFailed(f"p-degree {pe} exceeds n-1 = {n - 1}")
        residual = poly
        for i in range(cap // 2 + 1):
            c = residual[i]
            if c == 0:
                continue
            sign = -1 if i % 2 else 1
            entries[(i, cap - 2 * i)] = sign * c
            residual = residual - c * IntPoly.monomial(i) * IntPoly((1, 1)) ** (cap - 2 * i)
        if residual:
            raise ExpansionFailed(f"residual at p-degree {pe} after the peel")
    return TwoSidedGamma(n, entries)
