"""Divisibility structure of the alternating major-index polynomials.

The generating function A_n(1, q) of altmaj over S_n factors as G_n
times a cofactor E^_n, palindromic with constant term the zigzag number
E_n, where

    G_n = prod_{k>=1} prod_{i=1}^{floor(n/2^k)} (1 + q^i).

As 1 + q^m divides 1 + q^i exactly when i/m is odd, floor(n/2m) factors
of G_n carry 1 + q^m (Theorem 4.2), and G_n(1) = 2^l for its l factors,
so E^_n(1) is the odd part of n! = A_n(1, 1).  This module builds G_n,
Foata's factors Ev_k and the cyclotomic polynomials they factor into,
extracts E^_n by exact division, measures orders of (1+q^m) factors, and
hosts the balanced-binomial-sum criterion together with its
prefix-reversal bijection witness.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from . import oracle
from .oracle import StatMultiset
from .polynomials import (
    BiPolyTQ,
    IntPoly,
    NotDivisible,
    one_plus_pow,
    q_pochhammer,
    shape_predicates,
)
from .recurrences import euler_numbers
from .reporting import CheckResult


def _mobius(n: int) -> int:
    """The Moebius function mu(n), n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, prod_{d|k} (1 - x^d)^mu(k/d)
    (negated for k = 1): the binomials with mu = +1 are multiplied in,
    then those with mu = -1 divided out.

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if k < 1:
        raise ValueError("k must be positive")
    factors = [(d, _mobius(k // d)) for d in range(1, k + 1) if k % d == 0]
    out = IntPoly.one()
    for d, mu in factors:
        if mu == 1:
            out = out.mul_binomial(d, -1)
    for d, mu in factors:
        if mu == -1:
            out, exact = out.div_binomial(d, -1)
            if not exact:
                raise NotDivisible(f"(1-x^{d}) does not divide at k={k}")
    return -out if k == 1 else out


def _gn_powers(n: int):
    """The power i of each factor (1 + q^i) of G_n, repeats included."""
    k = 1
    while n >> k:
        yield from range(1, (n >> k) + 1)
        k += 1


def build_Gn(n: int) -> IntPoly:
    """G_n as the double product over (1+q^i); it equals
    prod_m Phi_2m(q)^floor(n/2m).

    >>> build_Gn(4).coeffs == (one_plus_pow(1)**2 * one_plus_pow(2)).coeffs
    True
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = IntPoly.one()
    for i in _gn_powers(n):
        out = out.mul_binomial(i, 1)
    return out


def build_Ev(k: int) -> IntPoly:
    """Foata's factor Ev_k = prod_{j=0}^{l} (1 + q^(2^j m)) for
    k = 2^l m with m odd; it equals prod_{d|k} Phi_2d.

    >>> build_Ev(2).coeffs
    (1, 1, 1, 1)
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = one_plus_pow(k)
    while k % 2 == 0:
        k //= 2
        out = out.mul_binomial(k, 1)
    return out


def order_of_factor(f: IntPoly, m: int) -> int:
    """Largest r with (1+q^m)^r dividing f; 0 for coprime inputs.

    >>> order_of_factor(q_pochhammer(4), 1)
    2
    """
    if not f:
        raise ValueError("order of the zero polynomial is undefined")
    if m < 1:
        raise ValueError("m must be positive")
    order = 0
    while True:
        quot, exact = f.div_binomial(m, +1)
        if not exact:
            return order
        f = quot
        order += 1


def extract_Ehat(n: int, altmaj: IntPoly) -> IntPoly:
    """The cofactor E^_n of G_n in altmaj, the altmaj polynomial
    A_n(1, q), divided out one factor 1 + q^i at a time.

    NotDivisible from a division would falsify the factorization
    claim; it propagates so callers can record the finding.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    e_hat = altmaj
    for i in _gn_powers(n):  # one linear division per factor of G_n
        e_hat, exact = e_hat.div_binomial(i, 1)
        if not exact:
            raise NotDivisible(f"(1+q^{i}) does not divide the altmaj polynomial "
                               f"at n={n}")
    return e_hat


def e_hat_claims(n: int, e_hat: IntPoly) -> dict[str, str | None]:
    """The witness of each claim on E^_n by report name, None when it
    holds: E^_n is palindromic (so not zero) and E^_n(0) = E_n."""
    return {"e_hat_palindromic": None if shape_predicates(e_hat).palindromic
            else "reduced factor not palindromic",
            "constant_term_is_euler": None if e_hat[0] == euler_numbers(n)[n]
            else "constant term is not the zigzag number"}


def check_qj_parity(n: int, j: int, alt: BiPolyTQ) -> CheckResult:
    """(1+q)-divisibility of alt = A_n(t, q) at t = q^j: exponent
    floor(n/2), dropping to floor((n-1)/2) when n is even and j odd."""
    expected = (n - 1) // 2 if (n % 2 == 0 and j % 2 == 1) else n // 2
    got = order_of_factor(alt.at_t_qpow(j), 1)
    if got < expected:
        return CheckResult.failed(f"n={n}, j={j}: (1+q)-order {got} < {expected}")
    return CheckResult.passed()


def check_pochhammer_orders(n: int) -> CheckResult:
    """order of (1+q^m) in (q;q)_n equals floor(n/2m) exactly, for
    every 1 <= m <= n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    f = q_pochhammer(n)
    for m in range(1, n + 1):
        got = order_of_factor(f, m)
        if got != n // (2 * m):
            return CheckResult.failed(f"n={n}, m={m}: order {got} != {n // (2 * m)}")
    return CheckResult.passed()


def binomial_criterion(ms: StatMultiset | Mapping[int, int], m: int, r: int) -> bool:
    """Balanced binomial sums: for every residue l mod m and every
    0 <= j < r, the sum of C(value, j) over the class l (mod 2m)
    equals the sum over the class l+m (mod 2m).

    Sufficient for (1+q^m)^r dividing the generating polynomial of the
    multiset; the converse is not claimed.
    """
    if m < 1 or r < 1:
        raise ValueError("m and r must be positive")
    counts = ms.values if isinstance(ms, StatMultiset) else dict(ms)
    mod = 2 * m
    for j in range(r):
        sums = [0] * mod
        for v, c in counts.items():
            sums[v % mod] += c * comb(v, j)
        if any(sums[l] != sums[l + m] for l in range(m)):
            return False
    return True


def verify_conj410(
    n: int, *, brute_max: int | None = None, jobs: int = 1
) -> CheckResult:
    """Run the binomial criterion on the altmaj multiset of S_n with
    r = floor(n/2m) for every 1 <= m <= n/2, and cross-check that the
    criterion's divisibility conclusion really holds."""
    ms = oracle.stat_multiset(n, "altmaj", brute_max=brute_max, jobs=jobs)
    poly = ms.polynomial()
    for m in range(1, n // 2 + 1):
        r = n // (2 * m)
        if not binomial_criterion(ms, m, r):
            return CheckResult.failed(f"n={n}, m={m}: binomial sums unbalanced")
        if order_of_factor(poly, m) < r:
            return CheckResult.failed(
                f"n={n}, m={m}: criterion held but (1+q^{m})^{r} does not divide"
            )
    return CheckResult.passed()


def thm411_bijection_check(n: int, *, brute_max: int | None = None) -> list[CheckResult]:
    """For each 1 <= m <= n/2, in order, whether reversing the first 2m
    letters is an involution on S_n that shifts altmaj by m mod 2m;
    consequently the altmaj residue classes l and l+m (mod 2m) are
    equinumerous.  One walk of S_n serves every m: each block is coded
    once for altmaj and once per m for its reversed prefixes.  The
    witness of a failed shift is the first failing word in the block
    order of oracle.iter_perm_arrays, which is lexicographic only for
    n <= 10."""
    if n < 2:
        raise ValueError("need n >= 2")
    oracle._guard(n, brute_max)
    np = oracle._load_numpy()
    # perm[m]: the image's letter i is the word's letter perm[m][i]
    perm = {m: np.r_[2 * m - 1 : -1 : -1, 2 * m : n] for m in range(1, n // 2 + 1)}
    witness = {m: f"n={n}, m={m}: prefix reversal not an involution"
               for m, p in perm.items() if not np.array_equal(p[p], np.arange(n))}
    class_sizes = {m: np.zeros(2 * m, dtype=np.int64) for m in perm}
    # int16: altmaj <= n(n-1)/2 = 120, since _guard stops n at 16
    altmaj = oracle._set_stats(n)["altmaj"].astype(np.int16)
    for P in oracle.iter_perm_arrays(n):
        am = oracle._stat_vector(P.T, altmaj)
        for m in [m for m in perm if m not in witness]:
            off = (oracle._stat_vector(P.T[perm[m]], altmaj) - am - m) % (2 * m)
            if off.any():
                w = tuple(int(x) + 1 for x in P[int(np.flatnonzero(off)[0])])
                witness[m] = f"n={n}, m={m}: shift fails at {w}"
            class_sizes[m] += np.bincount(am % (2 * m), minlength=2 * m)
    for m, sizes in class_sizes.items():
        if m not in witness and (sizes[:m] != sizes[m:]).any():
            witness[m] = f"n={n}, m={m}: residue classes unbalanced"
    return [CheckResult(m not in witness, witness.get(m)) for m in perm]
