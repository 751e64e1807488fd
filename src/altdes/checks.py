"""The verify registry: each token of `altdes verify` is a suite of checks.

A check lists its cases for a largest n, names one row per case, and
runs one function per case that returns a CheckResult; the library's
own checks are registered as they are.  run(token, max_n) runs a
token's suite and returns its rows in order; the command line renders
them, and the acceptance tests assert that they pass.
"""

from __future__ import annotations

from itertools import islice, product
from math import factorial, prod
from typing import Callable, Iterator, NamedTuple

from . import divisibility, gamma, oracle, permutations, recurrences, transfer
from .gamma import ExpansionFailed, gamma_expand
from .oracle import DEFAULT_BRUTE_MAX
from .polynomials import BiPolyTQ, IntPoly, shape_predicates
from .reporting import CheckResult, ResultRow, UsageError, _row


def _reader(rows: Iterator) -> Callable[[], object]:
    """A read of the next of rows.  Once a step of the pass has raised,
    every later read raises the same error, so the case that hit it and
    each case after it fail with one witness, not with StopIteration."""
    error = None

    def read():
        nonlocal error
        if error is None:
            try:
                return next(rows)
            except (ArithmeticError, ValueError) as exc:  # as run catches
                error = exc
        raise error
    return read


def _upto(*, start: int = 1, step: int = 1, brute: bool = False,
          enumerates: bool = False, rows: Callable[[int], Iterator] | None = None):
    """Cases n = start, start + step, ... up to --max-n, and up to
    --brute-max as well when brute is set.  For a check that enumerates,
    each case also carries brute_max and jobs.  Given a pass rows, the
    cases share one run rows(maxn), looked up when they are listed: run
    reads its cases once each and in order, so case n takes row n with
    rows(), and no row is computed twice."""
    def cases(maxn: int, brute_max: int, jobs: int, passes: dict) -> list[dict]:
        top = min(maxn, brute_max) if brute else maxn
        given = {"brute_max": brute_max, "jobs": jobs} if enumerates else {}
        if rows is not None:
            given["rows"] = _reader(islice(rows(maxn), start - 1, None, step))
        return [{"n": n, **given} for n in range(start, top + 1, step)]
    return cases


class _Check(NamedTuple):
    """One family of rows of a verify token.

    cases(maxn, brute_max, jobs, passes) lists the cases as keyword
    dicts; passes is a dict that lives for one run, in which families
    that read one pass keep it.  name is formatted with each case's
    fields, and run(**case) returns the case's CheckResult.  A failure
    is a finding when the property is a conjecture; an ArithmeticError
    or ValueError raised by run is always a failure, with the error
    message as its witness, except a usage error, which ends the
    command.
    """

    name: str
    run: Callable[..., CheckResult]
    cases: Callable[[int, int, int, dict], list[dict]] = _upto()
    finding: bool = False


def _verdict(problems: list[str]) -> CheckResult:
    """Pass when there are no problems, else fail with all of them."""
    return CheckResult(not problems, "; ".join(problems) or None)


def _over_j(check: Callable[..., CheckResult], js: range) -> Callable[..., CheckResult]:
    """The check that check(n, j, row) holds for each j in js on the
    case's one row, failing with every witness."""
    def run(n: int, rows: Callable) -> CheckResult:
        row = rows()
        results = [(j, check(n, j, row)) for j in js]
        return _verdict([cr.witness or f"j={j}" for j, cr in results if not cr.ok])
    return run


def _vs_oracle(name: str, recurrence: str, brute: str, label: str) -> _Check:
    """Rows checking recurrences.<recurrence>(n) against the enumerated
    oracle.<brute>(n), both looked up when the check runs."""
    def check(n: int, brute_max: int, jobs: int) -> CheckResult:
        ok = getattr(recurrences, recurrence)(n) == getattr(oracle, brute)(
            n, brute_max=brute_max, jobs=jobs)
        return CheckResult(ok, None if ok else f"{label} recurrence disagrees at n={n}")
    return _Check(name, check, _BRUTE)


def _vs_count(name: str, recurrence: str, rows: Callable[[int], Iterator]) -> _Check:
    """Rows checking a recurrence's pass against the count's, zipped by
    rows; the witness names the one-n function recurrences.<recurrence>."""
    def check(n: int, rows: Callable) -> CheckResult:
        ours, count = rows()
        ok = ours == count
        return CheckResult(ok, None if ok else f"{recurrence} disagrees with the count at n={n}")
    return _Check(name, check, _upto(rows=rows))


def _prefixes(rows: Iterator, one) -> Iterator[list]:
    """A_0..A_n for n = 1, 2, ..., one list, A_0 = one, grown along the
    pass rows of A_1, A_2, ..."""
    prefix = [one]
    for row in rows:
        prefix.append(row)
        yield prefix


class _Substituted:
    """A row A_m(t, q) of thm4.6 that makes each substitution A_m(q^c, q)
    once.  It keeps c <= 4, which the parity rows and every later
    recursion case read, and the four largest c above 4: the recursion
    case (n, j) reads c = n - m + j + 1 for j = 1..4, in rising order,
    so a c below those four is not read again."""

    __slots__ = ("row", "memo")

    def __init__(self, row: BiPolyTQ):
        self.row, self.memo = row, {}

    def at_t_qpow(self, c: int = 0) -> IntPoly:
        poly = self.memo.get(c)
        if poly is None:
            poly = self.memo[c] = self.row.at_t_qpow(c)
            for old in [k for k in self.memo if 4 < k < c - 3]:
                del self.memo[old]
        return poly


def _substituted(pick: Callable[[Callable[[int], list], int], object]):
    """Cases n = 1..maxn, case n reading pick(upto, n), where upto(m) is
    the list A_0, ..., A_k (k >= m) of one transfer.tq_rows(maxn + 1)
    pass per run, shared by the families that read it.  Each row is
    computed when first read and kept as a _Substituted, so the families
    read one pass and substitute each t = q^c into each row once."""
    def cases(maxn: int, brute_max: int, jobs: int, passes: dict) -> list[dict]:
        if _substituted not in passes:
            read, alt = _reader(transfer.tq_rows(maxn + 1)), [_Substituted(BiPolyTQ.one())]

            def upto(m: int) -> list:
                while len(alt) <= m:
                    alt.append(_Substituted(read()))
                return alt
            passes[_substituted] = upto
        upto = passes[_substituted]
        return [{"n": n, "rows": lambda n=n: pick(upto, n)} for n in range(1, maxn + 1)]
    return cases


def _gamma_nonneg(n: int, rows: Callable) -> CheckResult:
    f = rows()
    sh = shape_predicates(f)
    problems = []
    if not sh.palindromic:
        problems.append("not palindromic")
    if not sh.unimodal:
        problems.append("not unimodal")
    if any(g < 0 for g in gamma_expand(f, n).coeffs):
        problems.append("negative gamma entry")
    return _verdict(problems)


def _minus_one(n: int, rows: Callable) -> CheckResult:
    ok = rows()(-1) == recurrences.euler_numbers(n)[n]
    return CheckResult(ok, None if ok else f"five_term({n})(-1) != E_{n}")


def _down_up_lengths(maxn: int, brute_max: int, *_) -> list[dict]:
    return [{"length": k, "brute_max": brute_max}
            for k in (2, 4, 6) if k <= min(maxn, brute_max)]


def _down_up_simsun(length: int, brute_max: int) -> CheckResult:
    e = recurrences.euler_numbers(length + 1)[length + 1]
    expected, rem = divmod(e, 2 ** (length // 2))
    if rem:
        return CheckResult.failed(f"E_{length + 1} = {e} is not divisible by 2^{length // 2}")
    got = oracle.down_up_simsun_count(length, brute_max=brute_max)
    ok = got == expected
    return CheckResult(ok, None if ok else f"count {got}, expected {expected}")


def _ab_expand(phi: dict[str, int], d: tuple[str, str]) -> dict[str, int]:
    """The ab-word counts of phi with each c sent to a + b and each d to
    the sum of the two words d.

    >>> _ab_expand({"cc": 1, "d": 2}, ("ab", "ba"))
    {'aa': 1, 'ab': 3, 'ba': 3, 'bb': 1}
    """
    out: dict[str, int] = {}
    for word, count in phi.items():
        for parts in product(*(("a", "b") if x == "c" else d for x in word)):
            u = "".join(parts)
            out[u] = out.get(u, 0) + count
    return out


def _cd_eval(phi: dict[str, int], c: IntPoly, d: IntPoly) -> IntPoly:
    """phi with its letters commuting, c and d sent to polynomials."""
    return sum((k * c ** w.count("c") * d ** w.count("d") for w, k in phi.items()),
               IntPoly())


def _cd_index(n: int, brute_max: int, jobs: int) -> CheckResult:
    # four substitutions into phi: psi = phi(a+b, ab+ba), psi_hat = phi(a+b, aa+bb),
    # A_n(t) = phi(1+t, 1+t^2) and a_n(x) = phi(1, 1+x); the middle two are
    # phi_hat = phi(c, cc-d) at c = a+b, d = ab+ba and at c = 1+t, d = 2t
    cd = oracle.brute_cd_index(n, brute_max=brute_max, jobs=jobs)
    bad = []
    if cd.psi != _ab_expand(cd.phi, ("ab", "ba")):
        bad.append("descent-set index")
    if cd.psi_hat != _ab_expand(cd.phi, ("aa", "bb")):
        bad.append("alternating-descent-set index")
    if _cd_eval(cd.phi, IntPoly((1, 1)), IntPoly((1, 0, 1))) != recurrences.five_term(n):
        bad.append("alternating descent polynomial")
    if _cd_eval(cd.phi, IntPoly.one(), IntPoly((1, 1))) != recurrences.gamma_rec(n):
        bad.append("gamma vector link")
    return _verdict(bad)


def _simsun_rec(n: int, rows: Callable, brute_max: int, jobs: int) -> CheckResult:
    r1, r2 = rows()
    bad = []
    if r1 != r2:
        bad.append("the two recurrences disagree")
    if r1(1) != recurrences.euler_numbers(n + 1)[n + 1]:
        bad.append(f"total count is not E_{n + 1}")
    if n <= brute_max and r1 != oracle.brute_simsun(n, brute_max=brute_max, jobs=jobs):
        bad.append("oracle disagrees")
    return _verdict(bad)


def _factorization(n: int, rows: Callable) -> CheckResult:
    # extract_Ehat divides A_n(1, q) by each factor 1 + q^i of G_n exactly or
    # raises, and 1 + q^m divides 1 + q^i when i/m is odd, so the count of
    # those factors is an order of 1 + q^m that A_n(1, q) carries
    e_hat = divisibility.extract_Ehat(n, rows())
    bad = [w for w in divisibility.e_hat_claims(n, e_hat).values() if w]
    powers = list(divisibility._gn_powers(n))
    for m in range(1, n // 2 + 1):
        got, need = sum(i % (2 * m) == m for i in powers), n // (2 * m)
        if got < need:
            bad.append(f"n={n}, m={m}: order {got} < {need}")
            break
    return _verdict(bad)


def _odd_part(n: int, rows: Callable) -> CheckResult:
    # G_n(1) = 2^l for its l factors 1 + q^i, and A_n(1, 1) = n!
    value, ell = divisibility.extract_Ehat(n, rows())(1), len(list(divisibility._gn_powers(n)))
    bad = [] if value % 2 else [f"E^_{n}(1) = {value} is even"]
    if value << ell != factorial(n):
        bad.append(f"E^_{n}(1) 2^{ell} != {n}!")
    return _verdict(bad)


def _reversal_cases(maxn: int, brute_max: int, *_) -> list[dict]:
    """Cases (n, m), 2m <= n <= min(maxn, brute_max).  The rows of one n
    read one walk of S_n, made when the first of them runs: run reads
    them in order, so row m takes the walk's result m with rows()."""
    def walk(n: int) -> Iterator[CheckResult]:  # walks S_n at its first read
        yield from divisibility.thm411_bijection_check(n, brute_max=brute_max)
    return [{"n": n, "m": m, "rows": rows} for n in range(2, min(maxn, brute_max) + 1)
            for rows in [_reader(walk(n))] for m in range(1, n // 2 + 1)]


def _derivative_route(n: int, rows: Callable) -> CheckResult:
    altmaj, tq = rows()
    ok = altmaj == tq.at_t_qpow()
    return CheckResult(ok, None if ok else f"major-index polynomials disagree at n={n}")


def _log_concave(n: int, rows: Callable) -> CheckResult:
    ok = shape_predicates(rows()).log_concave
    return CheckResult(ok, None if ok else f"coefficients not log-concave at n={n}")


def _q_gamma(n: int, rows: Callable) -> CheckResult:
    # the peel raises unless A_n(t,q) is exactly its expansion
    gammas = gamma.q_gamma_extract(rows(), n)
    a = recurrences.gamma_rec(n)
    if any(g(1) != (2 ** k) * a[k] for k, g in enumerate(gammas)):
        raise ExpansionFailed("values at q=1 disagree with gamma vector")
    # each g_k has nonnegative coefficients and (1+q)^k divides it; a zero
    # g_k with k >= 1 fails, as its (1+q)-order is taken to be 0
    ok = all(c >= 0 for g in gammas for c in g.coeffs) and all(
        g and divisibility.order_of_factor(g, 1) >= k for k, g in enumerate(gammas) if k)
    return CheckResult(ok, None if ok else "negative coefficient or missing 1+q factor")


def _two_sided(n: int, brute_max: int, jobs: int) -> CheckResult:
    # the peel raises unless A is exactly its expansion
    A = oracle.brute_two_sided(n, brute_max=brute_max, jobs=jobs)
    entries = gamma.two_sided_extract(A)
    if A.at_t_qpow() != recurrences.five_term(n):
        raise ExpansionFailed("value at s=1 is not A_n(t)")
    ok = all(e >= 0 for e in entries.values())
    return CheckResult(ok, None if ok else "negative expansion entry")


def _gn_cyclotomic(n: int) -> CheckResult:
    want = prod((divisibility.cyclotomic(2 * m) ** (n // (2 * m))
                 for m in range(1, n // 2 + 1)), start=IntPoly.one())
    ok = divisibility.build_Gn(n) == want
    return CheckResult(ok, None if ok else f"G_{n} is not prod_m Phi_2m^floor(n/2m)")


def _foata(k: int) -> CheckResult:
    """Ev_k = prod_{d|k} Phi_2d, and G_2k = prod_{i<=k} Ev_i = G_2k+1."""
    phis = prod((divisibility.cyclotomic(2 * d) for d in range(1, k + 1) if k % d == 0),
                start=IntPoly.one())
    evs = prod(map(divisibility.build_Ev, range(1, k + 1)), start=IntPoly.one())
    bad = [] if divisibility.build_Ev(k) == phis else [f"Ev_{k} is not prod_d|k Phi_2d"]
    if not divisibility.build_Gn(2 * k) == evs == divisibility.build_Gn(2 * k + 1):
        bad.append(f"G_{2 * k}, prod Ev_i and G_{2 * k + 1} differ")
    return _verdict(bad)


def _gamma_column(n: int) -> CheckResult:
    e = recurrences.euler_numbers(n + 1)
    got, want = recurrences.gamma_rec(n)[1], n * e[n] - e[n + 1]
    ok = got == want
    return CheckResult(ok, None if ok else f"a({n}, 1) = {got}, not {want}")


def _equidist(n: int, brute_max: int, jobs: int) -> CheckResult:
    left = oracle.stat_multiset(n, "altdes", brute_max=brute_max, jobs=jobs)
    right = oracle.brute_des3_first1(n, brute_max=brute_max, jobs=jobs)
    ok = left.values == right.values
    return CheckResult(ok, None if ok else f"distributions differ at n={n}")


_PARITY = _Check("one-plus-q order parity n={n}", _over_j(divisibility.check_qj_parity, range(5)),
                 _upto(rows=lambda n: transfer.tq_rows(n)))
_BRUTE = _upto(brute=True, enumerates=True)

# token -> (default max n, checks)
SUITES: dict[str, tuple[int, tuple[_Check, ...]]] = {
    "thm2.1": (10, (_vs_oracle("five-term matches oracle n={n}", "five_term",
                               "brute_alt_eulerian", "five-term"),)),
    "eq1": (10, (_Check("convolution identity n={n}",
                        lambda n, rows: recurrences.chebikin_check(n, rows()),
                        _upto(rows=lambda n: _prefixes(recurrences.five_term_rows(n),
                                                       IntPoly.one()))),)),
    "thm3.1": (12, (_Check("palindromic unimodal gamma-nonnegative n={n}", _gamma_nonneg,
                           _upto(rows=lambda n: recurrences.five_term_rows(n))),)),
    "thm3.2": (12, (_Check("gamma vector vs simsun polynomial n={n}",
                           gamma.simsun_relation_check),)),
    "cor3.3": (13, (
        _Check("value at -1 equals zigzag count n={n}", _minus_one,
               _upto(step=2, rows=lambda n: recurrences.five_term_rows(n))),
        _Check("down-up simsun count length {length}", _down_up_simsun,
               _down_up_lengths))),
    "prop3.4": (7, (_Check("cd-index relations n={n}", _cd_index, _BRUTE),)),
    "cor3.5": (10, (_Check("simsun descent polynomial n={n}", _simsun_rec, _upto(
        enumerates=True, rows=lambda n: zip(recurrences.simsun_rows(n, "derivative"),
                                            recurrences.simsun_rows(n, "quadratic")))),)),
    "thm4.2": (16, (_Check("factorization n={n}", _factorization,
                           _upto(start=2, rows=lambda n: transfer.qpow_rows(n))),)),
    "thm4.5": (14, (_PARITY,)),
    "thm4.6": (14, (
        _PARITY._replace(cases=_substituted(lambda upto, n: upto(n)[n])),
        _Check("substituted recursion n={n}", _over_j(recurrences.specialized_recursion_check,
                                                       range(1, 5)),
               _substituted(lambda upto, n: upto(n + 1))))),
    "thm4.11": (9, (_Check("prefix-reversal bijection n={n} m={m}",
                           lambda n, m, rows: rows(), _reversal_cases),)),
    "eq2": (10, (_Check("generating function through order {order}",
                        recurrences.egf_check, lambda maxn, *_: [{"order": maxn}]),)),
    "eq-fn0": (20, (_Check("derivative route matches recursion n={n}", _derivative_route,
                           _upto(rows=lambda n: zip(recurrences.faa_di_bruno_rows(n),
                                                    recurrences.quadratic_tq_rows(n)))),)),
    "conj4.10": (11, (_Check("binomial criterion n={n}", divisibility.verify_conj410,
                             _BRUTE, finding=True),)),
    "conj5.1": (200, (_Check("log-concave n={n}", _log_concave,
                             _upto(rows=lambda n: recurrences.five_term_rows(n)), finding=True),)),
    "conj5.2": (10, (_Check("q-gamma expansion n={n}", _q_gamma,
                            _upto(rows=lambda n: transfer.tq_rows(n)), finding=True),)),
    "conj5.3": (10, (_Check("two-sided expansion n={n}", _two_sided, _BRUTE,
                            finding=True),)),
    "equidist": (7, (_Check("alternating descents match triple-pattern class n={n}",
                            _equidist, _BRUTE),)),
    "double-count": (7, (_Check("insertion double count n={n}",
                                permutations.double_count_check, _upto(brute=True)),)),
    "qrec": (10, (_vs_oracle("quadratic recurrence matches oracle n={n}", "quadratic_tq",
                             "brute_qalt", "quadratic"),)),
    "qfact": (30, (
        _Check("Pochhammer factor orders n={n}", divisibility.check_pochhammer_orders),
        _Check("G_n as a cyclotomic product n={n}", _gn_cyclotomic),
        _Check("Foata factors k={k}", _foata,
               lambda maxn, *_: [{"k": k} for k in range(1, (maxn - 1) // 2 + 1)]),
        _Check("E^_n(1) is the odd part of n! n={n}", _odd_part,
               _upto(start=2, rows=lambda n: transfer.qpow_rows(n))))),
    "theta": (8, (_Check("theta involution n={n}", permutations.theta_check,
                         _upto(brute=True)),)),
    "gamma-col": (12, (_Check("gamma column identity n={n}", _gamma_column),)),
    "transfer": (20, (
        _vs_count("five-term recurrence matches pattern count n={n}", "five_term",
                  lambda n: zip(recurrences.five_term_rows(n), transfer.t_rows(n))),
        _vs_count("derivative route matches pattern count n={n}", "faa_di_bruno_altmaj",
                  lambda n: zip(recurrences.faa_di_bruno_rows(n), transfer.qpow_rows(n))),
        _vs_count("quadratic recurrence matches pattern count n={n}", "quadratic_tq",
                  lambda n: zip(recurrences.quadratic_tq_rows(n), transfer.tq_rows(n))))),
}


def run(token: str, max_n: int | None = None, *, brute_max: int = DEFAULT_BRUTE_MAX,
        jobs: int = 1) -> list[ResultRow]:
    """The rows of token's suite for n up to max_n (the token's default
    when None), enumerating at most brute_max letters with jobs workers;
    a range in which the suite has no case is a UsageError."""
    if token not in SUITES:
        raise UsageError(f"unknown token {token!r}; choose from {', '.join(SUITES)}")
    default_max, suite = SUITES[token]
    maxn = default_max if max_n is None else max_n
    if maxn < 1:
        raise UsageError("--max-n must be at least 1")
    rows = []
    passes: dict = {}  # the passes this run's families share
    for check in suite:
        for case in check.cases(maxn, brute_max, jobs, passes):
            name = check.name.format_map(case)
            try:
                cr = check.run(**case)
            except UsageError:  # LimitExceeded included
                raise
            except (ArithmeticError, ValueError) as exc:
                rows.append(_row(name, False, witness=str(exc)))
                continue
            rows.append(_row(name, cr.ok, witness=cr.witness, finding=check.finding))
    if not rows:  # a run that checked nothing must not read as a pass
        raise UsageError(f"{token} has no case up to --max-n {maxn} and --brute-max {brute_max}")
    return rows
