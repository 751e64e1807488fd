"""The verify registry: each token of `altdes verify` is a suite of checks.

A check lists its cases for a largest n, names one row per case, and
runs one function per case that returns a witness, or None when the
property holds.  run(token, max_n) runs a token's suite and returns its
rows in order; the command line renders them, and the acceptance tests
assert that they pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import divisibility, gamma, oracle, permutations, recurrences
from .gamma import ExpansionFailed
from .oracle import DEFAULT_BRUTE_MAX
from .polynomials import IntPoly, NCPoly, gamma_expand, shape_predicates
from .reporting import CheckResult, ResultRow, UsageError, _row


@dataclass(frozen=True)
class _Ctx:
    brute_max: int
    jobs: int


def _upto(*, start: int = 1, step: int = 1, brute: bool = False):
    """Cases n = start, start + step, ... up to --max-n, and up to
    --brute-max as well when brute is set."""
    def cases(maxn: int, ctx: _Ctx) -> list[dict]:
        top = min(maxn, ctx.brute_max) if brute else maxn
        return [{"n": n} for n in range(start, top + 1, step)]
    return cases


@dataclass(frozen=True)
class _Check:
    """One family of rows of a verify token.

    cases(maxn, ctx) lists the cases as keyword dicts, name is formatted
    with each case's fields, and run(ctx, **case) returns a witness, or
    None when the property holds.  A failure is a finding when the
    property is a conjecture; an ArithmeticError or ValueError raised by
    run is always a failure, with the error message as its witness, except
    a usage error, which ends the command.
    """

    name: str
    run: Callable[..., str | None]
    cases: Callable[[int, _Ctx], list[dict]] = _upto()
    finding: bool = False


class _Suite:
    """The checks of one token, run in order as suite(maxn, ctx)."""

    def __init__(self, *checks: _Check):
        self.checks = checks

    def __call__(self, maxn: int, ctx: _Ctx) -> list[ResultRow]:
        rows = []
        for check in self.checks:
            for case in check.cases(maxn, ctx):
                name = check.name.format_map(case)
                try:
                    witness = check.run(ctx, **case)
                except UsageError:  # LimitExceeded included
                    raise
                except (ArithmeticError, ValueError) as exc:
                    rows.append(_row(name, False, witness=str(exc)))
                    continue
                rows.append(_row(name, witness is None, witness=witness,
                                 finding=check.finding))
        return rows


def _witness(cr: CheckResult) -> str | None:
    """A library check's witness; a failure without one still fails."""
    return None if cr.ok else cr.witness or ""


def _over_j(check: Callable[[int, int], CheckResult], n: int, js: range) -> str | None:
    bad = []
    for j in js:
        cr = check(n, j)
        if not cr.ok:
            bad.append(cr.witness or f"j={j}")
    return "; ".join(bad) or None


def _five_term_vs_oracle(ctx: _Ctx, n: int) -> str | None:
    ok = recurrences.five_term(n) == oracle.brute_alt_eulerian(
        n, brute_max=ctx.brute_max, jobs=ctx.jobs)
    return None if ok else f"five-term recurrence disagrees at n={n}"


def _convolution(ctx: _Ctx, n: int) -> str | None:
    return _witness(recurrences.chebikin_check(n))


def _walked(maxn: int, ctx: _Ctx) -> list[dict]:
    """Cases n = 1..maxn sharing one five-term walk, for a check that
    reads row n once and in ascending order: the walk keeps one row,
    where the shared table would keep rows 0..maxn for the process."""
    walk = recurrences.FiveTermWalk()
    return [{"n": n, "walk": walk} for n in range(1, maxn + 1)]


def _gamma_nonneg(ctx: _Ctx, n: int, walk: recurrences.FiveTermWalk) -> str | None:
    f = walk.row(n)
    sh = shape_predicates(f)
    problems = []
    if sh.palindromic_center is None:
        problems.append("not palindromic")
    if not sh.unimodal:
        problems.append("not unimodal")
    if any(g < 0 for g in gamma_expand(f, n).coeffs):
        problems.append("negative gamma entry")
    return "; ".join(problems) or None


def _simsun_relation(ctx: _Ctx, n: int) -> str | None:
    return _witness(gamma.simsun_relation_check(n))


def _minus_one(ctx: _Ctx, n: int) -> str | None:
    ok = recurrences.five_term(n)(-1) == recurrences.euler_numbers(n)[n]
    return None if ok else f"five_term({n})(-1) != E_{n}"


def _down_up_lengths(maxn: int, ctx: _Ctx) -> list[dict]:
    return [{"length": k} for k in (2, 4, 6) if k <= ctx.brute_max]


def _down_up_simsun(ctx: _Ctx, length: int) -> str | None:
    e = recurrences.euler_numbers(length + 1)[length + 1]
    expected, rem = divmod(e, 2 ** (length // 2))
    got = oracle.down_up_simsun_count(length, brute_max=ctx.brute_max)
    return None if rem == 0 and got == expected else f"count {got}, expected {expected}"


_CD_IMAGES = {"c": NCPoly({"a": 1, "b": 1}), "d": NCPoly({"ab": 1, "ba": 1})}


def _cd_index(ctx: _Ctx, n: int) -> str | None:
    cd = oracle.brute_cd_index(n, brute_max=ctx.brute_max)
    tr = gamma.cd_transform(cd.phi)
    bad = []
    if cd.psi != cd.phi.substitute(_CD_IMAGES):
        bad.append("descent-set index")
    if cd.psi_hat != tr.phi_hat.substitute(_CD_IMAGES):
        bad.append("alternating-descent-set index")
    if tr.alt_poly != recurrences.five_term(n):
        bad.append("alternating descent polynomial")
    if cd.phi.eval_commutative(
            {"c": IntPoly.one(), "d": IntPoly((1, 1))}) != recurrences.gamma_rec(n):
        bad.append("gamma vector link")
    return "; ".join(bad) or None


def _simsun_rec(ctx: _Ctx, n: int) -> str | None:
    r1 = recurrences.simsun_rec(n, "derivative")
    bad = []
    if r1 != recurrences.simsun_rec(n, "quadratic"):
        bad.append("the two recurrences disagree")
    if r1(1) != recurrences.euler_numbers(n + 1)[n + 1]:
        bad.append(f"total count is not E_{n + 1}")
    if n <= ctx.brute_max and r1 != oracle.brute_simsun(
            n, brute_max=ctx.brute_max, jobs=ctx.jobs):
        bad.append("oracle disagrees")
    return "; ".join(bad) or None


def _factorization(ctx: _Ctx, n: int) -> str | None:
    f = divisibility.extract_Ehat(n)
    bad = []
    if not f.verdicts.e_hat_palindromic:
        bad.append("reduced factor not palindromic")
    if not f.verdicts.constant_term_is_euler:
        bad.append("constant term is not the zigzag number")
    cr = divisibility.check_thm42(n)
    if not cr.ok:
        bad.append(cr.witness or "factor order too small")
    return "; ".join(bad) or None


def _parity(ctx: _Ctx, n: int) -> str | None:
    return _over_j(divisibility.check_qj_parity, n, range(5))


def _substituted_recursion(ctx: _Ctx, n: int) -> str | None:
    return _over_j(recurrences.specialized_recursion_check, n, range(1, 5))


def _reversal_cases(maxn: int, ctx: _Ctx) -> list[dict]:
    return [{"n": n, "m": m} for n in range(2, min(maxn, ctx.brute_max) + 1)
            for m in range(1, n // 2 + 1)]


def _prefix_reversal(ctx: _Ctx, n: int, m: int) -> str | None:
    return _witness(divisibility.thm411_bijection_check(n, m, brute_max=ctx.brute_max))


def _whole_order(maxn: int, ctx: _Ctx) -> list[dict]:
    return [{"order": maxn}]


def _series(ctx: _Ctx, order: int) -> str | None:
    return _witness(recurrences.egf_check(order))


def _derivative_route(ctx: _Ctx, n: int) -> str | None:
    ok = recurrences.faa_di_bruno_altmaj(n) == recurrences.alt_at_t_qpow(n, 0)
    return None if ok else f"major-index polynomials disagree at n={n}"


def _binomial_criterion(ctx: _Ctx, n: int) -> str | None:
    return _witness(divisibility.verify_conj410(n, brute_max=ctx.brute_max,
                                                jobs=ctx.jobs))


def _log_concave(ctx: _Ctx, n: int, walk: recurrences.FiveTermWalk) -> str | None:
    ok = shape_predicates(walk.row(n)).log_concave
    return None if ok else f"coefficients not log-concave at n={n}"


def _q_gamma(ctx: _Ctx, n: int) -> str | None:
    p = recurrences.quadratic_tq(n)
    qg = gamma.q_gamma_extract(p, n)
    if qg.reconstruct() != p:
        raise ExpansionFailed("reconstruction mismatch")
    a = recurrences.gamma_rec(n)
    if any(g(1) != (2 ** k) * a[k] for k, g in enumerate(qg.gammas)):
        raise ExpansionFailed("values at q=1 disagree with gamma vector")
    return None if qg.conjecture_holds() else "negative coefficient or missing 1+q factor"


def _two_sided(ctx: _Ctx, n: int) -> str | None:
    A = oracle.brute_two_sided(n, brute_max=ctx.brute_max, jobs=ctx.jobs)
    ext = gamma.two_sided_extract(A)
    if ext.reconstruct() != A or A.at_t1() != recurrences.five_term(n):
        raise ExpansionFailed("reconstruction mismatch")
    return None if ext.nonnegative() else "negative expansion entry"


def _equidist(ctx: _Ctx, n: int) -> str | None:
    left = oracle.stat_multiset(n, "altdes", brute_max=ctx.brute_max, jobs=ctx.jobs)
    right = oracle.brute_des3_first1(n, brute_max=ctx.brute_max, jobs=ctx.jobs)
    return None if left.values == right.values else f"distributions differ at n={n}"


def _double_count(ctx: _Ctx, n: int) -> str | None:
    return _witness(permutations.double_count_check(n))


_PARITY = _Check("one-plus-q order parity n={n}", _parity)
_BRUTE = _upto(brute=True)

# token -> (default max n, suite)
SUITES: dict[str, tuple[int, Callable[[int, _Ctx], list[ResultRow]]]] = {
    "thm2.1": (10, _Suite(_Check("five-term matches oracle n={n}",
                                 _five_term_vs_oracle, _BRUTE))),
    "eq1": (10, _Suite(_Check("convolution identity n={n}", _convolution))),
    "thm3.1": (12, _Suite(_Check("palindromic unimodal gamma-nonnegative n={n}",
                                 _gamma_nonneg, _walked))),
    "thm3.2": (12, _Suite(_Check("gamma vector vs simsun polynomial n={n}",
                                 _simsun_relation))),
    "cor3.3": (13, _Suite(
        _Check("value at -1 equals zigzag count n={n}", _minus_one, _upto(step=2)),
        _Check("down-up simsun count length {length}", _down_up_simsun,
               _down_up_lengths))),
    "prop3.4": (7, _Suite(_Check("cd-index relations n={n}", _cd_index, _BRUTE))),
    "cor3.5": (10, _Suite(_Check("simsun descent polynomial n={n}", _simsun_rec))),
    "thm4.2": (16, _Suite(_Check("factorization n={n}", _factorization, _upto(start=2)))),
    "thm4.5": (14, _Suite(_PARITY)),
    "thm4.6": (14, _Suite(_PARITY, _Check("substituted recursion n={n}",
                                          _substituted_recursion))),
    "thm4.11": (9, _Suite(_Check("prefix-reversal bijection n={n} m={m}",
                                 _prefix_reversal, _reversal_cases))),
    "eq2": (10, _Suite(_Check("generating function through order {order}", _series,
                              _whole_order))),
    "eq-fn0": (20, _Suite(_Check("derivative route matches recursion n={n}",
                                 _derivative_route))),
    "conj4.10": (11, _Suite(_Check("binomial criterion n={n}", _binomial_criterion,
                                   _BRUTE, finding=True))),
    "conj5.1": (200, _Suite(_Check("log-concave n={n}", _log_concave, _walked,
                                   finding=True))),
    "conj5.2": (10, _Suite(_Check("q-gamma expansion n={n}", _q_gamma, finding=True))),
    "conj5.3": (10, _Suite(_Check("two-sided expansion n={n}", _two_sided, _BRUTE,
                                  finding=True))),
    "equidist": (7, _Suite(_Check("alternating descents match triple-pattern class n={n}",
                                  _equidist, _BRUTE))),
    "double-count": (7, _Suite(_Check("insertion double count n={n}", _double_count,
                                      _BRUTE))),
}


def run(token: str, max_n: int | None = None, *, brute_max: int = DEFAULT_BRUTE_MAX,
        jobs: int = 1) -> list[ResultRow]:
    """The rows of token's suite for n up to max_n (the token's default
    when None), enumerating at most brute_max letters with jobs workers."""
    if token not in SUITES:
        raise UsageError(f"unknown token {token!r}; choose from {', '.join(SUITES)}")
    default_max, suite = SUITES[token]
    maxn = default_max if max_n is None else max_n
    if maxn < 1:
        raise UsageError("--max-n must be at least 1")
    return suite(maxn, _Ctx(brute_max=brute_max, jobs=jobs))
