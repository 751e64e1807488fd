"""Command-line surface: compute tables, run verification suites, emit reports.

Every invocation produces a Report (command, parameters, result rows,
elapsed milliseconds) rendered as text, JSON, or CSV.  Exit status is 0
when every row passes, 1 when any row fails or a conjecture check comes
back negative, and 2 on usage errors (UsageError, LimitExceeded) and
unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import divisibility, gamma, oracle, permutations, recurrences
from .gamma import ExpansionFailed
from .oracle import DEFAULT_BRUTE_MAX, LimitExceeded
from .polynomials import BiPolyTQ, IntPoly, NCPoly, gamma_expand, shape_predicates
from .reporting import AltdesError, CheckResult

ORACLE_STATS = ("altmaj", "altdes", "maj", "des3")
COMPUTE_TABLES = ("alt", "simsun", "gamma", "two-sided")


class UsageError(AltdesError, ValueError):
    """A bad argument or setting; the CLI exits 2 on it."""


_USAGE_ERRORS = (UsageError, LimitExceeded)


# ---------------------------------------------------------------------------
# report plumbing

@dataclass(frozen=True)
class ResultRow:
    """One named check or value in a report.

    status is "pass", "fail", or "finding"; "finding" marks a negative
    outcome of a conjecture check (the code worked, the property failed).
    Failing rows always carry a witness.  value holds a serialized
    polynomial: a list of coefficients ascending in the exponent, or for
    bivariate polynomials a list of {t_exp, q_exp, coeff} mappings.
    display is the human-readable rendering used by text output only.
    """

    name: str
    status: str
    witness: str | None = None
    value: list | None = None
    display: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.value is not None:
            d["value"] = self.value
        return d


@dataclass
class Report:
    command: str
    parameters: dict
    results: list[ResultRow] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "results": [r.to_dict() for r in self.results],
            "elapsed_ms": self.elapsed_ms,
        }


def ser_poly(p: IntPoly) -> list[int]:
    return list(p.coeffs)


def ser_bipoly(p: BiPolyTQ) -> list[dict]:
    return [{"t_exp": t, "q_exp": q, "coeff": c} for t, q, c in p.terms()]


def parse_poly(value: list) -> IntPoly:
    """Invert ser_poly, so JSON values round-trip."""
    return IntPoly(value)


def parse_bipoly(value: list) -> BiPolyTQ:
    """Invert ser_bipoly, so JSON values round-trip."""
    return BiPolyTQ({(d["t_exp"], d["q_exp"]): d["coeff"] for d in value})


def _row(name: str, ok: bool, *, witness: str | None = None,
         finding: bool = False) -> ResultRow:
    if ok:
        return ResultRow(name, "pass")
    status = "finding" if finding else "fail"
    return ResultRow(name, status, witness=witness or f"failed: {name}")


def _value_row(name: str, p: IntPoly | BiPolyTQ, *, tvar: str = "t",
               qvar: str = "q") -> ResultRow:
    if isinstance(p, BiPolyTQ):
        return ResultRow(name, "pass", value=ser_bipoly(p),
                         display=p.pretty(tvar, qvar))
    return ResultRow(name, "pass", value=ser_poly(p), display=p.pretty(tvar))


# ---------------------------------------------------------------------------
# verify registry: each token is a suite of checks

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
    """The checks of one token, run in order as handler(maxn, ctx)."""

    def __init__(self, *checks: _Check):
        self.checks = checks

    def __call__(self, maxn: int, ctx: _Ctx) -> list[ResultRow]:
        rows = []
        for check in self.checks:
            for case in check.cases(maxn, ctx):
                name = check.name.format_map(case)
                try:
                    witness = check.run(ctx, **case)
                except _USAGE_ERRORS:
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

# token -> (default max n, handler)
VERIFY_HANDLERS: dict[str, tuple[int, Callable[[int, _Ctx], list[ResultRow]]]] = {
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

VERIFY_TOKENS = tuple(VERIFY_HANDLERS)


# ---------------------------------------------------------------------------
# subcommand dispatch

def _cmd_compute(args: argparse.Namespace, ctx: _Ctx) -> Report:
    n = args.n
    if args.q and args.table not in ("alt", "gamma"):
        raise UsageError("--q applies only to alt and gamma tables")
    needs_positive = args.table == "simsun" or (args.table == "gamma" and args.q)
    if n < (1 if needs_positive else 0):
        raise UsageError("--n out of range")
    if args.table == "gamma" and n < 1:
        raise UsageError("n must be positive")  # in gamma_rec's words, as before
    params: dict = {"table": args.table, "n": n}
    rows: list[ResultRow]
    if args.table == "alt":
        params["q"] = args.q
        if args.q:
            rows = [_value_row(f"alt n={n} (t,q)", recurrences.quadratic_tq(n))]
        else:
            rows = [_value_row(f"alt n={n}", recurrences.five_term(n))]
    elif args.table == "simsun":
        rows = [_value_row(f"simsun n={n}", recurrences.simsun_rec(n))]
    elif args.table == "gamma":
        params["q"] = args.q
        if args.q:
            qg = gamma.q_gamma_extract(recurrences.quadratic_tq(n), n)
            rows = [_value_row(f"qgamma n={n} k={k}", g, tvar="q")
                    for k, g in enumerate(qg.gammas)]
        else:
            rows = [_value_row(f"gamma n={n}", recurrences.gamma_rec(n), tvar="x")]
    else:  # two-sided
        A = oracle.brute_two_sided(n, brute_max=ctx.brute_max, jobs=ctx.jobs)
        rows = [ResultRow(f"two-sided n={n}", "pass", value=ser_bipoly(A),
                          display=A.pretty("s", "t"))]
    return Report("compute", params, rows)


def _cmd_factor(args: argparse.Namespace, ctx: _Ctx) -> Report:
    n = args.n
    if n < 2:
        raise UsageError("--n must be at least 2")
    try:
        f = divisibility.extract_Ehat(n)
    except ArithmeticError as exc:
        return Report("factor", {"n": n},
                      [_row("e_hat", False, witness=str(exc))])
    rows = [
        _value_row("g_n", f.g_n, tvar="q"),
        _value_row("e_hat", f.e_hat, tvar="q"),
        _row("e_hat_palindromic", f.verdicts.e_hat_palindromic,
             witness="reduced factor not palindromic"),
        _row("constant_term_is_euler", f.verdicts.constant_term_is_euler,
             witness="constant term is not the zigzag number"),
    ]
    return Report("factor", {"n": n}, rows)


def _cmd_verify(args: argparse.Namespace, ctx: _Ctx) -> Report:
    default_max, handler = VERIFY_HANDLERS[args.token]
    maxn = args.max_n if args.max_n is not None else default_max
    if maxn < 1:
        raise UsageError("--max-n must be at least 1")
    rows = handler(maxn, ctx)
    params = {"token": args.token, "max_n": maxn,
              "brute_max": ctx.brute_max, "jobs": ctx.jobs}
    return Report("verify", params, rows)


def _cmd_oracle(args: argparse.Namespace, ctx: _Ctx) -> Report:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    ms = oracle.stat_multiset(args.n, args.stat, brute_max=ctx.brute_max,
                              jobs=ctx.jobs)
    var = "q" if args.stat in ("altmaj", "maj") else "t"
    rows = [_value_row(f"{args.stat} n={args.n}", ms.polynomial(), tvar=var)]
    return Report("oracle", {"n": args.n, "stat": args.stat,
                             "brute_max": ctx.brute_max, "jobs": ctx.jobs}, rows)


_COMMANDS = {"compute": _cmd_compute, "factor": _cmd_factor, "verify": _cmd_verify,
             "oracle": _cmd_oracle}


# ---------------------------------------------------------------------------
# rendering

def _render_text(report: Report) -> str:
    lines = []
    if report.command == "compute":
        for r in report.results:
            if len(report.results) == 1:
                lines.append(r.display or r.status)
            else:
                lines.append(f"{r.name} = {r.display}")
    elif report.command in ("factor", "oracle"):
        for r in report.results:
            if r.display is not None:
                lines.append(f"{r.name} = {r.display}")
            else:
                lines.append(f"{r.name}: {r.status}")
    else:
        counts = {"pass": 0, "fail": 0, "finding": 0}
        for r in report.results:
            counts[r.status] += 1
            line = f"{r.status.upper():7s} {r.name}"
            if r.witness is not None:
                line += f"  [{r.witness}]"
            lines.append(line)
        summary = f"{counts['pass']}/{len(report.results)} passed"
        if counts["fail"]:
            summary += f", {counts['fail']} failed"
        if counts["finding"]:
            summary += f", {counts['finding']} findings"
        lines.append(summary)
    return "\n".join(lines) + "\n"


def _render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.command == "verify":
        writer.writerow(["name", "status", "witness"])
        for r in report.results:
            writer.writerow([r.name, r.status, r.witness or ""])
        return buf.getvalue()
    bivariate = any(r.value and isinstance(r.value[0], dict)
                    for r in report.results)
    if bivariate:
        writer.writerow(["name", "t_exp", "q_exp", "coefficient"])
    else:
        writer.writerow(["name", "exponent", "coefficient"])
    for r in report.results:
        if r.value is None:
            continue
        if r.value and isinstance(r.value[0], dict):
            for term in r.value:
                writer.writerow([r.name, term["t_exp"], term["q_exp"],
                                 term["coeff"]])
        else:
            for e, c in enumerate(r.value):
                writer.writerow([r.name, e, c])
    return buf.getvalue()


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or to a temporary file beside out that then
    replaces out, so a failed write leaves out as it was; an error names
    out, not the temporary file."""
    if out is None:
        sys.stdout.write(text)
        return
    tmp = f"{out}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from exc
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)  # already gone after a successful replace


# ---------------------------------------------------------------------------
# argument parsing

def _env_brute_max() -> int:
    raw = os.environ.get("ALTDES_BRUTE_MAX")
    if raw is None:
        return DEFAULT_BRUTE_MAX
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"ALTDES_BRUTE_MAX must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--brute-max", type=int, default=None, metavar="K",
                        help="largest n the brute-force oracle will enumerate "
                             f"(default {DEFAULT_BRUTE_MAX}, or ALTDES_BRUTE_MAX)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    common.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="worker processes for brute-force enumeration")

    parser = argparse.ArgumentParser(
        prog="altdes",
        description="Alternating descent polynomials: exact tables, "
                    "factorizations, and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common],
                               help="print a polynomial table")
    p_compute.add_argument("table", choices=COMPUTE_TABLES)
    p_compute.add_argument("--n", type=int, required=True)
    p_compute.add_argument("--q", action="store_true",
                           help="q-refined variant (alt and gamma only)")

    p_factor = sub.add_parser("factor", parents=[common],
                              help="factor the alternating major-index polynomial")
    p_factor.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("token", choices=VERIFY_TOKENS)
    p_verify.add_argument("--max-n", type=int, default=None, metavar="N",
                          help="largest n to check (per-token default)")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="brute-force statistic distribution")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--stat", choices=ORACLE_STATS, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        brute_max = args.brute_max if args.brute_max is not None else _env_brute_max()
        if brute_max < 1:
            raise UsageError("--brute-max must be at least 1")
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        t0 = time.perf_counter()
        report = _COMMANDS[args.command](args, _Ctx(brute_max=brute_max, jobs=args.jobs))
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    try:
        _emit(_RENDERERS[args.format](report), args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
