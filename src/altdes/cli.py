"""Command-line surface: compute tables, run verification suites, emit reports.

Every invocation produces a Report (command, parameters, result rows,
elapsed milliseconds) rendered as text, JSON, or CSV.  Exit status is 0
when every row passes, 1 when any row fails or a conjecture check comes
back negative, and 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import divisibility, gamma, oracle, permutations, recurrences
from .oracle import DEFAULT_BRUTE_MAX, LimitExceeded
from .polynomials import BiPolyTQ, IntPoly, NCPoly, gamma_expand, shape_predicates

ORACLE_STATS = ("altmaj", "altdes", "maj", "des3")
COMPUTE_TABLES = ("alt", "simsun", "gamma", "two-sided")


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


def parse_poly_value(value: list) -> IntPoly | BiPolyTQ:
    """Invert ser_poly / ser_bipoly, so JSON values round-trip."""
    if value and isinstance(value[0], dict):
        return BiPolyTQ({(d["t_exp"], d["q_exp"]): d["coeff"] for d in value})
    return IntPoly(value or (0,))


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
# verify handlers

@dataclass(frozen=True)
class _Ctx:
    brute_max: int
    jobs: int


def _v_five_term(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        ok = recurrences.five_term(n) == oracle.brute_alt_eulerian(
            n, brute_max=ctx.brute_max, jobs=ctx.jobs)
        rows.append(_row(f"five-term matches oracle n={n}", ok,
                         witness=f"five-term recurrence disagrees at n={n}"))
    return rows


def _v_convolution(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        cr = recurrences.chebikin_check(n)
        rows.append(_row(f"convolution identity n={n}", cr.ok, witness=cr.witness))
    return rows


def _v_gamma_nonneg(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        f = recurrences.five_term(n)
        sh = shape_predicates(f)
        problems = []
        if sh.palindromic_center is None:
            problems.append("not palindromic")
        if not sh.unimodal:
            problems.append("not unimodal")
        try:
            gv = gamma_expand(f, n)
            if any(g < 0 for g in gv.coeffs):
                problems.append("negative gamma entry")
        except ArithmeticError as exc:
            problems.append(str(exc))
        rows.append(_row(f"palindromic unimodal gamma-nonnegative n={n}",
                         not problems, witness="; ".join(problems) or None))
    return rows


def _v_simsun_relation(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        cr = gamma.simsun_relation_check(n)
        rows.append(_row(f"gamma vector vs simsun polynomial n={n}", cr.ok,
                         witness=cr.witness))
    return rows


def _v_minus_one(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    E = recurrences.euler_numbers(max(maxn, 7) + 1)
    rows = []
    for n in range(1, maxn + 1, 2):
        ok = recurrences.five_term(n)(-1) == E[n]
        rows.append(_row(f"value at -1 equals zigzag count n={n}", ok,
                         witness=f"five_term({n})(-1) != E_{n}"))
    for length in (2, 4, 6):
        if length > ctx.brute_max:
            continue
        expected, rem = divmod(E[length + 1], 2 ** (length // 2))
        got = gamma.down_up_simsun_count(length, brute_max=ctx.brute_max)
        rows.append(_row(f"down-up simsun count length {length}",
                         rem == 0 and got == expected,
                         witness=f"count {got}, expected {expected}"))
    return rows


def _v_cd_index(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    a_plus_b = NCPoly({"a": 1, "b": 1})
    ab_plus_ba = NCPoly({"ab": 1, "ba": 1})
    images = {"c": a_plus_b, "d": ab_plus_ba}
    rows = []
    for n in range(1, min(maxn, ctx.brute_max) + 1):
        cd = oracle.brute_cd_index(n, brute_max=ctx.brute_max)
        tr = gamma.cd_transform(cd.phi)
        bad = []
        if cd.psi != cd.phi.substitute(images):
            bad.append("descent-set index")
        if cd.psi_hat != tr.phi_hat.substitute(images):
            bad.append("alternating-descent-set index")
        if tr.alt_poly != recurrences.five_term(n):
            bad.append("alternating descent polynomial")
        if cd.phi.eval_commutative(
                {"c": IntPoly.one(), "d": IntPoly((1, 1))}) != recurrences.gamma_rec(n):
            bad.append("gamma vector link")
        rows.append(_row(f"cd-index relations n={n}", not bad,
                         witness="; ".join(bad) or None))
    return rows


def _v_simsun_rec(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    eff = min(maxn, ctx.brute_max)
    E = recurrences.euler_numbers(maxn + 1)
    rows = []
    for n in range(1, maxn + 1):
        r1 = recurrences.simsun_rec(n, "derivative")
        r2 = recurrences.simsun_rec(n, "quadratic")
        bad = []
        if r1 != r2:
            bad.append("the two recurrences disagree")
        if r1(1) != E[n + 1]:
            bad.append(f"total count is not E_{n + 1}")
        if n <= eff and r1 != oracle.brute_simsun(
                n, brute_max=ctx.brute_max, jobs=ctx.jobs):
            bad.append("oracle disagrees")
        rows.append(_row(f"simsun descent polynomial n={n}", not bad,
                         witness="; ".join(bad) or None))
    return rows


def _v_factorization(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(2, maxn + 1):
        try:
            f = divisibility.extract_Ehat(n)
        except ArithmeticError as exc:
            rows.append(_row(f"factorization n={n}", False, witness=str(exc)))
            continue
        bad = []
        if not f.verdicts.e_hat_palindromic:
            bad.append("reduced factor not palindromic")
        if not f.verdicts.constant_term_is_euler:
            bad.append("constant term is not the zigzag number")
        cr = divisibility.check_thm42(n)
        if not cr.ok:
            bad.append(cr.witness or "factor order too small")
        rows.append(_row(f"factorization n={n}", not bad,
                         witness="; ".join(bad) or None))
    return rows


def _v_parity(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        bad = []
        for j in range(5):
            cr = divisibility.check_qj_parity(n, j)
            if not cr.ok:
                bad.append(cr.witness or f"j={j}")
        rows.append(_row(f"one-plus-q order parity n={n}", not bad,
                         witness="; ".join(bad) or None))
    return rows


def _v_parity_recursion(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = _v_parity(maxn, ctx)
    for n in range(1, maxn + 1):
        bad = []
        for j in range(1, 5):
            cr = divisibility.check_specialized_recursion(n, j)
            if not cr.ok:
                bad.append(cr.witness or f"j={j}")
        rows.append(_row(f"substituted recursion n={n}", not bad,
                         witness="; ".join(bad) or None))
    return rows


def _v_prefix_reversal(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(2, min(maxn, ctx.brute_max) + 1):
        for m in range(1, n // 2 + 1):
            cr = divisibility.thm411_bijection_check(n, m, brute_max=ctx.brute_max)
            rows.append(_row(f"prefix-reversal bijection n={n} m={m}", cr.ok,
                             witness=cr.witness))
    return rows


def _v_series(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    cr = recurrences.egf_check(maxn)
    return [_row(f"generating function through order {maxn}", cr.ok,
                 witness=cr.witness)]


def _v_derivative_route(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        ok = recurrences.faa_di_bruno_altmaj(n) == recurrences.quadratic_tq(n).at_t1()
        rows.append(_row(f"derivative route matches recursion n={n}", ok,
                         witness=f"major-index polynomials disagree at n={n}"))
    return rows


def _v_binomial_criterion(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, min(maxn, ctx.brute_max) + 1):
        cr = divisibility.verify_conj410(n, brute_max=ctx.brute_max, jobs=ctx.jobs)
        rows.append(_row(f"binomial criterion n={n}", cr.ok, witness=cr.witness,
                         finding=True))
    return rows


def _v_log_concave(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        sh = shape_predicates(recurrences.five_term(n))
        rows.append(_row(f"log-concave n={n}", sh.log_concave,
                         witness=f"coefficients not log-concave at n={n}",
                         finding=True))
    return rows


def _v_q_gamma(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, maxn + 1):
        p = recurrences.quadratic_tq(n)
        try:
            qg = gamma.q_gamma_extract(p, n)
        except ArithmeticError as exc:
            rows.append(_row(f"q-gamma expansion n={n}", False, witness=str(exc)))
            continue
        if qg.reconstruct() != p:
            rows.append(_row(f"q-gamma expansion n={n}", False,
                             witness="reconstruction mismatch"))
            continue
        a = recurrences.gamma_rec(n)
        if any(g(1) != (2 ** k) * a[k] for k, g in enumerate(qg.gammas)):
            rows.append(_row(f"q-gamma expansion n={n}", False,
                             witness="values at q=1 disagree with gamma vector"))
            continue
        rows.append(_row(f"q-gamma expansion n={n}", qg.conjecture_holds(),
                         witness="negative coefficient or missing 1+q factor",
                         finding=True))
    return rows


def _v_two_sided(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, min(maxn, ctx.brute_max) + 1):
        A = oracle.brute_two_sided(n, brute_max=ctx.brute_max, jobs=ctx.jobs)
        try:
            ext = gamma.two_sided_extract(A)
        except ArithmeticError as exc:
            rows.append(_row(f"two-sided expansion n={n}", False, witness=str(exc)))
            continue
        if ext.reconstruct() != A or A.at_t1() != recurrences.five_term(n):
            rows.append(_row(f"two-sided expansion n={n}", False,
                             witness="reconstruction mismatch"))
            continue
        rows.append(_row(f"two-sided expansion n={n}", ext.nonnegative(),
                         witness="negative expansion entry", finding=True))
    return rows


def _v_equidist(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, min(maxn, ctx.brute_max) + 1):
        left = oracle.stat_multiset(n, "altdes", brute_max=ctx.brute_max,
                                    jobs=ctx.jobs)
        right = oracle.brute_des3_first1(n, brute_max=ctx.brute_max)
        rows.append(_row(f"alternating descents match triple-pattern class n={n}",
                         left.values == right.values,
                         witness=f"distributions differ at n={n}"))
    return rows


def _v_double_count(maxn: int, ctx: _Ctx) -> list[ResultRow]:
    rows = []
    for n in range(1, min(maxn, ctx.brute_max) + 1):
        cr = permutations.double_count_check(n)
        rows.append(_row(f"insertion double count n={n}", cr.ok,
                         witness=cr.witness))
    return rows


# token -> (default max n, handler)
VERIFY_HANDLERS: dict[str, tuple[int, Callable[[int, _Ctx], list[ResultRow]]]] = {
    "thm2.1": (10, _v_five_term),
    "eq1": (10, _v_convolution),
    "thm3.1": (12, _v_gamma_nonneg),
    "thm3.2": (12, _v_simsun_relation),
    "cor3.3": (13, _v_minus_one),
    "prop3.4": (7, _v_cd_index),
    "cor3.5": (10, _v_simsun_rec),
    "thm4.2": (16, _v_factorization),
    "thm4.5": (14, _v_parity),
    "thm4.6": (14, _v_parity_recursion),
    "thm4.11": (9, _v_prefix_reversal),
    "eq2": (10, _v_series),
    "eq-fn0": (20, _v_derivative_route),
    "conj4.10": (11, _v_binomial_criterion),
    "conj5.1": (200, _v_log_concave),
    "conj5.2": (10, _v_q_gamma),
    "conj5.3": (10, _v_two_sided),
    "equidist": (7, _v_equidist),
    "double-count": (7, _v_double_count),
}

VERIFY_TOKENS = tuple(VERIFY_HANDLERS)


# ---------------------------------------------------------------------------
# subcommand dispatch

def _cmd_compute(args: argparse.Namespace, ctx: _Ctx) -> Report:
    n = args.n
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
        raise ValueError("--max-n must be at least 1")
    rows = handler(maxn, ctx)
    params = {"token": args.token, "max_n": maxn,
              "brute_max": ctx.brute_max, "jobs": ctx.jobs}
    return Report("verify", params, rows)


def _cmd_oracle(args: argparse.Namespace, ctx: _Ctx) -> Report:
    ms = oracle.stat_multiset(args.n, args.stat, brute_max=ctx.brute_max,
                              jobs=ctx.jobs)
    var = "q" if args.stat in ("altmaj", "maj") else "t"
    rows = [_value_row(f"{args.stat} n={args.n}", ms.polynomial(), tvar=var)]
    return Report("oracle", {"n": args.n, "stat": args.stat,
                             "brute_max": ctx.brute_max, "jobs": ctx.jobs}, rows)


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
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing

def _env_brute_max() -> int:
    raw = os.environ.get("ALTDES_BRUTE_MAX")
    if raw is None:
        return DEFAULT_BRUTE_MAX
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ALTDES_BRUTE_MAX must be an integer, got {raw!r}")


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
            raise ValueError("--brute-max must be at least 1")
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        ctx = _Ctx(brute_max=brute_max, jobs=args.jobs)
        if args.command == "compute":
            if args.q and args.table not in ("alt", "gamma"):
                raise ValueError("--q applies only to alt and gamma tables")
            needs_positive = args.table == "simsun" or (args.table == "gamma" and args.q)
            if args.n < (1 if needs_positive else 0):
                raise ValueError("--n out of range")
            t0 = time.perf_counter()
            report = _cmd_compute(args, ctx)
        elif args.command == "factor":
            if args.n < 2:
                raise ValueError("--n must be at least 2")
            t0 = time.perf_counter()
            report = _cmd_factor(args, ctx)
        elif args.command == "verify":
            t0 = time.perf_counter()
            report = _cmd_verify(args, ctx)
        else:
            if args.n < 0:
                raise ValueError("--n must be nonnegative")
            t0 = time.perf_counter()
            report = _cmd_oracle(args, ctx)
    except (LimitExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    _emit(_RENDERERS[args.format](report), args.out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
