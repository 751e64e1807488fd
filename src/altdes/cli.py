"""Command-line surface: compute tables, run the verification suites of
altdes.checks, emit reports.

Every invocation produces a Report (command, parameters, result rows,
elapsed milliseconds) rendered as text, JSON, or CSV.  Exit status is 0
when every row passes, 1 when any row fails or a conjecture check comes
back negative, and 2 on usage errors (UsageError, LimitExceeded) and
unwritable output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time
from typing import Sequence

from . import checks, divisibility, gamma, oracle, recurrences, transfer
from .oracle import DEFAULT_BRUTE_MAX
from .polynomials import BiPolyTQ, IntPoly
from .reporting import ResultRow, UsageError, _row

ORACLE_STATS = ("altmaj", "altdes", "maj", "des3")
COMPUTE_TABLES = ("alt", "simsun", "gamma", "two-sided")


# ---------------------------------------------------------------------------
# report plumbing

class Report:
    __slots__ = ("command", "parameters", "results", "elapsed_ms")

    def __init__(self, command: str, parameters: dict, results: list[ResultRow]):
        self.command = command
        self.parameters = parameters
        self.results = results
        self.elapsed_ms = 0

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


def _value_row(name: str, p: IntPoly | BiPolyTQ, *, tvar: str = "t",
               qvar: str = "q") -> ResultRow:
    if isinstance(p, BiPolyTQ):
        return ResultRow(name, "pass", value=ser_bipoly(p),
                         display=p.pretty(tvar, qvar))
    return ResultRow(name, "pass", value=ser_poly(p), display=p.pretty(tvar))


# ---------------------------------------------------------------------------
# subcommand dispatch

def _cmd_compute(args: argparse.Namespace) -> Report:
    n = args.n
    if args.q and args.table not in ("alt", "gamma"):
        raise UsageError("--q applies only to alt and gamma tables")
    needs_positive = args.table == "simsun" or (args.table == "gamma" and args.q)
    if n < (1 if needs_positive else 0):
        raise UsageError("--n out of range")
    if args.table == "gamma" and n < 1:
        raise UsageError("n must be positive")  # in gamma_rec's words, as before
    params: dict = {"table": args.table, "n": n}
    if args.table in ("alt", "gamma"):
        params["q"] = args.q
    if args.table == "alt":
        name, p = ((f"alt n={n} (t,q)", transfer.alt_tq(n)) if args.q
                   else (f"alt n={n}", recurrences.five_term(n)))
        rows = [_value_row(name, p)]
    elif args.table == "simsun":
        rows = [_value_row(f"simsun n={n}", recurrences.simsun_rec(n))]
    elif args.table == "gamma":
        if args.q:
            rows = [_value_row(f"qgamma n={n} k={k}", g, tvar="q")
                    for k, g in enumerate(gamma.q_gamma_extract(transfer.alt_tq(n), n))]
        else:
            rows = [_value_row(f"gamma n={n}", recurrences.gamma_rec(n), tvar="x")]
    else:  # two-sided
        A = oracle.brute_two_sided(n, brute_max=args.brute_max, jobs=args.jobs)
        rows = [_value_row(f"two-sided n={n}", A, tvar="s", qvar="t")]
    return Report("compute", params, rows)


def _cmd_factor(args: argparse.Namespace) -> Report:
    n = args.n
    if n < 2:
        raise UsageError("--n must be at least 2")
    try:
        e_hat = divisibility.extract_Ehat(n, transfer._last(transfer.qpow_rows(n), None))
    except ArithmeticError as exc:
        return Report("factor", {"n": n},
                      [_row("e_hat", False, witness=str(exc))])
    rows = [
        _value_row("g_n", divisibility.build_Gn(n), tvar="q"),
        _value_row("e_hat", e_hat, tvar="q"),
        *(_row(k, w is None, witness=w)
          for k, w in divisibility.e_hat_claims(n, e_hat).items()),
    ]
    return Report("factor", {"n": n}, rows)


def _cmd_verify(args: argparse.Namespace) -> Report:
    maxn = args.max_n if args.max_n is not None else checks.SUITES[args.token][0]
    rows = checks.run(args.token, maxn, brute_max=args.brute_max, jobs=args.jobs)
    params = {"token": args.token, "max_n": maxn,
              "brute_max": args.brute_max, "jobs": args.jobs}
    return Report("verify", params, rows)


def _cmd_oracle(args: argparse.Namespace) -> Report:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    ms = oracle.stat_multiset(args.n, args.stat, brute_max=args.brute_max,
                              jobs=args.jobs)
    var = "q" if args.stat in ("altmaj", "maj") else "t"
    rows = [_value_row(f"{args.stat} n={args.n}", ms.polynomial(), tvar=var)]
    return Report("oracle", {"n": args.n, "stat": args.stat,
                             "brute_max": args.brute_max, "jobs": args.jobs}, rows)


_COMMANDS = {"compute": _cmd_compute, "factor": _cmd_factor, "verify": _cmd_verify,
             "oracle": _cmd_oracle}


# ---------------------------------------------------------------------------
# rendering

def _render_text(report: Report) -> str:
    lines = []
    if report.command == "compute" and len(report.results) == 1:
        lines.append(report.results[0].display)  # a value row always has one
    elif report.command != "verify":
        for r in report.results:
            lines.append(f"{r.name}: {r.status}" if r.display is None
                         else f"{r.name} = {r.display}")
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
    import json

    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _render_csv(report: Report) -> str:
    import csv

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
    p_verify.add_argument("token", choices=checks.SUITES)
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
        if args.brute_max is None:
            args.brute_max = _env_brute_max()
        if args.brute_max < 1:
            raise UsageError("--brute-max must be at least 1")
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        t0 = time.perf_counter()
        report = _COMMANDS[args.command](args)
    except UsageError as exc:  # LimitExceeded included
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
