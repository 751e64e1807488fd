"""The oracle-n11 session: recurrences against brute force in one process.

Usage: python session.py JOBS STAT:N [STAT:N ...]

Runs each comparison through the public altdes API, in the order given,
and prints one line per comparison: "STAT:N ok", "STAT:N mismatch" or
"STAT:N error ...".  Names are looked up on the package at call time, so
wrappers installed on it are seen.
"""

from __future__ import annotations

import sys

import altdes


def _alt(n: int, jobs: int) -> bool:
    return altdes.five_term(n) == altdes.brute_alt_eulerian(n, jobs=jobs)


def _qalt(n: int, jobs: int) -> bool:
    return altdes.quadratic_tq(n) == altdes.brute_qalt(n, jobs=jobs)


def _simsun(n: int, jobs: int) -> bool:
    return (altdes.simsun_rec(n, "derivative") == altdes.simsun_rec(n, "quadratic")
            == altdes.brute_simsun(n, jobs=jobs))


CHECKS = {"alt": _alt, "qalt": _qalt, "simsun": _simsun}


def main(argv: list[str]) -> int:
    jobs = int(argv[0])
    for op in argv[1:]:
        stat, n = op.split(":")
        try:
            ok = CHECKS[stat](int(n), jobs)
        except Exception as exc:  # one failed comparison must not hide the rest
            print(f"{op} error {type(exc).__name__}: {exc}", flush=True)
        else:
            print(f"{op} {'ok' if ok else 'mismatch'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
