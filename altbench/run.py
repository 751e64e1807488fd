"""The altdes benchmark.

    python3 altbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 altbench/run.py --workload all --seed N --seconds S
    python3 altbench/run.py --record-golden

Drives the program only from outside, as one client in a closed loop:
each operation of a pass starts after the previous one ends, every
command is a fresh `python -m altdes.cli` process (or, for oracle-n11,
one fresh interpreter calling the public API), and no more than
os.cpu_count() worker processes are ever asked for.

--trace 0 repeats untraced passes while the next one still fits in
S seconds and reports the end-to-end metrics as medians over passes.
--trace 1 runs one untraced and one traced pass in the same order and
reports the per-layer metrics.  Every command's exit status and text
output are checked against golden.json; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, NameStats, aggregate, layer_of
from workloads import VERIFY_TOKENS, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".altbench_work"
GOLDEN = BENCH / "golden.json"

SETUP_LAUNCHES = 8        # at most this many timed interpreter start-ups per pass
COMMAND_TIMEOUT = 60.0    # seconds for one command or one session
RUN_LIMIT = 160.0         # seconds; operations not started by then fail

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


def jobs() -> int:
    return min(2, os.cpu_count() or 1)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ALTDES_BRUTE_MAX", None)  # defaults must mean defaults
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# one process

@dataclass
class Finished:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float        # user + sys, including the children it reaped
    maxrss_mb: float    # largest resident set of it or any reaped child
    timed_out: bool


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def launch(argv: list[str], timeout: float) -> Finished:
    """Run argv in its own process group, reaping it with wait4 so that
    its resource usage is its own; the group is killed on timeout and
    after exit, so nothing it started outlives it."""
    timed_out = threading.Event()
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT, start_new_session=True)

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        err.seek(0)
        stderr = err.read()
    return Finished(proc.returncode, out, stderr, wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    timed_out.is_set())


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing altdes.cli, numpy
    included; also asserts the import came from this checkout."""
    f = launch([sys.executable, "-c",
                "import altdes, altdes.cli; print(altdes.__file__)"],
               COMMAND_TIMEOUT)
    if f.returncode != 0:
        raise SetupError(f"cannot import altdes from {SRC}: "
                         f"{f.stderr.decode(errors='replace').strip()}")
    where = Path(f.stdout.decode().strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"altdes was imported from {where}, outside {SRC}")
    return f.wall_s


# ---------------------------------------------------------------------------
# one pass

@dataclass
class OpResult:
    op: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    wall_s: float = 0.0       # summed over the pass's own processes
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    ops: list[OpResult] = field(default_factory=list)
    op_wall_s: dict[str, float] = field(default_factory=dict)
    span_files: list[str] = field(default_factory=list)

    def add(self, f: Finished) -> None:
        self.wall_s += f.wall_s
        self.cpu_s += f.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, f.maxrss_mb)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _why(f: Finished) -> str:
    if f.timed_out:
        return "timed out"
    return f"exit {f.returncode}: " + f.stderr.decode(errors="replace").strip()[-300:]


def check_command(op: str, f: Finished, golden: dict) -> OpResult:
    want = golden.get(op)
    if want is None:
        return OpResult(op, False, "no golden output recorded")
    if f.timed_out or f.returncode != want["exit"]:
        return OpResult(op, False, _why(f))
    if digest(f.stdout) != want["sha256"]:
        return OpResult(op, False, "text output differs from golden")
    return OpResult(op, True)


def check_session(order: list[str], f: Finished) -> list[OpResult]:
    said = dict(line.split(" ", 1) for line in f.stdout.decode().splitlines()
                if " " in line)
    results = []
    for op in order:
        status = said.get(op)
        if status == "ok" and f.returncode == 0 and not f.timed_out:
            results.append(OpResult(op, True))
        else:
            results.append(OpResult(op, False, status or _why(f)))
    return results


def run_pass(wl: Workload, order: list[str], traced: bool, golden: dict,
             deadline: float, setups: list[float] | None = None) -> PassResult:
    """Run every operation once, in order.  With `setups`, also time
    up to SETUP_LAUNCHES interpreter start-ups, spread between the
    commands (or, for a session, before it) so that they sample the
    same stretch of time as the pass; they are not part of its wall."""
    res = PassResult()
    if wl.kind == "cli":
        stride = -(-len(order) // SETUP_LAUNCHES)  # ceiling division
        for k, op in enumerate(order):
            if setups is not None and k % stride == 0:
                setups.append(measure_setup())
            remaining = deadline - perf_counter()
            if remaining <= 0:
                res.ops.append(OpResult(op, False, "not started: run time limit"))
                continue
            spans = WORK / f"spans-{k}.bin"
            prefix = ([str(BENCH / "tracer.py"), str(spans), "cli"] if traced
                      else ["-m", "altdes.cli"])
            f = launch([sys.executable, *prefix, *op.split()],
                       min(COMMAND_TIMEOUT, remaining))
            res.add(f)
            res.op_wall_s[op] = f.wall_s
            res.ops.append(check_command(op, f, golden))
            if traced and spans.exists():
                res.span_files.append(str(spans))
    else:
        if setups is not None:
            setups += [measure_setup() for _ in range(SETUP_LAUNCHES)]
        spans = WORK / "spans-session.bin"
        prefix = ([str(BENCH / "tracer.py"), str(spans), "session"] if traced
                  else [str(BENCH / "session.py")])
        remaining = deadline - perf_counter()
        f = launch([sys.executable, *prefix, str(jobs()), *order],
                   max(min(COMMAND_TIMEOUT, remaining), 1.0))
        res.add(f)
        res.ops = check_session(order, f)
        if traced and spans.exists():
            res.span_files.append(str(spans))
    return res


# ---------------------------------------------------------------------------
# metrics

def per_layer(stats: dict[str, NameStats], plain: PassResult,
              traced: PassResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, plus the per-token walls of
    the untraced pass run in the same order."""
    def st(name: str) -> NameStats:
        return stats.get(name, NameStats())

    def total(attr: str, pred) -> float:
        return sum(getattr(s, attr) for n, s in stats.items() if pred(n))

    def layer_self(layer: str) -> float:
        return total("self_s", lambda n: layer_of(n) == layer)

    m: dict[str, tuple[float, str]] = {}
    m["cli.main.self_s"] = (st("cli.main").self_s, "s")
    for tok in VERIFY_TOKENS:
        wall = sum(w for op, w in plain.op_wall_s.items()
                   if op.split()[:2] == ["verify", tok])
        m[f"cli.verify.{tok}.wall_s"] = (wall, "s")

    oracle_self = layer_self("oracle")
    rows = total("outer_work", lambda n: layer_of(n) == "oracle")
    m["oracle.self_s"] = (oracle_self, "s")
    m["oracle.calls"] = (total("entries", lambda n: layer_of(n) == "oracle"), "count")
    m["oracle.rows_enumerated"] = (rows, "count")
    m["oracle.rows_per_s"] = (rows / oracle_self if oracle_self else 0.0, "1/s")
    for fn in ("stat_multiset", "brute_qalt", "brute_simsun", "brute_two_sided",
               "brute_cd_index", "brute_des3_first1", "iter_perm_arrays"):
        m[f"oracle.{fn}.self_s"] = (st(f"oracle.{fn}").self_s, "s")

    m["recurrences.self_s"] = (layer_self("recurrences"), "s")
    for fn in ("five_term", "quadratic_tq", "faa_di_bruno_derivatives",
               "simsun_rec", "specialized_recursion_check", "egf_check",
               "chebikin_check"):
        m[f"recurrences.{fn}.self_s"] = (st(f"recurrences.{fn}").self_s, "s")
    m["recurrences.faa_di_bruno_derivatives.calls"] = (
        st("recurrences.faa_di_bruno_derivatives").calls, "count")

    mul = st("polynomials.IntPoly.__mul__")
    div = st("polynomials.IntPoly.div_binomial")
    m["polynomials.self_s"] = (layer_self("polynomials"), "s")
    m["polynomials.intpoly_mul.calls"] = (mul.calls, "count")
    m["polynomials.intpoly_mul.self_s"] = (mul.self_s, "s")
    m["polynomials.intpoly_mul.coeff_products"] = (mul.work, "count")
    m["polynomials.intpoly_mul.large_calls"] = (mul.large_calls, "count")
    m["polynomials.intpoly_mul.large_self_s"] = (mul.large_self_s, "s")
    m["polynomials.div_binomial.calls"] = (div.calls, "count")
    m["polynomials.div_binomial.self_s"] = (div.self_s, "s")
    m["polynomials.exact_div.self_s"] = (st("polynomials.exact_div").self_s, "s")
    m["polynomials.bipoly.self_s"] = (
        total("self_s", lambda n: n.startswith("polynomials.BiPolyTQ.")), "s")
    m["polynomials.truncseries.self_s"] = (
        total("self_s", lambda n: n.startswith("polynomials.TruncSeries.")), "s")

    m["divisibility.self_s"] = (layer_self("divisibility"), "s")
    for fn in ("order_of_factor", "cyclotomic"):
        m[f"divisibility.{fn}.calls"] = (st(f"divisibility.{fn}").calls, "count")
    for fn in ("binomial_criterion", "thm411_bijection_check"):
        m[f"divisibility.{fn}.self_s"] = (st(f"divisibility.{fn}").self_s, "s")

    m["gamma.self_s"] = (layer_self("gamma"), "s")
    for fn in ("q_gamma_extract", "two_sided_extract", "cd_transform"):
        m[f"gamma.{fn}.self_s"] = (st(f"gamma.{fn}").self_s, "s")

    m["permutations.self_s"] = (layer_self("permutations"), "s")
    m["permutations.double_count_check.self_s"] = (
        st("permutations.double_count_check").self_s, "s")
    m["permutations.cd_word.calls"] = (st("permutations.cd_word").calls, "count")

    covered = sum(layer_self(layer) for layer in LAYERS)
    m["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    m["trace.coverage"] = (covered / traced.wall_s, "ratio")
    return m


# ---------------------------------------------------------------------------
# runs

@dataclass
class RunResult:
    ops: list[OpResult]
    metrics: dict[str, tuple[float, str]]


def measure_run(wl: Workload, seed: int, seconds: float, golden: dict) -> RunResult:
    """Untraced passes while the next one still fits in `seconds`."""
    start = perf_counter()
    rng = random.Random(seed)
    deadline = start + RUN_LIMIT
    measure_setup()  # untimed: fills the file cache and checks the import
    passes: list[PassResult] = []
    setups: list[float] = []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(wl, wl.order(rng), False, golden, deadline, setups))
        now = perf_counter()
        if (now - start) + (now - t0) > seconds:
            break
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setups),
    }
    return RunResult([op for p in passes for op in p.ops],
                     {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


def trace_run(wl: Workload, seed: int, golden: dict) -> RunResult:
    """One untraced and one traced pass, in the same order."""
    deadline = perf_counter() + RUN_LIMIT
    order = wl.order(random.Random(seed))
    measure_setup()
    plain = run_pass(wl, order, False, golden, deadline)
    traced = run_pass(wl, order, True, golden, deadline)
    stats = aggregate(traced.span_files)
    return RunResult(plain.ops + traced.ops, per_layer(stats, plain, traced))


def report(label: str, res: RunResult) -> None:
    failed = [op for op in res.ops if not op.ok]
    for op in failed:
        print(f"FAILED {label} {op.op}: {op.detail}")
    ratio = len(failed) / len(res.ops)
    print(f"{label} failed_ratio {ratio:.4f} fraction ({len(failed)}/{len(res.ops)})")
    for name, (value, unit) in res.metrics.items():
        print(f"{label} {name} {value:.6g} {unit}")


def result_line(runs: dict[str, RunResult]) -> str:
    ops = [op for r in runs.values() for op in r.ops]
    failed = sum(not op.ok for op in ops)
    single = len(runs) == 1
    metrics = {(name if single else f"{label}.{name}"): {"value": v, "unit": u}
               for label, r in runs.items() for name, (v, u) in r.metrics.items()}
    return json.dumps({"correct": failed == 0, "attempted": len(ops),
                       "failed": failed, "metrics": metrics})


def record_golden() -> None:
    golden = {}
    for wl in WORKLOADS.values():
        if wl.kind != "cli":
            continue
        for op in wl.operations:
            f = launch([sys.executable, "-m", "altdes.cli", *op.split()],
                       COMMAND_TIMEOUT)
            if f.timed_out:
                raise SetupError(f"{op}: timed out")
            golden[op] = {"exit": f.returncode, "sha256": digest(f.stdout)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the program as it is")
    args = parser.parse_args(argv)
    if not (SRC / "altdes" / "__init__.py").is_file():
        print(f"error: no altdes package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        golden = json.loads(GOLDEN.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = (0, 1) if args.workload == "all" else (args.trace,)
        runs: dict[str, RunResult] = {}
        for name in names:
            for mode in modes:
                wl = WORKLOADS[name]
                runs[name if len(modes) == 1 else f"{name}.trace{mode}"] = (
                    trace_run(wl, args.seed, golden) if mode
                    else measure_run(wl, args.seed, args.seconds, golden))
        for label, res in runs.items():
            report(label, res)
        print(result_line(runs))
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
