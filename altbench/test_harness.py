"""Self-checks of the benchmark harness, run against the program as it is:

    PYTHONPATH=src python3 -m pytest altbench -q -p no:cacheprovider

They run real traced passes of every workload, so they take about a
minute on two cores.
"""

from __future__ import annotations

import json
import random
import shutil
from math import inf

import pytest

import run
from tracer import aggregate
from workloads import WORKLOADS, Workload


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN.read_text())


@pytest.fixture(scope="module")
def work_dir():
    run.WORK.mkdir(exist_ok=True)
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


def traced_pass(wl: Workload, golden):
    res = run.run_pass(wl, wl.order(random.Random(7)), True, golden, inf)
    return res, aggregate(res.span_files)


@pytest.fixture(scope="module")
def traced(work_dir, golden):
    return {name: traced_pass(wl, golden) for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_matches_golden(traced, name):
    res, _ = traced[name]
    assert len(res.ops) == len(WORKLOADS[name].operations)
    assert [op for op in res.ops if not op.ok] == []


def test_frontier_enumerates_no_rows(traced):
    _, stats = traced["recurrence-frontier"]
    rows = sum(s.outer_work for n, s in stats.items() if n.startswith("oracle."))
    assert rows == 0


@pytest.mark.parametrize("name", ["verify-defaults", "recurrence-frontier"])
def test_cli_main_called_once_per_command(traced, name):
    res, stats = traced[name]
    assert stats["cli.main"].calls == len(res.ops)


def test_oracle_dominates_oracle_workload(traced):
    res, stats = traced["oracle-n11"]
    oracle = sum(s.self_s for n, s in stats.items() if n.startswith("oracle."))
    assert oracle > 0.5 * res.wall_s


def test_products_dominate_factor(work_dir, golden):
    wl = Workload("factor", "cli", ("factor --n 40 --format text",), "")
    res, stats = traced_pass(wl, golden)
    assert all(op.ok for op in res.ops)
    assert stats["polynomials.IntPoly.__mul__"].self_s > 0.5 * res.wall_s


def test_planted_wrong_digest_fails(work_dir, golden):
    op = "verify eq2 --jobs 1 --format text"
    planted = {**golden, op: {**golden[op], "sha256": "0" * 64}}
    wl = Workload("planted", "cli", (op,), "")
    res = run.run_pass(wl, [op], False, planted, inf)
    failed = sum(not r.ok for r in res.ops)
    assert failed / len(res.ops) > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    empty = run.PassResult(wall_s=1.0)
    emitted = run.per_layer({}, empty, empty)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in emitted.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
