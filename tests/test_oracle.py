"""Brute-force enumeration cross-checked against scalar recomputation."""

import ast
import inspect
import itertools
import math
import os
import sys
import threading
import time

import pytest

from altdes import oracle
from altdes.oracle import (
    LimitExceeded,
    brute_alt_eulerian,
    brute_cd_index,
    brute_des3_first1,
    brute_qalt,
    brute_simsun,
    brute_two_sided,
    down_up_simsun_count,
    iter_perm_arrays,
    stat_multiset,
)
from altdes.permutations import alt_stats, cd_word, classic_stats, inverse, is_down_up, is_simsun
from altdes.polynomials import BiPolyTQ, IntPoly
from altdes.recurrences import five_term, simsun_rec


def scalar_hist(n, key):
    hist = {}
    for w in itertools.permutations(range(1, n + 1)):
        v = key(w)
        hist[v] = hist.get(v, 0) + 1
    return hist


def uncached(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every descent-set histogram tallied afresh."""
    oracle._HIST_CACHE.clear()
    return fn(*args, **kwargs)


def test_iter_perm_arrays_covers_sn():
    for n in range(1, 8):
        seen = set()
        total = 0
        for block in iter_perm_arrays(n):
            assert block.shape[1] == n
            total += block.shape[0]
            for row in block[:: max(1, block.shape[0] // 7)]:
                seen.add(tuple(int(x) for x in row))
        assert total == math.factorial(n)
        # rows are zero-based letter arrays
        assert all(sorted(w) == list(range(n)) for w in seen)


def test_stat_multiset_matches_scalar():
    keys = {
        "altdes": lambda w: alt_stats(w).altdes,
        "altmaj": lambda w: alt_stats(w).altmaj,
        "des": lambda w: classic_stats(w).des,
        "maj": lambda w: classic_stats(w).maj,
        "des3": lambda w: classic_stats(w).des3,
    }
    for n in range(0, 7):
        for stat, key in keys.items():
            ms = stat_multiset(n, stat)
            assert ms.total() == math.factorial(n)
            if n == 0:
                assert ms.values == {0: 1}
                continue
            assert ms.values == scalar_hist(n, key), (n, stat)


def test_stat_multiset_rejects_unknown():
    with pytest.raises(ValueError):
        stat_multiset(3, "exc")


def test_polynomial_wrappers_agree():
    for n in range(0, 7):
        assert brute_alt_eulerian(n) == stat_multiset(n, "altdes").polynomial()
        q = brute_qalt(n)
        assert IntPoly(row(1) for _, row in q.rows) == brute_alt_eulerian(n)  # q = 1
        assert q.at_t_qpow() == stat_multiset(n, "altmaj").polynomial()


def test_qalt_matches_scalar():
    for n in range(1, 7):
        expected = {}
        for w in itertools.permutations(range(1, n + 1)):
            st = alt_stats(w)
            k = (st.altdes, st.altmaj)
            expected[k] = expected.get(k, 0) + 1
        assert brute_qalt(n) == BiPolyTQ(expected)


def test_two_sided_matches_scalar_and_is_symmetric():
    for n in range(1, 7):
        expected = {}
        for w in itertools.permutations(range(1, n + 1)):
            k = (alt_stats(inverse(w)).altdes, alt_stats(w).altdes)
            expected[k] = expected.get(k, 0) + 1
        a = brute_two_sided(n)
        assert a == BiPolyTQ(expected)
        assert a.coeffs == {(j, k): c for (k, j), c in a.coeffs.items()}


def test_simsun_matches_scalar():
    for n in range(1, 8):
        expected = {}
        for w in itertools.permutations(range(1, n + 1)):
            if is_simsun(w):
                d = classic_stats(w).des
                expected[d] = expected.get(d, 0) + 1
        got = brute_simsun(n)
        assert {e: c for e, c in enumerate(got) if c} == expected


def test_oracle_imports_no_recurrence():
    # the oracle tallies the words it makes: nothing it imports from
    # altdes reads a recurrence, a count or an expansion
    nodes = list(ast.walk(ast.parse(inspect.getsource(oracle))))
    relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert relative == {"permutations", "polynomials", "reporting"}
    assert all(name.split(".")[0] != "altdes" for name in absolute)


def test_cd_index_matches_scalar():
    for n in range(0, 7):
        phi, psi, psi_hat = {}, {}, {}
        for w in itertools.permutations(range(1, n + 1)):
            word = cd_word(w)
            if word is not None:
                phi[word] = phi.get(word, 0) + 1
            u = "".join("b" if w[i] > w[i + 1] else "a" for i in range(n - 1))
            psi[u] = psi.get(u, 0) + 1
            uh = "".join(
                "b" if (w[i] > w[i + 1]) == (i % 2 == 0) else "a" for i in range(n - 1)
            )
            psi_hat[uh] = psi_hat.get(uh, 0) + 1
        cd = brute_cd_index(n)
        assert cd.phi == phi
        assert cd.psi == psi
        assert cd.psi_hat == psi_hat
        # both variation indexes add up over the whole group
        assert sum(cd.psi.values()) == sum(cd.psi_hat.values()) == math.factorial(n)


def test_des3_first1_matches_scalar():
    for n in range(1, 7):
        expected = {}
        for w in itertools.permutations(range(2, n + 2)):
            v = classic_stats((1,) + w).des3
            expected[v] = expected.get(v, 0) + 1
        got = brute_des3_first1(n)
        assert got.n == n + 1 and got.stat == "des3"
        assert got.values == expected


def test_down_up_simsun_count_scalar():
    for n in range(1, 8):
        expected = sum(
            1
            for w in itertools.permutations(range(1, n + 1))
            if is_simsun(w) and is_down_up(w)
        )
        assert down_up_simsun_count(n) == expected


def test_jobs_do_not_change_results():
    for n in (5, 8, 11):
        assert uncached(brute_alt_eulerian, n, jobs=2) == uncached(brute_alt_eulerian, n)
        assert uncached(brute_qalt, n, jobs=2) == uncached(brute_qalt, n)
        assert (uncached(stat_multiset, n, "maj", jobs=2).values
                == uncached(stat_multiset, n, "maj").values)
        assert stat_multiset(n, "des3", jobs=2).values == stat_multiset(n, "des3").values
        assert brute_des3_first1(n, jobs=2).values == brute_des3_first1(n).values
        two_sided = brute_two_sided(n, jobs=2)
        assert two_sided == brute_two_sided(n)
        assert IntPoly(row(1) for _, row in two_sided.rows) == brute_alt_eulerian(n)


def test_jobs_are_clamped_to_partitions_and_cpus(monkeypatch):
    requested = []

    def in_process(run, slices):
        requested.append(len(slices))
        return sum(map(run, slices))

    monkeypatch.setattr(oracle, "_forked_sum", in_process)
    expected = brute_alt_eulerian(11)
    cpus = os.cpu_count() or 1
    requested.clear()
    assert uncached(brute_alt_eulerian, 11, jobs=10**6) == expected
    assert requested == ([min(10, cpus)] if cpus > 1 else [])
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    requested.clear()
    assert uncached(brute_alt_eulerian, 11, jobs=10**6) == expected
    assert requested == [10]  # one process per 9!-word block of S_10, no more
    des3 = brute_des3_first1(11)
    requested.clear()
    assert brute_des3_first1(11, jobs=10**6).values == des3.values
    assert requested == [10]
    cd = uncached(brute_cd_index, 11)
    requested.clear()
    assert uncached(brute_cd_index, 11, jobs=2) == cd
    assert requested == [2]  # S_10 is one task, so S_11 is the first to fork
    monkeypatch.delattr(oracle.os, "fork")
    requested.clear()
    assert uncached(brute_alt_eulerian, 11, jobs=2) == expected
    assert requested == []  # no fork, one process


def _slice_task(behave):
    """A task for _merge that sums its task indexes into one bin, except
    on the slices for which behave(first task) returns something else."""
    import numpy as np

    def task(n, tasks):
        got = behave(tasks.start)
        return np.array([sum(tasks)]) if got is None else got
    return task


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [ValueError("bad slice"), LimitExceeded("n = 99 exceeds")])
def test_a_child_error_reaches_the_caller(monkeypatch, error):
    def behave(start):
        if start == 2:
            raise error

    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    with pytest.raises(type(error), match=str(error)):
        oracle._merge(_slice_task(behave), 11, 3)
    _no_child_left()
    assert oracle._merge(_slice_task(lambda start: None), 11, 3).tolist() == [45]
    _no_child_left()


def test_a_failing_parent_slice_reaps_a_blocked_child(monkeypatch):
    import numpy as np
    import signal

    def behave(start):
        if start == 0:
            time.sleep(0.2)  # the child is blocked on the full pipe by now
            raise ValueError("parent slice")
        return np.zeros(1 << 16, dtype=np.int64)  # 512 KB, past the pipe buffer

    def too_slow(*_):
        raise TimeoutError("_merge hangs on a blocked child")

    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        with pytest.raises(ValueError, match="parent slice"):
            oracle._merge(_slice_task(behave), 11, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    _no_child_left()


def test_a_child_that_dies_without_sending_is_an_error(monkeypatch):
    def behave(start):
        if start == 1:
            os._exit(3)

    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    with pytest.raises(RuntimeError, match="without sending"):
        oracle._merge(_slice_task(behave), 11, 3)
    _no_child_left()


def nth_permutation(n, rank):
    """The rank-th permutation of range(n) in lexicographic order."""
    letters = list(range(n))
    word = []
    for i in range(n - 1, -1, -1):
        q, rank = divmod(rank, math.factorial(i))
        word.append(letters.pop(q))
    return tuple(word)


def test_column_builder_is_lexicographic():
    for n in range(0, 8):
        W = oracle._columns(n)
        assert W.shape == (n, math.factorial(n)) and W.dtype == "int8"
        assert not W.flags.writeable
        assert [tuple(int(x) for x in col) for col in W.T] == list(
            itertools.permutations(range(n))
        )
    import numpy as np

    f = math.factorial(9)
    W = np.empty((11, f), dtype=np.int8)  # one buffer, rewritten for every block
    for idx in range(math.factorial(11) // f):
        oracle._rest(idx, W)
        for j in (0, f // 2, f - 1):
            assert tuple(int(x) for x in W[:, j]) == nth_permutation(11, idx * f + j)


def test_stream_blocks_follow_their_documented_rank():
    f = math.factorial(9)
    for n in (10, 11):
        blocks = 0
        for i, rows in enumerate(iter_perm_arrays(n)):
            b, v = divmod(i, n)  # task outer, first letter inner
            assert rows.shape == (f, n) and rows.dtype == "int8"
            assert not rows.flags.writeable
            for j in (0, 1, f // 3, f - 1):
                rank = v * math.factorial(n - 1) + b * f + j
                assert tuple(int(x) for x in rows[j]) == nth_permutation(n, rank)
            blocks += 1
        assert blocks * f == math.factorial(n)
        assert blocks == oracle._n_partitions(n) * n


def test_simsun_insertion_matches_filter():
    for n in range(0, 9):
        W = oracle._simsun_columns(n)
        words = [tuple(int(x) for x in col) for col in W.T]
        expected = {w for w in itertools.permutations(range(n)) if is_simsun(w)}
        assert len(words) == len(set(words))
        assert set(words) == expected, n


def test_block_cache_is_thread_safe():
    expected = (brute_qalt(9), brute_simsun(9))
    results = []

    def work():
        results.append((brute_qalt(9), brute_simsun(9)))

    threads = [threading.Thread(target=work) for _ in range(4)]
    old = sys.getswitchinterval()
    oracle._BLOCK_CACHE.clear()
    oracle._HIST_CACHE.clear()  # else brute_qalt(9) reads S_9 off its histogram
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
    assert sorted(oracle._BLOCK_CACHE) == list(range(10))
    assert all(
        W.shape == (k, math.factorial(k)) for k, W in oracle._BLOCK_CACHE.items()
    )


def test_descent_histogram_is_tallied_once_per_n(monkeypatch):
    calls = []
    tallied = []
    task = oracle._descent_task

    def counting(n, tasks):
        calls.append(n)
        tallied.extend((n, idx) for idx in tasks)
        return task(n, tasks)

    monkeypatch.setattr(oracle, "_descent_task", counting)
    oracle._HIST_CACHE.clear()
    brute_alt_eulerian(11)
    brute_qalt(11)
    stat_multiset(11, "maj")
    assert calls == [11]  # one pass, not three, and one slice when serial
    assert sorted(tallied) == [(11, idx) for idx in range(10)]  # each task once


def test_task_tally_matches_the_block_tally():
    import numpy as np

    for n in (10, 11):
        expected = sum(np.bincount(oracle._descent_codes(rows.T), minlength=1 << (n - 1))
                       for rows in iter_perm_arrays(n))
        for jobs in (1, 2):
            hist = oracle._merge(oracle._descent_task, n, jobs)
            assert hist.dtype == np.int64
            assert np.array_equal(hist, expected), (n, jobs)


class _RecordingNumpy:
    """numpy as the oracle sees it, recording the size of every array of
    at least `least` bytes (9! by default) that a numpy call makes (an
    out= argument is not made, and a view owns no data)."""

    def __init__(self, np, least=math.factorial(9)):
        self.np = np
        self.least = least
        self.made = []

    def __getattr__(self, name):
        attr = getattr(self.np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def call(*args, **kwargs):
            got = attr(*args, **kwargs)
            if (isinstance(got, self.np.ndarray) and got.flags.owndata
                    and got.nbytes >= self.least
                    and all(got is not a for a in (*args, *kwargs.values()))):
                self.made.append(got.nbytes)
            return got

        return call


def test_descent_tally_reuses_one_workspace_per_slice(monkeypatch):
    import numpy as np

    oracle._base_codes()  # S_9 and its codes are cached, not per task
    made = {}
    for n in (11, 12):  # 10 and 110 tasks in one serial slice
        recording = _RecordingNumpy(np)
        monkeypatch.setattr(oracle, "np", recording)
        hist = oracle._merge(oracle._descent_task, n, 1)
        monkeypatch.undo()
        assert hist.sum() == math.factorial(n)
        made[n] = recording.made
    # the block, the key, the counter and the bool row, however many tasks
    assert len(made[12]) == len(made[11]) <= 4


@pytest.mark.parametrize("task, buffers", [
    (oracle._two_sided_task, 3),  # block, codes of w^-1, scratch rows
    (oracle._des3_task, 3),  # block, counter, bool rows
    (oracle._des3_first1_task, 4),  # and the shifted chunk
])
def test_kernels_reuse_one_workspace_per_slice(monkeypatch, task, buffers):
    import numpy as np

    made = {}
    for n in (10, 11):  # 1 and 10 tasks in one serial slice
        recording = _RecordingNumpy(np, least=oracle._CHUNK)  # a uint8 row of a chunk
        monkeypatch.setattr(oracle, "np", recording)
        hist = oracle._merge(task, n, 1)
        monkeypatch.undo()
        assert hist.sum() == math.factorial(n)
        made[n] = recording.made
    assert len(made[11]) == len(made[10]) == buffers


def test_key_width_holds_every_key():
    import numpy as np

    # the largest key is code * (n + 1) + n, code < 2^(n-1)
    for n, width in ((13, np.uint16), (14, np.uint32), (16, np.uint32)):
        assert oracle._key_dtype(n) == width
        assert ((1 << (n - 1)) - 1) * (n + 1) + n <= np.iinfo(width).max
    assert 15 * (1 << 13) > 1 << 16  # n = 14 would wrap in uint16


def test_code_cache_is_read_only_and_built_once(monkeypatch):
    built = []
    codes_of = oracle._descent_codes

    def counting(W):
        built.append(W.shape)
        return codes_of(W)

    monkeypatch.setattr(oracle, "_descent_codes", counting)
    monkeypatch.setattr(oracle, "_CODE_CACHE", {})
    results = []
    threads = [threading.Thread(target=lambda: results.append(oracle._base_codes()))
               for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    f = math.factorial(9)
    assert built == [(9, f)]
    codes = oracle._CODE_CACHE[9]
    assert len(results) == 8 and all(c is codes for c in results)
    assert codes.shape == (f,) and codes.dtype == "uint16"
    assert not codes.flags.writeable
    with pytest.raises(ValueError):
        codes[0] = 0


def test_descent_histogram_cache_keeps_guard_and_is_read_only():
    brute_qalt(7)
    hist = oracle._HIST_CACHE[7]
    with pytest.raises(LimitExceeded):
        brute_qalt(7, brute_max=6)
    with pytest.raises(LimitExceeded):
        stat_multiset(7, "altdes", brute_max=6)
    with pytest.raises(LimitExceeded):
        brute_cd_index(7, brute_max=6)
    assert not hist.flags.writeable
    with pytest.raises(ValueError):
        hist[0] = 0
    assert hist.sum() == math.factorial(7)


def test_descent_histogram_cache_is_thread_safe(monkeypatch):
    expected = (uncached(brute_qalt, 9), uncached(stat_multiset, 9, "altdes"))
    results = []
    read = []
    lookup = oracle._descent_histogram

    def recording(n, jobs):
        hist = lookup(n, jobs)
        read.append(hist)
        return hist

    def work():
        results.append((brute_qalt(9), stat_multiset(9, "altdes")))

    monkeypatch.setattr(oracle, "_descent_histogram", recording)
    threads = [threading.Thread(target=work) for _ in range(4)]
    old = sys.getswitchinterval()
    oracle._HIST_CACHE.clear()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4
    assert list(oracle._HIST_CACHE) == [9]
    # a thread that lost the race reads the winner's histogram, not its own
    assert len(read) == 8 and all(h is oracle._HIST_CACHE[9] for h in read)


def test_cold_enumeration_memory_is_one_block():
    import tracemalloc

    for call in (lambda: stat_multiset(11, "altmaj"), lambda: brute_simsun(11)):
        oracle._BLOCK_CACHE.clear()
        oracle._HIST_CACHE.clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


def test_cold_simsun_memory_is_one_block_per_length():
    import tracemalloc

    oracle._BLOCK_CACHE.clear()
    oracle._HIST_CACHE.clear()
    tracemalloc.start()
    try:
        got = brute_simsun(12, brute_max=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == simsun_rec(12)
    assert peak < 8 << 20


def test_simsun_blocks_above_the_cache_are_bounded():
    widths = [S.shape[1] for S in oracle._simsun_blocks(11)]
    assert max(widths) <= 50521  # E_10, the Simsun words of length 9
    assert sum(widths) == 2702765  # E_12
    # E_13 / 2^6: the down-up Simsun words of length 12
    assert down_up_simsun_count(12, brute_max=12) == 349504


def test_n12_oracle_matches_recurrence():
    assert brute_alt_eulerian(12, brute_max=12, jobs=2) == five_term(12)


def test_guard_stops_at_the_code_width(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(oracle, "_merge", enumerate_nothing)
    monkeypatch.setattr(oracle, "_blocks", enumerate_nothing)
    assert oracle._guard(16, 20) == 20
    with pytest.raises(LimitExceeded):
        oracle._guard(17, 20)
    with pytest.raises(LimitExceeded):
        stat_multiset(17, "des", brute_max=20)


def test_brute_max_guard():
    with pytest.raises(LimitExceeded):
        brute_alt_eulerian(7, brute_max=6)
    with pytest.raises(LimitExceeded):
        brute_two_sided(12)
    with pytest.raises(LimitExceeded):
        down_up_simsun_count(5, brute_max=4)
    assert brute_alt_eulerian(6, brute_max=6)(1) == 720
