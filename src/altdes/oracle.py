"""Brute-force ground truth over symmetric groups.

Every histogram here is a tally over materialized words, never read from
a recurrence.  S_k is an int8 array of shape (k, k!), one word per
column in lexicographic order; blocks up to S_9 are cached (about
3.7 MB, published under a lock).  Every enumeration of S_n (n >= 2)
reads its tasks' blocks of S_{n-1}, the kernels through one stream,
_rests.  Up to n = 10, S_n has one task, whose block is the cached
S_{n-1}; above it the (n-1)!/9! blocks of 9! words are the tasks, and
the parallelism seam: they are dealt in strided slices to at most
min(jobs, tasks, cpu count) processes, this one included.  Slice 0 is
tallied here; each other slice runs in a child made by os.fork after
S_9 and its descent codes are built, so the child inherits them, and
sends its one histogram back down a pipe.  A slice allocates its
(n-1, 9!) block once and reuses it for every task: S_9 is copied in and
each letter the task fixes is placed in front of it.

The words of a task are v.rest' for each first letter v < n, rest
being the task's block of S_{n-1} and rest' rest relabelled onto the
letters other than v.  (v, rest) -> v.rest' is a bijection onto S_n,
and it keeps every comparison inside rest, so a task kernel codes its
block once and adds the n first letters by arithmetic on those codes
and on rows 0 and 1 of the block.  rest is still materialized and only
the first letter is never written, a bijection on words like those
behind phi and des3 on S_{n+1} below; the first letter changes only what
starts at position 0, and v > rest'_j iff rest_j < v.  The three
identities:

  descent:   code(v.rest') = code(rest) << 1 | [rest_0 < v], so of the n
             first letters, n - 1 - rest_0 add a descent at 0;
  two-sided: in code((v.rest')^-1) the bits below v - 1 are those of
             rest^-1, bit v - 1 is set, bit v clear, and each bit above
             v is the bit of rest^-1 one lower (its bit v - 1 is dropped);
  des3:      des3(v.rest') = des3(rest) + ([rest_0 < v] ^ [rest_0 > rest_1]
             ^ [rest_1 < v]).

A word's code is sum_i [w_i > w_{i+1}] << i, its descent set.  From
n = 10 on, the last 9 rows of a task's block relabel S_9 in column
order, so their part of the code is read from the codes of S_9, cached
read-only (uint16, about 0.7 MB) and built once under the same lock.
The descent task keys each column by code(rest) * (n - 1) + rest_0, in
place, in the narrowest unsigned dtype that holds it (uint16 to
n = 14), bins the keys in chunks of 64K, so no block-sized intp array
is made, and spreads each bin over the two parities of position 0 at
the end.  des, maj, altdes, altmaj and
the ab-indexes psi and psi_hat are read off that one histogram of codes
(the alternating descent set is the descent set XOR the even-position
mask).  It is tallied once per n and kept, read-only, in a cache
published under a lock: one entry per n of 2^(n-1) int64 bins.  _guard
stops n at 16, where the uint16 codes of w^-1 would lose a letter, so
an entry has at most 2^15 bins and the cache never exceeds 512 KB,
under 20 KB for n <= 11.  The two-sided task codes rest and rest^-1 once
per chunk of 64K columns and bins each first letter's pair of altdes
values.  des3, not a function of the descent set, has its own task,
which keys each column by (des3(rest), rest_0, rest_1) and spreads the
keys over the first letters through a table, with no loop over them.
It also counts des3 on the words of S_{n+1} that start with their least
letter: w -> 0.(w+1) is a bijection onto them from S_n, and adds a
3-descent iff w_1 > w_2, which for w = v.rest' is [rest_0 < v].  The
chunk rows are allocated once per slice.  iter_perm_arrays, which yields
whole words, rebuilds the task's block with _rest in its one buffer for
each first letter and places the letter in front with _place, the one
step that writes every word here, S_k and the blocks included.
Simsun words are generated by inserting each new largest letter where
it makes no double descent, one block of at most E_10 = 50 521 words
(about 0.45 MB) per length at a time.  One descent-set histogram of the
Simsun words of a length gives des, the down-up bin and phi.  phi at n
counts the Simsun words of length n that end in n; appending n is a
bijection onto them from the words of length n - 1, and the ascent it
adds keeps each descent-set code, so phi at n is read off the tally of
length n - 1.  Counts are int64 and leave as Python ints; the
test-suite's pure-Python definitional loops must agree with all of it.

numpy is imported on the first enumeration, with OpenBLAS's thread pool
capped at one thread for the import unless the user set
OPENBLAS_NUM_THREADS; the environment is left as it was found.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from math import factorial
from typing import Iterator, NamedTuple

from .permutations import ab_to_cd
from .polynomials import BiPolyTQ, IntPoly
from .reporting import UsageError


def _load_numpy():
    """Import numpy and rebind the module's np to it.  The enumeration is
    integer-only and never calls BLAS, but importing numpy starts
    OpenBLAS's thread pool, which costs start-up time: so unless the user
    set OPENBLAS_NUM_THREADS, it is 1 for the import and gone again after,
    and library callers get the cap as the command line does."""
    global np
    capped = "OPENBLAS_NUM_THREADS" not in os.environ
    if capped:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        if capped:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    return np


class _Numpy:
    """Stands in for numpy until the first enumeration: the first attribute
    read loads it through _load_numpy, which rebinds the module's np, so
    commands that never enumerate do not pay for the import."""

    def __getattr__(self, name: str):
        return getattr(_load_numpy(), name)


np = _Numpy()


DEFAULT_BRUTE_MAX = 11

STATS = ("altdes", "altmaj", "des", "maj", "des3")


class LimitExceeded(UsageError):
    """Raised when an enumeration would exceed the configured bound."""


def _guard(n: int, brute_max: int | None) -> int:
    limit = DEFAULT_BRUTE_MAX if brute_max is None else brute_max
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds brute-force bound {limit}")
    if n > 16:
        raise LimitExceeded(f"n = {n} exceeds 16, the most letters a 16-bit code holds")
    return limit


_BLOCK_CACHE: dict[int, np.ndarray] = {}
# the largest cached block, the block size of every enumeration and the
# longest Simsun words made whole
_BLOCK_CACHE_MAX = 9
_CODE_CACHE: np.ndarray | None = None  # descent-set codes of S_K, once built
_BLOCK_LOCK = threading.Lock()


def _place(W: np.ndarray, v: int) -> None:
    """Put the first letter v in front of the words in W[1:], in place:
    x -> x + [x >= v] on every row of W[1:], so they are relabelled onto
    the letters other than v, comparing into W[0], viewed as bool, which
    then holds v."""
    head = W[0]
    flag = head.view(np.bool_)
    for row in W[1:]:
        np.greater_equal(row, v, out=flag)
        np.add(row, head, out=row)
    head.fill(v)


def _columns(k: int) -> np.ndarray:
    """All permutations of 0..k-1, k <= _BLOCK_CACHE_MAX, as a cached
    read-only (k, k!) int8 array, one word per column, in lexicographic
    order."""
    W = _BLOCK_CACHE.get(k)
    if W is not None:
        return W
    if k == 0:
        W = np.zeros((0, 1), dtype=np.int8)
    else:
        sub = _columns(k - 1)
        f = sub.shape[1]
        W = np.empty((k, k * f), dtype=np.int8)
        for v in range(k):  # v, then S_{k-1} relabelled onto the other letters
            block = W[:, v * f : (v + 1) * f]
            block[1:] = sub
            _place(block, v)
    W.flags.writeable = False
    with _BLOCK_LOCK:
        return _BLOCK_CACHE.setdefault(k, W)


def _n_partitions(n: int) -> int:
    """Tasks of S_n: one per K!-word block of S_{n-1} (K = _BLOCK_CACHE_MAX),
    or a single task, S_{n-1} whole, while S_{n-1} is cached."""
    if n <= _BLOCK_CACHE_MAX:
        return 1
    return factorial(n - 1) // factorial(_BLOCK_CACHE_MAX)


def _rest(idx: int, out: np.ndarray) -> np.ndarray:
    """Write block idx of S_m (m = len(out)) into out, an (m, f) int8
    array, f = min(m, K)!: the words of lexicographic ranks idx f to
    (idx + 1) f - 1.  Above K its first m - K letters are fixed by idx,
    read as first letter and block of S_{m-1}, that block's first letter
    and block of S_{m-2}, and so on down to S_K.  So S_K is copied into
    the last K rows and each fixed letter placed in front in turn, the
    innermost first; return out."""
    m = out.shape[0]
    letters = []
    for i in range(m - _BLOCK_CACHE_MAX):
        v, idx = divmod(idx, _n_partitions(m - i))
        letters.append(v)
    np.copyto(out[len(letters):], _columns(min(m, _BLOCK_CACHE_MAX)))
    for i in reversed(range(len(letters))):
        _place(out[i:], letters[i])
    return out


def _rests(n: int, tasks: range) -> Iterator[np.ndarray]:
    """An iterator over the blocks of S_{n-1} of the tasks in tasks
    (n >= 1).  Up to n = K + 1, S_n has one task, whose block is the
    cached S_{n-1} itself; above it, _rest writes each block in turn into
    one (n - 1, K!) buffer per slice."""
    if n - 1 <= _BLOCK_CACHE_MAX:
        return (_columns(n - 1) for _ in tasks)
    out = np.empty((n - 1, factorial(_BLOCK_CACHE_MAX)), dtype=np.int8)
    return (_rest(idx, out) for idx in tasks)


def iter_perm_arrays(n: int) -> Iterator[np.ndarray]:
    """Yield S_n as read-only 0-based int8 arrays with one word per row,
    in the order of the block stream: for each task b and then each first
    letter v < n, a block of f = (n-1)!/_n_partitions(n) rows whose row j
    is the word of lexicographic rank v (n-1)! + b f + j (lexicographic
    up to n = 10, where S_n has one task).  One (n, f) buffer serves the
    stream: for each first letter, the task's block of S_{n-1} is written
    into rows 1.. and the letter placed in front; copy what must outlive
    it."""
    if n == 0:
        yield _columns(0).T
        return
    W = np.empty((n, factorial(n - 1) // _n_partitions(n)), dtype=np.int8)
    rows = W.T
    rows.flags.writeable = False
    for idx in range(_n_partitions(n)):
        for v in range(n):
            _rest(idx, W[1:])
            _place(W, v)
            yield rows


def _simsun_blocks(n: int) -> Iterator[np.ndarray]:
    """The Simsun words of length n, column-major, in blocks.  w is Simsun
    iff w without its largest letter k is Simsun and w has no double
    descent, and the only one inserting k at position p can make is
    k > w_p > w_{p+1}: so k goes in front of an ascent or in one of the
    last two positions.  Each block of the words of length n - 1 gives one
    block per position of k.  Up to length K (K = _BLOCK_CACHE_MAX) the
    shorter words are one block from _simsun_columns; above it they are
    this stream one level down, taken one block at a time.  So no block
    has more than E_{K+1} = 50 521 columns, and the stream holds one block
    per length, each made as it is asked for."""
    if n <= 1:
        yield _columns(n)
        return
    shorter = (_simsun_blocks(n - 1) if n - 1 > _BLOCK_CACHE_MAX
               else [_simsun_columns(n - 1)])
    for W in shorter:
        for p in range(n):
            src = W.compress(W[p] < W[p + 1], axis=1) if p < n - 2 else W
            block = np.empty((n, src.shape[1]), dtype=np.int8)
            block[:p] = src[:p]
            block[p] = n - 1
            block[p + 1 :] = src[p:]
            yield block


def _simsun_columns(n: int) -> np.ndarray:
    """All Simsun words of length n <= K as one (n, E_{n+1}) array, at
    most E_{K+1} = 50 521 words (about 0.45 MB at n = K)."""
    return np.concatenate(list(_simsun_blocks(n)), axis=1)


# ---------------------------------------------------------------------------
# descent-set kernel: every statistic but des3 is read off the descent set

def _or_descents(code: np.ndarray, W: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """code <- (code << (m - 1)) | the descent-set code of each column of
    the m rows W, in place, comparing into flag, a uint8 row."""
    is_descent = flag.view(np.bool_)
    for i in reversed(range(W.shape[0] - 1)):
        np.left_shift(code, 1, out=code)
        np.greater(W[i], W[i + 1], out=is_descent)
        np.bitwise_or(code, flag, out=code)
    return code


def _descent_codes(W: np.ndarray, code: np.ndarray | None = None,
                   flag: np.ndarray | None = None) -> np.ndarray:
    """Descent set of every column of W as sum_i [w_i > w_{i+1}] << i,
    written into code, a uint16 row, comparing into flag, a uint8 row;
    both are made when not given.  16 bits suffice: _guard stops n at 16."""
    if code is None:
        code = np.empty(W.shape[1], dtype=np.uint16)
        flag = np.empty(W.shape[1], dtype=np.uint8)
    code.fill(0)
    return _or_descents(code, W, flag)


def _inverse_codes(W: np.ndarray, code: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Descent-set codes of the inverses of the columns of W, written into
    code, a uint16 row: i is a descent of w^-1 iff the letter i+1 stands
    before the letter i in w.  scratch is a (3, width) uint16 array: the
    letters seen so far as bits, the current letter's bit, and a term."""
    seen, bit, term = scratch
    code.fill(0)
    seen.fill(0)
    for row in W:
        # letters are nonnegative, so the unsafe int8 -> uint16 cast is exact
        np.left_shift(1, row, out=bit, dtype=np.uint16, casting="unsafe")
        np.right_shift(seen, 1, out=term)
        np.bitwise_and(term, bit, out=term)
        np.bitwise_or(code, term, out=code)
        np.bitwise_or(seen, bit, out=seen)
    return code


def _set_stats(n: int) -> dict[str, np.ndarray]:
    """Each descent-set statistic of S_n, indexed by descent-set code.
    Alternating descents are the descents at odd (1-based) positions and
    the ascents at even ones: the descent set XOR the even-position mask."""
    pos = np.arange(n - 1)
    des = (np.arange(1 << (n - 1))[:, None] >> pos) & 1
    alt = des ^ (pos % 2)
    return {"des": des.sum(1), "maj": des @ (pos + 1),
            "altdes": alt.sum(1), "altmaj": alt @ (pos + 1)}


def _stat_vector(W: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-column value of a descent-set statistic over the words of W,
    given values, its table by descent-set code (a _set_stats entry)."""
    return values[_descent_codes(W)]


def _descent_hist(W: np.ndarray) -> np.ndarray:
    return np.bincount(_descent_codes(W), minlength=1 << (W.shape[0] - 1))


def _simsun_hist(n: int) -> np.ndarray:
    """Descent-set histogram of the Simsun words of length n >= 1."""
    return sum(map(_descent_hist, _simsun_blocks(n)))


# columns per kernel call: bincount copies its input to intp, and a fixed
# chunk keeps that copy at 512 KB, and a kernel's rows at 64K entries,
# whatever the block size
_CHUNK = 1 << 16


def _chunks(W: np.ndarray) -> Iterator[np.ndarray]:
    """The block W, _CHUNK columns at a time, as views."""
    for s in range(0, W.shape[1], _CHUNK):
        yield W[:, s : s + _CHUNK]


def _base_codes() -> np.ndarray:
    """The descent-set codes of the columns of S_K (K = _BLOCK_CACHE_MAX),
    cached read-only (uint16, K! entries, about 0.7 MB) and built once,
    under _BLOCK_LOCK."""
    global _CODE_CACHE
    if _CODE_CACHE is None:
        S = _columns(_BLOCK_CACHE_MAX)  # takes _BLOCK_LOCK itself
        with _BLOCK_LOCK:
            if _CODE_CACHE is None:
                codes = _descent_codes(S)
                codes.flags.writeable = False
                _CODE_CACHE = codes
    return _CODE_CACHE


def _rest_codes(R: np.ndarray, code: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """code <- the descent-set codes of R, a block of S_m from _rests,
    comparing into flag, a uint8 row.  From m = K on, R's last K rows
    relabel S_K in column order: their part of each code is read from
    the cached codes of S_K, and only the rows above are compared."""
    top = R.shape[0] - _BLOCK_CACHE_MAX
    if top < 0:
        return _descent_codes(R, code, flag)
    np.copyto(code, _base_codes())
    return _or_descents(code, R[: top + 1], flag)


# ---------------------------------------------------------------------------
# task kernels: a task's words are v.rest' for each first letter v, rest
# its block of S_{n-1} from _rests (see the module docstring)

def _two_sided_task(n: int, tasks: range) -> np.ndarray:
    """Histogram of altdes(w^-1) * n + altdes(w) over a slice of the tasks
    of S_n (n >= 2), a chunk of columns at a time.

    Each chunk of rest is coded once, both ways, from its rows, so the
    kernel builds no cached codes of S_K.  For each first letter v,
    code(w) = code(rest) << 1 | [rest_0 < v], and in code(w^-1) the bits
    below v - 1 are those of rest^-1, bit v - 1 is set (v stands before
    v - 1), bit v is clear (and before v + 1), and each bit above v is
    the bit of rest^-1 one lower; bit v - 1 of rest^-1, which compared
    the letters that became v - 1 and v + 1, is dropped.  The workspace
    is allocated once per slice: two uint16 rows of _CHUNK for the codes
    of rest^-1 and altdes of the words with no descent at 0, and three
    more that are _inverse_codes's scratch and then hold the codes of
    w^-1, the key and the comparison with v."""
    altdes = _set_stats(n)["altdes"].astype(np.uint16)
    high = altdes * np.uint16(n)
    H = np.zeros(n * n, dtype=np.int64)
    codes = np.empty((2, _CHUNK), dtype=np.uint16)
    scratch = np.empty((3, _CHUNK), dtype=np.uint16)
    for R in _rests(n, tasks):
        for W in _chunks(R):
            m = W.shape[1]
            (inv, alt), rows = codes[:, :m], scratch[:, :m]
            word, key, flag = rows
            below = flag.view(np.bool_)[:m]
            _inverse_codes(W, inv, rows)
            _descent_codes(W, word, flag.view(np.uint8)[:m])
            np.left_shift(word, 1, out=word)
            # mode="clip" writes straight into out; every code is in range
            np.take(altdes, word, out=alt, mode="clip")
            for v in range(n):
                np.right_shift(inv, v, out=word)
                np.left_shift(word, v + 1, out=word)
                if v:
                    np.bitwise_and(inv, (1 << (v - 1)) - 1, out=key)
                    np.bitwise_or(word, key, out=word)
                    np.bitwise_or(word, 1 << (v - 1), out=word)
                np.take(high, word, out=key, mode="clip")
                np.add(key, alt, out=key)
                np.less(W[0], v, out=below)
                np.add(key, below, out=key)
                H += np.bincount(key, minlength=H.size)
    return H


def _des3_counts(W: np.ndarray, count: np.ndarray, rows: np.ndarray,
                 lead: bool = False) -> np.ndarray:
    """des3 of each column of the m rows W, written into count, an
    unsigned row, comparing into rows, three bool rows.  Position i is a
    3-descent iff w_i w_{i+1} w_{i+2} has the pattern 132, 213 or 321,
    the odd permutations of three letters: iff
    [w_i > w_{i+1}] ^ [w_{i+1} > w_{i+2}] ^ [w_i > w_{i+2}].  Each
    descent [w_i > w_{i+1}] serves two triples.  With lead, each word w
    stands for 0.(w+1), whose leading triple is a 3-descent iff
    w_1 > w_2: each count starts at that bit."""
    m = W.shape[0]
    prev, cur, odd = rows
    if m > 1:
        np.greater(W[0], W[1], out=prev)
    if lead and m > 1:
        np.copyto(count, prev)
    else:
        count.fill(0)
    for i in range(m - 2):
        np.greater(W[i + 1], W[i + 2], out=cur)
        np.greater(W[i], W[i + 2], out=odd)
        np.bitwise_xor(odd, prev, out=odd)
        np.bitwise_xor(odd, cur, out=odd)
        np.add(count, odd, out=count)
        prev, cur = cur, prev
    return count


def _des3_hist(chunks: Iterator[np.ndarray], m: int, lead: bool = False) -> np.ndarray:
    """des3 histogram of chunks of at most _CHUNK m-letter words, in rows
    allocated once, over m + lead bins (see _des3_counts)."""
    H = np.zeros(m + lead, dtype=np.int64)
    count = np.empty(_CHUNK, dtype=np.uint8)
    rows = np.empty((3, _CHUNK), dtype=np.bool_)
    for W in chunks:
        k = W.shape[1]
        H += np.bincount(_des3_counts(W, count[:k], rows[:, :k], lead), minlength=H.size)
    return H


def _first_triples(n: int, lead: bool) -> np.ndarray:
    """T[r0 (n-1) + r1, g]: how many first letters v < n give v.rest' g
    more 3-descents than rest, for a rest with rest_0 = r0, rest_1 = r1.
    The leading triple v rest'_0 rest'_1 is a 3-descent iff
    [rest_0 < v] ^ [rest_0 > rest_1] ^ [rest_1 < v]; with lead the word
    stands for 0.(w+1), which adds [rest_0 < v].  Rows with r0 = r1
    meet only empty bins."""
    r = np.arange(n - 1)
    r0, r1, v = r[:, None, None], r[None, :, None], np.arange(n)
    first = r0 < v
    gain = (first ^ (r0 > r1) ^ (r1 < v)).astype(np.intp) + lead * first
    return (gain[..., None] == np.arange(3)).sum(axis=2).reshape(-1, 3)


def _des3_task(n: int, tasks: range, lead: bool = False) -> np.ndarray:
    """des3 histogram of the words w of a slice of the tasks of S_n, or
    with lead of the words 0.(w+1).

    From n = 3, where words have a triple, no word with its first letter
    is formed: relabelling keeps des3(rest') = des3(rest), so each chunk
    of rest is keyed once by (des3(rest), rest_0, rest_1), in a uint16
    row that first holds the count, and _first_triples spreads each key
    over the n first letters.  The workspace is the key and three bool
    rows of _CHUNK, and the block when it is built."""
    if n < 3:
        return _des3_hist(_chunks(_columns(n)), n, lead)
    key = np.empty(_CHUNK, dtype=np.uint16)
    rows = np.empty((3, _CHUNK), dtype=np.bool_)
    H = np.zeros((n - 2) * (n - 1) ** 2, dtype=np.int64)  # des3(rest) <= n - 3
    for R in _rests(n, tasks):
        for W in _chunks(R):
            k = W.shape[1]
            c = _des3_counts(W, key[:k], rows[:, :k])
            for row in W[:2]:
                np.multiply(c, n - 1, out=c)
                np.add(c, row.view(np.uint8), out=c)
            H += np.bincount(c, minlength=H.size)
    spread = H.reshape(n - 2, -1) @ _first_triples(n, lead)
    hist = np.zeros(n + lead, dtype=np.int64)
    for g in range(3):
        hist[g : g + n - 2] += spread[:, g]
    return hist


def _key_dtype(n: int):
    """The narrowest unsigned dtype that holds every key
    code * (n - 1) + rest_0 of the descent task, which is below
    (n - 1) 2^(n-2): uint16 up to n = 14, uint32 up to _guard's 16."""
    return np.uint16 if (n - 1) << (n - 2) <= 1 << 16 else np.uint32


def _descent_task(n: int, tasks: range) -> np.ndarray:
    """A slice of the tasks of S_n (n >= 1) tallied into one descent-set
    histogram.

    The slice allocates its buffers once and reuses them for every task:
    the key, a bool row and, above n = K + 1, the (n - 1, K!) block.
    Each task's block rest is coded once (_rest_codes).  The word v.rest'
    has code (code(rest) << 1) | [rest_0 < v], so of the n first letters
    rest_0 + 1 add no descent at 0 and n - 1 - rest_0 add one: the key
    code(rest) * (n - 1) + rest_0 is formed in place and binned in chunks,
    and the bins are spread over both parities at the end, with no loop
    over the letters."""
    if n == 1:
        return np.ones(1, dtype=np.int64)
    f = factorial(n - 1) // _n_partitions(n)
    key = np.empty(f, dtype=_key_dtype(n))
    flag = np.empty(f, dtype=np.uint8)
    H = np.zeros((n - 1) << (n - 2), dtype=np.int64)
    for R in _rests(n, tasks):
        _rest_codes(R, key, flag)
        np.multiply(key, n - 1, out=key)
        np.add(key, R[0].view(np.uint8), out=key)  # letters are nonnegative
        for s in range(0, f, _CHUNK):
            H += np.bincount(key[s : s + _CHUNK], minlength=H.size)
    H = H.reshape(-1, n - 1)
    r = np.arange(n - 1)
    hist = np.empty(1 << (n - 1), dtype=np.int64)
    hist[0::2] = H @ (r + 1)
    hist[1::2] = H @ (n - 1 - r)
    return hist


def _merge(task, n: int, jobs: int) -> np.ndarray:
    """Sum task(n, tasks) over the tasks of S_n on at most
    min(jobs, partitions, cpu count) processes, this one included.
    Process w takes the strided slice range(w, partitions, workers) in
    one call, so it allocates one workspace and makes one histogram.
    Slice 0 is tallied here and every other slice in a child made by
    os.fork after S_K and its codes are built: the child inherits them
    and takes no lock, so a lock that another thread held at the fork
    cannot stop it.  Where os.fork is missing, this one process tallies
    every slice."""
    parts = _n_partitions(n)
    workers = min(jobs, parts, os.cpu_count() or 1)
    run = partial(task, n)
    if workers <= 1 or not hasattr(os, "fork"):
        return run(range(parts))
    _base_codes()  # build S_K and its codes once here; forked children inherit them
    return _forked_sum(run, [range(w, parts, workers) for w in range(workers)])


def _forked_sum(run, slices: list[range]) -> np.ndarray:
    """run(slices[0]) in this process plus run(s) for each later slice s
    in a child made by os.fork.  An exception a child raised is raised
    here with its type and message, and a child that exits without
    sending its result makes this raise, never return a partial sum.
    Every child is reaped before this returns or raises; the read ends
    are closed first, so a child still writing a result larger than the
    pipe buffer gets a broken pipe and exits."""
    children: list = []  # (pid, read end of its pipe)
    try:
        for tasks in slices[1:]:
            children.append(_fork(run, tasks))
        total = run(slices[0])
        for _, pipe in children:
            total = total + _receive(pipe)
        return total
    finally:
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork(run, tasks: range):
    """Fork a child that pickles (True, run(tasks)), or (False, the
    exception run raised), into a pipe and leaves by os._exit, never
    unwinding into its caller's stack; return its pid and the pipe's
    read end."""
    import pickle  # here, so that commands that never fork do not load it

    r, w = os.pipe()
    pipe = open(r, "rb")
    try:
        pid = os.fork()
    except OSError:
        pipe.close()
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            pipe.close()
            try:
                result = (True, run(tasks))
            except Exception as exc:  # the parent raises it
                result = (False, exc)
            with open(w, "wb") as out:
                pickle.dump(result, out)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, pipe


def _receive(pipe) -> np.ndarray:
    """The result a child sent down pipe; its exception is raised here."""
    import pickle

    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise RuntimeError("an enumeration worker exited without sending its tally") from exc
    if not ok:
        raise value
    return value


_HIST_CACHE: dict[int, np.ndarray] = {}  # n -> descent-set histogram of S_n
_HIST_LOCK = threading.Lock()


def _descent_histogram(n: int, jobs: int) -> np.ndarray:
    """The read-only descent-set histogram of S_n (n >= 1), tallied once
    per n over the materialized words and shared by every statistic read
    off it.  Callers run _guard first, which bounds the cache."""
    hist = _HIST_CACHE.get(n)
    if hist is None:
        hist = _merge(_descent_task, n, jobs)
        hist.flags.writeable = False
        with _HIST_LOCK:
            hist = _HIST_CACHE.setdefault(n, hist)
    return hist


def _read_off(keys, counts: np.ndarray) -> dict:
    """Total the counts of equal keys, in ascending key order."""
    out: dict = {}
    for key, c in zip(keys, counts.tolist()):
        if c:
            out[key] = out.get(key, 0) + c
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# public oracle surface

class StatMultiset(NamedTuple):
    """Multiset of a statistic over S_n, as value -> multiplicity."""

    n: int
    stat: str
    values: dict[int, int]

    def total(self) -> int:
        return sum(self.values.values())

    def polynomial(self) -> IntPoly:
        """Generating polynomial sum q^stat."""
        return IntPoly.from_terms(self.values.items())


def stat_multiset(
    n: int, stat: str, *, brute_max: int | None = None, jobs: int = 1
) -> StatMultiset:
    """Distribution of a statistic over all of S_n."""
    _guard(n, brute_max)
    if stat not in STATS:
        raise ValueError(f"stat must be one of {STATS}")
    if n == 0:
        return StatMultiset(0, stat, {0: 1})
    if stat == "des3":
        keys, hist = range(n), _merge(_des3_task, n, jobs)
    else:
        keys, hist = _set_stats(n)[stat].tolist(), _descent_histogram(n, jobs)
    return StatMultiset(n, stat, _read_off(keys, hist))


def brute_alt_eulerian(
    n: int, *, brute_max: int | None = None, jobs: int = 1
) -> IntPoly:
    """sum over S_n of t^altdes.

    >>> brute_alt_eulerian(3).coeffs
    (2, 2, 2)
    """
    return stat_multiset(n, "altdes", brute_max=brute_max, jobs=jobs).polynomial()


def brute_qalt(n: int, *, brute_max: int | None = None, jobs: int = 1) -> BiPolyTQ:
    """sum over S_n of t^altdes q^altmaj."""
    _guard(n, brute_max)
    if n == 0:
        return BiPolyTQ.one()
    hist = _descent_histogram(n, jobs)
    s = _set_stats(n)
    return BiPolyTQ(_read_off(zip(s["altdes"].tolist(), s["altmaj"].tolist()), hist))


def brute_two_sided(
    n: int, *, brute_max: int | None = None, jobs: int = 1
) -> BiPolyTQ:
    """sum over S_n of s^altdes(w^-1) t^altdes(w), slots read as (s, t)."""
    _guard(n, brute_max)
    if n <= 1:
        return BiPolyTQ.one()
    hist = _merge(_two_sided_task, n, jobs)
    return BiPolyTQ(_read_off(((k // n, k % n) for k in range(n * n)), hist))


def brute_simsun(n: int, *, brute_max: int | None = None, jobs: int = 1) -> IntPoly:
    """Descent polynomial of the Simsun permutations of length n.

    The words are generated rather than filtered from S_n, in a single
    process, so jobs has no effect.

    >>> brute_simsun(3).coeffs
    (1, 4)
    """
    _guard(n, brute_max)
    if n == 0:
        return IntPoly.one()
    des = _read_off(_set_stats(n)["des"].tolist(), _simsun_hist(n))
    return IntPoly([des.get(d, 0) for d in range(n)])


class CdIndex(NamedTuple):
    """Word counts: phi, the cd-index, as cd-words over the Simsun
    permutations ending in n; psi and psi_hat, the ab-indexes of the
    descent and alternating descent sets over all of S_n, as ab-words."""

    phi: dict[str, int]
    psi: dict[str, int]
    psi_hat: dict[str, int]


def _ab_words(n: int, hist: np.ndarray, flip: int = 0) -> dict[str, int]:
    """The descent-set histogram of words of length n as ab-words:
    letter i of the word of code c is 'b' iff bit i of c ^ flip is set."""
    return {"".join("ab"[(code ^ flip) >> i & 1] for i in range(n - 1)): c
            for code, c in enumerate(hist.tolist()) if c}


def brute_cd_index(n: int, *, brute_max: int | None = None, jobs: int = 1) -> CdIndex:
    """Tally the three word counts of CdIndex: psi and psi_hat off the
    descent-set histogram of S_n (tallied by jobs workers), read directly
    and with the odd (0-based) positions flipped; phi, in one process, off
    the descent-set histogram of the Simsun words of length n - 1, which
    appending n maps one-to-one onto those of length n that end in n,
    adding an ascent and so keeping each descent-set code.

    >>> brute_cd_index(3).phi
    {'cc': 1, 'd': 1}
    """
    _guard(n, brute_max)
    if n <= 1:
        return CdIndex({"": 1}, {"": 1}, {"": 1})
    hist = _descent_histogram(n, jobs)
    odd = sum(1 << i for i in range(1, n - 1, 2))
    phi = _ab_words(n, _simsun_hist(n - 1))
    return CdIndex({ab_to_cd(u): c for u, c in phi.items()},
                   _ab_words(n, hist), _ab_words(n, hist, odd))


def brute_des3_first1(n: int, *, brute_max: int | None = None,
                      jobs: int = 1) -> StatMultiset:
    """Distribution of 3-descents over permutations of S_{n+1} whose
    first letter is 1 (the comparison class for altdes on S_n), tallied
    over S_n: w -> 1.(w+1) is a bijection from S_n onto that class, and
    des3(1.(w+1)) = des3(w) + [w_1 > w_2]."""
    _guard(n, brute_max)
    hist = _merge(partial(_des3_task, lead=True), n, jobs)
    return StatMultiset(n + 1, "des3", _read_off(range(n + 1), hist))


def down_up_simsun_count(n: int, *, brute_max: int | None = None) -> int:
    """Number of length-n permutations that are both down-up and
    Simsun: the Simsun words whose descent set is {1, 3, 5, ...}."""
    _guard(n, brute_max)
    if n <= 1:
        return 1
    down_up = sum(1 << i for i in range(0, n - 1, 2))
    return int(_simsun_hist(n)[down_up])
