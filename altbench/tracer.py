"""Span tracing of altdes from outside the program.

Run as a script, this installs wrappers on the public functions of every
altdes module and then runs one benchmark operation:

    python tracer.py SPANS_PATH cli ARGS...        # altdes.cli.main(ARGS)
    python tracer.py SPANS_PATH session ARGS...    # session.main(ARGS)

Each wrapped call records a span: its name, start, end, and the span
that was open when it began.  Spans stay in memory and are written to
SPANS_PATH when the process exits.  `aggregate` turns a spans file into
per-name totals with self time (a span's duration minus its children's).

What is wrapped, per layer (= module):

* every public module-level function, under each name that holds it in
  any altdes module namespace, so `from .recurrences import five_term`
  in another module is wrapped too;
* public methods and the arithmetic operators of classes, patched on the
  class, so `IntPoly.__mul__` / `__rmul__` see every product;
* generator functions are timed across each `next()` call.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import os
import sys
from array import array
from dataclasses import dataclass
from math import factorial
from time import perf_counter

LAYERS = ("cli", "oracle", "recurrences", "polynomials", "divisibility",
          "gamma", "permutations")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__pow__", "__divmod__", "__call__")
# Oracle functions that enumerate S_n for their argument n.
ENUMERATING = ("stat_multiset", "brute_alt_eulerian", "brute_qalt",
               "brute_two_sided", "brute_simsun", "brute_cd_index",
               "brute_des3_first1", "iter_perm_arrays", "down_up_simsun_count")
# Shorter operand length from which a product counts as large.
LARGE_OPERAND = 32
# Size recorded for the second and later next() steps of a generator.
CONTINUED = -1

_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"),
            ("work", "q"), ("size", "q"))


class Spans:
    """Spans of one process, in columns; a span's index is its id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cols = {col: array(code) for col, code in _COLUMNS}
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int, work: int, size: int) -> int:
        c = self.cols
        i = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["work"].append(work)
        c["size"].append(size)
        c["end"].append(0.0)
        self.stack.append(i)
        c["start"].append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.cols["end"][i] = perf_counter()
        self.stack.pop()

    def write(self, path: str, pid: int) -> None:
        if os.getpid() != pid:  # a forked pool worker exiting
            return
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.cols["name"])}
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.cols[col].tofile(fh)


def _read(path: str) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for col, code in _COLUMNS:
            cols[col] = array(code)
            cols[col].fromfile(fh, header["count"])
    return header["names"], cols


# ---------------------------------------------------------------------------
# wrappers

def _measure_product(a, b) -> tuple[int, int]:
    """Coefficient products and shorter operand length of a
    polynomial-by-polynomial product; (0, 0) for a scalar factor."""
    if not isinstance(b, type(a)):
        return 0, 0
    la, lb = len(a.coeffs), len(b.coeffs)
    return la * lb, min(la, lb)


def _measure_rows(*args, **kwargs) -> tuple[int, int]:
    """Rows of S_n enumerated, from the argument n."""
    n = args[0] if args else kwargs["n"]
    return factorial(n), 0


def _wrap(spans: Spans, fn, name: str, measure):
    nid = spans.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            work, size = measure(*args, **kwargs) if measure else (0, 0)
            it = fn(*args, **kwargs)
            while True:
                i = spans.open(nid, work, size)
                work, size = 0, CONTINUED  # later steps are not new calls
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans.close(i)
                yield item
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        work, size = measure(*args, **kwargs) if measure else (0, 0)
        i = spans.open(nid, work, size)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.close(i)
    return traced


def install(spans: Spans) -> None:
    """Wrap the public surface of every altdes layer."""
    import altdes  # noqa: F401  (imports every layer but cli)
    import altdes.cli  # noqa: F401

    originals: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)

    def wrapper_for(fn, name, measure=None):
        if id(fn) not in originals:
            originals[id(fn)] = (fn, _wrap(spans, fn, name, measure))
        return originals[id(fn)][1]

    for layer in LAYERS:
        mod = sys.modules[f"altdes.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                            not meth.startswith("_") or meth in ARITHMETIC):
                        measure = (_measure_product
                                   if fn.__qualname__ == "IntPoly.__mul__" else None)
                        setattr(obj, meth, wrapper_for(
                            fn, f"{layer}.{fn.__qualname__}", measure))
            elif callable(obj):
                measure = (_measure_rows
                           if layer == "oracle" and attr in ENUMERATING else None)
                wrapper_for(obj, f"{layer}.{attr}", measure)

    for modname, mod in list(sys.modules.items()):
        if modname != "altdes" and not modname.startswith("altdes."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# aggregation

@dataclass
class NameStats:
    calls: int = 0
    entries: int = 0       # calls made from outside the span's layer
    self_s: float = 0.0
    work: int = 0          # summed over all calls
    outer_work: int = 0    # summed over calls with no same-layer ancestor
    large_calls: int = 0
    large_self_s: float = 0.0


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(paths: list[str]) -> dict[str, NameStats]:
    """Per-name totals over the spans files of one pass."""
    stats: dict[str, NameStats] = {}
    bit = {lay: 1 << k for k, lay in enumerate(LAYERS)}
    for path in paths:
        names, cols = _read(path)
        name_bit = [bit[layer_of(n)] for n in names]
        nm, parent, work, size = cols["name"], cols["parent"], cols["work"], cols["size"]
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        child = [0.0] * len(dur)
        ancestors = [0] * len(dur)  # layer bits of every enclosing span
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | name_bit[nm[p]]
        for i, nid in enumerate(nm):
            st = stats.setdefault(names[nid], NameStats())
            own = dur[i] - child[i]
            st.self_s += own
            st.work += work[i]
            p = parent[i]
            if size[i] != CONTINUED:
                st.calls += 1
                if p < 0 or name_bit[nm[p]] != name_bit[nid]:
                    st.entries += 1
            if not ancestors[i] & name_bit[nid]:
                st.outer_work += work[i]
            if size[i] >= LARGE_OPERAND:
                st.large_calls += 1
                st.large_self_s += own
    return stats


def main(argv: list[str]) -> int:
    path, mode, rest = argv[0], argv[1], argv[2:]
    spans = Spans()
    install(spans)
    atexit.register(spans.write, path, os.getpid())
    if mode == "cli":
        import altdes.cli
        return altdes.cli.main(rest)
    import session
    return session.main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
