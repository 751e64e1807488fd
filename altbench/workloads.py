"""The three altdes benchmark workloads.

Every input is one of the paper's fixed parameters.  The workload seed
only shuffles the order of the operations inside a pass, so a seed that
changes a result exposes state carried from one operation to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY_TOKENS = (
    "thm2.1", "eq1", "thm3.1", "thm3.2", "cor3.3", "prop3.4", "cor3.5",
    "thm4.2", "thm4.5", "thm4.6", "thm4.11", "eq2", "eq-fn0", "conj4.10",
    "conj5.1", "conj5.2", "conj5.3", "equidist", "double-count",
)

# The criterion-3 comparisons: recurrence against brute force, n = 1..11.
SESSION_STATS = ("alt", "qalt", "simsun")
SESSION_MAX_N = 11


@dataclass(frozen=True)
class Workload:
    """One pass runs every operation once, one after another.

    kind "cli": each operation is one `python -m altdes.cli` command,
    given as its argument string.  kind "session": each operation is one
    "stat:n" comparison, and the whole pass is a single interpreter.
    """

    name: str
    kind: str
    operations: tuple[str, ...]
    why: str

    def order(self, rng: random.Random) -> list[str]:
        """The operations of one pass, shuffled by the workload seed."""
        return rng.sample(self.operations, len(self.operations))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-defaults",
            "cli",
            tuple(f"verify {t} --jobs 1 --format text" for t in VERIFY_TOKENS),
            "every verify token at its default range: the paper check users "
            "run, small sizes through every layer, no process pool",
        ),
        Workload(
            "recurrence-frontier",
            "cli",
            (
                "factor --n 40 --format text",
                "verify thm4.2 --max-n 24 --format text",
                "verify eq-fn0 --max-n 26 --format text",
                "verify thm4.6 --max-n 20 --format text",
                "compute alt --q --n 28 --format text",
                "compute gamma --q --n 24 --format text",
                "verify conj5.1 --max-n 500 --format text",
            ),
            "exact recurrences and polynomial products just under the 60 s "
            "frontier, with no enumeration at all",
        ),
        Workload(
            "oracle-n11",
            "session",
            tuple(f"{s}:{n}" for s in SESSION_STATS
                  for n in range(1, SESSION_MAX_N + 1)),
            "brute-force enumeration of S_n up to n = 11 in one interpreter "
            "with a two-process pool, three statistics of the same S_n",
        ),
    )
}
