"""Exact arithmetic for alternating descent statistics.

Polynomial carriers, permutation statistics, brute-force oracles, the
recurrence pipeline, gamma-type expansions, and the divisibility
machinery for the altmaj generating polynomials; the verify registry
(`altdes.checks`), whose `run(token)` checks one claim of the paper and
returns its rows; and a CLI (`altdes`) that computes tables and renders
the registry's rows as reports.
"""

from . import checks
from .divisibility import (
    binomial_criterion,
    build_Ev,
    build_Gn,
    check_pochhammer_orders,
    check_qj_parity,
    cyclotomic,
    extract_Ehat,
    order_of_factor,
    thm411_bijection_check,
    verify_conj410,
)
from .gamma import (
    ExpansionFailed,
    gamma_expand,
    q_gamma_extract,
    simsun_relation_check,
    two_sided_extract,
)
from .oracle import (
    DEFAULT_BRUTE_MAX,
    LimitExceeded,
    StatMultiset,
    brute_alt_eulerian,
    brute_cd_index,
    brute_des3_first1,
    brute_qalt,
    brute_simsun,
    brute_two_sided,
    down_up_simsun_count,
    stat_multiset,
)
from .permutations import (
    alt_stats,
    classic_stats,
    complement,
    double_count_check,
    insertions,
    inverse,
    is_down_up,
    is_simsun,
    normalize,
    reverse_prefix,
    reversal,
    theta,
    theta_check,
)
from .polynomials import (
    BiPolyTQ,
    IntPoly,
    NotDivisible,
    q_pochhammer,
    shape_predicates,
)
from .recurrences import (
    ParityViolation,
    chebikin_check,
    egf_check,
    euler_numbers,
    faa_di_bruno_altmaj,
    five_term,
    gamma_rec,
    quadratic_tq,
    simsun_rec,
)
from .reporting import AltdesError, CheckResult, UsageError

__version__ = "0.1.0"

__all__ = [
    "AltdesError",
    "BiPolyTQ",
    "CheckResult",
    "DEFAULT_BRUTE_MAX",
    "ExpansionFailed",
    "IntPoly",
    "LimitExceeded",
    "NotDivisible",
    "ParityViolation",
    "StatMultiset",
    "UsageError",
    "alt_stats",
    "binomial_criterion",
    "brute_alt_eulerian",
    "brute_cd_index",
    "brute_des3_first1",
    "brute_qalt",
    "brute_simsun",
    "brute_two_sided",
    "build_Ev",
    "build_Gn",
    "chebikin_check",
    "check_pochhammer_orders",
    "check_qj_parity",
    "classic_stats",
    "complement",
    "cyclotomic",
    "double_count_check",
    "down_up_simsun_count",
    "egf_check",
    "euler_numbers",
    "extract_Ehat",
    "faa_di_bruno_altmaj",
    "five_term",
    "gamma_expand",
    "gamma_rec",
    "insertions",
    "inverse",
    "is_down_up",
    "is_simsun",
    "normalize",
    "order_of_factor",
    "q_gamma_extract",
    "q_pochhammer",
    "quadratic_tq",
    "reversal",
    "reverse_prefix",
    "shape_predicates",
    "simsun_rec",
    "simsun_relation_check",
    "stat_multiset",
    "theta",
    "theta_check",
    "thm411_bijection_check",
    "two_sided_extract",
    "verify_conj410",
]
