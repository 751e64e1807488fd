"""Exact polynomial arithmetic over the integers.

Two carriers, both with arbitrary-precision integer coefficients:

* ``IntPoly``      dense univariate polynomials,
* ``BiPolyTQ``     bivariate values with no arithmetic, one run of
                   q-coefficients per power of t (slots named t and q,
                   reused as (s, t) for two-sided statistics).

Floating point appears once, as a certified filter in front of the
exact log-concavity test of ``shape_predicates``; every verdict is exact.
"""

from __future__ import annotations

from itertools import repeat
from math import log, nan
from operator import add, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

from .reporting import AltdesError


class NotDivisible(AltdesError, ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class IntPoly:
    """Immutable dense univariate polynomial with int coefficients.

    Coefficients are stored ascending; trailing zeros are stripped, so
    the zero polynomial is the empty tuple.

    >>> p = IntPoly([1, 2, 1])
    >>> p * p
    IntPoly((1, 4, 6, 4, 1))
    >>> p(3)
    16
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "IntPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exp + (coeff,))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> "IntPoly":
        """Sum of coeff * x^exponent over (exponent, coeff) pairs;
        repeated exponents add up.

        >>> IntPoly.from_terms([(2, 1), (0, 3), (2, 4)])
        IntPoly((3, 0, 5))
        >>> IntPoly.from_terms([])
        IntPoly(())
        """
        acc: dict[int, int] = {}
        for e, c in terms:
            acc[e] = acc.get(e, 0) + c
        if acc and min(acc) < 0:
            raise ValueError("exponent must be nonnegative")
        return cls(acc.get(e, 0) for e in range(max(acc, default=-1) + 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        if min(len(a), len(b)) >= _KRONECKER_MIN:
            return IntPoly(_kronecker(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:  # square and multiply
            raise ValueError("negative power")
        result, base = IntPoly.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, x):
        """Evaluate by Horner; works for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def compose(self, other: "IntPoly") -> "IntPoly":
        """Substitution self(other(x)), by Horner."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * other + IntPoly((c,))
        return acc

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x^k, k >= 0."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def mul_binomial(self, k: int, sign: int) -> "IntPoly":
        """Product with (1 + sign*x^k), sign in {+1, -1}, in linear time.

        >>> IntPoly((1, 1)).mul_binomial(2, -1)
        IntPoly((1, 1, -1, -1))
        """
        _check_binomial(k, sign)
        a = self.coeffs
        pad = (0,) * k
        return IntPoly(map(add if sign > 0 else sub, a + pad, pad + a))

    def div_binomial(self, k: int, sign: int) -> "tuple[IntPoly, bool]":
        """Fast division by (1 + sign*x^k), sign in {+1, -1}.

        Returns (quotient, exact).  Linear time in the degree; the only
        polynomial division in altdes.
        """
        _check_binomial(k, sign)
        if not self.coeffs:
            return IntPoly(), True
        d = self.degree
        if d < k:
            return IntPoly(), False
        # (1 + s x^k) * B = A  means  a_i = b_i + s b_{i-k}
        b = list(self.coeffs)
        for i in range(k, d + 1):
            b[i] -= sign * b[i - k]
        if any(b[i] for i in range(d - k + 1, d + 1)):
            return IntPoly(), False
        return IntPoly(b[: d - k + 1]), True

    def pretty(self, var: str = "t") -> str:
        """Human-readable form, ascending powers: '16 + 26t + 36t^2'."""
        return _pretty((_mono(var, e), c) for e, c in enumerate(self.coeffs))


def _mono(var: str, exp: int) -> str:
    """var^exp as printed: '' for exp 0, var alone for exp 1."""
    return "" if exp == 0 else var if exp == 1 else f"{var}^{exp}"


def _pretty(pairs: Iterable[tuple[str, int]]) -> str:
    """Signed sum of (monomial, coefficient) pairs in the given order,
    zero coefficients skipped: [("", 2), ("q", -1)] prints '2 - q'."""
    parts: list[str] = []
    for mono, c in pairs:
        if not c:
            continue
        body = mono if abs(c) == 1 and mono else f"{abs(c)}{mono}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _check_binomial(k: int, sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if k <= 0:
        raise ValueError("k must be positive")


# Shorter operand length from which IntPoly.__mul__ uses the Kronecker
# product; below it the schoolbook loop is faster.
_KRONECKER_MIN = 20


def pack_coeffs(coeffs: Iterable[int], width: int) -> int:
    """The polynomial with coefficients 0 <= c < 256^width evaluated at
    X = 256^width: one integer, each coefficient a width-byte digit.

    >>> pack_coeffs([1, 2, 3], 1) == 1 + 2 * 256 + 3 * 256 ** 2
    True
    """
    return int.from_bytes(
        b"".join(map(int.to_bytes, coeffs, repeat(width), repeat("little"))),
        "little")


def unpack_coeffs(value: int, width: int) -> list[int]:
    """Base-256^width digits of value >= 0, lowest first; inverts
    pack_coeffs up to trailing zeros.

    >>> unpack_coeffs(pack_coeffs([1, 2, 3], 1), 1)
    [1, 2, 3]
    """
    size = -(-value.bit_length() // (8 * width)) * width
    raw = value.to_bytes(size, "little")
    fb = int.from_bytes
    return [fb(raw[i:i + width], "little") for i in range(0, size, width)]


def _kronecker(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the product a*b by Kronecker substitution.

    Both operands are evaluated at X = 256^width, multiplied once, and
    the product is read back in base X.  A signed coefficient c is
    stored as the digit c + X/2, so every digit is nonnegative; the
    offsets are one multiple of the repunit sum_i X^i, subtracted after
    packing and added back before unpacking.  The width leaves every
    product coefficient strictly inside (-X/2, X/2).
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    unit = (1).to_bytes(width, "little")

    def offsets(count: int) -> int:
        return half * int.from_bytes(unit * count, "little")

    x = pack_coeffs(map(add, a, repeat(half)), width) - offsets(len(a))
    y = x if b is a else pack_coeffs(map(add, b, repeat(half)), width) - offsets(len(b))
    n = len(a) + len(b) - 1
    # the top digit c + X/2 is positive, so exactly n digits come back
    return list(map(sub, unpack_coeffs(x * y + offsets(n), width), repeat(half)))


def _coerce(v) -> "IntPoly":
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly((v,)) if v else IntPoly()
    return NotImplemented


def one_plus_pow(k: int) -> IntPoly:
    """1 + x^k, k >= 1."""
    return IntPoly.one().mul_binomial(k, 1)


def q_pochhammer(n: int) -> IntPoly:
    """(q;q)_n = prod_{i=1..n} (1 - q^i), n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = IntPoly.one()
    for i in range(1, n + 1):
        out = out.mul_binomial(i, -1)
    return out


class Shape(NamedTuple):
    palindromic: bool
    unimodal: bool
    log_concave: bool


def shape_predicates(f: IntPoly) -> Shape:
    """Palindromicity, unimodality, and log-concavity of a coefficient
    sequence.

    palindromic holds when the stored coefficients 0..deg read the same
    reversed; the zero polynomial is not palindromic.  Unimodality
    is over the full 0..deg range; log-concavity (c_i^2 >= c_{i-1} c_{i+1})
    is over the interior of the support.
    """
    cs = f.coeffs
    if not cs:
        return Shape(False, True, True)
    palindromic = cs == cs[::-1]
    unimodal = True
    falling = False
    for i in range(1, len(cs)):
        if cs[i] < cs[i - 1]:
            falling = True
        elif cs[i] > cs[i - 1] and falling:
            unimodal = False
            break
    # Float filter in front of the exact test.  For an int c > 0,
    # math.log(c) is log(float(c)), or log(x) + e*log(2) with c ~ x*2^e,
    # 0.5 <= x < 1, once c overflows a double; x is c rounded to 53 bits
    # and each of the few float operations errs by an ulp or so, so
    # |L_i - ln c_i| <= 2^-50 (1 + ln c_i).  With B the bit length of the
    # largest |c|, every 0 <= L_i < B, so the float second difference below
    # errs by less than 2^-47 (1 + B) < 1e-14 (1 + B), and clearing the
    # margin 1e-9 (1 + B) proves c_i^2 > c_{i-1} c_{i+1}.  Every other index
    # (near-equality, or a coefficient <= 0, whose log is NaN and so never
    # clears) is decided by the exact product test.
    logs = [log(c) if c > 0 else nan for c in cs]
    margin = 1e-9 * (1 + max(map(abs, cs)).bit_length())
    log_concave = all(
        2 * logs[i] - logs[i - 1] - logs[i + 1] > margin
        or cs[i] * cs[i] >= cs[i - 1] * cs[i + 1]
        for i in range(f.valuation() + 1, f.degree)
    )
    return Shape(palindromic, unimodal, log_concave)


# ---------------------------------------------------------------------------
# bivariate polynomials

def _slice(lo: int, p: IntPoly) -> tuple[int, IntPoly]:
    """The slice q^lo p(q), with p's zero low coefficients moved into lo."""
    if not p:
        return 0, p
    v = p.valuation()
    return (lo + v, IntPoly(p.coeffs[v:])) if v else (lo, p)


class BiPolyTQ:
    """Immutable bivariate polynomial, one q-slice per power of t; a
    value with views and no arithmetic, which callers do on coefficients.

    The two slots are called t and q.  For two-sided descent
    polynomials the same carrier is used with slots read as (s, t).
    rows[k] = (lo, p) says the coefficient of t^k is q^lo p(q), where p
    is an IntPoly whose constant term is nonzero; a zero slice is
    (0, IntPoly()), and trailing zero slices are stripped, so equal
    polynomials have equal rows.
    """

    __slots__ = ("rows",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int]):
        by_t: dict[int, list[tuple[int, int]]] = {}
        for (k, j), c in coeffs.items():
            if c == 0:
                continue
            if k < 0 or j < 0:
                raise ValueError(f"bad exponent pair ({k}, {j})")
            by_t.setdefault(k, []).append((j, c))
        rows = ((0, IntPoly.from_terms(by_t.get(k, ()))) for k in range(max(by_t, default=-1) + 1))
        object.__setattr__(self, "rows", BiPolyTQ.from_rows(rows).rows)

    def __setattr__(self, name, value):
        raise AttributeError("BiPolyTQ is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, IntPoly]]) -> "BiPolyTQ":
        """The polynomial sum_k t^k q^lo p(q) over rows of (lo, p).

        >>> BiPolyTQ.from_rows([(2, IntPoly((0, 5))), (0, IntPoly())]).terms()
        [(0, 3, 5)]
        """
        out = []
        for lo, p in rows:
            out.append(_slice(lo, p))
            if out[-1][0] < 0:
                raise ValueError("exponent must be nonnegative")
        while out and not out[-1][1]:
            out.pop()
        obj = cls.__new__(cls)
        object.__setattr__(obj, "rows", tuple(out))
        return obj

    @classmethod
    def one(cls) -> "BiPolyTQ":
        return cls.from_rows([(0, IntPoly.one())])

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        return {(k, j): c for k, j, c in self.terms()}

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (t_exp, q_exp, coeff) triples."""
        return [(k, lo + i, c) for k, (lo, p) in enumerate(self.rows)
                for i, c in enumerate(p.coeffs) if c]

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPolyTQ):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"BiPolyTQ({self.coeffs!r})"

    def at_t_qpow(self, c: int = 0) -> IntPoly:
        """Set t = q^c, moving slice k up ck powers of q; c = 0 sets t = 1.

        >>> BiPolyTQ({(0, 0): 2, (1, 1): 1, (1, 2): 1, (2, 3): 2}).at_t_qpow(1).coeffs
        (2, 0, 1, 1, 0, 2)
        """
        if c < 0:
            raise ValueError("power must be nonnegative")
        rows = [(lo + c * k, p.coeffs) for k, (lo, p) in enumerate(self.rows)]
        out = [0] * max((lo + len(p) for lo, p in rows), default=0)
        for lo, p in rows:
            out[lo:lo + len(p)] = map(add, out[lo:lo + len(p)], p)
        return IntPoly(out)

    def pretty(self, tvar: str = "t", qvar: str = "q") -> str:
        return _pretty((_mono(tvar, k) + _mono(qvar, j), c) for k, j, c in self.terms())
