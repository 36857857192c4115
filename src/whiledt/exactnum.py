"""Exact numerics for stage evaluation.

A value is either a rational, held as a plain `fractions.Fraction`, or a
symbolic expression (`Affine`, `SymExpr`) over rationals and named
ternary digit streams.  Symbolic values are compared and floored by
interval refinement: every enclosure is a closed rational interval that
provably contains the true value, and refinement only ever shrinks it.
Digit streams use base 3 with digits restricted to {0, 1}, so a stream's
value lies in [0, 3/2] and partial sums approach it from below.

Rationals are recognised by `type(x) is Fraction`.  Fraction derives from
numbers.Rational, so isinstance against it goes through ABCMeta, and a
test that fails, as it does for every symbolic value, costs about ten
times as much.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DivisionByZero, OracleQueryLimit, UnresolvedComparison

LT, EQ, GT = "LT", "EQ", "GT"

# Digit-query budget for a single comparison / floor / divisor check.
DEFAULT_FUEL = 4096


class Fuel:
    """Counts digit queries issued by one operation; trips at the limit."""

    def __init__(self, limit=DEFAULT_FUEL):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise OracleQueryLimit(
                f"digit queries exceeded the configured bound of {self.limit}"
            )


class QueryRecorder:
    """Set of distinct oracle queries made during one stage evaluation."""

    def __init__(self):
        self._seen = set()

    def record(self, key):
        """Record a query key; returns True when it is new."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    @property
    def count(self):
        return len(self._seen)


class OracleReal:
    """A real constant whose base-3 digits come from a 0/1 digit stream.

    The represented value is sum(3**-i * d(i) for i >= 0), always in
    [0, 3/2].  Digits are memoized: repeated queries at an index return
    the same digit and the partial-sum cache grows monotonically.
    """

    def __init__(self, name, digit_fn):
        self.name = name
        self._digit_fn = digit_fn
        self._digits = []
        self._psums = [Fraction(0)]  # _psums[m] = sum of first m terms

    def digit(self, i, fuel=None, recorder=None):
        if i < 0:
            raise ValueError("digit index must be >= 0")
        if fuel is not None:
            fuel.spend()
        if recorder is not None:
            recorder.record((self.name, "digit", i))
        while len(self._digits) <= i:
            j = len(self._digits)
            d = self._digit_fn(j)
            if d not in (0, 1):
                raise ValueError(
                    f"oracle {self.name!r} produced digit {d!r} at index {j};"
                    " digits must be 0 or 1"
                )
            self._digits.append(d)
            self._psums.append(self._psums[-1] + Fraction(d, 3**j))
        return self._digits[i]

    def prefix_sum(self, m, fuel=None, recorder=None):
        """Exact value of the first m digit terms."""
        if m > 0:
            self.digit(m - 1, fuel, recorder)
            if fuel is not None and m > 1:
                fuel.spend(m - 1)
            if recorder is not None:
                for i in range(m - 1):
                    recorder.record((self.name, "digit", i))
        return self._psums[m]

    def __repr__(self):
        return f"OracleReal({self.name!r})"


def tail_bound(m):
    """Upper bound of the digit-stream tail from index m on."""
    return Fraction(3, 2 * 3**m)


@dataclass(frozen=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


class ExactReal:
    """Base class of the symbolic values; use the module functions or
    operators to combine them with each other and with Fractions."""

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True, slots=True)
class Affine(ExactReal):
    """offset + coeff * stream-value, with coeff != 0.

    This shape is closed under +/- of rationals and scaling by rationals,
    which is exactly what oracle-decoding programs produce.  It admits a
    digit-exact refinement path: with m digits read, the value lies in
    offset + coeff * [S_m, S_m + tail_bound(m)].
    """

    offset: Fraction
    coeff: Fraction
    stream: OracleReal

    def __repr__(self):
        return f"Affine({self.offset} + {self.coeff}*{self.stream.name})"


@dataclass(frozen=True, slots=True)
class SymExpr(ExactReal):
    """General binary node; op is one of '+', '-', '*', '/'."""

    op: str
    lhs: Fraction | ExactReal
    rhs: Fraction | ExactReal
    # For '/': a refinement depth at which the divisor's enclosure is known
    # to exclude zero.  Not part of the value.
    den_prec: int = field(default=0, compare=False)

    def __repr__(self):
        return f"SymExpr({value_repr(self.lhs)} {self.op} {value_repr(self.rhs)})"


def value_repr(x):
    """repr of a value as reports print it: a rational as `Rat(p/q)`."""
    return f"Rat({x})" if type(x) is Fraction else repr(x)


def exact(x) -> Fraction:
    """An int, Fraction, or exact-decimal/fraction string as a Fraction."""
    return Fraction(x)


def oracle_const(stream: OracleReal) -> Affine:
    return Affine(Fraction(0), Fraction(1), stream)


def _coerce(x):
    if type(x) is Fraction or isinstance(x, ExactReal):
        return x
    if isinstance(x, (int, Fraction, str)):
        return exact(x)
    raise TypeError(f"cannot use {type(x).__name__} as ExactReal")


def _affine(offset, coeff, stream):
    if coeff == 0:
        return offset
    return Affine(offset, coeff, stream)


def add(a, b, affine=True):
    if type(a) is Fraction and type(b) is Fraction:
        return a + b
    if affine:
        if type(a) is Fraction and isinstance(b, Affine):
            return _affine(a + b.offset, b.coeff, b.stream)
        if isinstance(a, Affine) and type(b) is Fraction:
            return _affine(a.offset + b, a.coeff, a.stream)
        if (
            isinstance(a, Affine)
            and isinstance(b, Affine)
            and a.stream is b.stream
        ):
            return _affine(a.offset + b.offset, a.coeff + b.coeff, a.stream)
    return SymExpr("+", a, b)


def sub(a, b, affine=True):
    if type(a) is Fraction and type(b) is Fraction:
        return a - b
    if affine:
        if type(a) is Fraction and isinstance(b, Affine):
            return _affine(a - b.offset, -b.coeff, b.stream)
        if isinstance(a, Affine) and type(b) is Fraction:
            return _affine(a.offset - b, a.coeff, a.stream)
        if (
            isinstance(a, Affine)
            and isinstance(b, Affine)
            and a.stream is b.stream
        ):
            return _affine(a.offset - b.offset, a.coeff - b.coeff, a.stream)
    return SymExpr("-", a, b)


def mul(a, b, affine=True):
    if type(a) is Fraction and type(b) is Fraction:
        return a * b
    if affine:
        if type(a) is Fraction and isinstance(b, Affine):
            if a == 0:
                return Fraction(0)
            return _affine(a * b.offset, a * b.coeff, b.stream)
        if isinstance(a, Affine) and type(b) is Fraction:
            return mul(b, a)
    if type(a) is Fraction and a == 0 or type(b) is Fraction and b == 0:
        return Fraction(0)
    return SymExpr("*", a, b)


def neg(a):
    if type(a) is Fraction:
        return -a
    if isinstance(a, Affine):
        return Affine(-a.offset, -a.coeff, a.stream)
    return sub(Fraction(0), a)


def div(a, b, affine=True, fuel_limit=DEFAULT_FUEL, recorder=None):
    """Exact division; the divisor must be provably nonzero.

    A rational divisor is checked directly.  A symbolic divisor is refined
    until its enclosure excludes zero; if the budget runs out first the
    division is rejected with UnresolvedComparison.
    """
    if type(b) is Fraction:
        if b == 0:
            raise DivisionByZero("division by zero")
        if type(a) is Fraction:
            return a / b
        if affine and isinstance(a, Affine):
            return _affine(a.offset / b, a.coeff / b, a.stream)
        return SymExpr("/", a, b)
    prec = _decide(
        _depth_enclosures(b, Fuel(fuel_limit), recorder),
        lambda j, iv: None if 0 in iv else j,
        "divisor cannot be separated from zero within fuel {fuel};"
        " last enclosure {last}",
        fuel_limit,
    )
    return SymExpr("/", a, b, den_prec=prec)


def _decide(enclosures, verdict, refusal, fuel_limit):
    """The refinement loop behind every exact comparison, floor and divisor
    check: read shrinking enclosures until one decides, or refuse.

    `enclosures` yields (step, Interval) pairs and `verdict(step, iv)`
    returns the answer, or None while the enclosure is undecided.  When
    the digit fuel runs out the loop raises UnresolvedComparison with
    `refusal` formatted with the fuel limit and the last enclosure read.
    """
    last = None
    try:
        for step, last in enclosures:
            answer = verdict(step, last)
            if answer is not None:
                return answer
    except OracleQueryLimit:
        raise UnresolvedComparison(
            refusal.format(fuel=fuel_limit, last=last),
            fuel=fuel_limit,
        ) from None


def _depths():
    """Refinement depths for sign/floor searches: 0, 1, 2, 4, 8, ...

    The answers these searches produce are depth-independent, so the
    schedule only affects how fast the budget is spent.
    """
    j = 0
    while True:
        yield j
        j = max(j + 1, 2 * j)


def _depth_enclosures(x, fuel, recorder):
    """(j, enclosure at depth j) for the geometric depth schedule."""
    for j in _depths():
        yield j, _enclose(x, j, fuel, recorder)


def _enclosures(x, fuel, recorder):
    """Shrinking enclosures of x for sign and floor searches.

    Affine values advance one digit at a time, so decoding programs issue
    exactly the digits they need: the floor of 3**k times a stream reads
    exactly the digits d_0..d_k.  General DAGs use the depth schedule.
    """
    if isinstance(x, Affine):
        m = 0
        while True:
            yield m, _affine_enclosure(x, m, fuel, recorder)
            m += 1
    else:
        yield from _depth_enclosures(x, fuel, recorder)


def _affine_enclosure(x, m, fuel, recorder):
    """x's enclosure with m digits of its stream read."""
    s = x.stream.prefix_sum(m, fuel, recorder)
    a = x.offset + x.coeff * s
    b = x.offset + x.coeff * (s + tail_bound(m))
    return Interval(min(a, b), max(a, b))


def _enclose(x, j, fuel=None, recorder=None) -> Interval:
    """Raw enclosure at refinement depth j (nested, shrinking in j)."""
    if type(x) is Fraction:
        return Interval(x, x)
    if isinstance(x, Affine):
        return _affine_enclosure(x, j + 1, fuel, recorder)
    if isinstance(x, SymExpr):
        li = _enclose(x.lhs, j, fuel, recorder)
        if x.op == "/":
            ri = _enclose(x.rhs, max(j, x.den_prec), fuel, recorder)
        else:
            ri = _enclose(x.rhs, j, fuel, recorder)
        return _combine(x.op, li, ri)
    raise TypeError(f"not an ExactReal: {x!r}")


def _combine(op, a, b):
    if op == "+":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op == "*":
        prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return Interval(min(prods), max(prods))
    if op == "/":
        if b.lo <= 0 <= b.hi:
            # Construction certifies separation at den_prec; reaching this
            # means the caller bypassed div().
            raise DivisionByZero("divisor enclosure straddles zero")
        quots = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
        return Interval(min(quots), max(quots))
    raise ValueError(f"unknown operator {op!r}")


def refine(x, k, fuel=None, recorder=None) -> Interval:
    """Enclosure of width at most 3**-k, nested as k grows."""
    if k < 0:
        raise ValueError("precision must be >= 0")
    x = _coerce(x)
    if type(x) is Fraction:
        return Interval(x, x)
    target = Fraction(1, 3**k)
    if isinstance(x, Affine):
        # Smallest m with |coeff| * tail_bound(m) <= 3**-k, found exactly.
        m = max(0, k)
        c = abs(x.coeff)
        while c * tail_bound(m) > target:
            m += 1
        return _affine_enclosure(x, m, fuel, recorder)
    j = k
    while True:
        iv = _enclose(x, j, fuel, recorder)
        if iv.width <= target:
            return iv
        j += 1


def _sign(_, iv):
    return GT if iv.lo > 0 else LT if iv.hi < 0 else None


def compare(a, b, fuel_limit=DEFAULT_FUEL, recorder=None):
    """Three-way exact comparison.

    EQ is returned only for equal rationals or structurally identical
    expressions; numerically equal but distinct symbolic values refine
    forever and surface as UnresolvedComparison.
    """
    a, b = _coerce(a), _coerce(b)
    if a == b:
        return EQ
    d = sub(a, b)
    if type(d) is Fraction:
        return LT if d < 0 else GT if d > 0 else EQ
    return _decide(
        _enclosures(d, Fuel(fuel_limit), recorder),
        _sign,
        "comparison unresolved after {fuel} digit queries",
        fuel_limit,
    )


# The six comparison operators on rationals, and on an enclosure [lo, hi]
# of lhs - rhs: True or False once the enclosure decides, else None.  `=`
# can only ever be refuted numerically, and `!=` only confirmed.
RAT_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}
_ENCLOSURE_CMP = {
    "<": lambda lo, hi: True if hi < 0 else (False if lo >= 0 else None),
    "<=": lambda lo, hi: True if hi <= 0 else (False if lo > 0 else None),
    ">": lambda lo, hi: True if lo > 0 else (False if hi <= 0 else None),
    ">=": lambda lo, hi: True if lo >= 0 else (False if hi < 0 else None),
    "=": lambda lo, hi: False if (lo > 0 or hi < 0) else None,
    "!=": lambda lo, hi: True if (lo > 0 or hi < 0) else None,
}


def cmp_holds(op, a, b, fuel_limit=DEFAULT_FUEL, recorder=None):
    """Certified truth value of `a op b`.

    Unlike compare(), this resolves one-sided cases exactly: for example
    `x >= 1` is certified true as soon as the enclosure's closed lower end
    reaches 1, even when x may equal 1 exactly.
    """
    if op not in RAT_CMP:
        raise ValueError(f"unknown comparison operator {op!r}")
    a, b = _coerce(a), _coerce(b)
    if a == b:
        return op in ("<=", ">=", "=")
    d = sub(a, b)
    if type(d) is Fraction:
        return RAT_CMP[op](d, 0)
    holds = _ENCLOSURE_CMP[op]
    return _decide(
        _enclosures(d, Fuel(fuel_limit), recorder),
        lambda _, iv: holds(iv.lo, iv.hi),
        f"guard `{op}` unresolved after {{fuel}} digit queries",
        fuel_limit,
    )


def _common_floor(_, iv):
    lo = math.floor(iv.lo)
    return lo if lo == math.floor(iv.hi) else None


def floor_value(x, fuel_limit=DEFAULT_FUEL, recorder=None) -> Fraction:
    """Exact floor; raises UnresolvedComparison at unseparable boundaries."""
    x = _coerce(x)
    if type(x) is Fraction:
        return Fraction(math.floor(x))
    fl = _decide(
        _enclosures(x, Fuel(fuel_limit), recorder),
        _common_floor,
        "floor sits at an integer boundary beyond fuel {fuel};"
        " last enclosure {last}",
        fuel_limit,
    )
    return Fraction(fl)


def digit_extract(x, k, recorder=None):
    """Digit d_k of a value known to be 3**k times a digit stream.

    The provenance is checked structurally: x must be Affine with offset 0
    and coefficient exactly 3**k.
    """
    x = _coerce(x)
    if k < 0:
        raise ValueError("digit index must be >= 0")
    if not (
        isinstance(x, Affine)
        and x.offset == 0
        and x.coeff == Fraction(3) ** k
    ):
        raise ValueError(
            f"value {x!r} is not tagged as 3**{k} times an oracle constant"
        )
    return x.stream.digit(k, None, recorder)
