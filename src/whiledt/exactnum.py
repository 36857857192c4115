"""Exact numerics for stage evaluation.

A value is either a rational, held as a plain `fractions.Fraction`, or a
symbolic expression (`Affine`, `SymExpr`) over rationals and named
ternary digit streams.  `_node` is the one constructor of arithmetic
results, and the only code that builds a SymExpr: `add`, `sub`, `mul`,
`div` and `neg` all call it.  It builds each value once: structurally
identical means identical, so a SymExpr compares and hashes by identity.
Symbolic values are compared and floored by interval refinement: every
enclosure is a closed rational interval that provably contains the true
value, and refinement only ever shrinks it.
Digit streams use base 3 with digits restricted to {0, 1}, so a stream's
value lies in [0, 3/2] and partial sums approach it from below.
The interval route walks expressions with explicit stacks, so it works at
any expression depth, and the enclosures a stage computes are kept in its
QueryRecorder and reused within that stage by the next refinement.
A chain of rational steps (`+`, `-` or `*` with a rational on either
side, `/` by a rational) is enclosed in one step, as offset + scale times
the enclosure of the node below it, and these maps are kept next to the
enclosures.  Each step is an exact affine image of its operand's
interval, so the composed map gives the interval a node-by-node walk
gives, from the same digits at the same depth: the digits read, the query
counts, the verdicts and the refusal texts are unchanged.
A floor or `refine` of an Affine value starts at the first digit count
whose enclosure is narrow enough to decide.  An Affine's enclosure width
is known before any digit is read, and every enclosure it skips is too
wide to decide, so the digits read, the query counts, the verdicts and
the refusal texts are those of a walk one digit at a time.

Value kinds are told apart by `type(x) is`.  Fraction derives from
numbers.Rational, so isinstance against it goes through ABCMeta, and a
test that fails, as it does for every symbolic value, costs about ten
times as much.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DivisionByZero, OracleQueryLimit, UnresolvedComparison

# Budget of new digit queries for a single comparison / floor / divisor check.
DEFAULT_FUEL = 4096


class QueryRecorder:
    """The distinct oracle queries made during one stage evaluation.

    Reading digit i of a stream computes digits 0..i, so a stream's digit
    queries are one prefix length; membership queries are a set of keys.
    """

    def __init__(self):
        self.prefix = {}  # stream name -> number of leading digits read
        self.members = set()
        self.count = 0
        # (node, depth) -> Interval for each SymExpr enclosed by the current
        # refinement and by the one before it, and node -> its map
        # (offset, scale, base) for each chain node they walked (`_map`)
        self.enclosures = {}
        self.previous = {}

    def record_member(self, key):
        if key not in self.members:
            self.members.add(key)
            self.count += 1


class Fuel:
    """One operation's budget over a stage's QueryRecorder: it trips when the
    operation would add more than `limit` new distinct queries.  Digits
    the stage already holds are free to read again."""

    def __init__(self, limit=DEFAULT_FUEL, recorder=None):
        self.limit = limit
        self.recorder = QueryRecorder() if recorder is None else recorder
        self.start = self.recorder.count

    def read(self, stream, m):
        """Read digits 0..m-1 of `stream`, recording the new ones."""
        rec = self.recorder
        new = m - rec.prefix.get(stream.name, 0)
        if new > 0 and rec.count + new - self.start > self.limit:
            raise OracleQueryLimit(
                f"digit queries exceeded the configured bound of {self.limit}"
            )
        stream.digit(m - 1)
        if new > 0:
            rec.prefix[stream.name] = m
            rec.count += new


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

    def digit(self, i):
        if i < 0:
            raise ValueError("digit index must be >= 0")
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

    def prefix_sum(self, m, fuel):
        """Exact value of the first m digit terms, read under `fuel`."""
        if m > 0:
            fuel.read(self, m)
        return self._psums[m]

    def __repr__(self):
        return f"OracleReal({self.name!r})"


def fmt_rational(q):
    """`p/q` or `p`, as str(Fraction) writes it, but also for numbers past
    Python's int-to-str digit limit, which does not apply to Decimal."""
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def tail_bound(m):
    """Upper bound of the digit-stream tail from index m on."""
    return Fraction(3, 2 * 3**m)


@dataclass(frozen=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # cross-multiplied (denominators are positive): comparing two
        # Fractions goes through the numbers ABCs
        lo, hi = self.lo, self.hi
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    def __contains__(self, x):
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"[{fmt_rational(self.lo)}, {fmt_rational(self.hi)}]"


class ExactReal:
    """Base class of the symbolic values.  `_node`, their one constructor,
    combines them with each other and with Fractions for the module
    functions `add`, `sub`, `mul`, `div` and `neg`."""


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
        offset, coeff = fmt_rational(self.offset), fmt_rational(self.coeff)
        return f"Affine({offset} + {coeff}*{self.stream.name})"


@dataclass(frozen=True, slots=True, eq=False)
class SymExpr(ExactReal):
    """General binary node; op is one of '+', '-', '*', '/'.  `_node`
    builds each one once, so a node equals only itself."""

    op: str
    lhs: Fraction | ExactReal
    rhs: Fraction | ExactReal
    # For '/': a refinement depth at which the divisor's enclosure is known
    # to exclude zero.  It depends only on the divisor.
    den_prec: int = 0

    def __repr__(self):
        return _fold(
            self, value_repr, lambda op, lhs, rhs: f"SymExpr({lhs} {op} {rhs})"
        )


def _fold(x, leaf, node):
    """Fold a value bottom-up, lhs before rhs, with an explicit stack:
    `leaf(v)` for a rational or Affine, `node(op, lhs, rhs)` for a SymExpr
    given its operands' results."""
    done, todo = [], [(x, False)]
    while todo:
        v, ready = todo.pop()
        if ready:
            rhs = done.pop()
            done.append(node(v.op, done.pop(), rhs))
        elif type(v) is SymExpr:
            todo += ((v, True), (v.rhs, False), (v.lhs, False))
        else:
            done.append(leaf(v))
    return done[0]


def value_repr(x):
    """repr of a value as reports print it: a rational as `Rat(p/q)`."""
    return f"Rat({fmt_rational(x)})" if type(x) is Fraction else repr(x)


def exact(x) -> Fraction:
    """An int, Fraction, Decimal, or exact-decimal/fraction string as a
    Fraction.  A float is refused: 0.1 is not the binary number it holds."""
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a binary float; pass an exact rational")
    return Fraction(x)


def oracle_const(stream: OracleReal) -> Affine:
    return Affine(Fraction(0), Fraction(1), stream)


_KINDS = frozenset((Fraction, Affine, SymExpr))
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _kind(x):
    """x's type: Fraction, Affine or SymExpr.  Anything else is refused."""
    kind = type(x)
    if kind not in _KINDS:
        raise TypeError(f"cannot use {kind.__name__} as ExactReal")
    return kind


def _affine(offset, coeff, stream):
    return offset if coeff == 0 else Affine(offset, coeff, stream)


_NODES = weakref.WeakValueDictionary()  # (op, lhs, rhs) -> its live SymExpr


def _node(op, a, b, affine=True, den_prec=0):
    """`a op b`, the one constructor of arithmetic results.  Two rationals
    fold.  With `affine`, a rational is the Affine with coefficient 0, and
    an affine result folds into an Affine (or its offset, when the
    coefficients cancel): `+` and `-` with at most one stream or a shared
    one, `*` by a rational and `/` by a rational divisor.  `0 * x` is 0.
    Any other pair is a SymExpr, the live one if `_NODES` holds it;
    `den_prec` is a `/` node's divisor depth."""
    ka, kb, f = _kind(a), _kind(b), _ARITH[op]
    if ka is Fraction and kb is Fraction:
        return f(a, b)
    if affine and ka is not SymExpr and kb is not SymExpr:
        oa, ca, sa = (a, 0, None) if ka is Fraction else (a.offset, a.coeff, a.stream)
        ob, cb, sb = (b, 0, None) if kb is Fraction else (b.offset, b.coeff, b.stream)
        if op in "+-" and (sa is None or sb is None or sa is sb):
            return _affine(f(oa, ob), ca if sb is None else f(ca, cb), sa or sb)
        if sb is None or op == "*" and sa is None:  # scaled by a rational
            return _affine(f(oa, ob), f(ca, ob) if sb is None else f(oa, cb), sa or sb)
    if op == "*" and (ka is Fraction and not a or kb is Fraction and not b):
        return Fraction(0)
    node = _NODES.get((op, a, b))
    if node is None:
        node = _NODES[op, a, b] = SymExpr(op, a, b, den_prec)
    return node


def add(a, b, affine=True):
    return _node("+", a, b, affine)


def sub(a, b, affine=True):
    return _node("-", a, b, affine)


def mul(a, b, affine=True):
    return _node("*", a, b, affine)


def neg(a):
    return _node("-", Fraction(0), a)


def div(a, b, affine=True, fuel_limit=DEFAULT_FUEL, recorder=None):
    """Exact division; the divisor must be provably nonzero.

    A rational divisor is checked directly.  A symbolic divisor is refined
    until its enclosure excludes zero; if the budget runs out first the
    division is rejected with UnresolvedComparison.
    """
    _kind(a)  # a non-value is refused before the divisor is checked
    if _kind(b) is Fraction:
        if not b:
            raise DivisionByZero("division by zero")
        return _node("/", a, b, affine)
    prec = _decide(
        _depth_enclosures, b, Fuel(fuel_limit, recorder),
        lambda j, iv: None if iv.lo.numerator <= 0 <= iv.hi.numerator else j,
        "divisor sign",
    )
    return _node("/", a, b, affine, prec)


def _decide(route, x, fuel, verdict, what):
    """The refinement loop behind every exact comparison, floor and divisor
    check: read shrinking enclosures of x until one decides, or refuse.

    `route(x, fuel)` yields (step, Interval) pairs and `verdict(step, iv)`
    returns the answer, or None while the enclosure is undecided.  When
    the digit fuel runs out the loop raises UnresolvedComparison naming
    `what` was left undecided, the fuel and the last enclosure read.
    The recorder keeps the SymExpr enclosures of this call and the one
    before, so a stage holds no more than two calls' worth of them.
    """
    rec = fuel.recorder
    if rec.enclosures:
        rec.previous, rec.enclosures = rec.enclosures, {}
    last = None
    try:
        for step, last in route(x, fuel):
            answer = verdict(step, last)
            if answer is not None:
                return answer
    except OracleQueryLimit:
        raise UnresolvedComparison(
            f"{what} unresolved after {fuel.limit} digit queries;"
            f" last enclosure {last}",
            fuel=fuel.limit,
        ) from None


def _depth_enclosures(x, fuel):
    """(j, enclosure at depth j) for the depths 0, 1, 2, 4, 8, ...

    The answers sign and floor searches produce are depth-independent, so
    the schedule only affects how fast the budget is spent.
    """
    j = 0
    while True:
        yield j, _enclose(x, j, fuel)
        j = max(j + 1, 2 * j)


def _enclosures(x, fuel, k=None, strict=False):
    """Shrinking enclosures of x for sign, floor and width searches.

    Affine values advance one digit at a time, so decoding programs issue
    exactly the digits they need: the floor of 3**j times a stream reads
    exactly the digits d_0..d_j.  They start at the m0 digits the stage
    already holds, which cost no fuel: the enclosures are nested, so a
    verdict that holds with fewer digits holds with those.

    With a width target, at most 3**-k or below it when `strict` (a floor
    needs width below 1), they start instead at the first digit count
    `need` that meets it, if that is past m0.  No enclosure before `need`
    can decide, so the search stops at the same digit count as a walk from
    m0, and reads the same digits.  The start is capped at m0 + fuel.limit,
    the last count the fuel allows, so a refusal names the same last
    enclosure.  A sign has no width target.  General DAGs use the depth
    schedule.
    """
    if type(x) is Affine:
        m = fuel.recorder.prefix.get(x.stream.name, 0)
        if k is not None:
            m = max(m, min(_digits_for_width(x.coeff, k, strict), m + fuel.limit))
        while True:
            yield m, _affine_enclosure(x, m, fuel)
            m += 1
    else:
        yield from _depth_enclosures(x, fuel)


def _digits_for_width(c, k, strict):
    """The fewest digits m with which an Affine of coefficient c has an
    enclosure of width at most 3**-k, or below it when `strict`.

    The width is |c| * 3/(2 * 3**m), so with c = p/q the test is, in
    integers, 3*|p|*3**k + strict <= 2*q*3**m.  The ratio of the sides is
    above 2**(b - 1), b their difference in bit length, so m is at least
    (b - 1) / log2(3); 1.584963 is just above log2(3).  The loop steps up
    from there, a few times at most.
    """
    lhs, rhs = 3 * abs(c.numerator) * 3**k + strict, 2 * c.denominator
    m = max(0, (lhs.bit_length() - rhs.bit_length() - 1) * 10**6 // 1584963)
    rhs *= 3**m
    while rhs < lhs:
        rhs *= 3
        m += 1
    return m


def _affine_enclosure(x, m, fuel):
    """x's enclosure with m digits of its stream read."""
    s = x.stream.prefix_sum(m, fuel)
    a = x.offset + x.coeff * s
    b = x.offset + x.coeff * (s + tail_bound(m))
    return Interval(a, b) if x.coeff.numerator > 0 else Interval(b, a)


def _enclose(x, j, fuel) -> Interval:
    """Raw enclosure at refinement depth j (nested, shrinking in j).

    The walk keeps its own stack and encloses lhs before rhs, so digits are
    read in the order of the expression.  A SymExpr with a rational operand
    is enclosed in one step, as the image of its base's enclosure under
    its map (see `_map`), so a chain of rational steps costs one base
    enclosure and two products per depth, however long it is.  The image
    is the interval the node-by-node fold computes: each rational step is
    an exact affine image, monotone in its other operand.  Only the base
    reads digits, as in the fold, at the same depth.

    A SymExpr's enclosure at a depth and its map are kept in the stage's
    recorder, for this refinement and the next, and read back from there:
    the digits they were made from are held by the stage, so reading them
    again is free.
    """
    memo, previous = fuel.recorder.enclosures, fuel.recorder.previous
    done, todo = [], [(x, j, None)]
    while todo:
        v, d, then = todo.pop()
        if then is True:  # both operands are enclosed
            rhs = done.pop()
            iv = memo[v, d] = _combine(v.op, done.pop(), rhs)
            done.append(iv)
        elif then is not None:  # the base is enclosed; then is v's map
            iv = memo[v, d] = _image(then, done.pop())
            done.append(iv)
        elif type(v) is Fraction:
            done.append(Interval(v, v))
        elif type(v) is Affine:
            done.append(_affine_enclosure(v, d + 1, fuel))
        elif type(v) is SymExpr:
            key = v, d
            hit = memo.get(key) or previous.get(key)
            if hit is not None:
                memo[key] = hit
                done.append(hit)
                continue
            m = _map(v, memo, previous)
            if m is not None:
                todo += ((v, d, m), (m[2], d, None))
                continue
            rd = max(d, v.den_prec) if v.op == "/" else d
            todo += ((v, d, True), (v.rhs, rd, None), (v.lhs, d, None))
        else:
            raise TypeError(f"not an ExactReal: {v!r}")
    return done[0]


def _map(v, memo, previous):
    """v's map (offset, scale, base), v = offset + scale * base, when v is a
    SymExpr with a rational operand, else None.  The base is the first node
    below v's chain of rational steps that is not one: an Affine, or a
    SymExpr with no rational operand or of the form `c / x`, which is not
    affine in x.

    A node's map is built from its child's, and kept in `memo` with the
    enclosures, so a chain that grows by a step builds one new map."""
    chain, m = [], None
    while type(v) is SymExpr:
        if type(v.rhs) is Fraction:
            inner = v.lhs
        elif type(v.lhs) is Fraction and v.op != "/":
            inner = v.rhs
        else:
            break
        m = memo.get(v) or previous.get(v)
        if m is not None:
            memo[v] = m
            break
        chain.append(v)
        v = inner
    if not chain:
        return m
    if m is None:
        m = (Fraction(0), Fraction(1), v)
    for v in reversed(chain):
        m = memo[v] = _compose(v, m)
    return m


def _compose(v, m):
    """The map of v, one rational step above its other operand's map m:
    the Affine rule of `_node`, with the base in place of the stream."""
    offset, scale, base = m
    a, b, f = v.lhs, v.rhs, _ARITH[v.op]
    if type(b) is Fraction:  # x op c
        return f(offset, b), scale if v.op in "+-" else f(scale, b), base
    # c op x, op one of + - *: the scale is kept, negated or scaled by c
    return f(a, offset), f(0, scale) if v.op in "+-" else f(a, scale), base


def _image(m, iv):
    """The enclosure offset + scale * iv of a node with map m."""
    offset, scale, _ = m
    # scale.numerator, not scale itself: comparing a Fraction with 0 goes
    # through the numbers ABCs
    lo, hi = (iv.lo, iv.hi) if scale.numerator > 0 else (iv.hi, iv.lo)
    return Interval(offset + scale * lo, offset + scale * hi)


def _combine(op, a, b):
    if op == "+":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op == "*":
        prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return Interval(min(prods), max(prods))
    if op == "/":
        if b.lo.numerator <= 0 <= b.hi.numerator:
            # Construction certifies separation at den_prec; reaching this
            # means the caller bypassed div().
            raise DivisionByZero("divisor enclosure straddles zero")
        quots = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
        return Interval(min(quots), max(quots))
    raise ValueError(f"unknown operator {op!r}")


def refine(x, k, fuel_limit=DEFAULT_FUEL, recorder=None) -> Interval:
    """Enclosure of width at most 3**-k, nested as k grows; raises
    UnresolvedComparison when the budget runs out first."""
    if k < 0:
        raise ValueError("precision must be >= 0")
    target = Fraction(1, 3**k)
    _kind(x)
    return _decide(
        functools.partial(_enclosures, k=k), x, Fuel(fuel_limit, recorder),
        lambda _, iv: iv if iv.width <= target else None,
        f"enclosure of width 3**-{k}",
    )


# The six comparison operators on rationals, and on an enclosure [lo, hi]
# of lhs - rhs: True or False once the enclosure decides, else None.  `=`
# can only ever be refuted numerically, and `!=` only confirmed.  cmp_holds
# passes the ends' numerators, which carry their signs: comparing a
# Fraction with 0 goes through the numbers ABCs, as `_image` notes.
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

    One-sided cases resolve exactly: for example `x >= 1` is certified
    true as soon as the enclosure's closed lower end reaches 1, even when
    x may equal 1 exactly.  Equality is known only for equal rationals or
    structurally identical expressions, and those are identical: `_node`
    builds each value once.  `=` or `!=` on numerically equal but distinct
    symbolic values refines until the budget runs out and surfaces as
    UnresolvedComparison.
    """
    if op not in RAT_CMP:
        raise ValueError(f"unknown comparison operator {op!r}")
    # values of different types are never equal, and Fraction.__eq__ takes
    # a slow path through the numbers ABCs to say so
    if _kind(a) is _kind(b) and a == b:
        return op in ("<=", ">=", "=")
    d = sub(a, b)
    if type(d) is Fraction:
        return RAT_CMP[op](d, 0)
    holds = _ENCLOSURE_CMP[op]
    return _decide(
        _enclosures, d, Fuel(fuel_limit, recorder),
        lambda _, iv: holds(iv.lo.numerator, iv.hi.numerator), f"guard `{op}`",
    )


def _common_floor(_, iv):
    lo = math.floor(iv.lo)
    return lo if lo == math.floor(iv.hi) else None


def floor_value(x, fuel_limit=DEFAULT_FUEL, recorder=None) -> Fraction:
    """Exact floor; raises UnresolvedComparison when the budget runs out
    before an enclosure falls between two integers."""
    if _kind(x) is Fraction:
        return Fraction(math.floor(x))
    fl = _decide(
        functools.partial(_enclosures, k=0, strict=True), x,
        Fuel(fuel_limit, recorder), _common_floor, "floor",
    )
    return Fraction(fl)
