"""Oracle sets, their real-constant encoding, and the limit harness.

An oracle set answers membership queries over the naturals.  Encoding a
set A as a real packs its characteristic function into the base-3 digit
stream sum(3**-i * chi_A(i)), which is what oracle-decoding programs
consume.  Built-in sets are computable stand-ins: the machinery shows the
decoding mechanism, not actual access to non-computable sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import syntax
from .errors import BitfileRange, BoundExceeded, EvalError, UnknownMacro
from .exactnum import OracleReal

# step budget of one call of a macro behind a graph oracle
MACRO_STEP_FUEL = 10**6


class OracleSet:
    """Named set of naturals with a deterministic membership query."""

    def __init__(self, name, member_fn, source="builtin"):
        self.name = name
        self._member_fn = member_fn
        self.source = source
        self._real = None

    def member(self, i):
        if i < 0:
            raise ValueError("membership queries take naturals")
        v = self._member_fn(i)
        return 1 if v else 0

    def real(self) -> OracleReal:
        """The encoded constant, one shared stream per set: digit i is
        chi_A(i), so the value lies in [0, 3/2]."""
        if self._real is None:
            self._real = OracleReal(self.name, self.member)
        return self._real

    def __repr__(self):
        return f"OracleSet({self.name!r}, {self.source})"


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _is_square(n):
    r = math.isqrt(n)
    return r * r == n


def builtin_set(name) -> OracleSet:
    if name == "primes":
        return OracleSet("primes", _is_prime)
    if name == "evens":
        return OracleSet("evens", lambda i: i % 2 == 0)
    if name == "squares":
        return OracleSet("squares", _is_square)
    raise KeyError(f"unknown builtin oracle set {name!r}")


def finite_set(name, values) -> OracleSet:
    vals = frozenset(int(v) for v in values)
    return OracleSet(name, lambda i: i in vals, source=f"finite({len(vals)})")


def bitfile_set(name, path) -> OracleSet:
    """Digits from an ASCII file of 0/1 characters, index = byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    for off, ch in enumerate(data):
        if ch not in (0x30, 0x31):
            raise ValueError(
                f"bitfile {path}: byte {off} is {ch:#x}, expected '0' or '1'"
            )

    def member(i):
        if i >= len(data):
            raise BitfileRange(
                f"oracle {name!r}: index {i} beyond bitfile of {len(data)} digits"
            )
        return data[i] - 0x30

    return OracleSet(name, member, source=f"bitfile({path})")


def cantor_pair(x, y):
    """The pairing (x+y)(x+y+1)/2 + y, a bijection on pairs of naturals."""
    if x < 0 or y < 0:
        raise ValueError("pairing takes naturals")
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(z):
    if z < 0:
        raise ValueError("unpairing takes naturals")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    y = z - t
    return w - y, y


def graph_oracle(fn, bound, name=None) -> OracleSet:
    """The set {J(x, fn(x)) : x <= bound} as a membership oracle.

    Queries that unpair to a first component beyond `bound` raise
    BoundExceeded rather than pretending the graph is total.
    """
    cache = {}

    def member(z):
        x, y = cantor_unpair(z)
        if x > bound:
            raise BoundExceeded(
                f"graph oracle query J({x}, {y}) exceeds domain bound {bound}"
            )
        if x not in cache:
            cache[x] = fn(x)
        return 1 if cache[x] == y else 0

    return OracleSet(name or f"graph:{bound}", member, source=f"graph(bound={bound})")


def macro_callable(defs, name):
    """Natural-to-natural function computed by a one-argument subprogram.

    The subprogram must not read `dt`, `infinity` or an oracle: it is
    evaluated at stage 0 with no oracles bound, memoized per argument.
    """
    if name not in defs:
        raise UnknownMacro(f"unknown macro {name!r}")
    d = defs[name]
    if len(d.inputs) != 1 or len(d.outputs) != 1:
        raise ValueError(f"macro {name!r} must take one argument and return one value")

    from .semantics import StageContext, eval_stage

    program = syntax.expand_macros(defs, d)
    if program.reads_stage:
        raise ValueError(f"macro {name!r} reads dt or infinity, so its graph is not fixed")
    if program.oracles:
        read = ", ".join(sorted(program.oracles))
        raise ValueError(
            f"macro {name!r} reads oracle {read}, but a graph macro runs with no oracle bound"
        )
    ctx = StageContext.for_stage(0, step_fuel=MACRO_STEP_FUEL)
    cache = {}

    def fn(x):
        if x not in cache:
            res = eval_stage(program, [x], ctx)
            if not res.status.ok:
                raise EvalError(
                    f"macro {name!r} failed on input {x}: {res.status.kind}"
                )
            out = res.store[program.outputs[0]]
            if not isinstance(out, Fraction) or out.denominator != 1 or out < 0:
                raise EvalError(f"macro {name!r} returned a non-natural on {x}")
            cache[x] = int(out)
        return cache[x]

    return fn


@dataclass
class LimitSpec:
    """A two-argument subprogram F whose s-limit is the intended function."""

    name: str
    defs: dict = field(default_factory=dict)


def run_limit(spec: LimitSpec, x, schedule, oracles=None, **kw):
    """Stage sequence of F(s, x) with s bound to the stage's infinity value.

    At stage n this evaluates F(n+1, x); feeding the result to the value
    classifier recovers the limit whenever F(., x) stabilizes inside the
    schedule.
    """
    from .semantics import eval_stages

    if spec.name not in spec.defs:
        raise UnknownMacro(f"macro {spec.name!r} not defined in the spec")
    main = syntax.Program(
        inputs=("x",),
        outputs=("y",),
        body=syntax.Assign(
            "y", syntax.Call(spec.name, (syntax.Infinity(), syntax.Var("x")))
        ),
    )
    program = syntax.expand_macros(spec.defs, main)
    return eval_stages(program, [x], schedule, oracles=oracles, **kw)
