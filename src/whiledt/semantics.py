"""Stagewise big-step evaluation.

A stage fixes the interpretation of the two nonstandard constants: at
stage n the time step `dt` is 1/(n+1) and `infinity` is n+1, so the
standard elimination loop (t from 0 to 1 in dt steps, counting turns)
produces exactly the `infinity` value of the same stage.  Each stage is a
total, deterministic evaluation: a step-fuel budget turns nontermination
into an explicit FuelExhausted halt status rather than a hang.

Inside a stage an integral rational is a Python `int`, so counters,
literals, `infinity`, floors and `J` cost int arithmetic; any other
rational is a `Fraction`.  The ints stay inside: a StageResult's store,
and so every output and energy value, holds Fractions and symbolic values.

A loop defers the assignments whose values no later turn of it can see
(dead stores, in liveness terms): each is evaluated once, when the loop
is left.  An assignment `v := e` is deferred when its innermost
enclosing `while` W reads `v` nowhere (not in its guard, its body or a
loop nested in it), every assignment to `v` inside W has W as its
innermost loop, and each of those right-hand sides can neither fail nor
read a digit: it is built only from variables, literals, `dt`,
`infinity`, unary `-`, `+ - *` and `/` by a nonzero literal.  A deferred
assignment ticks and is charged as any other, reads the variables of
`e` (an unbound one is an error there, as before), and takes its slot in
the store if `v` is new; it keeps `e` with the values it read as `v`'s
pending value.  When W is left, on a false guard, a fuel-out or an
error, each pending `e` is evaluated on its values and stored.  Since
nothing reads `v` before W ends and values are immutable, the store is
the one an eager run leaves; `e` reads no digit, so digit counts, the
enclosure memo and the digit fuel are untouched; and the ticks and
charges stay where they were, so steps, costs, fuel-out locations and
errors are too.  A loop's plan, its body with the deferred assignments
made `_Deferred` nodes, is computed at its first entry in a stage and
kept on that stage's `_Run`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from . import exactnum, syntax
from .errors import (
    DivisionByZero,
    EvalError,
    NotHypernatural,
    UnboundVariable,
    UnknownOracle,
)
from .exactnum import QueryRecorder, value_repr
from .oracles import cantor_pair
from .resources import CostModel, Meter, ResourceLedger

__all__ = [
    "StageContext",
    "HaltStatus",
    "StageResult",
    "StageSequence",
    "eval_stage",
    "eval_stages",
    "DEFAULT_SCHEDULE",
]

DEFAULT_STEP_FUEL = 10**7

# 0..15 for the dense prefix, then a doubling tail for trend detection.
DEFAULT_SCHEDULE = tuple(range(16)) + (31, 63, 127)


@dataclass(frozen=True)
class StageContext:
    n: int
    dt: Fraction
    infinity: Fraction
    step_fuel: int = DEFAULT_STEP_FUEL
    cmp_fuel: int = exactnum.DEFAULT_FUEL
    cost_model: CostModel = field(default_factory=CostModel)
    use_fast_path: bool = True

    @classmethod
    def for_stage(cls, n, **kw):
        if n < 0:
            raise ValueError("stage index must be >= 0")
        return cls(n=n, dt=Fraction(1, n + 1), infinity=Fraction(n + 1), **kw)


@dataclass(frozen=True)
class HaltStatus:
    kind: str  # halted | fuel-exhausted | error
    location: str | None = None
    error: str | None = None
    message: str | None = None

    @property
    def ok(self):
        return self.kind == "halted"


@dataclass
class StageResult:
    store: dict
    status: HaltStatus
    ledger: ResourceLedger
    loop_iterations: dict


@dataclass
class StageSequence:
    """Per-variable value vectors across the evaluated stages."""

    schedule: list
    outputs: dict  # var -> list of Fraction | Affine | SymExpr, or None when not halted
    statuses: list
    ledgers: list
    loop_iterations: list = field(default_factory=list)
    energy_var: str | None = None
    energy_values: list | None = None

    def halted_pairs(self, var):
        if var not in self.outputs:
            raise KeyError(f"no output variable {var!r}")
        return [
            (n, v)
            for n, v, st in zip(self.schedule, self.outputs[var], self.statuses)
            if st.ok
        ]


class _FuelOut(Exception):
    def __init__(self, loc):
        self.loc = loc


class _Run:
    def __init__(self, ctx, oracles, program):
        self.ctx = ctx
        self.dt = _rat(ctx.dt)
        self.infinity = _rat(ctx.infinity)
        self.oracles = oracles or {}
        self.meter = Meter(ctx.cost_model)
        self.recorder = QueryRecorder()
        self.steps = 0
        self.loop_iterations = {}
        self.while_stack = []
        self.plans = {}  # id of a While -> the body it runs (see _plan)
        self.pending = None  # var -> (expr, values read) in the deferring loop
        missing = sorted(program.oracles - set(self.oracles))
        if missing:
            raise UnknownOracle(
                f"program requires unbound oracle(s): {', '.join(missing)}"
            )

    def tick(self, loc):
        self.steps += 1
        if self.steps > self.ctx.step_fuel:
            raise _FuelOut(
                self.while_stack[-1] if self.while_stack else _loc_str(loc)
            )


def _loc_str(loc):
    return f"{loc[0]}:{loc[1]}"


def eval_stage(program, inputs, ctx, oracles=None) -> StageResult:
    """Run one stage; total, deterministic, and side-effect free."""
    if len(inputs) != len(program.inputs):
        raise ValueError(
            f"program takes {len(program.inputs)} input(s), got {len(inputs)}"
        )
    store = {}
    for name, value in zip(program.inputs, inputs):
        if not isinstance(value, exactnum.ExactReal):
            value = _rat(exactnum.exact(value))
        store[name] = value
    run = None
    try:
        run = _Run(ctx, oracles, program)
        _EXEC[type(program.body)](program.body, store, run)
        status = HaltStatus("halted")
    except _FuelOut as e:
        status = HaltStatus("fuel-exhausted", location=e.loc)
    except EvalError as e:
        status = HaltStatus("error", error=e.kind, message=str(e))
    if run:
        run.meter.note_store(len(store))  # the store only grows
        run.meter.charge_oracle(run.recorder.count)
    return StageResult(
        store={name: _fraction(value) for name, value in store.items()},
        status=status,
        ledger=run.meter.ledger() if run else ResourceLedger(),
        loop_iterations=dict(run.loop_iterations) if run else {},
    )


def eval_stages(
    program,
    inputs,
    schedule,
    oracles=None,
    *,
    energy_var=None,
    **settings,
) -> StageSequence:
    """Run every stage of the schedule; per-stage errors are recorded in
    place and do not abort the other stages.  `settings` are the
    StageContext fields `step_fuel`, `cmp_fuel`, `cost_model` and
    `use_fast_path`, passed to every stage.

    A program that reads no `dt`, `infinity` or oracle (whose membership
    test is an arbitrary callable) and has no symbolic input computes the
    same thing at every stage, so it is evaluated once and that one
    StageResult is reported at every stage."""
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")

    invariant = not (
        program.reads_stage
        or program.oracles
        or any(isinstance(v, exactnum.ExactReal) for v in inputs)
    )
    results = []
    for n in schedule:
        if invariant and results:
            results.append(results[0])
            continue
        ctx = StageContext.for_stage(n, **settings)
        results.append(eval_stage(program, inputs, ctx, oracles))

    outputs = {
        var: [r.store.get(var) if r.status.ok else None for r in results]
        for var in program.outputs
    }
    energy_values = None
    if energy_var is not None:
        energy_values = [
            r.store.get(energy_var) if r.status.ok else None for r in results
        ]
    return StageSequence(
        schedule=schedule,
        outputs=outputs,
        statuses=[r.status for r in results],
        ledgers=[r.ledger for r in results],
        loop_iterations=[r.loop_iterations for r in results],
        energy_var=energy_var,
        energy_values=energy_values,
    )


# ---------------------------------------------------------------------------
# Big-step execution
#
# Each node runs through the handler its type maps to in _EXEC, _AEVAL or
# _BEVAL.  Two rationals are combined by the operator's exact operation in
# `syntax.ARITH_OPS`; any other pairing goes to the exactnum functions, with
# its ints made Fractions.

_RATIONAL = (int, Fraction)
_RAT_ARITH = {op: apply for op, (_, apply) in syntax.ARITH_OPS.items()}
_SYM_ARITH = {"+": exactnum.add, "-": exactnum.sub, "*": exactnum.mul}


def _rat(value):
    """An integral Fraction as an int; any other value as it is."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _fraction(value):
    """An int as a Fraction; any other value as it is."""
    return Fraction(value) if type(value) is int else value


# An assignment its loop defers; `names` are the variables `expr` reads, in
# first-occurrence order.  A plain tuple type: a plan builds one per
# deferred assignment at each stage.
_Deferred = namedtuple("_Deferred", "var expr names loc")


# The nodes a deferred right-hand side is built from; a `/` must also
# divide by a nonzero literal.
_PURE = frozenset(
    (syntax.Var, syntax.RationalLiteral, syntax.Dt, syntax.Infinity, syntax.Neg, syntax.BinOp)
)


def _pure(expr):
    """Whether evaluating `expr` can neither fail nor read a digit."""
    return all(
        type(n) in _PURE
        and (type(n) is not syntax.BinOp or n.op != "/"
             or type(n.rhs) is syntax.RationalLiteral and n.rhs.value != 0)
        for n in syntax.walk(expr)
    )


def _own_level(cmd):
    """The statements `cmd` runs at its own loop level, found through its
    blocks and ifs: assignments, skips and its outermost loops."""
    stack = [cmd]
    while stack:
        cmd = stack.pop()
        cls = type(cmd)
        if cls is syntax.Block:
            stack.extend(cmd.stmts)
        elif cls is syntax.If:
            stack += (cmd.then, cmd.orelse)
        else:
            yield cmd


def _plan(loop):
    """The body `loop` runs: its body with each assignment it defers made a
    _Deferred, or the body itself when it defers none."""
    own, blocked = [], {n.name for n in syntax.walk(loop) if type(n) is syntax.Var}
    for cmd in _own_level(loop.body):
        if type(cmd) is syntax.Assign and cmd.var not in blocked:
            own.append(cmd)
        elif type(cmd) is syntax.While:
            blocked.update(n.var for n in syntax.walk(cmd) if type(n) is syntax.Assign)
    blocked.update(cmd.var for cmd in own if not _pure(cmd.expr))
    defer = {cmd.var for cmd in own} - blocked
    return _defer(loop.body, defer) if defer else loop.body


def _defer(cmd, defer):
    """`cmd` with each assignment to a variable in `defer` that no nested
    loop encloses made a _Deferred."""
    cls = type(cmd)
    if cls is syntax.Assign and cmd.var in defer:
        names = (n.name for n in syntax.walk(cmd.expr) if type(n) is syntax.Var)
        return _Deferred(cmd.var, cmd.expr, tuple(dict.fromkeys(names)), cmd.loc)
    if cls is syntax.Block:
        return syntax.Block(tuple(_defer(s, defer) for s in cmd.stmts))
    if cls is syntax.If:
        return syntax.If(cmd.cond, _defer(cmd.then, defer), _defer(cmd.orelse, defer), cmd.loc)
    return cmd


def _unbound(name):
    return UnboundVariable(f"variable {name!r} read before assignment")


def _deferred(cmd, store, run):
    run.tick(cmd.loc)
    try:
        values = {name: store[name] for name in cmd.names}
    except KeyError as e:
        raise _unbound(e.args[0])
    store.setdefault(cmd.var, None)  # the slot an eager run makes here
    run.pending[cmd.var] = (cmd.expr, values)
    run.meter.charge_assign(cmd.var)


def _assign(cmd, store, run):
    run.tick(cmd.loc)
    store[cmd.var] = _AEVAL[type(cmd.expr)](cmd.expr, store, run)
    run.meter.charge_assign(cmd.var)


def _block(cmd, store, run):
    for s in cmd.stmts:
        _EXEC[type(s)](s, store, run)


def _if(cmd, store, run):
    run.tick(cmd.loc)
    run.meter.charge_guard()
    cond = cmd.cond
    branch = cmd.then if _BEVAL[type(cond)](cond, store, run) else cmd.orelse
    _EXEC[type(branch)](branch, store, run)


def _while(cmd, store, run):
    loc = _loc_str(cmd.loc)
    iterations = run.loop_iterations
    iterations.setdefault(loc, 0)
    run.while_stack.append(loc)
    body = run.plans.get(id(cmd))
    if body is None:
        body = run.plans[id(cmd)] = _plan(cmd)
    deferring = body is not cmd.body
    if deferring:
        outer, run.pending = run.pending, {}
    cond = cmd.cond
    test, step = _BEVAL[type(cond)], _EXEC[type(body)]
    try:
        while True:
            run.tick(cmd.loc)
            run.meter.charge_guard()
            if not test(cond, store, run):
                break
            iterations[loc] += 1
            step(body, store, run)
    finally:
        run.while_stack.pop()
        if deferring:
            for var, (expr, values) in run.pending.items():
                store[var] = _AEVAL[type(expr)](expr, values, run)
            run.pending = outer


def _literal(expr, store, run):
    return _rat(expr.value)


def _var(expr, store, run):
    try:
        return store[expr.name]
    except KeyError:
        raise _unbound(expr.name)


def _neg(expr, store, run):
    a = _AEVAL[type(expr.expr)](expr.expr, store, run)
    return -a if type(a) in _RATIONAL else exactnum.neg(a)


def _binop(expr, store, run):
    lhs, rhs, op = expr.lhs, expr.rhs, expr.op
    a = _AEVAL[type(lhs)](lhs, store, run)
    b = _AEVAL[type(rhs)](rhs, store, run)
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        try:
            return _rat(_RAT_ARITH[op](a, b))
        except ZeroDivisionError:
            raise DivisionByZero("division by zero") from None
    a, b, affine = _fraction(a), _fraction(b), run.ctx.use_fast_path
    if op != "/":
        return _rat(_SYM_ARITH[op](a, b, affine=affine))
    return _rat(
        exactnum.div(
            a, b, affine=affine, fuel_limit=run.ctx.cmp_fuel, recorder=run.recorder
        )
    )


def _floor(expr, store, run):
    a = _AEVAL[type(expr.expr)](expr.expr, store, run)
    if type(a) in _RATIONAL:
        return math.floor(a)
    return _rat(
        exactnum.floor_value(a, fuel_limit=run.ctx.cmp_fuel, recorder=run.recorder)
    )


def _pair(expr, store, run):
    first, second = expr.first, expr.second
    x = _nat(_AEVAL[type(first)](first, store, run), "first pairing argument")
    y = _nat(_AEVAL[type(second)](second, store, run), "second pairing argument")
    return cantor_pair(x, y)


def _call(expr, store, run):
    raise EvalError(
        f"macro call {expr.name!r} survived to evaluation; expand macros first"
    )


def _nat(value, what):
    if type(value) is not int or value < 0:
        raise NotHypernatural(
            f"{what} must be a hypernatural, got {value_repr(_fraction(value))}"
        )
    return value


def _cmp(op, lhs, rhs, run):
    ta, tb = type(lhs), type(rhs)
    # An int and a Fraction are cross-multiplied (a denominator is
    # positive): Fraction's own comparison makes ABC isinstance checks.
    if ta is int and tb is Fraction:
        lhs, rhs = lhs * rhs.denominator, rhs.numerator
    elif ta is Fraction and tb is int:
        lhs, rhs = lhs.numerator, rhs * lhs.denominator
    elif ta not in _RATIONAL or tb not in _RATIONAL:
        return exactnum.cmp_holds(
            op, _fraction(lhs), _fraction(rhs),
            fuel_limit=run.ctx.cmp_fuel, recorder=run.recorder,
        )
    return exactnum.RAT_CMP[op](lhs, rhs)


def _compare(b, store, run):
    lhs = _AEVAL[type(b.lhs)](b.lhs, store, run)
    return _cmp(b.op, lhs, _AEVAL[type(b.rhs)](b.rhs, store, run), run)


def _chained(b, store, run):
    # Operands are evaluated left to right, once each, and the left conjunct
    # short-circuits.  The order fixes which error halts a stage and how
    # many new digits each operand reads.
    lo, mid, hi = b.lo, b.mid, b.hi
    x = _AEVAL[type(lo)](lo, store, run)
    y = _AEVAL[type(mid)](mid, store, run)
    if not _cmp(b.op1, x, y, run):
        return False
    return _cmp(b.op2, y, _AEVAL[type(hi)](hi, store, run), run)


def _boolop(b, store, run):
    lhs, rhs = b.lhs, b.rhs
    if b.op == "and":
        return _BEVAL[type(lhs)](lhs, store, run) and _BEVAL[type(rhs)](rhs, store, run)
    return _BEVAL[type(lhs)](lhs, store, run) or _BEVAL[type(rhs)](rhs, store, run)


def _member(b, store, run):
    z = _nat(_AEVAL[type(b.expr)](b.expr, store, run), "membership query")
    oracle = run.oracles[b.oracle]
    run.recorder.record_member((oracle.name, z))
    return bool(oracle.member(z))


_EXEC = {
    syntax.Skip: lambda cmd, store, run: None,
    syntax.Assign: _assign,
    syntax.Block: _block,
    syntax.If: _if,
    syntax.While: _while,
    _Deferred: _deferred,
}
_AEVAL = {
    syntax.RationalLiteral: _literal,
    syntax.Var: _var,
    syntax.Dt: lambda expr, store, run: run.dt,
    syntax.Infinity: lambda expr, store, run: run.infinity,
    syntax.OracleRealConst: lambda expr, store, run: exactnum.oracle_const(
        run.oracles[expr.oracle].real()
    ),
    syntax.Neg: _neg,
    syntax.BinOp: _binop,
    syntax.Floor: _floor,
    syntax.Pair: _pair,
    syntax.Call: _call,
}
_BEVAL = {
    syntax.Cmp: _compare,
    syntax.ChainedCmp: _chained,
    syntax.MemberOf: _member,
    syntax.Not: lambda b, store, run: not _BEVAL[type(b.expr)](b.expr, store, run),
    syntax.BoolOp: _boolop,
}
