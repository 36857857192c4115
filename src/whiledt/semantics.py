"""Stagewise big-step evaluation.

A stage fixes the interpretation of the two nonstandard constants: at
stage n the time step `dt` is 1/(n+1) and `infinity` is n+1, so the
standard elimination loop (t from 0 to 1 in dt steps, counting turns)
produces exactly the `infinity` value of the same stage.  Each stage is a
total, deterministic evaluation: a step-fuel budget turns nontermination
into an explicit FuelExhausted halt status rather than a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactnum, syntax
from .errors import (
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

# The nodes that read the stage or an oracle.  An oracle's membership test
# is an arbitrary callable, so a program that reads one (through these
# nodes or a symbolic input) runs at every stage.
_STAGE_DEPENDENT = (syntax.Dt, syntax.Infinity, syntax.OracleRealConst, syntax.MemberOf)

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
        self.oracles = oracles or {}
        self.meter = Meter(ctx.cost_model)
        self.recorder = QueryRecorder()
        self.steps = 0
        self.loop_iterations = {}
        self.while_stack = []
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
            value = exactnum.exact(value)
        store[name] = value
    run = None
    try:
        run = _Run(ctx, oracles, program)
        run.meter.note_store(len(store))
        _exec(program.body, store, run)
        status = HaltStatus("halted")
    except _FuelOut as e:
        status = HaltStatus("fuel-exhausted", location=e.loc)
    except EvalError as e:
        status = HaltStatus("error", error=e.kind, message=str(e))
    if run:
        run.meter.charge_oracle(run.recorder.count)
    return StageResult(
        store=store,
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

    A program that reads no `dt`, `infinity` or oracle (and has no symbolic
    input) computes the same thing at every stage, so it is evaluated once
    and that one StageResult is reported at every stage."""
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")

    invariant = not any(
        isinstance(v, exactnum.ExactReal) for v in inputs
    ) and not any(
        isinstance(node, _STAGE_DEPENDENT) for node in syntax.walk(program.body)
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


def _exec(cmd, store, run):
    if isinstance(cmd, syntax.Skip):
        return
    if isinstance(cmd, syntax.Assign):
        run.tick(cmd.loc)
        value = _aeval(cmd.expr, store, run)
        store[cmd.var] = value
        run.meter.charge_assign(cmd.var)
        run.meter.note_store(len(store))
        return
    if isinstance(cmd, syntax.Block):
        for s in cmd.stmts:
            _exec(s, store, run)
        return
    if isinstance(cmd, syntax.If):
        run.tick(cmd.loc)
        run.meter.charge_guard()
        if _beval(cmd.cond, store, run):
            _exec(cmd.then, store, run)
        else:
            _exec(cmd.orelse, store, run)
        return
    if isinstance(cmd, syntax.While):
        loc = _loc_str(cmd.loc)
        run.loop_iterations.setdefault(loc, 0)
        run.while_stack.append(loc)
        try:
            while True:
                run.tick(cmd.loc)
                run.meter.charge_guard()
                if not _beval(cmd.cond, store, run):
                    break
                run.loop_iterations[loc] += 1
                _exec(cmd.body, store, run)
        finally:
            run.while_stack.pop()
        return
    raise TypeError(f"not a command: {cmd!r}")


def _aeval(expr, store, run):
    if isinstance(expr, syntax.RationalLiteral):
        return expr.value
    if isinstance(expr, syntax.Var):
        try:
            return store[expr.name]
        except KeyError:
            raise UnboundVariable(f"variable {expr.name!r} read before assignment")
    if isinstance(expr, syntax.Dt):
        return run.ctx.dt
    if isinstance(expr, syntax.Infinity):
        return run.ctx.infinity
    if isinstance(expr, syntax.OracleRealConst):
        return exactnum.oracle_const(run.oracles[expr.oracle].real())
    if isinstance(expr, syntax.Neg):
        return exactnum.neg(_aeval(expr.expr, store, run))
    if isinstance(expr, syntax.BinOp):
        lhs = _aeval(expr.lhs, store, run)
        rhs = _aeval(expr.rhs, store, run)
        affine = run.ctx.use_fast_path
        if expr.op == "+":
            return exactnum.add(lhs, rhs, affine=affine)
        if expr.op == "-":
            return exactnum.sub(lhs, rhs, affine=affine)
        if expr.op == "*":
            return exactnum.mul(lhs, rhs, affine=affine)
        if expr.op == "/":
            return exactnum.div(
                lhs,
                rhs,
                affine=affine,
                fuel_limit=run.ctx.cmp_fuel,
                recorder=run.recorder,
            )
        raise ValueError(f"unknown operator {expr.op!r}")
    if isinstance(expr, syntax.Floor):
        return exactnum.floor_value(
            _aeval(expr.expr, store, run),
            fuel_limit=run.ctx.cmp_fuel,
            recorder=run.recorder,
        )
    if isinstance(expr, syntax.Pair):
        x = _nat(_aeval(expr.first, store, run), "first pairing argument")
        y = _nat(_aeval(expr.second, store, run), "second pairing argument")
        return Fraction(cantor_pair(x, y))
    if isinstance(expr, syntax.Call):
        raise EvalError(
            f"macro call {expr.name!r} survived to evaluation; expand macros first"
        )
    raise TypeError(f"not an arithmetic expression: {expr!r}")


def _nat(value, what):
    if not isinstance(value, Fraction) or value.denominator != 1 or value < 0:
        raise NotHypernatural(
            f"{what} must be a hypernatural, got {value_repr(value)}"
        )
    return int(value)


def _cmp(op, lhs, rhs, run):
    if type(lhs) is Fraction and type(rhs) is Fraction:
        return exactnum.RAT_CMP[op](lhs, rhs)
    return exactnum.cmp_holds(
        op, lhs, rhs, fuel_limit=run.ctx.cmp_fuel, recorder=run.recorder
    )


def _beval(b, store, run):
    if isinstance(b, syntax.Cmp):
        return _cmp(b.op, _aeval(b.lhs, store, run), _aeval(b.rhs, store, run), run)
    if isinstance(b, syntax.ChainedCmp):
        # mid is evaluated once; the left conjunct short-circuits.
        lo = _aeval(b.lo, store, run)
        mid = _aeval(b.mid, store, run)
        if not _cmp(b.op1, lo, mid, run):
            return False
        hi = _aeval(b.hi, store, run)
        return _cmp(b.op2, mid, hi, run)
    if isinstance(b, syntax.MemberOf):
        z = _nat(_aeval(b.expr, store, run), "membership query")
        oracle = run.oracles[b.oracle]
        run.recorder.record_member((oracle.name, z))
        return bool(oracle.member(z))
    if isinstance(b, syntax.Not):
        return not _beval(b.expr, store, run)
    if isinstance(b, syntax.And):
        return _beval(b.lhs, store, run) and _beval(b.rhs, store, run)
    if isinstance(b, syntax.Or):
        return _beval(b.lhs, store, run) or _beval(b.rhs, store, run)
    raise TypeError(f"not a boolean expression: {b!r}")
