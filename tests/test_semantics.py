"""Stagewise evaluation: corpus programs against independent oracles."""

import contextlib
import gc
import io
import math
import random
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS,
    corpus_source,
    dead_store_sources,
    finite_stream,
    program_sources,
)
from whiledt import cli, semantics
from whiledt.cli import build_arg_parser, load_run, parse_expectations
from whiledt.exactnum import RAT_CMP, oracle_const
from whiledt.oracles import builtin_set, cantor_pair, finite_set, graph_oracle
from whiledt.semantics import (
    StageContext,
    eval_stage,
    eval_stages,
)
from whiledt.syntax import Assign, Program, While, parse, parse_module, walk

SMALL_SCHEDULE = list(range(8))


def run_once(src, inputs, n=0, oracles=None, **ctx_kw):
    ctx = StageContext.for_stage(n, **ctx_kw)
    return eval_stage(parse(src), [Fraction(v) for v in inputs], ctx, oracles)


def fractions_only(values):
    return all(type(v) is Fraction for v in values)


def test_store_holds_only_fractions_on_rational_programs():
    # integral rationals are ints inside a stage, and Fractions once out
    program = parse(corpus_source("floor.whdt"))
    for x in (Fraction(37, 10), Fraction(-23, 10), Fraction(0)):
        for n in (0, 3):
            res = eval_stage(program, [x], StageContext.for_stage(n))
            assert res.status.ok
            assert res.store and fractions_only(res.store.values())
    # dt loops; at stage 0, dt = 1 is integral too
    for name in ("thomson.whdt", "inf-elim.whdt", "ball.whdt"):
        program = parse(corpus_source(name))
        for n in (0, 1, 7, 31):
            res = eval_stage(program, [], StageContext.for_stage(n))
            assert res.status.ok
            assert res.store and fractions_only(res.store.values()), (name, n)
    seq = eval_stages(
        parse(corpus_source("ball.whdt")), [], SMALL_SCHEDULE, energy_var="energy"
    )
    assert fractions_only(seq.energy_values)
    assert fractions_only(v for vs in seq.outputs.values() for v in vs)


def test_store_holds_only_fractions_after_fuel_exhaustion_and_errors():
    fuel_out = eval_stage(
        parse("input x; output y; y := 2; while 0 < 1 do x := x + 1"),
        [Fraction(3)],
        StageContext.for_stage(0, step_fuel=50),
    )
    assert fuel_out.status.kind == "fuel-exhausted"
    assert fractions_only(fuel_out.store.values())
    error = eval_stage(
        parse("input x; output y; y := x * 2; z := y / (x - x)"),
        [Fraction(3)],
        StageContext.for_stage(0),
    )
    assert error.status.error == "division-by-zero"
    assert error.store == {"x": 3, "y": 6}
    assert fractions_only(error.store.values())


@settings(max_examples=60, deadline=None)
@given(
    program_sources(stage_free=True, bounded=True),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.integers(0, 7),
)
def test_only_fractions_leave_a_stage(source, x, n):
    # a float from `int / int` or a leaked int both fail here
    res = eval_stage(parse(source), [x], StageContext.for_stage(n, step_fuel=60))
    assert fractions_only(res.store.values())


_RATIONALS = st.one_of(st.integers(-(10**30), 10**30), st.fractions())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(RAT_CMP)), _RATIONALS, _RATIONALS)
def test_rational_comparisons_agree_with_fraction(op, a, b):
    # an int and a Fraction are compared by cross-multiplying
    assert semantics._cmp(op, a, b, None) is RAT_CMP[op](Fraction(a), Fraction(b))


def test_stage_context_schedule():
    for n in (0, 1, 7, 127):
        ctx = StageContext.for_stage(n)
        assert ctx.dt == Fraction(1, n + 1)
        assert ctx.infinity == n + 1
    dts = [StageContext.for_stage(n).dt for n in range(50)]
    assert all(b < a for a, b in zip(dts, dts[1:]))


def test_floor_program_matches_integer_division():
    src = corpus_source("floor.whdt")
    program = parse(src)
    rng = random.Random(42)
    cases = [Fraction(37, 10), Fraction(-23, 10), Fraction(0), Fraction(-1)]
    cases += [
        Fraction(rng.randint(-5000, 5000), rng.randint(1, 100)) for _ in range(40)
    ]
    for x in cases:
        expected = x.numerator // x.denominator  # independent oracle
        for n in (0, 3, 7):
            res = eval_stage(program, [x], StageContext.for_stage(n))
            assert res.status.ok
            assert res.store["y"] == Fraction(expected), x


def test_decide_program_matches_membership():
    program = parse(corpus_source("decide.whdt"))

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    sets = {
        "primes": is_prime,
        "evens": lambda n: n % 2 == 0,
        "squares": lambda n: math.isqrt(n) ** 2 == n,
    }
    for name, member in sets.items():
        binding = {"A": builtin_set(name)}
        for x in range(0, 65, 7):
            res = run_once(corpus_source("decide.whdt"), [x], n=2, oracles=binding)
            assert res.status.ok
            assert res.store["y"] == Fraction(1 if member(x) else 0), (name, x)


def test_decide_program_oracle_query_count():
    program = parse(corpus_source("decide.whdt"))
    for x in (0, 1, 7, 33):
        res = eval_stage(
            program,
            [Fraction(x)],
            StageContext.for_stage(4),
            {"A": builtin_set("primes")},
        )
        assert res.ledger.oracle_queries == x + 1


def test_fast_path_decide_reads_exactly_the_digits_it_needs():
    # Each read of digit i costs one query however often it is re-read, so
    # the default budget decides every x here, reading digits 0..x
    program = parse(corpus_source("decide.whdt"))
    for name in ("primes", "evens", "squares"):
        oracle = builtin_set(name)
        for x in range(90, 121):
            res = eval_stage(
                program, [Fraction(x)], StageContext.for_stage(0), {"A": oracle}
            )
            assert res.status.ok, (name, x, res.status)
            assert res.store["y"] == oracle.member(x), (name, x)
            assert res.ledger.oracle_queries == x + 1, (name, x)


def test_refused_stage_counts_the_digits_it_read():
    # real3(Z) is exactly 0: the floor reads digit 0, and the refused guard
    # reads nine more before its budget of ten new queries runs out
    src = "input; output y; y := floor(real3(Z)); if real3(Z) = 0 then y := 1"
    res = eval_stage(
        parse(src),
        [],
        StageContext.for_stage(0, cmp_fuel=10),
        {"Z": finite_set("Z", [])},
    )
    assert res.status.error == "unresolved-comparison"
    assert "after 10 digit queries" in res.status.message
    assert res.ledger.oracle_queries == 11
    assert res.ledger.total == 1 + 1 + 11


_CONSTANTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_DECODE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("+-*/"), _CONSTANTS.filter(bool)).map(
            lambda t: f"a := a {t[0]} ({t[1]})"
        ),
        st.just("a := 3 * a"),
        st.just("b := b + floor(a)"),
        st.tuples(st.sampled_from(("<", "<=", ">", ">=", "!=")), _CONSTANTS).map(
            lambda t: f"if a {t[0]} {t[1]} then b := b + 1"
        ),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    _CONSTANTS.filter(bool),
    _CONSTANTS,
    _DECODE_STEPS,
    st.integers(0, 12),
    st.frozensets(st.integers(0, 15)),
)
def test_fast_path_agrees_with_interval_route(coeff, offset, steps, x, members):
    # Decoding programs: an affine image of an oracle constant, shifted x
    # digits left, then scaled, floored and compared.  Wherever both routes
    # halt they give the same outputs.
    src = "\n".join(
        [
            "input x; output y, b;",
            f"a := ({coeff}) * real3(A) + ({offset}); b := 0;",
            "while x != 0 do { a := 3 * a; x := x - 1 };",
            *(f"{step};" for step in steps),
            "y := floor(a)",
        ]
    )
    program = parse(src)
    oracles = {"A": finite_set("A", members)}
    fast, interval = (
        eval_stage(
            program,
            [Fraction(x)],
            StageContext.for_stage(0, cmp_fuel=200, use_fast_path=use),
            oracles,
        )
        for use in (True, False)
    )
    if fast.status.ok and interval.status.ok:
        assert fast.store["y"] == interval.store["y"]
        assert fast.store["b"] == interval.store["b"]


def test_compute_program_matches_direct_evaluation():
    program = parse(corpus_source("compute.whdt"))
    for fn in (lambda x: x * x, lambda x: 2 * x + 1):
        binding = {"A": graph_oracle(fn, 25)}
        for x in range(0, 21, 4):
            res = eval_stage(
                program, [Fraction(x)], StageContext.for_stage(1), binding
            )
            assert res.status.ok
            assert res.store["y"] == Fraction(fn(x))


def test_thomson_closed_form():
    program = parse(corpus_source("thomson.whdt"))
    for n in SMALL_SCHEDULE + [31, 127]:
        res = eval_stage(program, [], StageContext.for_stage(n))
        assert res.status.ok
        assert res.store["lamp"] == Fraction((n + 1) % 2)
        (iters,) = res.loop_iterations.values()
        assert iters == n + 1


def test_infinity_elimination_loop_count_law():
    program = parse(corpus_source("inf-elim.whdt"))
    for n in SMALL_SCHEDULE + [63]:
        ctx = StageContext.for_stage(n)
        res = eval_stage(program, [], ctx)
        assert res.store["u"] == Fraction(n + 1)
        (iters,) = res.loop_iterations.values()
        assert iters == n + 1 == ctx.infinity


def test_dt_free_programs_are_stage_independent():
    program = parse(corpus_source("floor.whdt"))
    results = [
        eval_stage(program, [Fraction(37, 10)], StageContext.for_stage(n))
        for n in range(6)
    ]
    stores = [r.store for r in results]
    totals = [r.ledger.total for r in results]
    assert all(s == stores[0] for s in stores)
    assert all(t == totals[0] for t in totals)


@pytest.fixture
def stage_calls(monkeypatch):
    """The arguments of every `semantics.eval_stage` call the test makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return eval_stage(*args)

    monkeypatch.setattr(semantics, "eval_stage", counting)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    program_sources(stage_free=True, bounded=True),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
def test_shared_stage_agrees_with_every_stage(source, x):
    # dt-free and oracle-free, so eval_stages evaluates one stage for all
    program = parse(source)
    seq = eval_stages(program, [x], SMALL_SCHEDULE, step_fuel=60)
    for i, n in enumerate(SMALL_SCHEDULE):
        res = eval_stage(program, [x], StageContext.for_stage(n, step_fuel=60))
        assert seq.statuses[i] == res.status
        for var in program.outputs:
            assert seq.outputs[var][i] == (res.store.get(var) if res.status.ok else None)
        assert seq.ledgers[i] == res.ledger
        assert seq.loop_iterations[i] == res.loop_iterations


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.whdt")), ids=lambda p: p.name)
def test_only_stage_invariant_programs_are_evaluated_once(stage_calls, path):
    flags, _ = parse_expectations(path.read_text(encoding="utf-8"))
    run = load_run(build_arg_parser().parse_args(["run", str(path), *flags]))
    program = run["program"]
    seq = eval_stages(program, run["inputs"], SMALL_SCHEDULE, run["binding"])
    assert all(status.ok for status in seq.statuses)
    # a graph oracle runs its macro through eval_stage too
    calls = sum(args[0] is program for args in stage_calls)
    # floor.whdt is the one corpus program that reads no dt, infinity or oracle
    assert calls == (1 if path.name == "floor.whdt" else len(SMALL_SCHEDULE))
    # a Program built by hand reads what its body reads, so it is shared alike
    rebuilt = Program(program.inputs, program.outputs, program.body)
    eval_stages(rebuilt, run["inputs"], SMALL_SCHEDULE, run["binding"])
    assert sum(args[0] is rebuilt for args in stage_calls) == calls


@pytest.mark.parametrize(
    "source",
    [
        "input; output y; y := floor(real3(A))",
        "input; output y; y := 0; if 3 in A then y := 1",
    ],
)
def test_unexpanded_program_with_an_unbound_oracle_is_refused_at_every_stage(source):
    # the parser's Program, not only expand_macros', knows the oracle it reads
    _, main = parse_module(source)
    seq = eval_stages(main, [], SMALL_SCHEDULE)
    assert {(s.kind, s.error, s.message) for s in seq.statuses} == {
        ("error", "unknown-oracle", "program requires unbound oracle(s): A")
    }


def test_symbolic_input_is_evaluated_per_stage(stage_calls):
    x = oracle_const(finite_stream("s", [1, 0, 1]))  # 1 + 1/9
    seq = eval_stages(parse(corpus_source("floor.whdt")), [x], SMALL_SCHEDULE)
    assert len(stage_calls) == len(SMALL_SCHEDULE)
    assert seq.outputs["y"] == [Fraction(1)] * len(SMALL_SCHEDULE)


def test_determinism():
    program = parse(corpus_source("thomson.whdt"))
    a = eval_stage(program, [], StageContext.for_stage(9))
    b = eval_stage(program, [], StageContext.for_stage(9))
    assert a.store == b.store
    assert a.ledger.total == b.ledger.total
    assert a.loop_iterations == b.loop_iterations


def test_eval_stages_orders_and_isolates_errors():
    # x decrements by 1 forever when the input is fractional: the loop
    # never hits 0, so every stage exhausts its fuel without aborting others
    src = "input x; output y; while x != 0 do x := x - 1; y := 0"
    program = parse(src)
    seq = eval_stages(program, [Fraction(1, 2)], SMALL_SCHEDULE, step_fuel=500)
    assert [st.kind for st in seq.statuses] == ["fuel-exhausted"] * 8
    assert seq.outputs["y"] == [None] * 8


def test_fuel_exhaustion_reports_loop_location():
    src = "input;\noutput y;\ny := 0;\nwhile 0 < 1 do\n  y := y + 1"
    program = parse(src)
    res = eval_stage(program, [], StageContext.for_stage(0, step_fuel=100))
    assert res.status.kind == "fuel-exhausted"
    assert res.status.location == "4:1"


def test_eval_stages_validates_schedule():
    program = parse("input; output y; y := 1")
    with pytest.raises(ValueError):
        eval_stages(program, [], [])
    with pytest.raises(ValueError):
        eval_stages(program, [], [3, 3])
    with pytest.raises(ValueError):
        eval_stages(program, [], [5, 2])


def test_empty_body_program_keeps_inputs():
    program = parse("input x; output x_out; x_out := x; skip")
    seq = eval_stages(program, [Fraction(9, 7)], SMALL_SCHEDULE)
    assert all(v == Fraction(9, 7) for v in seq.outputs["x_out"])


def test_missing_oracle_binding_is_an_error():
    program = parse("input x; output y; a := real3(A); y := 0")
    res = eval_stage(program, [Fraction(0)], StageContext.for_stage(0))
    assert res.status.kind == "error"
    assert res.status.error == "unknown-oracle"


def test_pair_requires_hypernaturals():
    program = parse("input x; output y; y := J(x, 2)")
    res = eval_stage(program, [Fraction(1, 2)], StageContext.for_stage(0))
    assert res.status.kind == "error"
    assert res.status.error == "not-hypernatural"


def test_pair_uses_cantor_encoding():
    program = parse("input x; output y; y := J(x, x + 1)")
    res = eval_stage(program, [Fraction(4)], StageContext.for_stage(0))
    assert res.store["y"] == Fraction(cantor_pair(4, 5))


def test_division_by_zero_surfaces_as_error_status():
    program = parse("input x; output y; y := x / (x - x)")
    res = eval_stage(program, [Fraction(3)], StageContext.for_stage(0))
    assert res.status.kind == "error"
    assert res.status.error == "division-by-zero"


def test_chained_comparison_evaluates_middle_once():
    # (1/3)*a with a = oracle real: if the middle were evaluated twice the
    # query ledger would double; the chained guard already resolves on the
    # left conjunct here
    src = """
input;
output y;
a := real3(A);
y := 0;
if 2 <= a < 3 then y := 1
"""
    program = parse(src)
    res = eval_stage(
        program, [], StageContext.for_stage(0), {"A": builtin_set("evens")}
    )
    assert res.status.ok
    # 2 <= a is refuted by the tail bound alone (value <= 3/2), short-
    # circuiting before the right conjunct contributes any queries
    assert res.store["y"] == Fraction(0)
    assert res.ledger.oracle_queries == 0


def test_exact_equality_on_oracle_real_is_unresolvable():
    # real3(Z) for an empty set is exactly 0, but no finite refinement can
    # certify that: the guard must surface the unresolved comparison as a
    # per-stage error rather than guessing
    from whiledt.oracles import finite_set

    src = "input; output y; y := 0; if real3(Z) = 0 then y := 1"
    program = parse(src)
    res = eval_stage(
        program, [], StageContext.for_stage(0), {"Z": finite_set("Z", [])}
    )
    assert res.status.kind == "error"
    assert res.status.error == "unresolved-comparison"


def test_infinity_constant_agrees_with_elimination_loop():
    direct = parse("input x; output y; y := infinity - x")
    eliminated = parse(
        """
input x;
output y;
t := 0;
u := 0;
while t < 1 do {
  t := t + dt;
  u := u + 1
};
y := u - x
"""
    )
    for n in SMALL_SCHEDULE + [31, 63]:
        a = eval_stage(direct, [Fraction(2)], StageContext.for_stage(n))
        b = eval_stage(eliminated, [Fraction(2)], StageContext.for_stage(n))
        assert a.store["y"] == b.store["y"] == Fraction(n - 1)


def test_inputs_are_exact_rationals():
    # the float 0.1 is 3602879701896397/36028797018963968, not 1/10
    program = parse("input x; output y; y := x * 10")
    with pytest.raises(TypeError, match=r"0\.1 is a binary float"):
        eval_stages(program, [0.1], range(8))
    for x in (Fraction(1, 10), Decimal("0.1"), "0.1", "1/10"):
        assert eval_stages(program, [x], range(8)).outputs["y"] == [Fraction(1)] * 8
    assert eval_stages(program, [3], range(8)).outputs["y"] == [Fraction(30)] * 8


# ---------------------------------------------------------------------------
# Deferred assignments: a run that defers is compared with one whose loops
# defer nothing, which is how every assignment ran before deferral.


def run_both(program, inputs, n, oracles=None, **ctx_kw):
    """The StageResults of one stage run as is and run eagerly; an eager
    loop's plan is its own body."""
    ctx = StageContext.for_stage(n, **ctx_kw)
    deferred = eval_stage(program, inputs, ctx, oracles)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_plan", lambda loop: loop.body)
        eager = eval_stage(program, inputs, ctx, oracles)
    return deferred, eager


def assert_same_stage(deferred, eager):
    # the ledger holds the stage recorder's count as `oracle_queries`
    assert list(deferred.store.items()) == list(eager.store.items())
    assert deferred.status == eager.status
    assert deferred.ledger == eager.ledger
    assert deferred.loop_iterations == eager.loop_iterations


def defers(program):
    """The variables each loop of `program` defers, in source order."""
    loops = [n for n in walk(program.body) if type(n) is While]
    return [
        sorted({s.var for s in semantics._own_level(semantics._plan(w))
                if type(s) is semantics._Deferred})
        for w in loops
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(program_sources(bounded=True), dead_store_sources()),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.booleans(),
)
def test_deferring_loops_agree_with_eager_loops(source, x, fast):
    program = parse(source)
    form = "dead store form" if "c := floor(k)" in source else "program_sources"
    event(f"{form}: {'defers' if any(defers(program)) else 'defers nothing'}")
    oracles = {"A": builtin_set("primes")}
    for n in (0, 2, 5):
        assert_same_stage(*run_both(
            program, [x], n, oracles, step_fuel=150, cmp_fuel=64, use_fast_path=fast
        ))


def test_ball_defers_its_energy_and_nothing_else():
    program = parse(corpus_source("ball.whdt"))
    assert defers(program) == [["energy"]]
    for n in (0, 3, 31):
        assert_same_stage(*run_both(program, [], n))


@pytest.mark.parametrize("step_fuel", [1, 7, 8, 9, 10, 30])
def test_fuel_out_inside_a_deferring_loop_stores_the_last_value(step_fuel):
    program = parse(
        "input; output e; e := 0; k := 0; while 0 < 1 do { k := k + 1; e := k * dt }"
    )
    assert defers(program) == [["e"]]
    deferred, eager = run_both(program, [], 3, step_fuel=step_fuel)
    assert_same_stage(deferred, eager)
    assert deferred.status.kind == "fuel-exhausted"


def test_unbound_read_of_a_deferred_assignment_is_an_error_there():
    # parse does not run `check`, which refuses this program
    program = parse(
        "input; output k; k := 0;"
        " while k < 2 do { k := k + 1; s := q + k; if k = 2 then q := 1 }"
    )
    assert defers(program) == [["s"]]
    deferred, eager = run_both(program, [], 0)
    assert_same_stage(deferred, eager)
    assert deferred.status.message == "variable 'q' read before assignment"
    assert "s" not in deferred.store


def test_zero_turn_loop_stores_nothing():
    program = parse("input; output d; d := 7; while 1 < 0 do { d := 5; fresh := 1 }")
    assert defers(program) == [["d", "fresh"]]
    deferred, eager = run_both(program, [], 0)
    assert_same_stage(deferred, eager)
    assert list(deferred.store.items()) == [("d", 7)]


def test_outer_loop_reads_the_inner_loops_dead_store():
    program = parse(
        "input x; output y; y := 0; i := 0;"
        " while i < 2 + dt do { i := i + 1; j := 0;"
        "   while j < 3 do { j := j + 1; d := j * i - x }; y := y + d }"
    )
    # the outer loop reads d, so only the inner one defers it
    assert defers(program) == [[], ["d"]]
    for n in (0, 1, 4):
        deferred, eager = run_both(program, [Fraction(1, 2)], n)
        assert_same_stage(deferred, eager)
    # at stage 4 the outer loop turns three times, and d ends at 3 * i - x
    assert deferred.store["y"] == sum(3 * i - Fraction(1, 2) for i in (1, 2, 3))


def test_variable_first_created_in_a_loop_keeps_its_store_position():
    program = parse(
        "input; output k; k := 0;"
        " while k < 3 do { k := k + 1; late := k * 2; f := floor(k / 2); m := k }; z := 1"
    )
    assert defers(program) == [["late", "m"]]
    deferred, eager = run_both(program, [], 0)
    assert_same_stage(deferred, eager)
    assert list(deferred.store) == ["k", "late", "f", "m", "z"]
    assert deferred.store["late"] == 6


def test_symbolic_dead_store_without_the_fast_path():
    program = parse(
        "input x; output s; k := 0; r := real3(A);"
        " while k < 3 do { k := k + 1; s := r * k + x * dt - r / 3 }"
    )
    assert defers(program) == [["s"]]
    oracles = {"A": builtin_set("primes")}
    for n in (0, 5):
        deferred, eager = run_both(
            program, [Fraction(2)], n, oracles, use_fast_path=False
        )
        assert_same_stage(deferred, eager)
        assert not isinstance(deferred.store["s"], Fraction)


@pytest.mark.parametrize(
    "body",
    [
        "d := floor(k)",  # may read a digit
        "d := k / v",  # may divide by zero
        "d := k / 0",
        "d := J(k, 1)",  # may fail on a non-natural
        "d := real3(A)",
        "d := k; d := d + 1",  # the loop reads d
        "d := k; while k < 0 do d := 1",  # a nested loop assigns d
        "if d < 1 then skip; d := k",  # the loop's body reads d
    ],
)
def test_an_assignment_that_can_fail_or_is_read_is_not_deferred(body):
    program = parse(f"input; output k; v := 1; d := 0; k := 0;"
                    f" while k < 2 do {{ k := k + 1; {body} }}")
    assert "d" not in defers(program)[0]


def test_a_loop_guard_read_blocks_deferral():
    program = parse("input; output d; d := 0; k := 0; while d < 2 do { k := k + 1; d := k }")
    assert defers(program) == [[]]


def node_refs(program):
    """Weak references to `program` and to each of its loops and assignments."""
    return [weakref.ref(program)] + [
        weakref.ref(n) for n in walk(program.body) if type(n) in (While, Assign)
    ]


def test_no_loop_plan_outlives_its_stage_or_its_program(monkeypatch):
    program = parse(corpus_source("ball.whdt"))
    eval_stages(program, [], SMALL_SCHEDULE, energy_var="energy")
    held = node_refs(program)
    assert len(held) > 2
    del program
    gc.collect()
    assert [r for r in held if r() is not None] == []
    # the program `whiledt run` parses is gone once the command returns
    held = []

    def keeping(program, *args, **kw):
        held.extend(node_refs(program))
        return eval_stages(program, *args, **kw)

    monkeypatch.setattr(cli, "eval_stages", keeping)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(CORPUS / "ball.whdt"), "--stages", "0..3",
                         "--energy-var", "energy", "--report", "json"])
    assert code == 0 and len(held) > 2
    gc.collect()
    assert [r for r in held if r() is not None] == []
