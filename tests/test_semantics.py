"""Stagewise evaluation: corpus programs against independent oracles."""

import math
import random
from fractions import Fraction

import pytest

from conftest import corpus_source
from whiledt.oracles import builtin_set, cantor_pair, graph_oracle
from whiledt.semantics import (
    StageContext,
    eval_stage,
    eval_stages,
)
from whiledt.syntax import parse

SMALL_SCHEDULE = list(range(8))


def run_once(src, inputs, n=0, oracles=None, **ctx_kw):
    ctx = StageContext.for_stage(n, **ctx_kw)
    return eval_stage(parse(src), [Fraction(v) for v in inputs], ctx, oracles)


def test_store_holds_only_fractions_on_rational_programs():
    program = parse(corpus_source("floor.whdt"))
    for x in (Fraction(37, 10), Fraction(-23, 10), Fraction(0)):
        for n in (0, 3):
            res = eval_stage(program, [x], StageContext.for_stage(n))
            assert res.status.ok
            assert res.store and all(type(v) is Fraction for v in res.store.values())


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
