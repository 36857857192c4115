"""Resource metering and supertask classification."""

from fractions import Fraction

import pytest

from conftest import corpus_source
from whiledt.errors import InsufficientStages
from whiledt.oracles import builtin_set
from whiledt.resources import (
    CostModel,
    Meter,
    bounce_count,
    classify_cost_sequence,
    classify_supertask,
)
from whiledt.semantics import DEFAULT_SCHEDULE, StageContext, eval_stage, eval_stages
from whiledt.syntax import parse

FULL = list(DEFAULT_SCHEDULE)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(assign_cost=Fraction(-1))


def test_cost_model_overrides():
    m = CostModel().with_overrides(
        [("assign_cost", "1/2"), ("clock_vars", "t,u"), ("energy_var", "E")]
    )
    assert m.assign_cost == Fraction(1, 2)
    assert m.clock_vars == frozenset({"t", "u"})
    assert m.energy_var == "E"
    with pytest.raises(KeyError):
        CostModel().with_overrides([("bogus", "1")])


def test_meter_additivity():
    meter = Meter(CostModel())
    meter.charge_assign("x", [])
    meter.charge_guard(["1:1"])
    meter.charge_assign("y", ["1:1"])
    meter.charge_oracle(3, ["1:1", "2:3"])
    ledger = meter.ledger()
    assert ledger.total == Fraction(6)
    assert ledger.total == ledger.nonloop_total() + sum(
        ledger.loop_subtotals.values(), Fraction(0)
    )
    assert ledger.loop_subtotals == {"1:1": Fraction(2), "2:3": Fraction(3)}
    assert ledger.oracle_queries == 3


def test_skip_only_program_costs_nothing():
    res = eval_stage(parse("input; output; skip"), [], StageContext.for_stage(5))
    assert res.ledger.total == 0
    assert res.ledger.oracle_queries == 0


def test_thomson_cost_closed_form():
    # loop body: 2 assignments + 1 guard per iteration, plus the failing
    # final guard and the 2 initial assignments
    program = parse(corpus_source("thomson.whdt"))
    for n in (0, 1, 5, 13, 31):
        res = eval_stage(program, [], StageContext.for_stage(n))
        assert res.ledger.total == (n + 1) * 3 + 1 + 2


def test_clock_variable_exemption():
    program = parse(corpus_source("thomson.whdt"))
    model = CostModel(clock_vars=frozenset({"time"}))
    for n in (0, 4, 9):
        ctx = StageContext.for_stage(n, cost_model=model)
        res = eval_stage(program, [], ctx)
        # the time assignments (1 init + n+1 in-loop) are free now
        assert res.ledger.total == (n + 1) * 2 + 1 + 1


def test_metering_neutrality():
    program = parse(corpus_source("decide.whdt"))
    binding = {"A": builtin_set("primes")}
    free = CostModel(
        assign_cost=Fraction(0), guard_cost=Fraction(0), oracle_cost=Fraction(0)
    )
    a = eval_stage(program, [Fraction(9)], StageContext.for_stage(2), binding)
    b = eval_stage(
        program,
        [Fraction(9)],
        StageContext.for_stage(2, cost_model=free),
        binding,
    )
    assert a.store == b.store
    assert b.ledger.total == 0
    assert a.ledger.oracle_queries == b.ledger.oracle_queries


def test_peak_store_size():
    res = eval_stage(
        parse("input a; output d; b := a; c := b; d := c"),
        [Fraction(1)],
        StageContext.for_stage(0),
    )
    assert res.ledger.peak_store == 4


def test_fractional_costs_stay_exact():
    program = parse(corpus_source("thomson.whdt"))
    model = CostModel(assign_cost=Fraction(1, 3), guard_cost=Fraction(1, 7))
    res = eval_stage(program, [], StageContext.for_stage(2, cost_model=model))
    # init: 2 assigns; loop: 3 iterations of (2 assigns + guard); final guard
    assert res.ledger.total == 2 * Fraction(1, 3) + 3 * (
        2 * Fraction(1, 3) + Fraction(1, 7)
    ) + Fraction(1, 7)


def test_classify_requires_enough_stages():
    with pytest.raises(InsufficientStages):
        classify_cost_sequence([0, 1, 2], [1, 2, 3])


def test_constant_ledgers_are_good():
    cls = classify_cost_sequence(FULL, [Fraction(10)] * len(FULL))
    assert cls.kind == "good"
    assert cls.bound == Fraction(10)


def test_linear_growth_is_bad():
    cls = classify_cost_sequence(FULL, [3 * (n + 1) + 3 for n in FULL])
    assert cls.kind == "bad"


def test_steady_oscillation_is_undetermined():
    # neither settling nor growing: bounded oscillation with fixed swing
    values = [Fraction(10) + (Fraction(2) if i % 2 else Fraction(0)) for i in range(len(FULL))]
    cls = classify_cost_sequence(FULL, values)
    assert cls.kind == "undetermined"


def test_slow_linear_drift_is_still_bad():
    # a constant positive slope is divergence no matter how small
    values = [Fraction(1000) + Fraction(n, 1000) for n in FULL]
    assert classify_cost_sequence(FULL, values).kind == "bad"


def test_thomson_is_a_bad_supertask():
    program = parse(corpus_source("thomson.whdt"))
    seq = eval_stages(program, [], FULL)
    totals = [l.total for l in seq.ledgers]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    verdicts = classify_supertask(seq.schedule, seq.ledgers)
    assert verdicts.metered.kind == "bad"
    assert verdicts.energy is None


def test_ball_energy_view_is_good_and_metered_view_bad():
    program = parse(corpus_source("ball.whdt"))
    seq = eval_stages(program, [], FULL, energy_var="energy")
    energy = list(seq.energy_values)
    verdicts = classify_supertask(seq.schedule, seq.ledgers, energy)
    assert verdicts.metered.kind == "bad"
    assert verdicts.energy.kind == "good"


def test_ball_energy_never_exceeds_initial():
    program = parse(corpus_source("ball.whdt"))
    seq = eval_stages(program, [], FULL, energy_var="energy")
    initial = Fraction(2)
    for v in seq.energy_values:
        assert v <= initial


def test_bounce_counts_nondecreasing_with_refinement():
    program = parse(corpus_source("ball.whdt"))
    seq = eval_stages(program, [], FULL)
    summary = bounce_count(seq)
    assert summary.nondecreasing
    assert summary.counts[-1] > summary.counts[0]
    # finer stages resolve strictly more of the pre-horizon impact cluster
    by_stage = dict(zip(seq.schedule, summary.counts))
    assert by_stage[63] > by_stage[15]


def test_ball_horizon_before_first_impact():
    # with the horizon pulled before the drop reaches the floor there are
    # no bounces; stage 0 is excluded because a single dt=1 step already
    # overshoots the ground
    src = corpus_source("ball.whdt").replace("time < 4", "time < 1/2")
    seq = eval_stages(parse(src), [], FULL[1:])
    assert all(int(v) == 0 for v in seq.outputs["bounces"])


def test_ball_zero_restitution_sticks():
    # the ball arrives once from above, sticks, and resting contact is
    # never counted again: exactly one bounce at every stage
    src = corpus_source("ball.whdt").replace("(-1/2) * speed", "0 * speed")
    seq = eval_stages(parse(src), [], FULL)
    counts = [int(v) for v in seq.outputs["bounces"]]
    assert counts == [1] * len(FULL)
