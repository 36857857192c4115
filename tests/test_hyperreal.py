"""Hyperreal classification of stage sequences."""

from fractions import Fraction

import pytest

from conftest import corpus_source
from whiledt.errors import InsufficientStages
from whiledt.hyperreal import (
    ConvergentNonconstant,
    EventuallyConstant,
    Irregular,
    NoStandardPart,
    PeriodicPattern,
    Unbounded,
    classify_value,
    standard_part,
    ultrafilter_report,
)
from whiledt.semantics import DEFAULT_SCHEDULE, StageSequence, eval_stages
from whiledt.syntax import parse

FULL = list(DEFAULT_SCHEDULE)


def make_seq(schedule, values):
    from whiledt.semantics import HaltStatus
    from whiledt.resources import ResourceLedger

    vals = [Fraction(v) for v in values]
    return StageSequence(
        schedule=list(schedule),
        outputs={"y": vals},
        statuses=[HaltStatus("halted")] * len(vals),
        ledgers=[ResourceLedger()] * len(vals),
        loop_iterations=[{} for _ in vals],
    )


def test_requires_eight_halted_stages():
    with pytest.raises(InsufficientStages):
        classify_value(make_seq(range(5), [1] * 5), "y")


def test_constant_sequence():
    cls = classify_value(make_seq(FULL, [3] * len(FULL)), "y")
    assert cls == EventuallyConstant(value=Fraction(3), stabilization_stage=0)
    assert standard_part(cls) == Fraction(3)
    assert cls.heuristic is False


def test_eventually_constant_records_stabilization():
    values = [0, 0, 0, 0] + [5] * (len(FULL) - 4)
    cls = classify_value(make_seq(FULL, values), "y")
    assert cls == EventuallyConstant(value=Fraction(5), stabilization_stage=4)


def test_periodic_thomson_shape():
    values = [(n + 1) % 2 for n in FULL]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, PeriodicPattern)
    assert cls.period == 2
    assert cls.residues == {0: Fraction(1), 1: Fraction(0)}
    assert standard_part(cls) == NoStandardPart("ultrafilter-dependent")


def test_periodic_needs_three_full_periods():
    # schedule 0..7 has four full periods of 2; a pure doubling schedule
    # has no consecutive run and must not classify periodic
    sparse = [0, 1, 3, 7, 15, 31, 63, 127]
    values = [(n + 1) % 2 for n in sparse]
    cls = classify_value(make_seq(sparse, values), "y")
    assert not isinstance(cls, PeriodicPattern)


def test_period_three_counter():
    src = """
input;
output lamp;
t := 0;
lamp := 0;
while t < 1 do {
  t := t + dt;
  lamp := lamp + 1;
  if lamp = 3 then lamp := 0
}
"""
    seq = eval_stages(parse(src), [], FULL)
    cls = classify_value(seq, "lamp")
    assert isinstance(cls, PeriodicPattern) and cls.period == 3
    cands = ultrafilter_report(cls)
    assert [r for r, _ in cands] == [0, 1, 2]
    assert sorted(int(v) for _, v in cands) == [0, 1, 2]


def test_unbounded_positive():
    values = [n + 1 for n in FULL]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, Unbounded) and cls.direction == "+"
    assert standard_part(cls) == NoStandardPart("infinite")


def test_unbounded_negative():
    values = [-(n + 1) for n in FULL]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, Unbounded) and cls.direction == "-"


def test_unbounded_absolute_threshold():
    values = [Fraction(2) ** (n + 1) for n in FULL]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, Unbounded) and cls.direction == "+"


def test_convergent_gap_halving():
    values = [1 - Fraction(1, n + 1) for n in FULL]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, ConvergentNonconstant)
    # geometric extrapolation of exact halving recovers the true limit
    assert cls.limit_estimate == Fraction(1)
    assert standard_part(cls) == Fraction(1)
    assert cls.heuristic is True


def test_irregular_fallback():
    values = [0, 9, 2, 8, 1, 7, 3, 6, 0, 9, 5, 4, 2, 8, 6, 1, 3, 0, 7]
    cls = classify_value(make_seq(FULL, values), "y")
    assert isinstance(cls, Irregular)
    assert standard_part(cls) == NoStandardPart("unclassified")


def test_classifier_is_pure():
    seq = make_seq(FULL, [(n + 1) % 2 for n in FULL])
    assert classify_value(seq, "y") == classify_value(seq, "y")


def test_classifier_skips_unhalted_stages():
    from whiledt.semantics import HaltStatus
    from whiledt.resources import ResourceLedger

    statuses = [HaltStatus("halted")] * len(FULL)
    statuses[3] = HaltStatus("error", error="unresolved-comparison")
    values = [Fraction(7)] * len(FULL)
    values[3] = None
    seq = StageSequence(
        schedule=FULL,
        outputs={"y": values},
        statuses=statuses,
        ledgers=[ResourceLedger()] * len(FULL),
        loop_iterations=[{} for _ in FULL],
    )
    cls = classify_value(seq, "y")
    assert isinstance(cls, EventuallyConstant)


def test_thomson_verdict_on_various_schedules():
    program = parse(corpus_source("thomson.whdt"))
    for schedule in (list(range(8)), list(range(16)), list(range(4, 12)), FULL):
        seq = eval_stages(program, [], schedule)
        cls = classify_value(seq, "y" if "y" in seq.outputs else "lamp")
        assert isinstance(cls, PeriodicPattern) and cls.period == 2


def test_eventually_constant_survives_extra_stages():
    program = parse(corpus_source("limit.whdt"))
    seq = eval_stages(program, [Fraction(5)], FULL)
    cls = classify_value(seq, "y")
    assert cls == EventuallyConstant(value=Fraction(5), stabilization_stage=4)
    extended = eval_stages(program, [Fraction(5)], FULL + [128, 129, 130])
    cls2 = classify_value(extended, "y")
    assert isinstance(cls2, EventuallyConstant)
    assert cls2.value == cls.value
    assert cls2.stabilization_stage == cls.stabilization_stage


def test_dt_free_corpus_programs_stabilize_at_stage_zero():
    from whiledt.oracles import builtin_set, graph_oracle

    cases = [
        ("floor.whdt", [Fraction(37, 10)], None),
        ("decide.whdt", [Fraction(7)], {"A": builtin_set("primes")}),
        ("compute.whdt", [Fraction(5)], {"A": graph_oracle(lambda x: x * x, 30)}),
    ]
    for name, inputs, binding in cases:
        program = parse(corpus_source(name))
        seq = eval_stages(program, list(inputs), FULL, oracles=binding)
        cls = classify_value(seq, "y")
        assert isinstance(cls, EventuallyConstant)
        assert cls.stabilization_stage == 0


def test_ultrafilter_report_requires_periodic():
    with pytest.raises(TypeError):
        ultrafilter_report(EventuallyConstant(Fraction(1), 0))
