"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every assertion is exact (rational equality); the only tolerances
are the stated wall-clock budgets.
"""

import math
import random
import time
from fractions import Fraction

from conftest import CORPUS, corpus_source, finite_stream, stream_value, true_value
from whiledt import cli
from whiledt.exactnum import add, exact, mul, oracle_const, refine, sub
from whiledt.hyperreal import (
    EventuallyConstant,
    PeriodicPattern,
    Unbounded,
    classify_value,
    ultrafilter_report,
)
from whiledt.oracles import LimitSpec, builtin_set, graph_oracle, run_limit
from whiledt.resources import bounce_count, classify_supertask
from whiledt.semantics import (
    DEFAULT_SCHEDULE,
    StageContext,
    eval_stage,
    eval_stages,
)
from whiledt.syntax import parse, parse_module

FULL = list(DEFAULT_SCHEDULE)


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_floor_program():
    start = time.monotonic()
    program = parse(corpus_source("floor.whdt"))
    rng = random.Random(20240801)
    cases = [Fraction(37, 10), Fraction(-23, 10), Fraction(0), Fraction(-1)]
    cases += [
        Fraction(rng.randint(-50_000, 50_000), rng.randint(1, 1000))
        for _ in range(200)
    ]
    schedule = list(range(8))
    checked = 0
    for x in cases:
        expected = x.numerator // x.denominator
        seq = eval_stages(program, [x], schedule)
        for st, v in zip(seq.statuses, seq.outputs["y"]):
            assert st.ok
            assert v == Fraction(expected), x
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"floor suite took {elapsed:.2f}s"
    _ok(1, f"{checked} exact floor checks across {len(schedule)} stages"
           f" in {elapsed:.2f}s")


def test_criterion_2_decision_program():
    start = time.monotonic()
    program = parse(corpus_source("decide.whdt"))

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))

    members = {
        "primes": is_prime,
        "evens": lambda n: n % 2 == 0,
        "squares": lambda n: math.isqrt(n) ** 2 == n,
    }
    checked = 0
    for name, member in members.items():
        for x in range(65):
            expected = Fraction(1 if member(x) else 0)
            fast = eval_stage(
                program,
                [Fraction(x)],
                StageContext.for_stage(2),
                {"A": builtin_set(name)},
            )
            assert fast.status.ok
            assert fast.store["y"] == expected, (name, x)
            assert fast.ledger.oracle_queries == x + 1
            interval = eval_stage(
                program,
                [Fraction(x)],
                StageContext.for_stage(2, use_fast_path=False),
                {"A": builtin_set(name)},
            )
            if interval.status.ok:  # agrees wherever the interval route resolves
                assert interval.store["y"] == expected, (name, x)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"decide suite took {elapsed:.2f}s"
    _ok(2, f"{checked} membership decisions, fast path and interval route,"
           f" in {elapsed:.2f}s")


def test_criterion_3_function_program():
    program = parse(corpus_source("compute.whdt"))
    binding = {"A": graph_oracle(lambda x: x * x, 25)}
    for x in range(21):
        res = eval_stage(program, [Fraction(x)], StageContext.for_stage(1), binding)
        assert res.status.ok
        assert res.store["y"] == Fraction(x * x), x
    _ok(3, "compute.whdt returns x**2 exactly for all x <= 20")


def test_criterion_4_limit_lemma_harness():
    defs, _ = parse_module(corpus_source("limit.whdt"))
    spec = LimitSpec("F", defs)
    for x in range(11):
        seq = run_limit(spec, x, FULL)
        cls = classify_value(seq, "y")
        assert isinstance(cls, EventuallyConstant), x
        assert cls.value == Fraction(x)
        assert cls.stabilization_stage == max(x - 1, 0), x
    _ok(4, "run_limit is eventually constant x with stabilization stage x-1"
           " for x <= 10")


def test_criterion_5_infinity_elimination():
    program = parse(corpus_source("inf-elim.whdt"))
    schedule = list(range(128))
    seq = eval_stages(program, [], schedule)
    for n, v, st in zip(schedule, seq.outputs["u"], seq.statuses):
        assert st.ok
        assert v == Fraction(n + 1), n
    cls = classify_value(seq, "u")
    assert isinstance(cls, Unbounded) and cls.direction == "+"
    # the two formulations of F(infinity, x): constant vs eliminated loop
    direct = parse(
        "def F(s, x) -> r { if s >= x then r := x else r := 0 }\n"
        "input x; output y; y := F(infinity, x)"
    )
    eliminated = parse(
        "def F(s, x) -> r { if s >= x then r := x else r := 0 }\n"
        "input x;\noutput y;\n"
        "t := 0;\nu := 0;\n"
        "while t < 1 do { t := t + dt; u := u + 1 };\n"
        "y := F(u, x)"
    )
    x = Fraction(9)
    a = eval_stages(direct, [x], schedule)
    b = eval_stages(eliminated, [x], schedule)
    assert a.outputs["y"] == b.outputs["y"]
    _ok(5, "u = n+1 for n <= 127, verdict unbounded(+), and both F(inf, x)"
           " formulations agree stage-by-stage")


def test_criterion_6_thomson_lamp():
    program = parse(corpus_source("thomson.whdt"))
    schedule = list(range(128))
    seq = eval_stages(program, [], schedule)
    for n, v, st in zip(schedule, seq.outputs["lamp"], seq.statuses):
        assert st.ok
        assert v == Fraction((n + 1) % 2), n
    cls = classify_value(seq, "lamp")
    assert isinstance(cls, PeriodicPattern) and cls.period == 2
    candidates = ultrafilter_report(cls)
    assert candidates == [(0, Fraction(1)), (1, Fraction(0))]
    totals = [l.total for l in seq.ledgers]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    verdicts = classify_supertask(schedule, seq.ledgers)
    assert verdicts.metered.kind == "bad"
    _ok(6, "lamp = (n+1) mod 2 for n <= 127, periodic(2) with both"
           " candidates, supertask bad on strictly increasing ledgers")


def test_criterion_7_bouncing_ball():
    program = parse(corpus_source("ball.whdt"))
    start = time.monotonic()
    stage63 = eval_stage(program, [], StageContext.for_stage(63))
    stage63_elapsed = time.monotonic() - start
    assert stage63.status.ok
    assert stage63_elapsed < 30.0, f"stage 63 took {stage63_elapsed:.2f}s"

    seq = eval_stages(program, [], FULL, energy_var="energy")
    assert all(st.ok for st in seq.statuses)
    summary = bounce_count(seq)
    assert summary.nondecreasing
    by_stage = dict(zip(seq.schedule, summary.counts))
    assert by_stage[63] > by_stage[15]
    initial_energy = Fraction(2)
    for v in seq.energy_values:
        assert v <= initial_energy  # exact rational comparison
    energy = list(seq.energy_values)
    verdicts = classify_supertask(seq.schedule, seq.ledgers, energy)
    assert verdicts.energy.kind == "good"
    assert verdicts.metered.kind == "bad"
    _ok(7, f"bounces nondecreasing ({by_stage[15]} at n=15, {by_stage[63]}"
           f" at n=63), energy bounded by 2, good/bad verdicts as stated;"
           f" stage 63 in {stage63_elapsed:.2f}s")


def test_criterion_8_numeric_substrate():
    # no-carry digit theorem, exhaustively over all 2**8 prefixes
    for mask in range(256):
        digits = [(mask >> i) & 1 for i in range(8)]
        value = stream_value(digits)
        for k in range(8):
            assert (3**k * value).__floor__() % 3 == digits[k]
        # enclosure soundness for the same prefixes
        x = add(mul(exact(Fraction(3, 2)), oracle_const(finite_stream("P", digits))),
                exact(Fraction(-1, 7)))
        truth = true_value(x)
        for k in (0, 3, 6):
            iv = refine(x, k)
            assert truth in iv and iv.width <= Fraction(1, 3**k)
    # field axioms on 1000 random rational triples
    rng = random.Random(8)
    for _ in range(1000):
        a, b, c = (
            exact(Fraction(rng.randint(-300, 300), rng.randint(1, 60)))
            for _ in range(3)
        )
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, sub(exact(0), a)) == exact(0)
    _ok(8, "no-carry theorem and enclosure soundness for all 256 prefixes,"
           " field axioms on 1000 random triples")


def test_criterion_9_deterministic_reports():
    files = sorted(CORPUS.glob("*.whdt"))
    assert len(files) == 7

    def corpus_json():
        docs = []
        for path in files:
            report, failures = cli.verify_corpus_file(path)
            assert not failures, (path.name, failures)
            docs.append(report.to_json())
        return "".join(docs).encode()

    assert corpus_json() == corpus_json()
    _ok(9, f"{len(files)} corpus reports byte-identical across two runs")
