"""The benchmark's generated programs evaluate to the values its generator
tracks.

`bench/workloads.py` writes the `long_programs` workload with `_Gen`,
which runs each statement it emits as a Python function on exact values,
so it knows every output without whiledt.  This test reads that module
as it is and checks whiledt's outputs against those values, on the
programs the benchmark runs for several seeds and on other seeds.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from whiledt import semantics
from whiledt.semantics import eval_stages
from whiledt.syntax import While, check, parse, walk

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = workloads()
STAGES = list(range(8))


def generated(rng):
    """Each (source, tracked values) of one round's generated programs of
    40 to 600 statements, drawn as `long_programs` draws them from `rng`."""
    return [W._Gen(rng).program(size) for size in W.LONG_SIZES]


def deferred_count(program):
    return sum(
        type(s) is semantics._Deferred
        for loop in walk(program.body) if type(loop) is While
        for s in semantics._own_level(semantics._plan(loop))
    )


@pytest.mark.parametrize(
    "rng_seed", [f"long_programs/{seed}" for seed in (41, 42, 43, 44, 45)] + ["a", "b"]
)
def test_generated_programs_evaluate_to_the_tracked_values(rng_seed):
    deferred = 0
    for source, values in generated(random.Random(rng_seed)):
        program = parse(source)
        assert check(program) == []
        seq = eval_stages(program, [], STAGES)
        assert all(status.ok for status in seq.statuses)
        for var, value in values.items():
            assert seq.outputs[var] == [value] * len(STAGES), var
        deferred += deferred_count(program)
    # the loops of these programs defer some of their assignments
    assert deferred > 0


def test_straight_line_programs_evaluate_to_the_tracked_values():
    for size in (200, 600):
        source, values = W._Gen(random.Random(f"straight/{size}"), straight=True).program(size)
        seq = eval_stages(parse(source), [], STAGES)
        assert {var: seq.outputs[var][0] for var in values} == values
