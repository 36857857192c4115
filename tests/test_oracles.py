"""Oracle sets, set encoding, Cantor pairing, and the limit harness."""

from fractions import Fraction

import pytest

from whiledt.errors import BitfileRange, BoundExceeded, UnknownMacro
from whiledt.exactnum import oracle_const, refine
from whiledt.hyperreal import EventuallyConstant, Unbounded, classify_value
from whiledt.oracles import (
    LimitSpec,
    bitfile_set,
    builtin_set,
    cantor_pair,
    cantor_unpair,
    encode_set,
    finite_set,
    graph_oracle,
    macro_callable,
    run_limit,
)
from whiledt.syntax import parse_module

SCHEDULE = list(range(16)) + [31, 63, 127]


def test_builtin_membership():
    primes = builtin_set("primes")
    assert [primes.member(i) for i in range(10)] == [0, 0, 1, 1, 0, 1, 0, 1, 0, 0]
    squares = builtin_set("squares")
    assert [squares.member(i) for i in (0, 1, 2, 4, 9, 15, 16)] == [1, 1, 0, 1, 1, 0, 1]


def test_encode_empty_set_is_zero():
    empty = finite_set("empty", [])
    r = encode_set(empty)
    assert all(r.digit(i) == 0 for i in range(20))
    iv = refine(oracle_const(r), 8)
    assert iv.lo == 0 and iv.hi <= Fraction(1, 3**8)


def test_encode_full_set_is_three_halves():
    all_ones = finite_set("all", range(200))
    r = encode_set(all_ones)
    # partial sums of the all-ones stream: (3/2)(1 - 3**-m)
    s = sum(Fraction(1, 3**i) for i in range(60))
    assert s == Fraction(3, 2) * (1 - Fraction(1, 3**60))
    iv = refine(oracle_const(r), 10)
    assert Fraction(3, 2) in iv


def test_encode_evens_value():
    # digits (1,0,1,0,...): value sum 3**-2k = 9/8.
    r = oracle_const(encode_set(builtin_set("evens")))
    for k in (2, 5, 9):
        assert Fraction(9, 8) in refine(r, k)
    assert refine(r, 9).width <= Fraction(1, 3**9)


def test_cantor_pair_base_cases():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2


def test_cantor_roundtrip_exhaustive():
    for z in range(10_000):
        x, y = cantor_unpair(z)
        assert cantor_pair(x, y) == z


def test_cantor_pair_is_injective_on_grid():
    seen = set()
    for x in range(60):
        for y in range(60):
            z = cantor_pair(x, y)
            assert z not in seen
            seen.add(z)
            assert cantor_unpair(z) == (x, y)


def test_graph_oracle_membership():
    g = graph_oracle(lambda x: x * x, 30)
    assert g.member(cantor_pair(3, 9)) == 1
    assert g.member(cantor_pair(3, 8)) == 0
    with pytest.raises(BoundExceeded):
        g.member(cantor_pair(31, 0))


def test_bitfile_set(tmp_path):
    path = tmp_path / "digits.bits"
    path.write_text("10110")
    s = bitfile_set("B", path)
    assert [s.member(i) for i in range(5)] == [1, 0, 1, 1, 0]
    with pytest.raises(BitfileRange):
        s.member(5)


def test_bitfile_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bits"
    path.write_text("10X")
    with pytest.raises(ValueError):
        bitfile_set("B", path)


def test_macro_callable_square():
    defs, _ = parse_module(
        "def SQ(u) -> w { w := u * u }\ninput x; output y; y := SQ(x)"
    )
    fn = macro_callable(defs, "SQ")
    assert [fn(x) for x in range(8)] == [x * x for x in range(8)]


LIMIT_DEFS = """
def F(s, x) -> r {
  if s >= x then
    r := x
  else
    r := 0
}
def IDENT(s, x) -> r {
  r := x
}
def STAGE(s, x) -> r {
  r := s
}
input x; output y; y := F(infinity, x)
"""


def _limit_defs():
    defs, _ = parse_module(LIMIT_DEFS)
    return defs


def test_run_limit_stabilizes_at_witness():
    spec = LimitSpec("F", _limit_defs())
    seq = run_limit(spec, 5, SCHEDULE)
    values = [int(v) for v in seq.outputs["y"]]
    assert values[:4] == [0, 0, 0, 0]
    assert all(v == 5 for v in values[4:])
    cls = classify_value(seq, "y")
    assert cls == EventuallyConstant(value=seq.outputs["y"][-1], stabilization_stage=4)


def test_run_limit_stage_independent_function():
    spec = LimitSpec("IDENT", _limit_defs())
    seq = run_limit(spec, 9, SCHEDULE)
    cls = classify_value(seq, "y")
    assert isinstance(cls, EventuallyConstant)
    assert cls.stabilization_stage == 0
    assert int(cls.value) == 9


def test_run_limit_divergent_approximation():
    spec = LimitSpec("STAGE", _limit_defs())
    seq = run_limit(spec, 0, SCHEDULE)
    values = [int(v) for v in seq.outputs["y"]]
    assert values == [n + 1 for n in SCHEDULE]
    assert isinstance(classify_value(seq, "y"), Unbounded)


def test_run_limit_unknown_macro():
    with pytest.raises(UnknownMacro):
        run_limit(LimitSpec("NOPE", _limit_defs()), 1, SCHEDULE)
