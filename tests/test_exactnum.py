"""Exact numerics: rational arithmetic, enclosures, comparison, floor."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_stream, stream_value, true_value
from whiledt.errors import DivisionByZero, OracleQueryLimit, UnresolvedComparison
from whiledt.exactnum import (
    EQ,
    GT,
    LT,
    RAT_CMP,
    Fuel,
    add,
    cmp_holds,
    compare,
    digit_extract,
    div,
    exact,
    floor_value,
    mul,
    neg,
    oracle_const,
    refine,
    sub,
)
from whiledt.oracles import builtin_set, encode_set


def frac(*args):
    return Fraction(*args)


def test_rational_add():
    assert add(exact("1/3"), exact("1/6")) == frac("1/2")


def test_rational_compare():
    assert compare(exact("37/10"), exact(3)) == GT
    assert compare(exact(3), exact("37/10")) == LT
    assert compare(exact("2/4"), exact("1/2")) == EQ


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        div(exact(5), exact(0))


def test_rational_floor():
    assert floor_value(exact("37/10")) == frac(3)
    assert floor_value(exact("-23/10")) == frac(-3)
    assert floor_value(exact(-1)) == frac(-1)
    assert floor_value(exact(0)) == frac(0)


def test_refine_rational_is_a_point():
    iv = refine(exact("2/3"), 7)
    assert iv.lo == iv.hi == frac("2/3")


def test_refine_enclosure_frozen_example():
    # chi = (1,1,0,...): three digits in, the value sits in
    # [1 + 1/3, 1 + 1/3 + 1/18] (partial sum plus tail bound).
    r = oracle_const(finite_stream("A", [1, 1, 0]))
    iv = refine(r, 2)
    assert iv.lo == frac(4, 3)
    assert iv.hi == frac(4, 3) + frac(1, 18)
    assert true_value(r) in iv


def test_refine_scaled_oracle_enclosure():
    # 3 * value(evens-stream): true value 3 * 9/8 = 27/8 = 3.375; at k=4
    # the enclosure must drop inside (3.33, 3.38).
    r = oracle_const(encode_set(builtin_set("evens")))
    x = mul(exact(3), r)
    iv = refine(x, 4)
    assert iv.width <= frac(1, 81)
    assert frac("333/100") < iv.lo and iv.hi < frac("338/100")
    assert frac("27/8") in iv


def test_refine_is_nested_in_k():
    rng = random.Random(7)
    for _ in range(20):
        digits = [rng.randint(0, 1) for _ in range(12)]
        x = mul(exact(rng.randint(1, 9)), oracle_const(finite_stream("A", digits)))
        x = add(x, exact(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        prev = None
        for k in range(0, 10):
            iv = refine(x, k)
            assert iv.width <= Fraction(1, 3**k)
            if prev is not None:
                assert prev.lo <= iv.lo and iv.hi <= prev.hi
            prev = iv


def test_enclosure_soundness_random_dags():
    # The brute-force value of a finite-stream DAG always lies inside every
    # enclosure the refiner produces.
    rng = random.Random(2024)
    for _ in range(60):
        streams = [
            oracle_const(
                finite_stream(f"S{i}", [rng.randint(0, 1) for _ in range(10)])
            )
            for i in range(2)
        ]

        def leaf():
            if rng.random() < 0.5:
                return exact(Fraction(rng.randint(-20, 20), rng.randint(1, 10)))
            return rng.choice(streams)

        x = leaf()
        for _ in range(rng.randint(1, 4)):
            op = rng.choice([add, sub, mul])
            x = op(x, leaf()) if rng.random() < 0.5 else op(leaf(), x)
        truth = true_value(x)
        for k in (0, 2, 5, 8):
            assert truth in refine(x, k)


def test_compare_symbolic_against_rational():
    # value(A) <= 3/2 < 2 always, whatever the digits.
    for digits in ([1] * 16, [0] * 16, [1, 0] * 8):
        r = oracle_const(finite_stream("A", digits))
        assert compare(r, exact(2)) == LT


def test_compare_identical_dags_is_eq():
    r = oracle_const(finite_stream("A", [1, 0, 1]))
    x = mul(exact(3), r)
    assert compare(x, mul(exact(3), r)) == EQ


def test_compare_unresolved_against_own_partial_sum():
    # Comparing a stream against the exact sum of its own long prefix keeps
    # the difference an unresolved tail; default fuel gives up.
    n = 10_000
    digits = [1 if i % 2 == 0 else 0 for i in range(n)]
    r = oracle_const(finite_stream("evenish", digits))
    partial = exact(stream_value(digits))
    with pytest.raises(UnresolvedComparison) as exc:
        compare(r, partial)
    assert exc.value.fuel == 4096


def test_compare_never_contradicts_true_values():
    rng = random.Random(11)
    for _ in range(40):
        digits = [rng.randint(0, 1) for _ in range(8)]
        r = oracle_const(finite_stream("A", digits))
        q = Fraction(rng.randint(-3, 6), rng.randint(1, 4))
        truth = true_value(r)
        if truth == q:
            continue  # equality of distinct representations never resolves
        got = compare(r, exact(q))
        assert got == (LT if truth < q else GT)


def test_cmp_holds_one_sided_at_closed_boundary():
    # value = 1 + f with f >= 0: `>= 1` certifies true immediately even
    # though `> 1` and `= 1` stay unresolved for an all-zero tail.
    r = oracle_const(finite_stream("A", [1]))  # value exactly 1
    assert cmp_holds(">=", r, exact(1)) is True
    assert cmp_holds("<", r, exact(1)) is False
    with pytest.raises(UnresolvedComparison):
        cmp_holds(">", r, exact(1))
    with pytest.raises(UnresolvedComparison):
        cmp_holds("=", r, exact(1))


def test_cmp_holds_structural_equality():
    r = oracle_const(finite_stream("A", [1, 0, 1]))
    assert cmp_holds("=", r, r) is True
    assert cmp_holds("<=", r, r) is True
    assert cmp_holds("<", r, r) is False
    assert cmp_holds("!=", r, r) is False


def test_floor_oracle_first_digit_one():
    # d0 = 1 pins the value into [1, 3/2); floor is 1.
    r = oracle_const(finite_stream("A", [1, 0, 1, 1]))
    assert floor_value(r) == frac(1)


def test_floor_shifted_oracle_reads_ternary_prefix():
    # floor(3**k * r) is the integer whose base-3 digits are d_0..d_k;
    # checked against brute-force partial sums.
    rng = random.Random(5)
    for _ in range(25):
        digits = [rng.randint(0, 1) for _ in range(14)]
        r = oracle_const(finite_stream("A", digits))
        for k in range(0, 13):
            x = mul(exact(Fraction(3) ** k), r)
            expected = true_value(x).__floor__()
            got = floor_value(x)
            assert got == Fraction(expected)
            # matches the ternary-prefix reading
            acc = 0
            for i in range(k + 1):
                acc = acc * 3 + digits[i]
            assert got == acc


def test_no_carry_digit_theorem_exhaustive():
    # floor(3**k * r) mod 3 == d_k for every 0/1 prefix of length 8.
    for mask in range(256):
        digits = [(mask >> i) & 1 for i in range(8)]
        value = stream_value(digits)
        for k in range(8):
            assert (3**k * value).__floor__() % 3 == digits[k]


def test_digit_extract_matches_definition():
    evens = encode_set(builtin_set("evens"))
    x4 = mul(exact(Fraction(3) ** 4), oracle_const(evens))
    x5 = mul(exact(Fraction(3) ** 5), oracle_const(evens))
    assert digit_extract(x4, 4) == 1
    assert digit_extract(x5, 5) == 0


def test_digit_extract_agrees_with_floor_route():
    digits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1]
    r = oracle_const(finite_stream("A", digits))
    value = stream_value(digits)
    for k in range(13):
        x = mul(exact(Fraction(3) ** k), r)
        assert digit_extract(x, k) == (3**k * value).__floor__() % 3 == digits[k]


def test_digit_extract_requires_provenance():
    r = oracle_const(finite_stream("A", [1, 1]))
    with pytest.raises(ValueError):
        digit_extract(add(r, exact(1)), 0)


def test_division_by_unseparable_symbolic():
    # An all-zero stream's value is 0, but no finite refinement can prove
    # it, so dividing by it must fail as unresolved, not as zero.
    r = oracle_const(finite_stream("Z", [0]))
    with pytest.raises(UnresolvedComparison):
        div(exact(1), r)


def test_division_by_separable_symbolic():
    r = oracle_const(finite_stream("A", [1]))  # value 1
    x = div(exact(2), r)
    assert true_value(x) == 2
    for k in (0, 3, 6):
        assert true_value(x) in refine(x, k)


def test_field_axioms_on_random_rationals():
    rng = random.Random(123)

    def rand():
        return exact(Fraction(rng.randint(-500, 500), rng.randint(1, 120)))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, exact(0)) == a
        assert mul(a, exact(1)) == a
        assert add(a, sub(exact(0), a)) == exact(0)
        if b != 0:
            assert mul(div(a, b), b) == a


def test_affine_cancellation_is_exact():
    r = oracle_const(finite_stream("A", [1, 0, 1]))
    assert sub(r, r) == exact(0)
    assert add(mul(exact(2), r), mul(exact(-2), r)) == exact(0)


def test_fuel_counter_trips():
    fuel = Fuel(3)
    fuel.spend(3)
    with pytest.raises(OracleQueryLimit):
        fuel.spend()


def test_compare_strict_order_sample():
    rng = random.Random(77)
    vals = [exact(Fraction(rng.randint(-40, 40), rng.randint(1, 12))) for _ in range(30)]
    for a in vals:
        for b in vals:
            got = compare(a, b)
            if got == LT:
                assert compare(b, a) == GT
            elif got == EQ:
                assert a == b
    # transitivity on a sorted triple sample
    for _ in range(200):
        a, b, c = sorted(rng.sample(vals, 3))
        if compare(a, b) == LT and compare(b, c) == LT:
            assert compare(a, c) == LT


# The one refinement loop: every caller's refusal, and agreement with the
# true values wherever an answer comes back.


def _exactly_one():
    return oracle_const(finite_stream("A", [1]))  # value exactly 1


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda r: compare(r, exact(1), 10),
            "comparison unresolved after 10 digit queries",
        ),
        (
            lambda r: cmp_holds(">", r, exact(1), 10),
            "guard `>` unresolved after 10 digit queries",
        ),
        (
            lambda r: floor_value(neg(r), 10),
            "floor sits at an integer boundary beyond fuel 10;"
            " last enclosure [-55/54, -1]",
        ),
        (
            lambda r: floor_value(mul(exact(-1), r, affine=False), 10),
            "floor sits at an integer boundary beyond fuel 10;"
            " last enclosure [-19/18, -1]",
        ),
        (
            lambda r: div(exact(1), sub(r, exact(1), affine=False), fuel_limit=10),
            "divisor cannot be separated from zero within fuel 10;"
            " last enclosure [0, 1/18]",
        ),
    ],
    ids=["compare", "cmp_holds", "floor-affine", "floor-general", "div"],
)
def test_refusal_messages(call, message):
    with pytest.raises(UnresolvedComparison) as exc:
        call(_exactly_one())
    assert str(exc.value) == message
    assert exc.value.fuel == 10


PROPERTY_FUEL = 300
_digits = st.lists(st.integers(0, 1), max_size=10)
_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_leaf = st.one_of(
    st.tuples(st.just("rat"), _small),
    st.tuples(st.just("stream"), st.integers(0, 1), _small, _small.filter(bool)),
)
_tree = st.recursive(
    _leaf,
    lambda sub_tree: st.tuples(st.sampled_from("+-*"), sub_tree, sub_tree),
    max_leaves=4,
)


def _build(tree, streams, affine):
    if tree[0] == "rat":
        return exact(tree[1])
    if tree[0] == "stream":
        _, i, offset, coeff = tree
        scaled = mul(exact(coeff), oracle_const(streams[i]), affine=affine)
        return add(exact(offset), scaled, affine=affine)
    op, lhs, rhs = tree
    build = {"+": add, "-": sub, "*": mul}[op]
    return build(_build(lhs, streams, affine), _build(rhs, streams, affine), affine=affine)


def _resolved(call):
    try:
        return call()
    except UnresolvedComparison:
        return None


def _check_against_truth(a, b, affine):
    va, vb = true_value(a), true_value(b)
    for op in RAT_CMP:
        got = _resolved(lambda: cmp_holds(op, a, b, PROPERTY_FUEL))
        assert got in (None, RAT_CMP[op](va, vb))
    got = _resolved(lambda: compare(a, b, PROPERTY_FUEL))
    assert got in (None, LT if va < vb else GT if va > vb else EQ)
    got = _resolved(lambda: floor_value(a, PROPERTY_FUEL))
    assert got in (None, Fraction(math.floor(va)))
    if b == exact(0):
        return
    got = _resolved(lambda: div(a, b, affine, PROPERTY_FUEL))
    if vb == 0:
        assert got is None  # a zero divisor never separates from zero
    elif got is not None:
        assert true_value(got) == va / vb


@settings(max_examples=100, deadline=None)
@given(_digits, _digits, _tree, _tree, st.booleans())
def test_refinement_loop_agrees_with_true_values(da, db, ta, tb, affine):
    streams = (finite_stream("A", da), finite_stream("B", db))
    a, b = _build(ta, streams, affine), _build(tb, streams, affine)
    _check_against_truth(a, b, affine)
    # Ties and integer boundaries, where one-sided answers matter: a against
    # its own exact value, and a shifted to sit exactly on the integer 1.
    va = true_value(a)
    _check_against_truth(a, exact(va), affine)
    _check_against_truth(add(sub(a, exact(va), affine=affine), exact(1), affine=affine), b, affine)


_fractions = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**9)


@settings(max_examples=200, deadline=None)
@given(_fractions, _fractions, st.booleans())
def test_rationals_are_plain_fractions(a, b, affine):
    cases = [
        (add(a, b, affine=affine), a + b),
        (sub(a, b, affine=affine), a - b),
        (mul(a, b, affine=affine), a * b),
        (neg(a), -a),
        (floor_value(a), Fraction(math.floor(a))),
    ]
    if b != 0:
        cases.append((div(a, b, affine=affine), a / b))
    for got, expected in cases:
        assert type(got) is Fraction and got == expected
    assert compare(a, b) == (LT if a < b else GT if a > b else EQ)
    for op, holds in RAT_CMP.items():
        assert cmp_holds(op, a, b) is holds(a, b)
