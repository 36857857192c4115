"""Exact numerics: rational arithmetic, enclosures, comparison, floor."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_stream, stream_value, true_value
from whiledt.errors import DivisionByZero, OracleQueryLimit, UnresolvedComparison
from whiledt.exactnum import (
    RAT_CMP,
    Affine,
    Fuel,
    Interval,
    QueryRecorder,
    SymExpr,
    _combine,
    add,
    cmp_holds,
    div,
    exact,
    floor_value,
    mul,
    neg,
    oracle_const,
    refine,
    sub,
)
from whiledt.oracles import builtin_set


def frac(*args):
    return Fraction(*args)


def test_rational_add():
    assert add(exact("1/3"), exact("1/6")) == frac("1/2")


def test_rational_compare():
    assert cmp_holds(">", exact("37/10"), exact(3)) is True
    assert cmp_holds("<", exact(3), exact("37/10")) is True
    assert cmp_holds("=", exact("2/4"), exact("1/2")) is True


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
    r = oracle_const(builtin_set("evens").real())
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


def _random_dag(rng):
    """A random DAG over two 10-digit streams: sums, differences, products
    and quotients of rationals and stream constants.  A symbolic divisor is
    a stream minus 1/7, 1/10 or 1/100, which no stream value (a power-of-3
    fraction) equals, so `div` certifies it after some refinement and the
    quotient carries that depth as its `den_prec`."""
    streams = [
        oracle_const(finite_stream(f"S{i}", [rng.randint(0, 1) for _ in range(10)]))
        for i in range(2)
    ]

    def rational(nonzero=False):
        return exact(Fraction(rng.randint(1 if nonzero else -20, 20), rng.randint(1, 10)))

    def leaf():
        return rational() if rng.random() < 0.5 else rng.choice(streams)

    def divisor():
        if rng.random() < 0.5:
            return rational(nonzero=True) * rng.choice((-1, 1))
        shift = exact(Fraction(1, rng.choice((7, 10, 100))))
        return sub(rng.choice(streams), shift, affine=rng.random() < 0.5)

    x = leaf()
    for _ in range(rng.randint(1, 4)):
        op = rng.choice([add, sub, mul, div])
        if op is div:
            x = div(x, divisor())
        else:
            x = op(x, leaf()) if rng.random() < 0.5 else op(leaf(), x)
    return x


def test_enclosure_soundness_random_dags():
    # The brute-force value of a finite-stream DAG always lies inside every
    # enclosure the refiner produces.
    rng = random.Random(2024)
    for _ in range(60):
        x = _random_dag(rng)
        truth = true_value(x)
        for k in (0, 2, 5, 8):
            assert truth in refine(x, k)


def _streams_of(x):
    if type(x) is Affine:
        return [x.stream]
    if type(x) is SymExpr:
        return _streams_of(x.lhs) + _streams_of(x.rhs)
    return []


def _copy(recorder, enclosures):
    copy = QueryRecorder()
    copy.prefix, copy.members = dict(recorder.prefix), set(recorder.members)
    copy.count = recorder.count
    if enclosures:
        copy.enclosures = dict(recorder.enclosures)
        copy.previous = dict(recorder.previous)
    return copy


def _outcome(call):
    try:
        return "value", call()
    except UnresolvedComparison as e:
        return "refused", str(e)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_stage_held_enclosures_change_no_verdict_and_no_count(rng):
    # Enclosures a stage made earlier are read back instead of recomputed.
    # After random earlier reads, every operation answers or refuses as it
    # does on the same stage state with those enclosures dropped, and
    # leaves the same digit counts behind.
    x = _random_dag(rng)
    held = QueryRecorder()
    streams = _streams_of(x)
    for _ in range(rng.randint(0, 3)):
        if streams and rng.random() < 0.3:
            rng.choice(streams).prefix_sum(rng.randint(0, 12), Fuel(12, held))
        else:
            _outcome(lambda: refine(x, rng.randint(0, 6), rng.randint(1, 30), held))
    fuel, c = rng.randint(1, 40), exact(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
    op, k = rng.choice(sorted(RAT_CMP)), rng.randint(0, 8)
    calls = (
        lambda rec: floor_value(x, fuel, rec),
        lambda rec: cmp_holds(op, x, c, fuel, rec),
        lambda rec: refine(x, k, fuel, rec),
    )
    for call in calls:
        warm, cold = _copy(held, True), _copy(held, False)
        assert _outcome(lambda: call(warm)) == _outcome(lambda: call(cold))
        assert (warm.count, warm.prefix) == (cold.count, cold.prefix)


def test_stage_held_enclosures_do_not_grow_with_the_number_of_guards():
    # Every guard builds a new node for a - 1/2.  The stage keeps only the
    # enclosures of the last two refinements, however many guards it runs.
    s, t = (oracle_const(finite_stream(n, [1, 0] * 8)) for n in "ST")
    a, half, rec = mul(s, t), exact(Fraction(1, 2)), QueryRecorder()
    held = []
    for n in range(1, 201):
        assert cmp_holds(">", a, half, recorder=rec)
        if n in (10, 200):
            held.append(len(rec.enclosures) + len(rec.previous))
    assert type(a) is SymExpr and held[0] == held[1]


_end = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(Fraction(0)), _end), _end, _end, st.booleans())
def test_scaling_by_a_rational_gives_the_four_product_ends(c, p, q, left):
    # a rational operand encloses as the point Interval(c, c)
    point, iv = Interval(c, c), Interval(min(p, q), max(p, q))
    a, b = (point, iv) if left else (iv, point)
    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    assert _combine("*", a, b) == Interval(min(prods), max(prods))


def test_compare_symbolic_against_rational():
    # value(A) <= 3/2 < 2 always, whatever the digits.
    for digits in ([1] * 16, [0] * 16, [1, 0] * 8):
        r = oracle_const(finite_stream("A", digits))
        assert cmp_holds("<", r, exact(2)) is True


def test_compare_identical_dags_is_eq():
    r = oracle_const(finite_stream("A", [1, 0, 1]))
    x = mul(exact(3), r)
    assert cmp_holds("=", x, mul(exact(3), r)) is True
    assert cmp_holds("!=", x, mul(exact(3), r)) is False


def test_compare_unresolved_against_own_partial_sum():
    # Comparing a stream against the exact sum of its own long prefix keeps
    # the difference an unresolved tail; default fuel gives up.
    n = 10_000
    digits = [1 if i % 2 == 0 else 0 for i in range(n)]
    r = oracle_const(finite_stream("evenish", digits))
    partial = exact(stream_value(digits))
    with pytest.raises(UnresolvedComparison) as exc:
        cmp_holds("=", r, partial)
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
        for op, holds in RAT_CMP.items():
            assert cmp_holds(op, r, exact(q)) is holds(truth, q)


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
    # A budget of new distinct digit queries over the stage's recorder:
    # digits the stage already holds are free to read again.
    stream = finite_stream("A", [1, 0, 1])
    recorder = QueryRecorder()
    assert stream.prefix_sum(3, Fuel(3, recorder)) == Fraction(10, 9)
    assert recorder.count == 3
    fuel = Fuel(3, recorder)
    stream.prefix_sum(3, fuel)
    stream.prefix_sum(6, fuel)
    assert recorder.count == 6
    with pytest.raises(OracleQueryLimit):
        stream.prefix_sum(7, fuel)
    assert recorder.count == 6  # the refused read records nothing
    stream.prefix_sum(7, Fuel(1, recorder))
    assert recorder.prefix == {"A": 7} and recorder.count == 7


def test_compare_strict_order_sample():
    rng = random.Random(77)
    vals = [exact(Fraction(rng.randint(-40, 40), rng.randint(1, 12))) for _ in range(30)]
    for a in vals:
        for b in vals:
            if cmp_holds("<", a, b):
                assert cmp_holds(">", b, a)
            elif cmp_holds("=", a, b):
                assert a == b
    # transitivity on a sorted triple sample
    for _ in range(200):
        a, b, c = sorted(rng.sample(vals, 3))
        if cmp_holds("<", a, b) and cmp_holds("<", b, c):
            assert cmp_holds("<", a, c)


# The one refinement loop: every caller's refusal, and agreement with the
# true values wherever an answer comes back.


def _exactly_one():
    return oracle_const(finite_stream("A", [1]))  # value exactly 1


@pytest.mark.parametrize(
    "call, message",
    [
        # the affine route reads one digit a step, 10 in all: 3/2 * 3**-10
        (
            lambda r: cmp_holds(">", r, exact(1), 10),
            "guard `>` unresolved after 10 digit queries;"
            " last enclosure [0, 1/39366]",
        ),
        (
            lambda r: floor_value(neg(r), 10),
            "floor unresolved after 10 digit queries;"
            " last enclosure [-39367/39366, -1]",
        ),
        # the depth schedule reads 1, 2, 3, 5 and 9 digits; 17 is past 10
        (
            lambda r: floor_value(mul(exact(-1), r, affine=False), 10),
            "floor unresolved after 10 digit queries;"
            " last enclosure [-13123/13122, -1]",
        ),
        (
            lambda r: div(exact(1), sub(r, exact(1), affine=False), fuel_limit=10),
            "divisor sign unresolved after 10 digit queries;"
            " last enclosure [0, 1/13122]",
        ),
        # 3**-30 needs 31 digits; the tenth is the last the fuel allows
        (
            lambda r: refine(r, 30, fuel_limit=10),
            "enclosure of width 3**-30 unresolved after 10 digit queries;"
            " last enclosure [1, 39367/39366]",
        ),
    ],
    ids=["cmp_holds", "floor-affine", "floor-general", "div", "refine"],
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
    got = _resolved(lambda: floor_value(a, PROPERTY_FUEL))
    assert got in (None, Fraction(math.floor(va)))
    for k in (0, 3, 8):
        got = _resolved(lambda: refine(a, k, PROPERTY_FUEL))
        assert got is None or va in got and got.width <= Fraction(1, 3**k)
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
    for op, holds in RAT_CMP.items():
        assert cmp_holds(op, a, b) is holds(a, b)


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=12),
    _SMALL.filter(bool),
    _SMALL,
    _SMALL,
    st.sampled_from(sorted(RAT_CMP)),
    st.integers(0, 20),
)
def test_affine_search_starts_at_the_digits_the_stage_holds(
    digits, coeff, offset, c, op, p
):
    # A stage that already holds p digits reads them again for free, and
    # nested enclosures keep every verdict: the answer is the true one, and
    # the stage ends up holding max(p, what a fresh stage reads) digits
    x = Affine(offset, coeff, finite_stream("A", digits))
    truth = true_value(x)
    calls = (
        (lambda rec: floor_value(x, 40, rec), Fraction(math.floor(truth))),
        (lambda rec: cmp_holds(op, x, c, 40, rec), RAT_CMP[op](truth, c)),
    )
    for call, expected in calls:
        fresh, held = QueryRecorder(), QueryRecorder()
        want = _resolved(lambda: call(fresh))
        x.stream.prefix_sum(p, Fuel(p, held))
        got = _resolved(lambda: call(held))
        assert got in (None, expected)
        if want is not None:
            assert got == want == expected
            assert held.count == max(p, fresh.count)


# Operand shapes for the arithmetic: rationals, Affines on two streams
# (coefficients drawn so that same-stream sums and differences often
# cancel), and SymExprs over those.
_STREAMS = (finite_stream("A", [1, 0, 1]), finite_stream("B", [0, 1]))
_coeff = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2)])
_affine_operand = st.builds(Affine, _small, _coeff, st.sampled_from(_STREAMS))
_operand = st.recursive(
    st.one_of(_small, _affine_operand),
    lambda inner: st.builds(SymExpr, st.sampled_from("+-*"), inner, inner),
    max_leaves=3,
)
_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _affine_parts(op, a, b):
    """(offset, coeff, stream) of `a op b` when it is affine in one stream
    and neither side is a SymExpr, else None: `+` and `-` of rationals and
    same-stream Affines, `*` with a rational side, `/` by a rational."""
    apply, ta, tb = _APPLY[op], type(a), type(b)
    if op in ("+", "-"):
        if ta is Fraction and tb is Affine:
            return apply(a, b.offset), apply(0, b.coeff), b.stream
        if ta is Affine and tb is Fraction:
            return apply(a.offset, b), a.coeff, a.stream
        if ta is tb is Affine and a.stream is b.stream:
            return apply(a.offset, b.offset), apply(a.coeff, b.coeff), a.stream
    elif ta is Affine and tb is Fraction:
        return apply(a.offset, b), apply(a.coeff, b), a.stream
    elif op == "*" and ta is Fraction and tb is Affine:
        return a * b.offset, a * b.coeff, b.stream
    return None


def _expected_shape(op, a, b, affine):
    """What `add`, `sub`, `mul` and `div` by a nonzero rational return:
    two rationals fold, and with `affine` an affine pair folds into an
    Affine, or into its rational offset when the coefficient cancels; then
    a product with a rational zero is 0, and every other pair is a SymExpr
    over the operands themselves."""
    if type(a) is Fraction and type(b) is Fraction:
        return _APPLY[op](a, b)
    parts = _affine_parts(op, a, b) if affine else None
    if parts is not None:
        offset, coeff, stream = parts
        return offset if coeff == 0 else Affine(offset, coeff, stream)
    if op == "*" and any(type(x) is Fraction and x == 0 for x in (a, b)):
        return Fraction(0)
    return SymExpr(op, a, b)


def _assert_same_shape(got, want):
    assert type(got) is type(want)
    if type(want) is Fraction:
        assert got == want
    elif type(want) is Affine:
        assert (got.offset, got.coeff) == (want.offset, want.coeff)
        assert type(got.offset) is type(got.coeff) is Fraction
        assert got.stream is want.stream
    else:
        assert got.op == want.op and got.den_prec == 0
        for g, w in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
            assert g is w or type(g) is type(w) is Fraction and g == w


@settings(max_examples=400, deadline=None)
@given(_operand, _operand, st.booleans())
def test_add_sub_and_neg_build_the_expected_shapes(a, b, affine):
    _assert_same_shape(add(a, b, affine=affine), _expected_shape("+", a, b, affine))
    _assert_same_shape(sub(a, b, affine=affine), _expected_shape("-", a, b, affine))
    _assert_same_shape(mul(a, b, affine=affine), _expected_shape("*", a, b, affine))
    if type(b) is Fraction and b != 0:
        _assert_same_shape(div(a, b, affine=affine), _expected_shape("/", a, b, affine))
    # negation always folds an Affine, whatever the `affine` setting
    _assert_same_shape(neg(a), _expected_shape("-", Fraction(0), a, True))


@pytest.mark.parametrize("bad", [3, 0.5, None, "1/2"], ids=repr)
def test_arithmetic_refuses_a_non_value_on_either_side(bad):
    # an int, a float, None or a str is no value: not even next to a
    # rational zero, and not folded into a SymExpr
    x = oracle_const(_STREAMS[0])
    for value in (Fraction(0), Fraction(2), x, SymExpr("*", Fraction(2), x)):
        for op in (add, sub, mul, div):
            for a, b in ((bad, value), (value, bad)):
                with pytest.raises(TypeError):
                    op(a, b)
    with pytest.raises(TypeError):
        neg(bad)
