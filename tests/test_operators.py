"""The binary operator tables: nesting of mixed-precedence chains, literal
folding against run-time evaluation, and one handler per AST class."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whiledt import semantics, syntax
from whiledt.cli import parse_rational
from whiledt.errors import NestingTooDeep
from whiledt.semantics import StageContext, eval_stage
from whiledt.syntax import MAX_NESTING, RationalLiteral, parse, parse_module, pretty_print


def _products(terms):  # each `y * y` is one level, each `+` one more
    return "input; output x; y := 1; x := " + " + ".join(["y * y"] * terms) + "; skip"


def _sum_of_product(factors):  # the `+` sits on top of a product's levels
    return "input; output x; y := 1; x := y + " + " * ".join(["y"] * factors) + "; skip"


def _ands_or(pairs):
    return ("input; output x; x := 0; if " + "x < 1 and x < 1 or " * pairs
            + "x < 1 then x := 1")


@pytest.mark.parametrize(
    "shape, at_limit, cols",
    [
        # refused at the `;` after one term past the limit, or at the `+`
        # after it
        (_products, MAX_NESTING, (1236, 1237)),
        # refused at the `;`, where the `+` goes one past a product of 151
        # factors (150 levels), or inside a longer product, at its 152nd `*`
        (_sum_of_product, MAX_NESTING, (636, 641)),
        # refused at `then`, or at the `or` after the 151st pair
        (_ands_or, MAX_NESTING - 1, (2885, 2895)),
    ],
    ids=["y*y+y*y", "y+y*y*y", "and-or"],
)
def test_mixed_precedence_chains_nest_to_the_limit(shape, at_limit, cols):
    parse(shape(at_limit))
    for extra, col in zip((1, 5), cols):
        with pytest.raises(NestingTooDeep) as exc:
            parse(shape(at_limit + extra))
        assert str(exc.value) == f"1:{col}: nesting deeper than {MAX_NESTING} levels"


# Expressions of unsigned literals under + - * /, some in parentheses.
_LITERAL = st.one_of(
    st.integers(0, 4).map(str),
    st.integers(0, 60).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 99)).map(lambda t: f"{t[0]}.{t[1]}"),
)
_EXPRESSION = st.recursive(
    _LITERAL,
    lambda e: st.tuples(e, st.sampled_from("+-*/"), e, st.booleans()).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})" if t[3] else f"{t[0]} {t[1]} {t[2]}"
    ),
    max_leaves=8,
)
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _fraction_value(text):
    """`text` evaluated by Python's own precedence, which While-dt shares,
    over exact Fractions; None for a zero divisor."""
    try:
        return eval(_NUMBER.sub(lambda m: f"F('{m[0]}')", text), {"F": Fraction})
    except ZeroDivisionError:
        return None


@settings(max_examples=150, deadline=None)
@given(_EXPRESSION)
def test_folding_agrees_with_evaluation_and_fraction_arithmetic(text):
    expected = _fraction_value(text)
    # the parser folds the literals, unless a divisor is zero
    program = parse(f"input; output y; y := {text}")
    status = eval_stage(program, [], StageContext.for_stage(0)).status
    if expected is None:
        assert type(program.body.expr) is not RationalLiteral
        assert (status.kind, status.error) == ("error", "division-by-zero")
    else:
        assert program.body.expr == RationalLiteral(expected)
        assert status.ok
    # the first literal passed in as an input, as `--input` reads it: the
    # operators over it run at evaluation, on int and Fraction operands
    first = _NUMBER.search(text)
    program = parse(f"input x; output y; y := {text[:first.start()]}x{text[first.end():]}")
    res = eval_stage(program, [parse_rational(first[0])], StageContext.for_stage(0))
    if expected is None:
        assert (res.status.kind, res.status.error) == ("error", "division-by-zero")
    else:
        assert res.status.ok and res.store["y"] == expected


# Every AST class: a macro call, the arithmetic, boolean and command nodes.
EVERY_NODE = """
def M(a) -> r { r := a }
input x;
output y;
y := M(x);
if x < 1 and not (x in A) or 0 <= x < 2 then skip
else y := floor(-x * dt / infinity) + J(x, 1) - real3(A);
while y < 0 do { y := y + 1; skip }
"""


def test_every_node_class_has_one_handler_a_walk_entry_and_a_printer_case():
    _, program = parse_module(EVERY_NODE)
    tables = {
        syntax.ArithExpr: semantics._AEVAL,
        syntax.BoolExpr: semantics._BEVAL,
        syntax.Command: semantics._EXEC,
    }
    classes = {cls for base in tables for cls in base.__subclasses__()}
    # walking the sample reads walk's entry for each class, and finds all
    assert {type(node) for node in syntax.walk(program.body)} == classes
    for base, table in tables.items():
        for cls in base.__subclasses__():
            assert cls in table
            assert sum(cls in t for t in tables.values()) == 1
    # and the evaluator handles one node of its own, a deferred assignment
    assert set().union(*tables.values()) == classes | {semantics._Deferred}
    # the printer has a case for each, and the parser reads its output back
    assert parse_module(pretty_print(program))[1] == program
