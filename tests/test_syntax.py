"""Parser, pretty-printer round trips, and static diagnostics."""

import random
from fractions import Fraction

import pytest

from conftest import CORPUS, corpus_source
from whiledt.errors import (
    MacroError,
    ParseError,
    RecursionNotSupported,
    UnknownMacro,
)
from whiledt.syntax import (
    Assign,
    BinOp,
    ChainedCmp,
    Cmp,
    Dt,
    If,
    MemberOf,
    Neg,
    Not,
    Or,
    Program,
    RationalLiteral,
    Seq,
    Skip,
    Var,
    While,
    check,
    expand_macros,
    parse,
    parse_module,
    pretty_print,
)


def test_parse_minimal_assign():
    p = parse("input x; output y; y := x + dt")
    assert p.inputs == ("x",) and p.outputs == ("y",)
    assert p.body == Assign("y", BinOp("+", Var("x"), Dt()))


def test_literals_are_exact_rationals():
    p = parse("input; output y; y := 3.7 + 23/10")
    # both forms fold into one exact literal: 37/10 + 23/10 = 6
    assert p.body == Assign("y", RationalLiteral(Fraction(6)))


def test_fraction_literal_with_spaces_is_the_same():
    assert parse("input; output y; y := 23/10") == parse(
        "input; output y; y := 23 / 10"
    )


def test_negative_literal_folds():
    p = parse("input; output y; y := -3/2")
    assert p.body == Assign("y", RationalLiteral(Fraction(-3, 2)))


def test_division_by_zero_literal_not_folded():
    p = parse("input; output y; y := 1/0")
    assert p.body == Assign("y", BinOp("/", RationalLiteral(Fraction(1)),
                                       RationalLiteral(Fraction(0))))


def test_floor_guard_shape():
    # the canonical floor-scan guard: not (chained or chained)
    p = parse(corpus_source("floor.whdt"))
    loop = p.body
    while isinstance(loop, Seq):
        loop = loop.second if not isinstance(loop.first, While) else loop.first
    assert isinstance(loop, While)
    guard = loop.cond
    assert isinstance(guard, Not)
    assert isinstance(guard.expr, Or)
    left, right = guard.expr.lhs, guard.expr.rhs
    assert left == ChainedCmp(Var("n"), "<=", Var("x"), "<",
                              BinOp("+", Var("n"), RationalLiteral(Fraction(1))))
    assert isinstance(right, ChainedCmp)
    assert right.lo == Neg(Var("n"))


def test_parse_error_missing_expression():
    with pytest.raises(ParseError) as exc:
        parse("input x; output y; y :=")
    assert exc.value.line == 1
    assert exc.value.col == 24


def test_parse_error_has_location_and_expectations():
    with pytest.raises(ParseError) as exc:
        parse("input x output y; y := 1")
    assert exc.value.line == 1 and exc.value.col == 9
    assert ";" in exc.value.expected


def test_membership_only_in_guards():
    p = parse("input x; output y; y := 0; while not (J(x, y) in A) do y := y + 1")
    assert p.oracles == frozenset({"A"})
    w = p.body.second
    assert isinstance(w, While)
    assert isinstance(w.cond, Not)
    assert isinstance(w.cond.expr, MemberOf)


def test_real3_collects_oracle_requirement():
    p = parse("input; output y; a := real3(B); y := 1")
    assert p.oracles == frozenset({"B"})


def test_if_without_else_is_skip():
    p = parse("input; output y; y := 0; if y < 1 then y := 2")
    assert p.body.second == If(Cmp("<", Var("y"), RationalLiteral(Fraction(1))),
                               Assign("y", RationalLiteral(Fraction(2))), Skip())


def test_while_location_is_recorded():
    p = parse("input;\noutput u;\nu := 0;\nwhile u < 1 do\n  u := u + 1")
    w = p.body.second
    assert isinstance(w, While)
    assert w.loc == (4, 1)


def test_corpus_round_trips():
    for f in sorted(CORPUS.glob("*.whdt")):
        p = parse(f.read_text(encoding="utf-8"))
        printed = pretty_print(p)
        assert parse(printed) == p
        # idempotence: one normalization is a fixed point
        assert pretty_print(parse(printed)) == printed


def test_pretty_print_empty_program():
    text = pretty_print(parse("input; output; skip"))
    assert text.split() == ["input;", "output;", "skip"]


def test_pretty_print_contains_paper_toggle():
    p = parse(corpus_source("thomson.whdt"))
    assert "lamp := 1 - lamp" in pretty_print(p)


def test_roundtrip_random_expressions():
    rng = random.Random(99)

    def expr(depth):
        if depth == 0:
            return rng.choice(
                [
                    str(rng.randint(0, 30)),
                    f"{rng.randint(1, 30)}/{rng.randint(1, 30)}",
                    "x",
                    "dt",
                    "infinity",
                ]
            )
        a, b = expr(depth - 1), expr(depth - 1)
        form = rng.choice(["({} + {})", "({} - {})", "({} * {})", "({} / {})",
                           "(-{1})", "floor({0})", "J({0}, {1})"])
        return form.format(a, b)

    for _ in range(80):
        src = f"input x; output y; y := {expr(3)}"
        p = parse(src)
        assert parse(pretty_print(p)) == p


def test_grammar_covers_paper_programs():
    # transliterations of all six displayed programs parse unchanged
    floor_prog = """
input x;
output y;
n := 0;
while not (n <= x < n + 1 or -n <= x < -n + 1) do
  n := n + 1;
if x >= 0 then y := n else y := -n
"""
    decide_prog = """
input x;
output y;
a := real3(A);
while x != 0 do { a := 3 * a; x := x - 1 };
if a - 3 * floor((1/3) * a) >= 1 then y := 1 else y := 0
"""
    compute_prog = """
input x;
output y;
y := 0;
a := 1;
while not (J(x, y) in A) do
  y := y + 1
"""
    limit_prog = """
def F(s, x) -> r { r := x }
input x;
output y;
y := F(infinity, x)
"""
    infelim_prog = """
input;
output u;
t := 0;
u := 0;
while t < 1 do { t := t + dt; u := u + 1 }
"""
    thomson_prog = """
input;
output lamp;
time := 0;
lamp := 0;
while time < 1 do { time := time + dt; lamp := 1 - lamp }
"""
    for src in (floor_prog, decide_prog, compute_prog, limit_prog,
                infelim_prog, thomson_prog):
        p = parse(src)
        assert parse(pretty_print(p)) == p


def test_no_inexact_values_in_ast():
    found = []

    def walk(node):
        if isinstance(node, RationalLiteral):
            found.append(node.value)
        for f in getattr(node, "__dataclass_fields__", {}):
            v = getattr(node, f)
            if hasattr(v, "__dataclass_fields__"):
                walk(v)
            elif isinstance(v, tuple):
                for item in v:
                    if hasattr(item, "__dataclass_fields__"):
                        walk(item)

    for f in sorted(CORPUS.glob("*.whdt")):
        walk(parse(f.read_text(encoding="utf-8")).body)
    assert found and all(isinstance(v, Fraction) for v in found)


def test_check_corpus_is_clean():
    for f in sorted(CORPUS.glob("*.whdt")):
        assert check(parse(f.read_text(encoding="utf-8"))) == []


def test_check_use_before_assign():
    p = parse("input x; output y; y := z + 1")
    diags = check(p)
    assert [d.kind for d in diags] == ["use-before-assign"]
    assert diags[0].var == "z"


def test_check_duplicate_declaration():
    p = parse("input x, x; output y; y := x")
    assert any(d.kind == "duplicate-decl" and d.var == "x" for d in check(p))


def test_check_output_never_assigned():
    p = parse("input x; output y; x := x + 1")
    assert any(d.kind == "output-never-assigned" and d.var == "y" for d in check(p))


def test_check_branch_definitions_must_meet():
    p = parse("input x; output y; if x < 0 then y := 1 else skip; y := y + 1")
    # y is only defined on one branch, so the later read is flagged
    assert any(d.kind == "use-before-assign" and d.var == "y" for d in check(p))


def test_check_loop_body_does_not_define():
    p = parse("input x; output y; while x < 1 do y := 1; y := y + 1")
    assert any(d.kind == "use-before-assign" and d.var == "y" for d in check(p))


def test_macro_expansion_is_hygienic():
    # the macro's local `t` must not capture the caller's `t`
    src = """
def BUMP(a) -> r {
  t := a + 1;
  r := t
}
input x;
output y;
t := 100;
y := BUMP(x);
y := y + t
"""
    p = parse(src)
    assert check(p) == []
    names = pretty_print(p)
    assert "t := 100" in names
    assert "_BUMP_1_t" in names


def test_macro_zero_parameters_splice():
    p = parse("def K() -> r { r := 41 }\ninput; output y; y := K(); y := y + 1")
    assert check(p) == []
    assert "41" in pretty_print(p)


def test_macro_recursion_rejected():
    with pytest.raises(RecursionNotSupported):
        parse("def R(a) -> r { r := R(a) }\ninput; output y; y := R(1)")


def test_macro_unknown_rejected():
    with pytest.raises(UnknownMacro):
        parse("input; output y; y := NOPE(1)")


def test_macro_must_be_whole_rhs():
    with pytest.raises(ParseError):
        parse("def F(a) -> r { r := a }\ninput; output y; y := F(1) + 1")


def test_macro_nested_in_argument_rejected():
    # the parser refuses call syntax inside expressions outright
    with pytest.raises(ParseError):
        parse(
            "def F(a) -> r { r := a }\n"
            "def G(a) -> r { r := a }\n"
            "input; output y; y := F(G(1))"
        )
    # and expansion refuses nested calls in hand-built ASTs
    from whiledt.syntax import Call

    defs, main = parse_module("def F(a) -> r { r := a }\ninput; output y; y := F(1)")
    nested = Program(
        main.inputs,
        main.outputs,
        Assign("y", Call("F", (Call("F", (RationalLiteral(Fraction(1)),)),))),
    )
    with pytest.raises(MacroError):
        expand_macros(defs, nested)


def test_expand_macros_transitive():
    src = """
def INC(a) -> r { r := a + 1 }
def TWICE(a) -> r {
  b := INC(a);
  r := INC(b)
}
input x;
output y;
y := TWICE(x)
"""
    p = parse(src)
    assert check(p) == []
    from whiledt.semantics import StageContext, eval_stage

    res = eval_stage(p, [Fraction(5)], StageContext.for_stage(0))
    assert res.store["y"] == Fraction(7)
