"""Parser, pretty-printer round trips, and static diagnostics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import CORPUS, corpus_source, program_sources
from whiledt.errors import (
    MacroError,
    ParseError,
    RecursionNotSupported,
    UnknownMacro,
)
from whiledt.semantics import StageContext, eval_stage
from whiledt.syntax import (
    MAX_NESTING,
    Assign,
    BinOp,
    Block,
    BoolOp,
    Call,
    ChainedCmp,
    Cmp,
    Dt,
    If,
    Infinity,
    MemberOf,
    Neg,
    Not,
    OracleRealConst,
    Program,
    RationalLiteral,
    Skip,
    Var,
    While,
    check,
    expand_macros,
    parse,
    parse_module,
    pretty_print,
    tokenize,
    walk,
)

TOKENS = [
    # a tab is one column
    ("x\t:=\t1;", [("ident", "x", 1, 1), (":=", ":=", 1, 3), ("number", "1", 1, 6),
                  (";", ";", 1, 7), ("eof", "", 1, 8)]),
    # CR is a blank, so CRLF ends a line like LF
    ("input;\r\noutput y;\r\n", [("input", "input", 1, 1), (";", ";", 1, 6),
                                 ("output", "output", 2, 1), ("ident", "y", 2, 8),
                                 (";", ";", 2, 9), ("eof", "", 3, 1)]),
    # the end of input after a last-line comment sits where the comment starts
    ("y := 1 # done", [("ident", "y", 1, 1), (":=", ":=", 1, 3), ("number", "1", 1, 6),
                       ("eof", "", 1, 8)]),
    ("x#c\n  #d", [("ident", "x", 1, 1), ("eof", "", 2, 3)]),
    ("x  \n  ", [("ident", "x", 1, 1), ("eof", "", 2, 3)]),
    ("3.25 12ab _y2", [("number", "3.25", 1, 1), ("number", "12", 1, 6),
                       ("ident", "ab", 1, 8), ("ident", "_y2", 1, 11), ("eof", "", 1, 14)]),
    # symbols match longest first; keywords are their own kind
    ("a<=b:=c->d!=e>=f<g>h=J", [
        ("ident", "a", 1, 1), ("<=", "<=", 1, 2), ("ident", "b", 1, 4), (":=", ":=", 1, 5),
        ("ident", "c", 1, 7), ("->", "->", 1, 8), ("ident", "d", 1, 10), ("!=", "!=", 1, 11),
        ("ident", "e", 1, 13), (">=", ">=", 1, 14), ("ident", "f", 1, 16), ("<", "<", 1, 17),
        ("ident", "g", 1, 18), (">", ">", 1, 19), ("ident", "h", 1, 20), ("=", "=", 1, 21),
        ("J", "J", 1, 22), ("eof", "", 1, 23)]),
]

# (source, line and column of the character no token class takes, the character)
BAD_CHARACTERS = [
    ("3.", 1, 2, "."),
    ("y := 3.x", 1, 7, "."),
    ("1..2", 1, 2, "."),
    ("a : b", 1, 3, ":"),
    ("x := 1;\n\té := 2", 2, 2, "é"),
    # `str.isdigit` accepts `²`; a number is ASCII digits only
    ("y := ²", 1, 6, "²"),
    ("y := 1²", 1, 7, "²"),
    ("a\x0bb", 1, 2, "\x0b"),
]


@pytest.mark.parametrize("source, expected", TOKENS)
def test_tokenize_table(source, expected):
    assert tokenize(source) == expected


@pytest.mark.parametrize("source, line, col, char", BAD_CHARACTERS)
def test_characters_outside_the_token_classes_are_parse_errors(source, line, col, char):
    for text in (source, f"input; output y;\n{source}"):
        with pytest.raises(ParseError) as exc:
            parse(text)
        at = line + text.count("\n") - source.count("\n")
        assert (exc.value.line, exc.value.col) == (at, col)
        assert str(exc.value) == f"{at}:{col}: unexpected character {char!r}"


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
    assert isinstance(p.body, Block)
    loop = p.body.stmts[1]
    assert isinstance(loop, While)
    guard = loop.cond
    assert isinstance(guard, Not)
    assert isinstance(guard.expr, BoolOp) and guard.expr.op == "or"
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


def test_repeated_parameter_is_a_parse_error():
    # the last argument used to win silently: y was 2 at every stage
    with pytest.raises(ParseError) as exc:
        parse("def F(a, b, a) -> r { r := a }\ninput; output y; y := F(1, 2, 3)")
    assert str(exc.value) == "1:13: duplicate parameter 'a'"
    assert (exc.value.line, exc.value.col) == (1, 13)


def test_membership_only_in_guards():
    p = parse("input x; output y; y := 0; while not (J(x, y) in A) do y := y + 1")
    assert p.oracles == frozenset({"A"})
    w = p.body.stmts[1]
    assert isinstance(w, While)
    assert isinstance(w.cond, Not)
    assert isinstance(w.cond.expr, MemberOf)


def test_real3_collects_oracle_requirement():
    p = parse("input; output y; a := real3(B); y := 1")
    assert p.oracles == frozenset({"B"})
    # a read inside a macro counts once the call is expanded
    p = parse("def F(a) -> r { r := real3(B) }\ninput; output y; y := F(1)")
    assert p.oracles == frozenset({"B"})


def test_if_without_else_is_skip():
    p = parse("input; output y; y := 0; if y < 1 then y := 2")
    assert p.body.stmts[1] == If(Cmp("<", Var("y"), RationalLiteral(Fraction(1))),
                                 Assign("y", RationalLiteral(Fraction(2))), Skip())


def test_while_location_is_recorded():
    p = parse("input;\noutput u;\nu := 0;\nwhile u < 1 do\n  u := u + 1")
    w = p.body.stmts[1]
    assert isinstance(w, While)
    assert w.loc == (4, 1)


def test_corpus_round_trips():
    for f in sorted(CORPUS.glob("*.whdt")):
        p = parse(f.read_text(encoding="utf-8"))
        printed = pretty_print(p)
        assert parse(printed) == p
        # idempotence: one normalization is a fixed point
        assert pretty_print(parse(printed)) == printed


@settings(max_examples=60, deadline=None)
@given(program_sources())
def test_pretty_print_round_trips_whole_programs(source):
    defs, main = parse_module(source)
    assert parse_module(pretty_print(main))[1] == main
    program = expand_macros(defs, main)
    printed = pretty_print(program)
    assert parse(printed) == program
    assert pretty_print(parse(printed)) == printed


def test_long_straight_line_program_round_trips():
    rng = random.Random(3000)
    lines = []
    for i in range(3000):
        a, b = rng.randrange(3), rng.randrange(3)
        if i % 10 == 0:
            lines.append(f"v{a} := M(v{b}, {rng.randint(0, 9)})")
        else:
            lines.append(f"v{a} := v{b} + {rng.randint(0, 9)}")
    source = (
        "def M(p, q) -> r { r := p - q }\n"
        "input; output v0;\nv0 := 0; v1 := 1; v2 := 2;\n" + ";\n".join(lines)
    )
    defs, main = parse_module(source)
    assert len(main.body.stmts) == 3003
    assert parse_module(pretty_print(main))[1] == main
    program = expand_macros(defs, main)
    assert isinstance(program.body, Block) and len(program.body.stmts) == 3003 + 300 * 3
    assert parse(pretty_print(program)) == program
    assert check(program) == []


def test_nested_nots_round_trip_at_the_nesting_limit():
    # `not` is printed without parentheses unless its operand is an
    # `and` or an `or`, so the printed form nests no deeper than the source
    source = f"input; output x; x := 0; if {'not ' * MAX_NESTING}x < 1 then x := 1"
    program = parse(source)
    printed = pretty_print(program)
    assert "(" not in printed
    assert parse(printed) == program
    grouped = parse("input; output x; x := 0; if not (x < 1 or not x < 2) then x := 1")
    assert "not (x < 1 or not x < 2)" in pretty_print(grouped)
    assert parse(pretty_print(grouped)) == grouped


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
    defs, main = parse_module("def F(a) -> r { r := a }\ninput; output y; y := F(1)")
    nested = Program(
        main.inputs,
        main.outputs,
        Assign("y", Call("F", (Call("F", (RationalLiteral(Fraction(1)),)),))),
    )
    with pytest.raises(MacroError):
        expand_macros(defs, nested)


@settings(max_examples=60, deadline=None)
@given(program_sources())
def test_expanded_oracles_are_the_ones_the_body_reads(source):
    defs, main = parse_module(source)
    expanded = expand_macros(defs, main)
    # parsed and expanded alike: each Program reports its own body's reads
    for program in (main, expanded):
        assert program.oracles == {
            n.oracle
            for n in walk(program.body)
            if isinstance(n, (OracleRealConst, MemberOf))
        }
        assert program.reads_stage == any(
            isinstance(n, (Dt, Infinity)) for n in walk(program.body)
        )
    # expansion keeps every read of the main body and adds the macros'
    assert main.oracles <= expanded.oracles
    assert main.reads_stage <= expanded.reads_stage


def test_hand_built_calls_outside_a_right_hand_side_are_refused_at_evaluation():
    # expansion leaves them alone; the parser never builds them
    defs, _ = parse_module("def F(a) -> r { r := a }\ninput; output y; y := 0")
    one = RationalLiteral(Fraction(1))
    call = Call("F", (one,))
    for body in (
        If(Cmp("<", call, one), Assign("y", one), Assign("y", one)),
        Block((Assign("y", one), While(Cmp("<", one, call), Skip()))),
        Assign("y", BinOp("+", call, one)),
    ):
        program = expand_macros(defs, Program((), ("y",), body))
        status = eval_stage(program, [], StageContext.for_stage(0)).status
        assert (status.kind, status.error) == ("error", "runtime-error")
        assert status.message == (
            "macro call 'F' survived to evaluation; expand macros first"
        )


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
    res = eval_stage(p, [Fraction(5)], StageContext.for_stage(0))
    assert res.store["y"] == Fraction(7)
