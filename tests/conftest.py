"""Shared fixtures, independent value oracles and program generators for
the test suite."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from whiledt.exactnum import Affine, OracleReal, SymExpr

CORPUS = Path(__file__).resolve().parent.parent / "src" / "whiledt" / "corpus"


@pytest.fixture
def corpus_dir():
    return CORPUS


def corpus_source(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def finite_stream(name, digits):
    """Digit stream from a finite 0/1 prefix; all later digits are 0."""
    prefix = list(digits)
    return OracleReal(name, lambda i: prefix[i] if i < len(prefix) else 0)


def stream_value(digits):
    """Brute-force exact value of a finite digit prefix (tail all zero)."""
    return sum(
        (Fraction(d, 3**i) for i, d in enumerate(digits)), Fraction(0)
    )


def true_value(x, prefix_len=64):
    """Independent evaluation of an ExactReal built over finite streams.

    Only valid when every stream involved has all-zero digits beyond
    prefix_len; used as the ground-truth oracle for enclosure soundness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Affine):
        s = sum(
            (Fraction(x.stream.digit(i), 3**i) for i in range(prefix_len)),
            Fraction(0),
        )
        return x.offset + x.coeff * s
    if isinstance(x, SymExpr):
        a = true_value(x.lhs, prefix_len)
        b = true_value(x.rhs, prefix_len)
        if x.op == "+":
            return a + b
        if x.op == "-":
            return a - b
        if x.op == "*":
            return a * b
        if x.op == "/":
            return a / b
    raise TypeError(f"not an ExactReal: {x!r}")


# ---------------------------------------------------------------------------
# Hypothesis strategies for whole programs, following docs/grammar.md.  They
# draw source text; the parse of that text is the program under test.

_VARS = ("x", "v0", "v1", "v2")
_MACROS = ("M0", "M1")


def _arith(stage_free, bounded):
    """Arithmetic expressions.  `stage_free` leaves out `dt`, `infinity` and
    `real3`; `bounded` multiplies and divides only by literals and leaves
    out `J`, so values stay small however often a loop turns."""
    literal = st.one_of(
        st.integers(0, 99).map(str),
        st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda t: f"{t[0]}.{t[1]}"),
        st.tuples(st.integers(0, 99), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    )
    leaves = [literal, st.sampled_from(_VARS)]
    if not stage_free:
        leaves.append(st.sampled_from(("dt", "infinity", "real3(A)")))

    def extend(e):
        forms = [
            st.tuples(e, st.sampled_from("+-"), e).map(" ".join),
            e.map(lambda a: f"-{a}"),
            e.map(lambda a: f"floor({a})"),
        ]
        if bounded:
            forms.append(st.tuples(e, st.sampled_from("*/"), literal).map(" ".join))
        else:
            forms.append(st.tuples(e, st.sampled_from("*/"), e).map(" ".join))
            forms.append(st.tuples(e, e).map(lambda t: f"J({t[0]}, {t[1]})"))
        return st.tuples(st.one_of(forms), st.booleans()).map(
            lambda t: f"({t[0]})" if t[1] else t[0]
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=6)


def _bool(arith, stage_free):
    cmp = st.sampled_from(("<", "<=", "=", "!=", ">=", ">"))
    atoms = [
        st.tuples(arith, cmp, arith).map(" ".join),
        st.tuples(arith, cmp, arith, cmp, arith).map(" ".join),
    ]
    if not stage_free:
        atoms.append(arith.map(lambda a: f"{a} in A"))

    def extend(b):
        return st.one_of(
            b.map(lambda a: f"not {a}"),
            st.tuples(b, st.sampled_from(("and", "or")), b).map(" ".join),
            b.map(lambda a: f"({a})"),
        )

    return st.recursive(st.one_of(atoms), extend, max_leaves=3)


def _statements(arith, boolean, calls):
    leaves = [
        st.just("skip"),
        st.tuples(st.sampled_from(_VARS), arith).map(lambda t: f"{t[0]} := {t[1]}"),
    ]
    if calls:
        leaves.append(
            st.tuples(st.sampled_from(_VARS), st.sampled_from(_MACROS), arith, arith)
            .map(lambda t: f"{t[0]} := {t[1]}({t[2]}, {t[3]})")
        )

    def extend(s):
        return st.one_of(
            st.tuples(boolean, s).map(lambda t: f"if {t[0]} then {t[1]}"),
            st.tuples(boolean, s, s).map(lambda t: f"if {t[0]} then {t[1]} else {t[2]}"),
            st.tuples(boolean, s).map(lambda t: f"while {t[0]} do {t[1]}"),
            st.lists(s, min_size=1, max_size=4).map(lambda b: "{ " + "; ".join(b) + " }"),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=8)


def program_sources(stage_free=False, bounded=False):
    """Source text of a module: two macros `M0(p, q) -> r` and `M1`, then a
    main program `input x; output v0, v1;` whose statements may call them."""
    arith = _arith(stage_free, bounded)
    boolean = _bool(arith, stage_free)
    macro_arith = arith.map(lambda a: a.replace("v1", "p").replace("v2", "q"))
    macro_body = st.lists(
        _statements(macro_arith, boolean, calls=False), min_size=1, max_size=3
    ).map("; ".join)
    main = st.lists(_statements(arith, boolean, calls=True), min_size=1, max_size=6)
    return st.tuples(macro_body, macro_body, main).map(
        lambda t: f"def M0(p, q) -> r {{ {t[0]}; r := p }}\n"
        f"def M1(p, q) -> r {{ r := q; {t[1]} }}\n"
        f"input x;\noutput v0, v1;\n" + ";\n".join(t[2]) + "\n"
    )


def dead_store_sources():
    """Source text of a program whose loop assigns `d`, which the loop
    never reads, between statements that may read and assign anything
    else: `input x; output v0, d;`, then `while k < 4 and GUARD do {
    k := k + 1; STATEMENTS; d := EXPR; c := floor(k); STATEMENTS }`.
    `d` may be first assigned in the loop, before `c`, which no loop
    defers; `v2` is first assigned wherever a statement assigns it; and
    `d` may be read after the loop."""
    arith = _arith(stage_free=False, bounded=True)
    boolean = _bool(arith, stage_free=False)
    stmts = st.lists(
        _statements(arith, boolean, calls=False), min_size=1, max_size=3
    ).map("; ".join)
    return st.tuples(
        stmts, st.booleans(), boolean, stmts, arith, stmts, st.booleans()
    ).map(
        lambda t: "input x;\noutput v0, d;\n"
        f"v0 := x; v1 := 1; k := 0; {'d := 5; ' if t[1] else ''}{t[0]};\n"
        f"while k < 4 and {t[2]} do {{ k := k + 1; {t[3]}; d := {t[4]}; c := floor(k); {t[5]} }}"
        + (";\nv0 := d + v0\n" if t[6] else "\n")
    )
