"""Concrete syntax for While-dt programs.

Source files are UTF-8 text with `#` line comments.  A file holds zero or
more `def NAME(params) -> out { body }` subprogram definitions followed by
one main program:

    input x, y;
    output z;
    <command>

Statements are separated by `;`; loop and branch bodies are single
statements or `{ ... }` blocks.  Numeric literals (`3`, `3.7`, `23/10`)
always denote exact rationals: a quotient of two literals is folded into a
single literal at parse time, so no inexact value ever enters the AST.
Subprogram calls are compile-time macros, expanded by `expand_macros`
before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    MacroError,
    ParseError,
    RecursionNotSupported,
    UnknownMacro,
)

KEYWORDS = {
    "input", "output", "skip", "if", "then", "else", "while", "do",
    "not", "and", "or", "in", "dt", "infinity", "floor", "real3", "J", "def",
}

CMP_OPS = ("<=", ">=", "!=", "<", ">", "=")


# ---------------------------------------------------------------------------
# AST


class ArithExpr:
    pass


@dataclass(frozen=True)
class RationalLiteral(ArithExpr):
    value: Fraction


@dataclass(frozen=True)
class Var(ArithExpr):
    name: str


@dataclass(frozen=True)
class Dt(ArithExpr):
    pass


@dataclass(frozen=True)
class Infinity(ArithExpr):
    pass


@dataclass(frozen=True)
class OracleRealConst(ArithExpr):
    oracle: str


@dataclass(frozen=True)
class Neg(ArithExpr):
    expr: ArithExpr


@dataclass(frozen=True)
class BinOp(ArithExpr):
    op: str  # one of + - * /
    lhs: ArithExpr
    rhs: ArithExpr


@dataclass(frozen=True)
class Floor(ArithExpr):
    expr: ArithExpr


@dataclass(frozen=True)
class Pair(ArithExpr):
    first: ArithExpr
    second: ArithExpr


@dataclass(frozen=True)
class Call(ArithExpr):
    """Macro call; legal only as a full assignment right-hand side and
    only until expansion."""

    name: str
    args: tuple


class BoolExpr:
    pass


@dataclass(frozen=True)
class Cmp(BoolExpr):
    op: str
    lhs: ArithExpr
    rhs: ArithExpr


@dataclass(frozen=True)
class ChainedCmp(BoolExpr):
    """lo op1 mid op2 hi, with mid evaluated once."""

    lo: ArithExpr
    op1: str
    mid: ArithExpr
    op2: str
    hi: ArithExpr


@dataclass(frozen=True)
class MemberOf(BoolExpr):
    expr: ArithExpr
    oracle: str


@dataclass(frozen=True)
class Not(BoolExpr):
    expr: BoolExpr


@dataclass(frozen=True)
class And(BoolExpr):
    lhs: BoolExpr
    rhs: BoolExpr


@dataclass(frozen=True)
class Or(BoolExpr):
    lhs: BoolExpr
    rhs: BoolExpr


class Command:
    pass


@dataclass(frozen=True)
class Skip(Command):
    loc: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Assign(Command):
    var: str
    expr: ArithExpr
    loc: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Seq(Command):
    first: Command
    second: Command


@dataclass(frozen=True)
class If(Command):
    cond: BoolExpr
    then: Command
    orelse: Command
    loc: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class While(Command):
    cond: BoolExpr
    body: Command
    loc: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Program:
    inputs: tuple
    outputs: tuple
    body: Command
    oracles: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", a keyword, a symbol, or "eof"
    text: str
    line: int
    col: int


_SYMBOLS = (":=", "->", "<=", ">=", "!=",
            ";", ",", "(", ")", "{", "}", "+", "-", "*", "/", "<", ">", "=")


def tokenize(source):
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            text = source[start:i]
            tokens.append(Token("number", text, line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += len(text)
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead plus local backtracking
# to disambiguate parenthesized boolean vs arithmetic expressions)


class _Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.advance()

    def ident(self, what="identifier"):
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=("ident",),
            )
        return self.advance().text

    # ---- module / program structure

    def parse_module(self):
        defs = {}
        while self.peek().kind == "def":
            tok = self.advance()
            name = self.ident("subprogram name")
            if name in defs:
                raise ParseError(f"duplicate definition of {name!r}", tok.line, tok.col)
            self.expect("(")
            params = []
            if self.peek().kind != ")":
                params.append(self.ident("parameter"))
                while self.peek().kind == ",":
                    self.advance()
                    params.append(self.ident("parameter"))
            self.expect(")")
            self.expect("->")
            out = self.ident("output variable")
            self.expect("{")
            body = self.command()
            self.expect("}")
            defs[name] = Program(
                tuple(params), (out,), body, _collect_oracles(body)
            )
        main = self.program()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"unexpected {tok.text!r} after program end", tok.line, tok.col
            )
        return defs, main

    def program(self):
        self.expect("input")
        inputs = self.varlist()
        self.expect(";")
        self.expect("output")
        outputs = self.varlist()
        self.expect(";")
        body = self.command()
        return Program(inputs, outputs, body, _collect_oracles(body))

    def varlist(self):
        names = []
        if self.peek().kind == "ident":
            names.append(self.advance().text)
            while self.peek().kind == ",":
                self.advance()
                names.append(self.ident())
        return tuple(names)

    # ---- commands

    def command(self):
        stmts = [self.statement()]
        while self.peek().kind == ";":
            self.advance()
            stmts.append(self.statement())
        cmd = stmts[-1]
        for s in reversed(stmts[:-1]):
            cmd = Seq(s, cmd)
        return cmd

    def statement(self):
        tok = self.peek()
        loc = (tok.line, tok.col)
        if tok.kind == "skip":
            self.advance()
            return Skip(loc=loc)
        if tok.kind == "{":
            self.advance()
            cmd = self.command()
            self.expect("}")
            return cmd
        if tok.kind == "if":
            self.advance()
            cond = self.bool_expr()
            self.expect("then")
            then = self.statement()
            orelse = Skip(loc=loc)
            if self.peek().kind == "else":
                self.advance()
                orelse = self.statement()
            return If(cond, then, orelse, loc=loc)
        if tok.kind == "while":
            self.advance()
            cond = self.bool_expr()
            self.expect("do")
            body = self.statement()
            return While(cond, body, loc=loc)
        if tok.kind == "ident":
            name = self.advance().text
            self.expect(":=")
            expr = self.assignment_rhs()
            return Assign(name, expr, loc=loc)
        raise ParseError(
            f"expected a statement, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("skip", "if", "while", "{", "ident"),
        )

    def assignment_rhs(self):
        # A macro call is only legal as the entire right-hand side.
        if self.peek().kind == "ident" and self.peek(1).kind == "(":
            tok = self.peek()
            name = self.advance().text
            self.advance()
            args = []
            if self.peek().kind != ")":
                args.append(self.arith_expr())
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.arith_expr())
            self.expect(")")
            nxt = self.peek()
            if nxt.kind not in (";", "}", "eof", "else"):
                raise ParseError(
                    f"macro call {name!r} must be the entire right-hand side",
                    nxt.line,
                    nxt.col,
                )
            return Call(name, tuple(args))
        return self.arith_expr()

    # ---- boolean expressions

    def bool_expr(self):
        lhs = self.bool_term()
        while self.peek().kind == "or":
            self.advance()
            lhs = Or(lhs, self.bool_term())
        return lhs

    def bool_term(self):
        lhs = self.bool_factor()
        while self.peek().kind == "and":
            self.advance()
            lhs = And(lhs, self.bool_factor())
        return lhs

    def bool_factor(self):
        if self.peek().kind == "not":
            self.advance()
            return Not(self.bool_factor())
        start = self.pos
        try:
            return self.comparison()
        except ParseError:
            if self.tokens[start].kind == "(":
                self.pos = start
                self.advance()
                inner = self.bool_expr()
                self.expect(")")
                return inner
            raise

    def comparison(self):
        lhs = self.arith_expr()
        tok = self.peek()
        if tok.kind == "in":
            self.advance()
            return MemberOf(lhs, self.ident("oracle name"))
        if tok.kind in CMP_OPS:
            op1 = self.advance().kind
            mid = self.arith_expr()
            if self.peek().kind in CMP_OPS:
                op2 = self.advance().kind
                hi = self.arith_expr()
                return ChainedCmp(lhs, op1, mid, op2, hi)
            return Cmp(op1, lhs, mid)
        raise ParseError(
            f"expected a comparison or 'in', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=CMP_OPS + ("in",),
        )

    # ---- arithmetic expressions

    def arith_expr(self):
        lhs = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            lhs = _fold_binop(op, lhs, rhs)
        return lhs

    def term(self):
        lhs = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            lhs = _fold_binop(op, lhs, rhs)
        return lhs

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, RationalLiteral):
                return RationalLiteral(-inner.value)
            return Neg(inner)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return RationalLiteral(Fraction(tok.text))
        if tok.kind == "dt":
            self.advance()
            return Dt()
        if tok.kind == "infinity":
            self.advance()
            return Infinity()
        if tok.kind == "floor":
            self.advance()
            self.expect("(")
            inner = self.arith_expr()
            self.expect(")")
            return Floor(inner)
        if tok.kind == "J":
            self.advance()
            self.expect("(")
            first = self.arith_expr()
            self.expect(",")
            second = self.arith_expr()
            self.expect(")")
            return Pair(first, second)
        if tok.kind == "real3":
            self.advance()
            self.expect("(")
            name = self.ident("oracle name")
            self.expect(")")
            return OracleRealConst(name)
        if tok.kind == "ident":
            if self.peek(1).kind == "(":
                raise ParseError(
                    f"{tok.text!r} is not a function; macro calls must be the"
                    " entire right-hand side of an assignment",
                    tok.line,
                    tok.col,
                )
            self.advance()
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.arith_expr()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("number", "ident", "(", "dt", "infinity", "floor", "J", "real3"),
        )


def _fold_binop(op, lhs, rhs):
    # Exact constant folding keeps `23/10` a single literal while `/` stays
    # ordinary division everywhere else.  Division by a zero literal is left
    # unfolded so it fails at run time, not parse time.
    if isinstance(lhs, RationalLiteral) and isinstance(rhs, RationalLiteral):
        if op == "+":
            return RationalLiteral(lhs.value + rhs.value)
        if op == "-":
            return RationalLiteral(lhs.value - rhs.value)
        if op == "*":
            return RationalLiteral(lhs.value * rhs.value)
        if op == "/" and rhs.value != 0:
            return RationalLiteral(lhs.value / rhs.value)
    return BinOp(op, lhs, rhs)


def _collect_oracles(node):
    names = set()
    _walk_oracles(node, names)
    return frozenset(names)


def _walk_oracles(node, names):
    if isinstance(node, OracleRealConst):
        names.add(node.oracle)
    elif isinstance(node, MemberOf):
        names.add(node.oracle)
        _walk_oracles(node.expr, names)
    elif isinstance(node, (Neg, Floor)):
        _walk_oracles(node.expr, names)
    elif isinstance(node, BinOp):
        _walk_oracles(node.lhs, names)
        _walk_oracles(node.rhs, names)
    elif isinstance(node, Pair):
        _walk_oracles(node.first, names)
        _walk_oracles(node.second, names)
    elif isinstance(node, Call):
        for a in node.args:
            _walk_oracles(a, names)
    elif isinstance(node, Cmp):
        _walk_oracles(node.lhs, names)
        _walk_oracles(node.rhs, names)
    elif isinstance(node, ChainedCmp):
        _walk_oracles(node.lo, names)
        _walk_oracles(node.mid, names)
        _walk_oracles(node.hi, names)
    elif isinstance(node, Not):
        _walk_oracles(node.expr, names)
    elif isinstance(node, (And, Or)):
        _walk_oracles(node.lhs, names)
        _walk_oracles(node.rhs, names)
    elif isinstance(node, Assign):
        _walk_oracles(node.expr, names)
    elif isinstance(node, Seq):
        _walk_oracles(node.first, names)
        _walk_oracles(node.second, names)
    elif isinstance(node, If):
        _walk_oracles(node.cond, names)
        _walk_oracles(node.then, names)
        _walk_oracles(node.orelse, names)
    elif isinstance(node, While):
        _walk_oracles(node.cond, names)
        _walk_oracles(node.body, names)


def parse_module(source):
    """Parse a source file into (subprogram defs, unexpanded main program)."""
    return _Parser(source).parse_module()


def parse(source) -> Program:
    """Parse a source file into a closed Program (macros expanded)."""
    defs, main = parse_module(source)
    return expand_macros(defs, main)


# ---------------------------------------------------------------------------
# Macro expansion


def expand_macros(defs, main) -> Program:
    """Inline all macro calls, call-by-value into fresh variables."""
    taken = set(_collect_idents(main.body)) | set(main.inputs) | set(main.outputs)
    for d in defs.values():
        taken |= set(_collect_idents(d.body)) | set(d.inputs) | set(d.outputs)
    counter = [0]
    body = _expand_cmd(main.body, defs, frozenset(), counter, taken)
    return Program(main.inputs, main.outputs, body, _collect_oracles(body))


def _expand_cmd(cmd, defs, stack, counter, taken):
    if isinstance(cmd, Assign):
        if isinstance(cmd.expr, Call):
            return _expand_call(cmd, defs, stack, counter, taken)
        if _contains_call(cmd.expr):
            raise MacroError(
                "macro calls must be the entire right-hand side of an assignment"
            )
        return cmd
    if isinstance(cmd, Seq):
        return Seq(
            _expand_cmd(cmd.first, defs, stack, counter, taken),
            _expand_cmd(cmd.second, defs, stack, counter, taken),
        )
    if isinstance(cmd, If):
        if _contains_call(cmd.cond):
            raise MacroError("macro calls cannot appear inside guards")
        return If(
            cmd.cond,
            _expand_cmd(cmd.then, defs, stack, counter, taken),
            _expand_cmd(cmd.orelse, defs, stack, counter, taken),
            loc=cmd.loc,
        )
    if isinstance(cmd, While):
        if _contains_call(cmd.cond):
            raise MacroError("macro calls cannot appear inside guards")
        return While(
            cmd.cond, _expand_cmd(cmd.body, defs, stack, counter, taken), loc=cmd.loc
        )
    return cmd


def _expand_call(assign, defs, stack, counter, taken):
    call = assign.expr
    if call.name in stack:
        raise RecursionNotSupported(
            f"macro {call.name!r} expands to itself; recursion is not supported"
        )
    if call.name not in defs:
        raise UnknownMacro(f"unknown macro {call.name!r}")
    d = defs[call.name]
    if len(d.outputs) != 1:
        raise MacroError(
            f"macro {call.name!r} must have exactly one output to be called"
        )
    if len(call.args) != len(d.inputs):
        raise MacroError(
            f"macro {call.name!r} takes {len(d.inputs)} argument(s),"
            f" got {len(call.args)}"
        )
    for a in call.args:
        if _contains_call(a):
            raise MacroError("macro calls cannot be nested inside arguments")
    # Fresh, collision-free names for every variable of the subprogram.
    local = set(_collect_idents(d.body)) | set(d.inputs) | set(d.outputs)
    while True:
        counter[0] += 1
        mapping = {v: f"_{call.name}_{counter[0]}_{v}" for v in sorted(local)}
        if not taken & set(mapping.values()):
            break
    taken |= set(mapping.values())
    stmts = [
        Assign(mapping[p], arg, loc=assign.loc)
        for p, arg in zip(d.inputs, call.args)
    ]
    body = _rename_cmd(d.body, mapping)
    body = _expand_cmd(body, defs, stack | {call.name}, counter, taken)
    stmts.append(body)
    stmts.append(Assign(assign.var, Var(mapping[d.outputs[0]]), loc=assign.loc))
    cmd = stmts[-1]
    for s in reversed(stmts[:-1]):
        cmd = Seq(s, cmd)
    return cmd


def _contains_call(node):
    if isinstance(node, Call):
        return True
    if isinstance(node, (Neg, Floor)):
        return _contains_call(node.expr)
    if isinstance(node, BinOp):
        return _contains_call(node.lhs) or _contains_call(node.rhs)
    if isinstance(node, Pair):
        return _contains_call(node.first) or _contains_call(node.second)
    if isinstance(node, Cmp):
        return _contains_call(node.lhs) or _contains_call(node.rhs)
    if isinstance(node, ChainedCmp):
        return any(_contains_call(x) for x in (node.lo, node.mid, node.hi))
    if isinstance(node, MemberOf):
        return _contains_call(node.expr)
    if isinstance(node, Not):
        return _contains_call(node.expr)
    if isinstance(node, (And, Or)):
        return _contains_call(node.lhs) or _contains_call(node.rhs)
    return False


def _collect_idents(node):
    out = []
    if isinstance(node, Var):
        out.append(node.name)
    elif isinstance(node, (Neg, Floor)):
        out += _collect_idents(node.expr)
    elif isinstance(node, BinOp):
        out += _collect_idents(node.lhs) + _collect_idents(node.rhs)
    elif isinstance(node, Pair):
        out += _collect_idents(node.first) + _collect_idents(node.second)
    elif isinstance(node, Call):
        for a in node.args:
            out += _collect_idents(a)
    elif isinstance(node, Cmp):
        out += _collect_idents(node.lhs) + _collect_idents(node.rhs)
    elif isinstance(node, ChainedCmp):
        out += (
            _collect_idents(node.lo)
            + _collect_idents(node.mid)
            + _collect_idents(node.hi)
        )
    elif isinstance(node, MemberOf):
        out += _collect_idents(node.expr)
    elif isinstance(node, Not):
        out += _collect_idents(node.expr)
    elif isinstance(node, (And, Or)):
        out += _collect_idents(node.lhs) + _collect_idents(node.rhs)
    elif isinstance(node, Assign):
        out.append(node.var)
        out += _collect_idents(node.expr)
    elif isinstance(node, Seq):
        out += _collect_idents(node.first) + _collect_idents(node.second)
    elif isinstance(node, If):
        out += (
            _collect_idents(node.cond)
            + _collect_idents(node.then)
            + _collect_idents(node.orelse)
        )
    elif isinstance(node, While):
        out += _collect_idents(node.cond) + _collect_idents(node.body)
    return out


def _rename_cmd(cmd, mapping):
    if isinstance(cmd, Skip):
        return cmd
    if isinstance(cmd, Assign):
        return Assign(
            mapping.get(cmd.var, cmd.var), _rename_expr(cmd.expr, mapping), loc=cmd.loc
        )
    if isinstance(cmd, Seq):
        return Seq(_rename_cmd(cmd.first, mapping), _rename_cmd(cmd.second, mapping))
    if isinstance(cmd, If):
        return If(
            _rename_bool(cmd.cond, mapping),
            _rename_cmd(cmd.then, mapping),
            _rename_cmd(cmd.orelse, mapping),
            loc=cmd.loc,
        )
    if isinstance(cmd, While):
        return While(
            _rename_bool(cmd.cond, mapping), _rename_cmd(cmd.body, mapping), loc=cmd.loc
        )
    raise TypeError(f"not a command: {cmd!r}")


def _rename_expr(e, mapping):
    if isinstance(e, Var):
        return Var(mapping.get(e.name, e.name))
    if isinstance(e, Neg):
        return Neg(_rename_expr(e.expr, mapping))
    if isinstance(e, Floor):
        return Floor(_rename_expr(e.expr, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, _rename_expr(e.lhs, mapping), _rename_expr(e.rhs, mapping))
    if isinstance(e, Pair):
        return Pair(_rename_expr(e.first, mapping), _rename_expr(e.second, mapping))
    if isinstance(e, Call):
        return Call(e.name, tuple(_rename_expr(a, mapping) for a in e.args))
    return e


def _rename_bool(b, mapping):
    if isinstance(b, Cmp):
        return Cmp(b.op, _rename_expr(b.lhs, mapping), _rename_expr(b.rhs, mapping))
    if isinstance(b, ChainedCmp):
        return ChainedCmp(
            _rename_expr(b.lo, mapping),
            b.op1,
            _rename_expr(b.mid, mapping),
            b.op2,
            _rename_expr(b.hi, mapping),
        )
    if isinstance(b, MemberOf):
        return MemberOf(_rename_expr(b.expr, mapping), b.oracle)
    if isinstance(b, Not):
        return Not(_rename_bool(b.expr, mapping))
    if isinstance(b, And):
        return And(_rename_bool(b.lhs, mapping), _rename_bool(b.rhs, mapping))
    if isinstance(b, Or):
        return Or(_rename_bool(b.lhs, mapping), _rename_bool(b.rhs, mapping))
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# Pretty-printer


_ADD, _MUL, _UNARY, _ATOM = 1, 2, 3, 4


def _pp_arith(e, ctx=0):
    if isinstance(e, RationalLiteral):
        s = (
            str(e.value.numerator)
            if e.value.denominator == 1
            else f"{e.value.numerator}/{e.value.denominator}"
        )
        # Negative literals are parenthesized so they re-lex as unary minus;
        # fraction forms re-lex as division, so they bind like one.
        if e.value < 0:
            return f"({s})"
        if e.value.denominator != 1 and ctx > _MUL:
            return f"({s})"
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Dt):
        return "dt"
    if isinstance(e, Infinity):
        return "infinity"
    if isinstance(e, OracleRealConst):
        return f"real3({e.oracle})"
    if isinstance(e, Floor):
        return f"floor({_pp_arith(e.expr)})"
    if isinstance(e, Pair):
        return f"J({_pp_arith(e.first)}, {_pp_arith(e.second)})"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(_pp_arith(a) for a in e.args)})"
    if isinstance(e, Neg):
        s = "-" + _pp_arith(e.expr, _UNARY)
        return f"({s})" if ctx > _UNARY else s
    if isinstance(e, BinOp):
        prec = _ADD if e.op in "+-" else _MUL
        s = f"{_pp_arith(e.lhs, prec)} {e.op} {_pp_arith(e.rhs, prec + 1)}"
        return f"({s})" if ctx > prec else s
    raise TypeError(f"not an arithmetic expression: {e!r}")


_OR, _AND = 1, 2


def _pp_bool(b, ctx=0):
    if isinstance(b, Cmp):
        return f"{_pp_arith(b.lhs)} {b.op} {_pp_arith(b.rhs)}"
    if isinstance(b, ChainedCmp):
        return (
            f"{_pp_arith(b.lo)} {b.op1} {_pp_arith(b.mid)} {b.op2} {_pp_arith(b.hi)}"
        )
    if isinstance(b, MemberOf):
        return f"{_pp_arith(b.expr)} in {b.oracle}"
    if isinstance(b, Not):
        return f"not ({_pp_bool(b.expr)})"
    if isinstance(b, And):
        s = f"{_pp_bool(b.lhs, _AND)} and {_pp_bool(b.rhs, _AND + 1)}"
        return f"({s})" if ctx > _AND else s
    if isinstance(b, Or):
        s = f"{_pp_bool(b.lhs, _OR)} or {_pp_bool(b.rhs, _OR + 1)}"
        return f"({s})" if ctx > _OR else s
    raise TypeError(f"not a boolean expression: {b!r}")


def _flatten_seq(cmd):
    if isinstance(cmd, Seq):
        return _flatten_seq(cmd.first) + _flatten_seq(cmd.second)
    return [cmd]


def _pp_cmd(cmd, indent, lines):
    pad = "  " * indent
    stmts = _flatten_seq(cmd)
    for i, s in enumerate(stmts):
        sep = ";" if i < len(stmts) - 1 else ""
        if isinstance(s, Skip):
            lines.append(pad + "skip" + sep)
        elif isinstance(s, Assign):
            lines.append(pad + f"{s.var} := {_pp_arith(s.expr)}" + sep)
        elif isinstance(s, If):
            lines.append(pad + f"if {_pp_bool(s.cond)} then {{")
            _pp_cmd(s.then, indent + 1, lines)
            if s.orelse == Skip():
                lines.append(pad + "}" + sep)
            else:
                lines.append(pad + "} else {")
                _pp_cmd(s.orelse, indent + 1, lines)
                lines.append(pad + "}" + sep)
        elif isinstance(s, While):
            lines.append(pad + f"while {_pp_bool(s.cond)} do {{")
            _pp_cmd(s.body, indent + 1, lines)
            lines.append(pad + "}" + sep)
        else:
            raise TypeError(f"not a command: {s!r}")


def pretty_print(program) -> str:
    """Canonical concrete syntax.

    For a main program as parse_module returns it, parsing the output back
    gives an equal Program.  After expand_macros it may not: expansion
    splices each call in as a left-nested Seq, and the parser builds
    right-nested ones.
    """
    lines = []
    lines.append("input" + (" " + ", ".join(program.inputs) if program.inputs else "") + ";")
    lines.append("output" + (" " + ", ".join(program.outputs) if program.outputs else "") + ";")
    _pp_cmd(program.body, 0, lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Static checks


USE_BEFORE_ASSIGN = "use-before-assign"
DUPLICATE_DECL = "duplicate-decl"
OUTPUT_NEVER_ASSIGNED = "output-never-assigned"


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    var: str
    loc: tuple = (0, 0)

    def __str__(self):
        return f"{self.kind}: {self.var} at {self.loc[0]}:{self.loc[1]}"


def check(program) -> list:
    """Static diagnostics; an empty list means the program is well-formed."""
    diags = []
    seen = set()
    for v in program.inputs + program.outputs:
        if v in seen:
            diags.append(Diagnostic(DUPLICATE_DECL, v))
        seen.add(v)
    reported = set()

    def use(expr, defined, loc):
        for name in _expr_vars(expr):
            if name not in defined and name not in reported:
                reported.add(name)
                diags.append(Diagnostic(USE_BEFORE_ASSIGN, name, loc))

    def use_bool(b, defined, loc):
        for name in _bool_vars(b):
            if name not in defined and name not in reported:
                reported.add(name)
                diags.append(Diagnostic(USE_BEFORE_ASSIGN, name, loc))

    def walk(cmd, defined):
        if isinstance(cmd, Skip):
            return defined
        if isinstance(cmd, Assign):
            use(cmd.expr, defined, cmd.loc)
            return defined | {cmd.var}
        if isinstance(cmd, Seq):
            return walk(cmd.second, walk(cmd.first, defined))
        if isinstance(cmd, If):
            use_bool(cmd.cond, defined, cmd.loc)
            d1 = walk(cmd.then, defined)
            d2 = walk(cmd.orelse, defined)
            return d1 & d2
        if isinstance(cmd, While):
            use_bool(cmd.cond, defined, cmd.loc)
            walk(cmd.body, defined)  # body may run zero times
            return defined
        raise TypeError(f"not a command: {cmd!r}")

    final = walk(program.body, set(program.inputs))
    for out in program.outputs:
        if out not in final:
            diags.append(Diagnostic(OUTPUT_NEVER_ASSIGNED, out))
    return diags


def _expr_vars(e):
    if isinstance(e, Var):
        yield e.name
    elif isinstance(e, (Neg, Floor)):
        yield from _expr_vars(e.expr)
    elif isinstance(e, BinOp):
        yield from _expr_vars(e.lhs)
        yield from _expr_vars(e.rhs)
    elif isinstance(e, Pair):
        yield from _expr_vars(e.first)
        yield from _expr_vars(e.second)
    elif isinstance(e, Call):
        for a in e.args:
            yield from _expr_vars(a)


def _bool_vars(b):
    if isinstance(b, Cmp):
        yield from _expr_vars(b.lhs)
        yield from _expr_vars(b.rhs)
    elif isinstance(b, ChainedCmp):
        yield from _expr_vars(b.lo)
        yield from _expr_vars(b.mid)
        yield from _expr_vars(b.hi)
    elif isinstance(b, MemberOf):
        yield from _expr_vars(b.expr)
    elif isinstance(b, Not):
        yield from _bool_vars(b.expr)
    elif isinstance(b, (And, Or)):
        yield from _bool_vars(b.lhs)
        yield from _bool_vars(b.rhs)
