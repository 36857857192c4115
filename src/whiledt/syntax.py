"""Concrete syntax for While-dt programs.

Source files are UTF-8 text with `#` line comments.  A file holds zero or
more `def NAME(params) -> out { body }` subprogram definitions followed by
one main program:

    input x, y;
    output z;
    <command>

Statements are separated by `;`; loop and branch bodies are single
statements or `{ ... }` blocks.  Numeric literals (`3`, `3.7`, `23/10`)
always denote exact rationals: `+ - * /` of two literals is folded into a
single literal at parse time, so no inexact value ever enters the AST.
Subprogram calls are compile-time macros, expanded by `expand_macros`
before evaluation.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .errors import (
    MacroError,
    NestingTooDeep,
    ParseError,
    RecursionNotSupported,
    UnknownMacro,
)

KEYWORDS = {
    "input", "output", "skip", "if", "then", "else", "while", "do",
    "not", "and", "or", "in", "dt", "infinity", "floor", "real3", "J", "def",
}

CMP_OPS = ("<=", ">=", "!=", "<", ">", "=")

# Deepest nesting of parentheses, `{ }` blocks, `if`/`while` bodies,
# unary `-`/`not` and chained binary operators the parser accepts; a
# braced body is one level.  The parser, the evaluator and the printer
# recurse once or a few times per level; this keeps each of them well
# inside Python's default recursion limit of 1000.
MAX_NESTING = 150

# The left-associative binary operators of each kind and their precedence
# (higher binds tighter), read by the parser, the printer and the
# evaluator.  `+ - * /` map also to their exact operation on two rationals
# (`int / int` is a Fraction), which folds two literals and evaluates two
# rational operands; it raises ZeroDivisionError on a zero divisor.
ARITH_OPS = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, lambda a, b: Fraction(a, b) if type(a) is type(b) is int else a / b),
}
BOOL_OPS = {"or": 1, "and": 2}


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
class BoolOp(BoolExpr):
    op: str  # and | or
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
class Block(Command):
    """Two or more statements run in order, none of them a Block; build
    one with `block`."""

    stmts: tuple


def block(stmts):
    """The statements in order as one command: nested blocks are spliced
    in, and a lone statement is returned as itself."""
    flat = []
    for s in stmts:
        if isinstance(s, Block):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    return flat[0] if len(flat) == 1 else Block(tuple(flat))


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
    """A main program or a subprogram definition.  `oracles` and
    `reads_stage` describe what its body reads; they are found by one walk
    of the body, on first use."""

    inputs: tuple
    outputs: tuple
    body: Command

    @cached_property
    def _reads(self):
        oracles, reads_stage = set(), False
        for n in walk(self.body):
            cls = type(n)
            if cls is OracleRealConst or cls is MemberOf:
                oracles.add(n.oracle)
            elif cls is Dt or cls is Infinity:
                reads_stage = True
        return frozenset(oracles), reads_stage

    @property
    def oracles(self):
        """The names of the oracles the body reads."""
        return self._reads[0]

    @property
    def reads_stage(self):
        """Whether the body reads `dt` or `infinity`."""
        return self._reads[1]


# The fields that hold subnodes, per node class: those annotated with a
# node class, and the tuples `Call.args` and `Block.stmts` (`loc`, the other
# tuple, is left out of comparisons).
_CHILD_FIELDS = {
    cls: tuple(
        f.name
        for f in fields(cls)
        if f.compare and f.type in ("ArithExpr", "BoolExpr", "Command", "tuple")
    )
    for base in (ArithExpr, BoolExpr, Command)
    for cls in base.__subclasses__()
}


def _last_first(cls):
    """A function from a node of class `cls` to its direct subnodes in
    reverse source order, or None for a class without any."""
    names = _CHILD_FIELDS[cls]
    if not names:
        return None
    get = attrgetter(*reversed(names))
    if cls in (Block, Call):  # one field, a tuple of subnodes
        return lambda node: reversed(get(node))
    if len(names) == 1:
        return lambda node: (get(node),)
    return get


_LAST_FIRST = {cls: _last_first(cls) for cls in _CHILD_FIELDS}


def walk(node):
    """Every node of the tree under `node`, `node` first, in source order.

    Iterative, so no tree is too deep or too long for it."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        subnodes = _LAST_FIRST[type(node)]
        if subnodes is not None:
            stack.extend(subnodes(node))


# ---------------------------------------------------------------------------
# Lexer


# `kind` is "number", "ident", a keyword, a symbol, or "eof".  A plain
# tuple type: the parser builds one per token, and `typing` is not imported.
Token = namedtuple("Token", "kind text line col")


_SYMBOLS = (":=", "->", "<=", ">=", "!=",
            ";", ",", "(", ")", "{", "}", "+", "-", "*", "/", "<", ">", "=")

# The kind of every keyword and symbol is its own text.
_KINDS = {w: w for w in (*KEYWORDS, *_SYMBOLS)}

# docs/grammar.md's token classes, found in a line after any blanks: a
# number, identifier or symbol (group 1), a comment (group 2), or any other
# character but a blank (group 3), which is an error.  Blanks at the end of
# a line match nothing.
_TOKEN = re.compile(
    r"[ \t\r]*(?:([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|"
    + "|".join(map(re.escape, _SYMBOLS))
    + r")|(#.*)|([^ \t\r]))"
)


def tokenize(source):
    """One token per number, identifier, keyword and symbol of `source`,
    then `eof`.  Any other character outside a comment is a ParseError at
    its line:col."""
    tokens = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        end = len(text)
        for m in _TOKEN.finditer(text):
            word = m[1]
            if word:
                # a number starts with a digit, an identifier with a letter or _
                kind = _KINDS.get(word) or ("number" if word[0] <= "9" else "ident")
                tokens.append(Token(kind, word, line, m.start(1) + 1))
            elif m[2]:
                end = m.start(2)  # the end of input sits at a last-line comment
            else:
                raise ParseError(f"unexpected character {m[3]!r}", line, m.start(3) + 1)
    tokens.append(Token("eof", "", len(lines), end + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, one token of lookahead plus local backtracking
# to disambiguate parenthesized boolean vs arithmetic expressions)


class _Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.tokens.append(self.tokens[-1])  # `peek(1)` at the end reads eof
        self.pos = 0
        self.depth = 0
        self.peak = 0  # deepest level reached, for the height of a chain
        self.literals = {}  # lexeme -> its RationalLiteral, shared in this parse

    def too_deep(self, depth):
        if depth > MAX_NESTING:
            tok = self.peek()
            raise NestingTooDeep(
                f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col
            )

    def nested(self, parse, *args):
        """`parse(*args)` one nesting level deeper.  A parse that fails
        inside is abandoned, or restarted from a saved depth (`bool_factor`)."""
        self.depth += 1
        self.too_deep(self.depth)
        self.peak = max(self.peak, self.depth)
        result = parse(*args)
        self.depth -= 1
        return result

    def chain(self, ops, least=1):
        """A left-deep chain of the operators of `ops` (ARITH_OPS or
        BOOL_OPS) that bind at least as tight as `least`, by precedence
        climbing over `factor`s or `bool_factor`s.  Two literals fold into
        one, unless the operator divides by zero.  Each operator puts its
        left operand one level deeper, so a chain nests as deep as its
        deepest operand plus one level per operator above it."""
        base, outer = self.depth, self.peak
        self.peak = base
        arith = ops is ARITH_OPS
        lhs = self.factor() if arith else self.bool_factor()
        height = self.peak - base
        while True:
            op = self.peek().kind
            prec = ops.get(op)
            if arith and prec:
                prec, apply = prec
            if prec is None or prec < least:
                self.peak = max(outer, base + height)
                return lhs
            self.advance()
            self.peak = base
            rhs = self.chain(ops, prec + 1)
            height = max(height, self.peak - base) + 1
            self.too_deep(base + height)
            if not arith:
                lhs = BoolOp(op, lhs, rhs)
            elif type(lhs) is type(rhs) is RationalLiteral and (rhs.value or op != "/"):
                lhs = RationalLiteral(apply(lhs.value, rhs.value))
            else:
                lhs = BinOp(op, lhs, rhs)

    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        """The next token, which must be a `kind`; `what` names it in the
        error, and by default `kind` does."""
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or repr(kind)}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.advance()

    def ident(self, what="identifier"):
        return self.expect("ident", what).text

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
                self.param(params)
                while self.peek().kind == ",":
                    self.advance()
                    self.param(params)
            self.expect(")")
            self.expect("->")
            out = self.ident("output variable")
            self.expect("{")
            body = self.command()
            self.expect("}")
            defs[name] = Program(tuple(params), (out,), body)
        main = self.program()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"unexpected {tok.text!r} after program end", tok.line, tok.col
            )
        return defs, main

    def param(self, params):
        """Append the next parameter name to `params`; a repeated name is a
        ParseError at its token."""
        tok = self.peek()
        name = self.ident("parameter")
        if name in params:
            raise ParseError(f"duplicate parameter {name!r}", tok.line, tok.col)
        params.append(name)

    def program(self):
        self.expect("input")
        inputs = self.varlist()
        self.expect(";")
        self.expect("output")
        outputs = self.varlist()
        self.expect(";")
        body = self.command()
        return Program(inputs, outputs, body)

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
        return block(stmts)

    def statement(self, body=False):
        """One statement.  The braces around an `if` or `while` body (`body`)
        are that body's nesting level, not one more."""
        tok = self.peek()
        loc = (tok.line, tok.col)
        if tok.kind == "skip":
            self.advance()
            return Skip(loc=loc)
        if tok.kind == "{":
            self.advance()
            cmd = self.command() if body else self.nested(self.command)
            self.expect("}")
            return cmd
        if tok.kind == "if":
            self.advance()
            cond = self.chain(BOOL_OPS)
            self.expect("then")
            then = self.nested(self.statement, True)
            orelse = Skip(loc=loc)
            if self.peek().kind == "else":
                self.advance()
                orelse = self.nested(self.statement, True)
            return If(cond, then, orelse, loc=loc)
        if tok.kind == "while":
            self.advance()
            cond = self.chain(BOOL_OPS)
            self.expect("do")
            body = self.nested(self.statement, True)
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
                args.append(self.chain(ARITH_OPS))
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.chain(ARITH_OPS))
            self.expect(")")
            nxt = self.peek()
            if nxt.kind not in (";", "}", "eof", "else"):
                raise ParseError(
                    f"macro call {name!r} must be the entire right-hand side",
                    nxt.line,
                    nxt.col,
                )
            return Call(name, tuple(args))
        return self.chain(ARITH_OPS)

    # ---- boolean expressions

    def bool_factor(self):
        if self.peek().kind == "not":
            self.advance()
            return Not(self.nested(self.bool_factor))
        start, depth, peak = self.pos, self.depth, self.peak
        try:
            return self.comparison()
        except ParseError:
            if self.tokens[start].kind == "(":
                self.pos, self.depth, self.peak = start, depth, peak
                self.advance()
                inner = self.nested(self.chain, BOOL_OPS)
                self.expect(")")
                return inner
            raise

    def comparison(self):
        lhs = self.chain(ARITH_OPS)
        tok = self.peek()
        if tok.kind == "in":
            self.advance()
            return MemberOf(lhs, self.ident("oracle name"))
        if tok.kind in CMP_OPS:
            op1 = self.advance().kind
            mid = self.chain(ARITH_OPS)
            if self.peek().kind in CMP_OPS:
                op2 = self.advance().kind
                hi = self.chain(ARITH_OPS)
                return ChainedCmp(lhs, op1, mid, op2, hi)
            return Cmp(op1, lhs, mid)
        raise ParseError(
            f"expected a comparison or 'in', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=CMP_OPS + ("in",),
        )

    # ---- arithmetic expressions

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            inner = self.nested(self.factor)
            if isinstance(inner, RationalLiteral):
                return RationalLiteral(-inner.value)
            return Neg(inner)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            lit = self.literals.get(tok.text)
            if lit is None:
                lit = self.literals[tok.text] = RationalLiteral(Fraction(tok.text))
            return lit
        if tok.kind == "dt":
            self.advance()
            return Dt()
        if tok.kind == "infinity":
            self.advance()
            return Infinity()
        if tok.kind == "floor":
            self.advance()
            self.expect("(")
            inner = self.nested(self.chain, ARITH_OPS)
            self.expect(")")
            return Floor(inner)
        if tok.kind == "J":
            self.advance()
            self.expect("(")
            first = self.nested(self.chain, ARITH_OPS)
            self.expect(",")
            second = self.nested(self.chain, ARITH_OPS)
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
            inner = self.nested(self.chain, ARITH_OPS)
            self.expect(")")
            return inner
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
            expected=("number", "ident", "(", "dt", "infinity", "floor", "J", "real3"),
        )


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
    """Inline all macro calls, call-by-value into fresh variables.

    The parser accepts a call only as a whole right-hand side; a
    hand-built call anywhere else but inside call arguments is left for
    evaluation to refuse."""
    taken = _collect_idents(main.body) | set(main.inputs) | set(main.outputs)
    macros = {}  # name -> (definition, its variables sorted)
    for name, d in defs.items():
        names = _collect_idents(d.body) | set(d.inputs) | set(d.outputs)
        macros[name] = (d, sorted(names))
        taken |= names
    counter = [0]
    body = _expand_cmd(main.body, macros, frozenset(), counter, taken)
    return Program(main.inputs, main.outputs, body)


def _expand_cmd(cmd, macros, stack, counter, taken):
    cls = type(cmd)
    if cls is Assign:
        if type(cmd.expr) is Call:
            return _expand_call(cmd, macros, stack, counter, taken)
        return cmd
    if cls is Block:
        return block(
            [_expand_cmd(s, macros, stack, counter, taken) for s in cmd.stmts]
        )
    if cls is If:
        return If(
            cmd.cond,
            _expand_cmd(cmd.then, macros, stack, counter, taken),
            _expand_cmd(cmd.orelse, macros, stack, counter, taken),
            loc=cmd.loc,
        )
    if cls is While:
        return While(
            cmd.cond, _expand_cmd(cmd.body, macros, stack, counter, taken), loc=cmd.loc
        )
    return cmd


def _expand_call(assign, macros, stack, counter, taken):
    call = assign.expr
    if call.name in stack:
        raise RecursionNotSupported(
            f"macro {call.name!r} expands to itself; recursion is not supported"
        )
    if call.name not in macros:
        raise UnknownMacro(f"unknown macro {call.name!r}")
    d, local = macros[call.name]
    if len(d.outputs) != 1:
        raise MacroError(
            f"macro {call.name!r} must have exactly one output to be called"
        )
    if len(call.args) != len(d.inputs):
        raise MacroError(
            f"macro {call.name!r} takes {len(d.inputs)} argument(s),"
            f" got {len(call.args)}"
        )
    if any(isinstance(n, Call) for a in call.args for n in walk(a)):
        raise MacroError("macro calls cannot be nested inside arguments")
    # Fresh, collision-free names for every variable of the subprogram.
    while True:
        counter[0] += 1
        mapping = {v: f"_{call.name}_{counter[0]}_{v}" for v in local}
        if taken.isdisjoint(mapping.values()):
            break
    taken.update(mapping.values())
    stmts = [
        Assign(mapping[p], arg, loc=assign.loc)
        for p, arg in zip(d.inputs, call.args)
    ]
    body = _rename(d.body, mapping)
    stmts.append(_expand_cmd(body, macros, stack | {call.name}, counter, taken))
    stmts.append(Assign(assign.var, Var(mapping[d.outputs[0]]), loc=assign.loc))
    return block(stmts)


def _collect_idents(node):
    """Every variable name `node` reads or assigns."""
    return {
        n.name if isinstance(n, Var) else n.var
        for n in walk(node)
        if isinstance(n, (Var, Assign))
    }


# Every field of each node class, in the order its constructor takes them.
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _CHILD_FIELDS}


def _rename(node, mapping):
    """`node` with every variable it reads or assigns renamed by `mapping`."""
    cls = type(node)
    if cls is Var:
        return Var(mapping.get(node.name, node.name))
    if cls is Assign:
        return Assign(
            mapping.get(node.var, node.var), _rename(node.expr, mapping), node.loc
        )
    kids = _CHILD_FIELDS[cls]
    if not kids:
        return node
    args = []
    for name in _FIELDS[cls]:
        value = getattr(node, name)
        if name in kids:
            if type(value) is tuple:
                value = tuple(_rename(v, mapping) for v in value)
            else:
                value = _rename(value, mapping)
        args.append(value)
    return cls(*args)


# ---------------------------------------------------------------------------
# Pretty-printer


_UNARY = 3  # binds tighter than every binary operator


def _pp_infix(e, pp, prec, ctx):
    """`e.lhs op e.rhs` at precedence `prec`, in parentheses in a tighter `ctx`."""
    s = f"{pp(e.lhs, prec)} {e.op} {pp(e.rhs, prec + 1)}"
    return f"({s})" if ctx > prec else s


def _pp_arith(e, ctx=0):
    if isinstance(e, RationalLiteral):
        s = str(e.value)  # `n` or `n/d`
        # Negative literals are parenthesized so they re-lex as unary minus;
        # fraction forms re-lex as division, so they bind like one.
        if e.value < 0:
            return f"({s})"
        if e.value.denominator != 1 and ctx > ARITH_OPS["/"][0]:
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
        return _pp_infix(e, _pp_arith, ARITH_OPS[e.op][0], ctx)
    raise TypeError(f"not an arithmetic expression: {e!r}")


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
        inner = _pp_bool(b.expr)
        return f"not ({inner})" if isinstance(b.expr, BoolOp) else f"not {inner}"
    if isinstance(b, BoolOp):
        return _pp_infix(b, _pp_bool, BOOL_OPS[b.op], ctx)
    raise TypeError(f"not a boolean expression: {b!r}")


def _pp_cmd(cmd, indent, lines):
    pad = "  " * indent
    stmts = cmd.stmts if isinstance(cmd, Block) else (cmd,)
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
    """Canonical concrete syntax; parsing the output back gives an equal
    Program, before and after expand_macros.  Only a folded literal can
    print deeper than written (`0 - 3` as `(-3)`), which near MAX_NESTING
    can be too deep to parse back."""
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
    """A static finding about `var`; `loc` is the line:col of the statement
    that reads it, or None for a finding about the declarations."""

    kind: str
    var: str
    loc: tuple | None = None

    def __str__(self):
        at = f" at {self.loc[0]}:{self.loc[1]}" if self.loc else ""
        return f"{self.kind}: {self.var}{at}"


def check(program) -> list:
    """Static diagnostics; an empty list means the program is well-formed."""
    diags = []
    seen = set()
    for v in program.inputs + program.outputs:
        if v in seen:
            diags.append(Diagnostic(DUPLICATE_DECL, v))
        seen.add(v)
    reported = set()

    def use(node, defined, loc):
        for n in walk(node):
            if isinstance(n, Var) and n.name not in defined and n.name not in reported:
                reported.add(n.name)
                diags.append(Diagnostic(USE_BEFORE_ASSIGN, n.name, loc))

    def assigned_after(cmd, defined):
        """The variables defined after `cmd` runs; `defined` is updated in place."""
        if isinstance(cmd, Skip):
            return defined
        if isinstance(cmd, Assign):
            use(cmd.expr, defined, cmd.loc)
            defined.add(cmd.var)
            return defined
        if isinstance(cmd, Block):
            for s in cmd.stmts:
                defined = assigned_after(s, defined)
            return defined
        if isinstance(cmd, If):
            use(cmd.cond, defined, cmd.loc)
            d1 = assigned_after(cmd.then, set(defined))
            return d1 & assigned_after(cmd.orelse, defined)
        if isinstance(cmd, While):
            use(cmd.cond, defined, cmd.loc)
            assigned_after(cmd.body, set(defined))  # body may run zero times
            return defined
        raise TypeError(f"not a command: {cmd!r}")

    final = assigned_after(program.body, set(program.inputs))
    for out in program.outputs:
        if out not in final:
            diags.append(Diagnostic(OUTPUT_NEVER_ASSIGNED, out))
    return diags

