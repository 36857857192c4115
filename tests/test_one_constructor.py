"""Every symbolic value is built through one door: in the runtime, only
`exactnum._node` calls `SymExpr`, and only `exactnum._affine` and
`exactnum.oracle_const` call `Affine`.  A rule for every node, such as
interning, then has one place to go."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "whiledt"
CONSTRUCTORS = ("SymExpr", "Affine")


def named_calls(tree, owner=None):
    """(innermost enclosing function, callee name) of each call to a plain
    or dotted name in a syntax tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield owner, func.id
            elif isinstance(func, ast.Attribute):
                yield owner, func.attr
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from named_calls(node, inner)


def test_symbolic_values_have_one_constructor():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    calls = {
        (path.name, owner, name)
        for path in modules
        for owner, name in named_calls(ast.parse(path.read_text(encoding="utf-8")))
        if name in CONSTRUCTORS
    }
    assert calls == {
        ("exactnum.py", "_node", "SymExpr"),
        ("exactnum.py", "_affine", "Affine"),
        ("exactnum.py", "oracle_const", "Affine"),
    }
