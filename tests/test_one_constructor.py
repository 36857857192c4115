"""Every symbolic value is built through one door: in the runtime, only
`exactnum._node` calls `SymExpr`, and only `exactnum._affine` and
`exactnum.oracle_const` call `Affine`.  Interning lives behind that door
too: `_node` alone reads and writes `exactnum._NODES`, the table of live
nodes, so it builds each value once, and `SymExpr`'s identity `==` and
`hash` are structural ones."""

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


def named_uses(tree, name, owner=None):
    """The innermost enclosing function of each plain or dotted use of
    `name` in a syntax tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id == name or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            yield owner
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from named_uses(node, name, inner)


def modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_symbolic_values_have_one_constructor():
    calls = {
        (name, owner, callee)
        for name, tree in modules()
        for owner, callee in named_calls(tree)
        if callee in CONSTRUCTORS
    }
    assert calls == {
        ("exactnum.py", "_node", "SymExpr"),
        ("exactnum.py", "_affine", "Affine"),
        ("exactnum.py", "oracle_const", "Affine"),
    }


def test_the_node_table_is_used_only_by_the_one_constructor():
    uses = [(name, owner) for name, tree in modules() for owner in named_uses(tree, "_NODES")]
    # its one definition at module level, then every read and write in `_node`
    assert set(uses) == {("exactnum.py", None), ("exactnum.py", "_node")}
    assert uses.count(("exactnum.py", None)) == 1


def test_symexpr_equality_and_hash_are_identity():
    tree = dict(modules())["exactnum.py"]
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SymExpr"]
    methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    assert not methods & {"__eq__", "__ne__", "__hash__"}
    # a dataclass writes a field-wise __eq__ (and then __hash__) unless told not to
    (decorator,) = cls.decorator_list
    keywords = {k.arg: k.value.value for k in decorator.keywords}
    assert keywords.get("eq") is False
