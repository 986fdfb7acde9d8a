"""Census of settable values in the library: every value a caller can set
without the library asking for it.

Counted by AST over ``src/artifact/*.py``: each defaulted parameter of a
function or lambda (positional or keyword-only), and each field of a
dataclass that has a default and is not ``field(init=False)``.  The bound
keeps the library from growing new knobs; lower it when an option goes.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "artifact"
BOUND = 68


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _settable(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and not _init_false(stmt.value) for stmt in node.body)
    return count


def test_census_counts_a_defaulted_parameter_and_field():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x, y=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    u: int\n"
        "    v: int = 1\n"
        "    w: list = field(default_factory=list)\n"
        "    z: int = field(init=False)\n"
        "class D:\n"
        "    k: int = 3\n"
    )
    assert _settable(tree) == 5


def test_library_adds_no_settable_value():
    counts = {path.name: _settable(ast.parse(path.read_text()))
              for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= BOUND, counts
