"""Dead-code guard for src/lgmirror, by static reading with the stdlib ast.

Two kinds of dead code fail here: an import that its module never names
again, and a function or method that no .py file under src/, tests/ or
bench/ names, as an identifier or inside a string (bench/tracer.SPANS names
the functions it wraps in strings such as "Fan.validate").  Docstrings do
not count as a use, and neither does a function naming itself.  Dunder
methods are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lgmirror"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree):
    """The Constant nodes that are docstrings of the module, a class or a
    function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant) and \
                    isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


def _names(tree):
    """Every identifier the tree uses, one entry per use: names, attribute
    names, imported names and the words of non-docstring strings."""
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            out.append(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            out.extend(WORD.findall(node.value))
    return out


def _bound_by_import(alias):
    return (alias.asname or alias.name).split(".")[0]


def test_no_unused_imports_in_the_package():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = _bound_by_import(alias)
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_package_function_has_a_caller():
    uses = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in _names(_parse(path)):
                uses[name] = uses.get(name, 0) + 1
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for n in _names(node) if n == name)
            if uses.get(name, 0) - own <= 0:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, "functions without a caller:\n" + "\n".join(dead)
