"""Dead-code guard for src/lgmirror, by static reading with the stdlib ast.

Two kinds of dead code fail here: an import that its module never names
again, and a function or method that no command can run.

The commands are the names in cli.py.  The walk starts from every name that
cli.py reads and every name that the module-level code of a package module
reads: class bodies, decorators, default arguments and constants such as
the page-spec lambdas, but not imports.  A name reaches every function or
method defined with that name, in any module, and the walk follows the
names their bodies read.  Strings and docstrings name nothing, and neither
do tests/ or bench/.  Dunder methods are exempt, since Python calls them.

The functions no command reaches must be exactly AWAITING, each mapped to
the ROADMAP item that will wire it into a command or free it.  A listed
name that a command reaches fails too, so the list only shrinks.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lgmirror"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

AWAITING = {
    "lg.check_degree_consistency": "item 8: lg compactify",
    "spectral.check_cubical_mirror": "item 8: ss cubical",
    "spectral.CubicalData.validate_composition": "item 8: ss cubical",
    "spectral.cubical_from_doc": "item 8: ss cubical",
    "strata.monodromy_relation_check": "item 8: euler monodromy",
    "strata.monodromy_from_doc": "item 8: euler monodromy",
    "strata.anticanonical_curve_euler": "item 5: polytope euler",
    "linalg.nullspace": "item 10: bench/tracer.SPANS wraps it",
    "lattice.recession_rays": "item 10: bench/tracer.SPANS wraps it",
    "lattice.polytope_from_inequalities": "item 10: bench/tracer.SPANS wraps it",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(node):
    """The names and attribute names that node reads."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _module_level(tree):
    """The nodes a module runs on import, without imports and function
    bodies: a def runs its decorators and defaults, a class its body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            yield from node.decorator_list
            yield node.args
        elif isinstance(node, ast.ClassDef):
            yield from node.decorator_list
            yield from node.bases
            stack.extend(node.body)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def _definitions(body, prefix):
    """(name, qualified name, node) of every function and method, nested
    ones included."""
    for node in body:
        if isinstance(node, FUNCTIONS):
            yield node.name, prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def unreachable(package):
    """Qualified names (module.name) of the functions and methods in the
    package directory that no name read by cli.py or by module-level code
    reaches."""
    trees = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    by_name = {}
    for mod, tree in trees.items():
        for name, qual, node in _definitions(tree.body, f"{mod}."):
            if not (name.startswith("__") and name.endswith("__")):
                by_name.setdefault(name, []).append((qual, node))
    todo = list(_reads(trees["cli"]))
    for tree in trees.values():
        for node in _module_level(tree):
            todo.extend(_reads(node))
    seen, reached = set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for qual, node in by_name.get(name, ()):
            reached.add(qual)
            todo.extend(_reads(node))
    return {qual for defs in by_name.values() for qual, _ in defs} - reached


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


def test_every_package_function_serves_a_command():
    dead = unreachable(PACKAGE)
    orphans, wired = sorted(dead - set(AWAITING)), sorted(set(AWAITING) - dead)
    assert not orphans, "functions no command reaches:\n" + "\n".join(orphans)
    assert not wired, "reached now, drop from AWAITING:\n" + "\n".join(wired)


def test_the_walk_reports_an_orphan_named_only_in_strings_and_tests(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "cli.py").write_text(
        "from . import core\n\n"
        "def main():\n"
        "    # the orphan only by name in a string\n"
        "    return core.run(), 'orphan'\n\n\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    (package / "core.py").write_text(
        "TABLE = {'k': lambda: _helper()}\n\n\n"
        "def run():\n"
        "    '''Calls step, not orphan.'''\n"
        "    return Box().step()\n\n\n"
        "def _helper():\n"
        "    return 1\n\n\n"
        "def orphan():\n"
        "    return run()\n\n\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n\n"
        "    def step(self):\n"
        "        return 2\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_core.py").write_text(
        "from pkg.core import orphan\n\n\n"
        "def test_orphan():\n"
        "    assert orphan() == 2\n")
    assert unreachable(package) == {"core.orphan"}
