"""The package holds only what its commands run: every module-level
function and every method of `src/quiverhh` other than a dunder is named
in the code of `src/` or of `perfbench/`.  Code that only the tests use
belongs in `tests/` (see `conftest.py`)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "quiverhh").glob("*.py"))
# the tracer wraps package attributes named by strings
TRACER = ROOT / "perfbench" / "tracing.py"


def _defined(tree):
    """(qualified name, name) of each module-level function and each
    non-dunder method of a class at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name


def _named(tree, strings=False):
    """The names the code of `tree` reads or binds (a def's own name and
    docstrings do not count), plus with `strings` the string arguments
    of its calls."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Call):
            out.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return out


def test_every_package_def_is_named_by_the_package_or_perfbench():
    # Names are matched, not bindings: a def that shares its name with
    # another name in the code (say a method `image` and a local variable
    # `image`) passes unchecked.
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE}
    named = set()
    for tree in trees.values():
        named |= _named(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        named |= _named(ast.parse(path.read_text()), strings=path == TRACER)
    unnamed = [
        f"{path.name}: {qualified}"
        for path, tree in trees.items()
        for qualified, name in _defined(tree)
        if name not in named
    ]
    assert unnamed == [], "only the tests use these; move them into tests/"


def test_package_holds_no_assert():
    # python -O drops assert statements, so a guard raises instead
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_uniform_imports_no_other_package_module():
    # the label scheme is the leaf every other module reads
    tree = ast.parse((ROOT / "src" / "quiverhh" / "uniform.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "quiverhh"))} == set()


def test_package_root_exports_only_what_callers_import():
    # every module is imported by its own name, so a name the package root
    # exports and no file imports from it is a second route to that name
    import quiverhh

    package = ROOT / "src" / "quiverhh"
    imported = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                absolute = node.level == 0 and node.module == "quiverhh"
                relative = node.level == 1 and node.module is None and path.parent == package
                if absolute or relative:
                    imported.update(alias.name for alias in node.names)
    assert sorted(set(quiverhh.__all__) - imported) == []
