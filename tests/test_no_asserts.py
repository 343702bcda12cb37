"""Property checks in the package must survive `python -O`, every
failure it raises is a `QfoldError` the CLI can map to an exit code, and
no module reads the process environment, so that output depends on the
inputs and the seed alone."""

import ast
import builtins
from pathlib import Path

import qfold

PACKAGE = Path(qfold.__file__).parent

# Exception's built-in subclasses; SystemExit, which ends the CLI on a usage
# error, is no error of the program
BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, Exception)}
# (file, enclosing definition, exception) of the built-in exceptions the
# package may raise, as Python's own protocols expect: a record refuses
# assignment with AttributeError, and division by zero is ZeroDivisionError
ALLOWED = {
    ("linalg.py", "Mat.__setattr__", "AttributeError"),
    ("quiver_core.py", "Record.__setattr__", "AttributeError"),
    ("quiver_core.py", "Record.__delattr__", "AttributeError"),
    ("numberfield.py", "poly_divmod", "ZeroDivisionError"),
}


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def builtin_raises(node, scope=()):
    """(enclosing definition, exception name) for each `raise` under node
    that names a built-in exception class, called or not."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from builtin_raises(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                yield ".".join(scope), exc.id
        yield from builtin_raises(child, scope)


def test_package_raises_no_builtin_exception():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {(path.name, *raised) for raised in builtin_raises(tree)}
    assert sorted(found - ALLOWED) == []
    # the walk sees the raises it allows, so the empty list above is no accident
    assert ALLOWED <= found


# the parts of `os` that read the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    used, imported = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                used.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                imported |= {(path.name, alias.name) for alias in node.names}
    assert sorted((name, attr) for name, attr in used | imported if attr in ENVIRONMENT) == []
    # the walk sees the calls the CLI makes to point stdout at devnull
    assert {("cli.py", "dup2"), ("cli.py", "open")} <= used
