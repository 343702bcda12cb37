"""Property checks in the package must survive `python -O`, and every
failure it raises is a `QfoldError` the CLI can map to an exit code."""

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
