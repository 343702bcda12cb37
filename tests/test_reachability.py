"""Everything `src/qfold` defines is reached from what runs it.

The roots are the subcommands (`cli.COMMANDS` and `cli.main`), the release
properties (`properties.PROPERTIES`), the benchmark tracer's `TARGETS` and
the qfold names that the benchmark's own files (`perfbench/*.py`, not its
tests) import.  The walk reads each module's `ast`: a reached definition
reaches every module-level name it mentions, through `from .x import`
aliases, annotations included, and each name `y` that a `from .x import y`
inside it imports (a subcommand imports what only it runs).  Imports in a
top-level `if` block (`if TYPE_CHECKING:`) count as module-level.  A method
is reached when its class is and its name is read as an attribute anywhere
reached, or it is a dunder, or it overrides a method of a class from
outside qfold (argparse calls `_Parser.error`).  A definition only tests
reach belongs in the tests, and an import its module, or the function that
makes it, never reads belongs nowhere.  A second walk, without the tracer's
targets, finds what only the benchmark reaches: at most `module_lab.act`.

Likewise a defaulted parameter is an option: some call in `src/qfold` or in
the benchmark's own files sets it, by keyword, by position or through `*`
or `**`, or it belongs in the tests.  Calls are matched by the name they
use (a class's name for its `__init__`), so a parameter of one function
counts as set when a call reaches a function of the same name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qfold"
PERFBENCH = ROOT / "perfbench"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _qfold_module(node: ast.ImportFrom):
    """The qfold module a `from .x import` or `from qfold.x import` reads,
    or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("qfold."):
        return node.module.split(".", 1)[1]
    return None


def _imports(stmt: ast.AST) -> list[tuple[str, object]]:
    """The names an import statement binds, each with the (qfold module,
    name) it reads, or None when it reads from outside qfold."""
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        source = _qfold_module(stmt)
        return [(alias.asname or alias.name, source and (source, alias.name))
                for alias in stmt.names]
    if isinstance(stmt, ast.Import):
        return [(alias.asname or alias.name.split(".")[0], None) for alias in stmt.names]
    return []


def _mentions(nodes) -> tuple[set[str], set[str]]:
    """The names and the attribute names read anywhere in the nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return names, attrs


class Module:
    """One module's top level: what it defines and what it imports."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.defs: dict[str, ast.AST] = {}             # name -> its statement
        self.aliases: dict[str, tuple[str, str]] = {}  # name -> (qfold module, name)
        self.imports: set[str] = set()                 # every name an import binds
        guarded = [inner for stmt in tree.body if isinstance(stmt, ast.If) for inner in stmt.body]
        for stmt in [*tree.body, *guarded]:
            if isinstance(stmt, DEFS):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                self.defs.update((t.id, stmt) for t in targets if isinstance(t, ast.Name))
            for local, source in _imports(stmt):
                self.imports.add(local)
                if source:
                    self.aliases[local] = source


def load_modules() -> dict[str, Module]:
    return {path.stem: Module(ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py"))}


def resolve(modules: dict[str, Module], module: str, name: str):
    """The (module, name) that defines `name` as seen from `module`, through
    import aliases, or None when qfold does not define it."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        mod = modules.get(module)
        if mod is None:
            return None
        if name in mod.defs:
            return module, name
        if name not in mod.aliases:
            return None
        module, name = mod.aliases[name]
    return None


def _methods(cls: ast.ClassDef) -> dict[str, ast.AST]:
    return {stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _class_node_parts(cls: ast.ClassDef) -> list[ast.AST]:
    """A class without its method bodies: bases, decorators, class body."""
    return [*cls.bases, *cls.keywords, *cls.decorator_list,
            *(stmt for stmt in cls.body
              if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))]


def _foreign_overrides(module: str, cls_name: str) -> set[str]:
    """Method names the class inherits from a class outside qfold."""
    cls = getattr(importlib.import_module(f"qfold.{module}"), cls_name)
    return {attr for base in cls.__mro__[1:]
            if not base.__module__.startswith("qfold")
            for attr in vars(base)}


def tracer_targets() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def roots(modules: dict[str, Module], tracer: bool) -> list[tuple[str, str]]:
    """Definitions as (module, qualified name): the subcommands, the
    properties, the tracer's targets (when `tracer`) and what perfbench
    imports."""
    out = [("cli", "main"), ("cli", "COMMANDS"), ("properties", "PROPERTIES")]
    for module, attr, _metric, _kind in tracer_targets() if tracer else ():
        head, _, method = attr.partition(".")
        found = resolve(modules, module, head)
        assert found is not None, f"tracer target qfold.{module}.{attr} is not defined"
        out.append(found)
        if method:
            out.append((found[0], f"{found[1]}.{method}"))
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and _qfold_module(node):
                for alias in node.names:
                    found = resolve(modules, _qfold_module(node), alias.name)
                    assert found is not None, f"{path.name} imports an undefined {alias.name}"
                    out.append(found)
    return out


def reached_definitions(modules: dict[str, Module], tracer: bool = True
                        ) -> set[tuple[str, str]]:
    reached: set[tuple[str, str]] = set()
    attrs: set[str] = set()
    queue = roots(modules, tracer)
    while queue:
        while queue:
            key = queue.pop()
            if key in reached:
                continue
            reached.add(key)
            module, qualname = key
            mod = modules[module]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                parts = [_methods(mod.defs[cls_name])[method]]
                queue.append((module, cls_name))
            elif isinstance(mod.defs[qualname], ast.ClassDef):
                parts = _class_node_parts(mod.defs[qualname])
            else:
                parts = [mod.defs[qualname]]
            names, read = _mentions(parts)
            attrs |= read
            queue += filter(None, (resolve(modules, module, name) for name in names))
            queue += filter(None, (resolve(modules, *source) for part in parts
                                   for stmt in ast.walk(part)
                                   for _local, source in _imports(stmt) if source))
        # methods of reached classes whose names are read, or that are implicit
        for module, qualname in list(reached):
            node = modules[module].defs.get(qualname)
            if not isinstance(node, ast.ClassDef):
                continue
            foreign = None
            for method in _methods(node):
                key = (module, f"{qualname}.{method}")
                if key in reached:
                    continue
                if method in attrs or (method.startswith("__") and method.endswith("__")):
                    queue.append(key)
                    continue
                if foreign is None:
                    foreign = _foreign_overrides(module, qualname)
                if method in foreign:
                    queue.append(key)
    return reached


def test_every_definition_is_reached():
    modules = load_modules()
    reached = reached_definitions(modules)
    unreached = []
    for name, mod in modules.items():
        for def_name, node in mod.defs.items():
            if not isinstance(node, DEFS):
                continue
            if (name, def_name) not in reached:
                unreached.append(f"{name}.{def_name}")
            elif isinstance(node, ast.ClassDef):
                unreached += [f"{name}.{def_name}.{method}" for method in _methods(node)
                              if (name, f"{def_name}.{method}") not in reached]
    assert not unreached, f"defined in src/qfold but reached only from tests: {unreached}"


def test_what_only_the_tracer_reaches_is_at_most_act():
    """Without the tracer's targets as roots, the walk misses at most
    `module_lab.act`: a definition that only the benchmark times has no
    caller in the program, and a new one fails here."""
    modules = load_modules()
    only_traced = reached_definitions(modules) - reached_definitions(modules, tracer=False)
    assert only_traced <= {("module_lab", "act")}, sorted(only_traced)


def test_every_import_is_read():
    unused = []
    for name, mod in load_modules().items():
        body = [stmt for stmt in mod.tree.body
                if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
        names, _attrs = _mentions(body)
        unused += [f"{name}: {local}" for local in sorted(mod.imports - names)]
        for fn in ast.walk(mod.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = {bound for stmt in ast.walk(fn) for bound, _source in _imports(stmt)}
                names, _attrs = _mentions([fn])
                unused += [f"{name}.{fn.name}: {bound}" for bound in sorted(local - names)]
    assert not unused, f"imported but never read: {unused}"


def _defaulted(fn: ast.FunctionDef, skip: int) -> dict[str, object]:
    """The parameters of fn that have a default, each with its index among
    the positional parameters after the first `skip`, or None when it is
    keyword-only."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    out: dict[str, object] = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None)
    return out


def defaulted_parameters() -> dict[str, list[tuple[str, dict[str, object]]]]:
    """By the name a call uses: each src/qfold function of that name, as
    module.qualname, with its defaulted parameters.  A method's first
    parameter is its receiver unless it is a staticmethod."""
    out: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update((id(fn), cls.name) for fn in _methods(cls).values())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = methods.get(id(fn))
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            params = _defaulted(fn, 1 if owner and not static else 0)
            if params:
                called_as = owner if fn.name == "__init__" else fn.name
                qualname = f"{owner}.{fn.name}" if owner else fn.name
                out.setdefault(called_as, []).append((f"{path.stem}.{qualname}", params))
    return out


def test_every_default_is_set_by_a_call():
    functions = defaulted_parameters()
    paths = sorted(SRC.glob("*.py")) + [path for path in sorted(PERFBENCH.glob("*.py"))
                                        if not path.name.startswith("test_")]
    set_by_a_call = set()
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords = {k.arg for k in call.keywords}
            unpacked = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for qualname, params in functions.get(name, ()):
                set_by_a_call.update(
                    (qualname, param) for param, index in params.items()
                    if unpacked or param in keywords
                    or (index is not None and index < len(call.args)))
    unset = [f"{qualname}.{param}" for lists in functions.values()
             for qualname, params in lists for param in params
             if (qualname, param) not in set_by_a_call]
    assert not unset, f"defaulted parameters that no call in src/qfold or perfbench sets: {unset}"
