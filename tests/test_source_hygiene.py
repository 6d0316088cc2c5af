"""Static checks on the package source, with the standard library's ``ast``.

Every module-level import in ``src/marginlab`` is used, and every defaulted
parameter of a public name is set by some call in ``src/`` or ``perfbench/``,
so a keyword that no caller passes does not linger as an untested knob.
Every error the package raises is caught by one of ``cli.main``'s handlers.
Only ``disorder`` builds a random generator, so every sampled entry comes
from its one counter-based kernel, and only ``disorder`` builds a thread
pool, inside a call: importing the package starts no thread.  Every
``name`` quoted in a domain module's docstring names something that exists.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import marginlab
from marginlab import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marginlab"

#: Defaulted public parameters kept although no call in src/ or perfbench/
#: sets them; an entry leaves the list once some caller sets it.
KEPT_DEFAULTS = {
    # The same window flag as ``exhaustive_solve``, which the CLI sets.
    ("enumerate_solutions", "symmetric"),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        used = _used_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for name in _bound_names(node)
                           if name not in used]
    assert not unused


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls() -> list[tuple[str | None, int, set[str], bool]]:
    """(callee name, positional count, keyword names, has a splat) per call.

    ``functools.partial(f, ...)`` counts as a call of ``f``.
    """
    calls = []
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            keywords = {k.arg for k in node.keywords}
            splat = None in keywords or any(isinstance(a, ast.Starred) for a in args)
            calls.append((name, len(args), keywords, splat))
    return calls


def test_every_public_default_is_set_by_a_caller():
    calls = _calls()
    unset = set()
    for name in marginlab.__all__:
        obj = getattr(marginlab, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for i, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(callee == name and (positional > i or param.name in keywords or splat)
                       for callee, positional, keywords, splat in calls):
                unset.add((name, param.name))
    assert unset == KEPT_DEFAULTS


def test_no_bare_marginlab_error_is_raised():
    # cli.main maps UsageError, CapExceededError and DomainError to exit
    # codes and has no handler for the base class.
    bare = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _callee(exc) == "MarginlabError":
                bare.append(f"{path.name}:{node.lineno}")
    assert not bare


def test_every_error_class_has_a_cli_handler():
    handled = (errors.UsageError, errors.CapExceededError, errors.DomainError)
    unhandled = [name for name, cls in vars(errors).items()
                 if isinstance(cls, type) and issubclass(cls, errors.MarginlabError)
                 and cls is not errors.MarginlabError and not issubclass(cls, handled)]
    assert not unhandled


def test_only_disorder_builds_a_random_generator():
    builders = {"Philox", "Generator", "default_rng"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "disorder.py"
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and _callee(node.func) in builders]
    assert not found


THREAD_BUILDERS = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool", "Thread"}


def _import_time_nodes(node: ast.AST):
    """The nodes that run when the module is imported: not the bodies of functions."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        children = [*getattr(node, "decorator_list", []), *args.defaults,
                    *(d for d in args.kw_defaults if d is not None)]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _import_time_nodes(child)


def _pool_calls(nodes) -> list[ast.Call]:
    return [node for node in nodes
            if isinstance(node, ast.Call) and _callee(node.func) in THREAD_BUILDERS]


def test_only_disorder_builds_a_thread_pool_and_never_on_import():
    outside, on_import = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        if path.name != "disorder.py":
            outside += [f"{path.name}:{c.lineno}" for c in _pool_calls(ast.walk(tree))]
        on_import += [f"{path.name}:{c.lineno}" for c in _pool_calls(_import_time_nodes(tree))]
    assert not outside and not on_import
    assert _pool_calls(ast.walk(_parse(PACKAGE / "disorder.py")))  # the check sees the pool


def test_import_time_walk_sees_module_level_and_default_pools():
    tree = ast.parse("pool = ThreadPoolExecutor(2)\n"
                     "def f(p=Pool()):\n    return ThreadPoolExecutor(1)\n"
                     "class C:\n    pool = ProcessPoolExecutor()\n")
    assert [c.lineno for c in _pool_calls(_import_time_nodes(tree))] == [1, 2, 5]


DOCUMENTED_MODULES = ("disorder", "mvn", "landscape", "thresholds", "solvers", "experiments")


def _resolves(module, name: str) -> bool:
    """``name`` is an attribute of ``module`` or of ``marginlab``, or a dotted ``module.attr``."""
    for root in (module, marginlab):
        obj = root
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_every_name_quoted_in_a_module_docstring_resolves():
    quoted, unresolved = 0, []
    for modname in DOCUMENTED_MODULES:
        module = importlib.import_module(f"marginlab.{modname}")
        for name in set(re.findall(r"``([A-Za-z_][\w.]*)``", module.__doc__)):
            quoted += 1
            if not _resolves(module, name):
                unresolved.append(f"{modname}: {name}")
    assert quoted and not unresolved
