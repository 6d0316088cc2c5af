"""Static checks on the package source, with the standard library's ``ast``.

Every module-level import in ``src/marginlab`` is used, and every defaulted
parameter of a public name is set by some call in ``src/`` or ``perfbench/``,
so a keyword that no caller passes does not linger as an untested knob.
Every error the package raises is caught by one of ``cli.main``'s handlers.
"""

import ast
import inspect
from pathlib import Path

import marginlab
from marginlab import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "marginlab"

#: Defaulted public parameters kept although no call in src/ or perfbench/
#: sets them; an entry leaves the list once some caller sets it.
KEPT_DEFAULTS = {
    # The dented m-OGP covariance: pairwise correlations up to eta below beta.
    ("CovarianceSpec", "perturbation"),
    ("CovarianceSpec", "eta_bound"),
    # The same window and cap flags as ``exhaustive_solve``, which the CLI sets.
    ("enumerate_solutions", "symmetric"),
    ("enumerate_solutions", "n_cap"),
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
