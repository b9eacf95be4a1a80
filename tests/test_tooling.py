"""Checks on the source tree itself.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name.  A class
method that is gone is skipped, but a module-level function that is gone
makes ``Tracer.install`` raise, so every traced run would fail.  Every
name in ``maxplus_ifs.__all__`` is listed once and resolves, also after a
name moves between modules.

scipy is imported inside the one function that needs it, so start-up,
1-D runs, 2-D reads and ring-search ``d1`` never pay for it; a
module-level import must not come back, and a lazy one may sit only in
``spaces._euclidean_table``, for ``cdist``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "maxplus_ifs"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracing().TARGETS
    assert targets
    for span, mod_name, attr, _ in targets:
        module = importlib.import_module(f"maxplus_ifs.{mod_name}")
        owner = attr.split(".")[0]  # the class of a "Class.method" entry
        assert callable(getattr(module, owner, None)), span


def test_public_names_resolve():
    import maxplus_ifs

    names = maxplus_ifs.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(maxplus_ifs, name), name


def _import_time_imports(node):
    """Imported module names of the statements run when a module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a function body runs when called
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from _import_time_imports(child)


def _scipy_sites(node, function=None):
    """(enclosing function, imported module) of each scipy import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        yield from ((function, name) for name in names if name.split(".")[0] == "scipy")
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _scipy_sites(child, child.name if inner else function)


def test_no_module_imports_scipy_at_import_time():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    sites = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = [name.split(".")[0] for name in _import_time_imports(tree)]
        assert "scipy" not in names, path.name
        sites |= {(path.stem, function) for function, _ in _scipy_sites(tree)}
    # the one lazy import: cdist for the distance table, none on the read or ring path
    assert sites == {("spaces", "_euclidean_table")}
    # the walk does see an import nested in a class body or an if
    nested = ast.parse("if True:\n    class A:\n        from scipy import linalg\n")
    assert list(_import_time_imports(nested)) == ["scipy"]
    lazy = ast.parse("def f():\n    import scipy\n")
    assert list(_import_time_imports(lazy)) == []
    method = ast.parse("class A:\n    def f(self):\n        if x:\n            import scipy.linalg\n")
    assert list(_scipy_sites(method)) == [("f", "scipy.linalg")]
