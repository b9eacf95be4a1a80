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

``np.unique`` called with no ``return_*`` flag imports ``numpy.ma`` on its
first call (10-14 ms in a cold interpreter), so every call in ``src/``
passes one.

Both line kernels, ``d1`` and the dual series, lay their chunks of pairs
out through one helper, ``metrics._line_layout``; a second layout must not
come back beside it.  The dual series' line kernel reads three frames per
pair of a chunk (all its points, and the points that reach its flat or its
tight levels); a frame per flat level must not come back.

Off the line, a 2-D or 3-D pair takes the plane kernel ``metrics._plane_d1``
only when its support table would pass one block of ``spaces._BLOCK_ELEMS``
entries, and the table sweep in both directions otherwise; the per-direction
ring search the plane kernel replaced must not come back beside it.

Every public function of ``tests/oracles.py`` is imported by a test module,
so a reference route that no test reads any more goes with its last test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import maxplus_ifs as mp
from conftest import cantor_ifs

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


def test_every_unique_call_asks_for_an_index_inverse_or_count():
    flags = {"return_index", "return_inverse", "return_counts"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = node.func if isinstance(node, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "unique":
                calls.append((path.name, node.lineno, {k.arg for k in node.keywords} & flags))
    assert len(calls) > 1
    assert [call for call in calls if not call[2]] == []


def test_both_line_kernels_read_one_layout(monkeypatch):
    # at a budget of 40 000 entries d1 takes chunks of 3 pairs, and at 5 000
    # the series chunks of 4; at 1 both take one pair per chunk
    line = mp.build_grid([0.0], [1.0], [600])
    measures = mp.random_measures(line, mp.Lcg64(5), 24, support_prob=0.4)
    pairs = list(zip(measures[::2], measures[1::2]))
    params = mp.SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6)

    def run():
        d1 = mp.coupling_distances(pairs)
        return d1, [s.value for s in mp.series_distances(pairs, params)]

    want = run()
    layout, calls = mp.metrics._line_layout, []
    monkeypatch.setattr(
        mp.metrics, "_line_layout", lambda *a: calls.append(a[2]) or layout(*a)
    )
    assert run() == want
    assert calls == [line.n_points.bit_length(), 1]  # d1, then the series
    for budget in (1, 5_000, 40_000, 1 << 22):
        monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
        assert run() == want
    assert np.all(np.array(want) > 0.0)


def test_line_dual_kernel_builds_three_frames_per_pair(monkeypatch):
    # the verify batch of seed 0 on the 730-point Cantor grid, in chunks of
    # about 9 pairs: every chunk has 3 k frames, and its rows read all kinds
    ifs = cantor_ifs(6)
    measures = mp.random_measures(ifs.space, mp.Lcg64(0), 80, 0.7, 3.0, ifs.exactly_mapped_points())
    images = mp.markov_many(ifs, measures)
    pairs = list(zip(measures[::2], measures[1::2])) + list(zip(images[::2], images[1::2]))
    frames, seen = mp.metrics._line_frames, []

    def kept(both, x, starts, *args):
        out = frames(both, x, starts, *args)
        seen.append((starts.size, out[2].size, out[3]))
        return out

    monkeypatch.setattr(mp.metrics, "_line_frames", kept)
    monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", 1 << 14)
    mp.series_distances(pairs, mp.SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6))
    assert len(seen) > 4
    kinds = set()
    for k, length, frame in seen:
        assert length == 3 * k
        kinds |= set(np.where(frame < 0, -1, frame // k).ravel().tolist())
    assert kinds == {-1, 0, 1, 2}  # steep, middle, flat and tight rows


def test_plane_pairs_take_the_plane_kernel_by_support_size(monkeypatch):
    # the plane kernel has a fixed cost of a grid per pair, so a pair whose
    # support table fits one block of spaces._BLOCK_ELEMS entries takes the table
    # sweep in both directions instead; the ring search has no second route
    plane = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    rng = np.random.default_rng(71)
    big = [
        mp.normalize(plane, np.where(rng.random(plane.n_points) < 0.7, -rng.integers(0, 8, plane.n_points), -np.inf))
        for _ in "ab"
    ]
    small = [mp.normalize(plane, np.where(np.arange(plane.n_points) % 40 == k, 0.0, -np.inf)) for k in (0, 1)]
    assert big[0].support().size * big[1].support().size > mp.spaces._BLOCK_ELEMS
    assert small[0].support().size * small[1].support().size <= mp.spaces._BLOCK_ELEMS
    calls = []
    for name in ("_plane_d1", "_directed_d1"):
        kernel = getattr(mp.metrics, name)
        monkeypatch.setattr(
            mp.metrics, name, lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a)
        )
    for pair, want in ((big, ["_plane_d1"]), (small, ["_directed_d1"] * 2)):
        calls.clear()
        assert mp.coupling_distance(*pair) > 0.0
        assert calls == want
    assert not hasattr(mp.metrics, "_ring_d1")


def test_every_oracle_is_imported_by_a_test_module():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert len(public) > 5
    imported = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                imported |= {alias.name for alias in node.names}
    assert public - imported == set()
