"""One case per refusal branch that no other test reaches.

Each library case asserts the error type and its message.  Each case
that the CLI reaches (a config, a metric spec, a density file given to
`metric --config` or to `render`) asserts exit 2, the message on stderr
after `error: `, an empty stdout and no traceback.
"""

import numpy as np
import pytest

import maxplus_ifs as mp
from maxplus_ifs.cli import main

GRID_CFG = """[space]
kind = grid
lower = 0
upper = 1
cells = 3

[ifs]
map = affine 0.5 0
weights = 0

[initial]
kind = uniform

[run]
out = refused.density
"""

MATRIX_CFG = """[space]
kind = matrix
size = 2
row = 0 1
row = 1 0

[ifs]
map = table 0 0
weights = 0

[initial]
kind = uniform

[run]
out = refused.density
"""

# (case, message, base config, text replaced, replacement)
CONFIG_CASES = [
    ("empty section name", ":1: empty section name", GRID_CFG, "[space]", "[]\n[space]"),
    ("key outside a section", ":1: key outside any [section]",
     GRID_CFG, "[space]", "cells = 3\n[space]"),
    ("no space kind", "missing [space] kind", GRID_CFG, "kind = grid\n", ""),
    ("grid without cells", "grid space needs lower, upper and cells", GRID_CFG, "cells = 3\n", ""),
    ("matrix row length", "[space] row = '0 1 1': expected 2 distances per row",
     MATRIX_CFG, "row = 0 1\n", "row = 0 1 1\n"),
    ("matrix row count", "matrix space needs size = n and n row lines",
     MATRIX_CFG, "row = 1 0\n", ""),
    ("matrix size", "matrix space needs size = n and n row lines",
     MATRIX_CFG, "size = 2\nrow = 0 1\nrow = 1 0\n", "size = 0\n"),
    ("coord line count", "need one coord line per point",
     MATRIX_CFG, "row = 1 0\n", "row = 1 0\ncoord = 0\n"),
    ("affine map on a matrix space", "affine maps need a coordinate space",
     MATRIX_CFG, "map = table 0 0", "map = affine 0.5 0"),
    ("affine entry count", "affine map needs 1 matrix entries then 1 offset entries",
     GRID_CFG, "map = affine 0.5 0", "map = affine 0.5"),
    ("no map", "[ifs] needs at least one map", GRID_CFG, "map = affine 0.5 0\n", ""),
    ("witness count", "need one witness line per map (or none at all)",
     GRID_CFG, "weights", "witness = none\nwitness = none\nweights"),
    ("no weights", "[ifs] needs weights", GRID_CFG, "weights = 0\n", ""),
    ("file start without a path", "[initial] kind=file needs a path",
     GRID_CFG, "kind = uniform", "kind = file"),
]


def _refused(argv, capsys, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert message in captured.err


@pytest.mark.parametrize(
    "case, message, base, old, new", CONFIG_CASES, ids=[c[0] for c in CONFIG_CASES]
)
def test_config_refusals_exit_2(tmp_path, capsys, case, message, base, old, new):
    assert old in base
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(base.replace(old, new, 1))
    _refused(["solve", str(cfg)], capsys, message)
    assert not (tmp_path / "refused.density").exists()


def test_density_file_of_another_size_than_the_config_exits_2(tmp_path, capsys):
    cfg, density = tmp_path / "grid.cfg", tmp_path / "three.density"
    cfg.write_text(GRID_CFG)
    mp.write_density_file(density, mp.uniform(mp.build_grid([0.0], [1.0], [2])))
    argv = ["metric", "--config", str(cfg), str(density), str(density), "d1"]
    _refused(argv, capsys, f"{density}: file has 3 points, space has 4")


def test_metric_option_without_a_value_exits_2(tmp_path, capsys):
    density = tmp_path / "d.density"
    mp.write_density_file(density, mp.uniform(mp.build_grid([0.0], [1.0], [2])))
    argv = ["metric", str(density), str(density), "da:a"]
    _refused(argv, capsys, "bad metric option 'a' in 'da:a'")


def test_render_of_a_non_rectangular_set_exits_2(tmp_path, capsys):
    density = tmp_path / "corner.density"
    corner = mp.FiniteMetricSpace.from_coords([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mp.write_density_file(density, mp.uniform(corner))
    argv = ["render", str(density), str(tmp_path / "corner.pgm"), "--floor=-1"]
    _refused(argv, capsys, "points do not form a full rectangular grid")
    assert not (tmp_path / "corner.pgm").exists()


def _library_cases():
    line = mp.build_grid([0.0], [1.0], [2])
    other = mp.build_grid([0.0], [1.0], [2])
    bare = mp.FiniteMetricSpace.from_matrix([[0.0, 1.0], [1.0, 0.0]])
    half = mp.ContractionMap(line, [0, 0, 1])
    ifs = mp.MaxPlusIFS(line, (half,), [0.0])
    mu, far = mp.uniform(line), mp.uniform(other)
    pair = mp.product(bare, bare)
    wide = mp.uniform(mp.build_grid([0.0], [1.0], [50]))
    return [
        # ifs
        ("snap without coordinates", "snapping needs point coordinates",
         lambda: mp.snap_affine(bare, [[0.5]], [0.0])),
        ("affine shape", r"affine map must be \(1, 1\) matrix plus \(1,\) offset",
         lambda: mp.snap_affine(line, [[0.5, 0.0]], [0.0])),
        ("no maps", "an IFS needs at least one map", lambda: mp.MaxPlusIFS(line, (), [])),
        ("map on another space", "all maps must live on the IFS space",
         lambda: mp.MaxPlusIFS(other, (half,), [0.0])),
        ("non-finite weights", "weights must be finite",
         lambda: mp.MaxPlusIFS(line, (half, half), [0.0, -np.inf])),
        ("combined witness without witnesses", "not every map declares a witness",
         lambda: ifs.combined_witness(0.5)),
        ("markov_many across spaces", "measure lives on a different space",
         lambda: mp.markov_many(ifs, [mu, far])),
        ("markov_dual across spaces", "test function lives on a different space",
         lambda: mp.markov_dual(ifs, mp.TestFunction(other, [0.0] * 3))),
        ("max_iter below 1", "max_iter must be positive",
         lambda: mp.iterate_fixed_point(ifs, mu, max_iter=0)),
        # measures
        ("test function shape", "test function needs one value per point",
         lambda: mp.TestFunction(line, [0.0, 1.0])),
        ("test function values", "test function values must be finite",
         lambda: mp.TestFunction(line, [0.0, np.nan, 1.0])),
        ("pushforward not total", "point map must be total on the source space",
         lambda: mp.pushforward(mu, [0, 1], other)),
        ("pushforward codomain", "point map leaves the codomain",
         lambda: mp.pushforward(mu, [0, 1, 3], other)),
        ("weighted_oplus across spaces", "all measures must share one space",
         lambda: mp.weighted_oplus([0.0, 0.0], [mu, far])),
        # spaces
        ("no matrix or coordinates", "need a distance matrix or point coordinates",
         lambda: mp.FiniteMetricSpace()),
        ("empty coordinates", r"coords must be a nonempty \(n, dim\) array",
         lambda: mp.FiniteMetricSpace.from_coords(np.empty((0, 1)))),
        ("coords and matrix counts", "coords and matrix disagree on point count",
         lambda: mp.FiniteMetricSpace.from_matrix([[0.0]], coords=[[0.0], [1.0]])),
        ("dense limit", "space has 2049 points; dense matrix limited to 2048",
         lambda: mp.build_grid([0.0], [1.0], [2048]).distance_matrix()),
        ("non-square matrix", "distance matrix must be square",
         lambda: mp.FiniteMetricSpace.from_matrix([[0.0, 1.0]])),
        ("empty matrix", "a metric space needs at least one point",
         lambda: mp.FiniteMetricSpace.from_matrix(np.zeros((0, 0)))),
        ("non-finite matrix", "distances must be finite",
         lambda: mp.FiniteMetricSpace.from_matrix([[0.0, np.inf], [np.inf, 0.0]])),
        # metrics
        ("coupling off a product space", "a coupling lives on a product space",
         lambda: mp.Coupling(mp.uniform(bare), mp.uniform(bare), mp.uniform(bare))),
        ("left marginal", "left marginal condition fails",
         lambda: mp.Coupling(mp.uniform(pair), mp.dirac(bare, 0), mp.uniform(bare))),
        ("negative threshold", "threshold must be nonnegative",
         lambda: mp.maximal_coupling(mu, mu, -1.0)),
        ("certificates above 50 points", "certificate sampling is limited to 50 points",
         lambda: mp.lipschitz_distance_certificates(wide, wide, 1.0)),
    ]


LIBRARY_CASES = _library_cases()


@pytest.mark.parametrize("case, message, call", LIBRARY_CASES, ids=[c[0] for c in LIBRARY_CASES])
def test_library_refusals_raise_value_error(case, message, call):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
