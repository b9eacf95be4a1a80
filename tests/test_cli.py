import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxplus_ifs as mp
from maxplus_ifs.cli import main


TWO_POINT_CFG = """
[space]
kind = grid
lower = 0
upper = 1
cells = 1

[ifs]
map = table 0 0
map = table 1 1
weights = 0 -1

[initial]
kind = dirac
index = 1

[run]
metric = sup_density
tol = 0
max_iter = 50
out = {out}
"""

CANTOR_CFG = """
[space]
kind = grid
lower = 0
upper = 1
cells = 27

[ifs]
map = affine 0.3333333333333333 0
map = affine 0.3333333333333333 0.6666666666666666
weights = 0 -1

[initial]
kind = uniform

[run]
max_iter = 200
seed = 0
out = {out}

[metric]
alpha = 0.3333333333333333
q = 0.5
tol = 1e-6

[verify]
pairs = 40
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_solve_two_point_example(tmp_path, capsys):
    out = tmp_path / "fixed.density"
    cfg = _write(tmp_path, "two.cfg", TWO_POINT_CFG.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "residual (sup_density): 0" in text
    assert "exact fixed point: yes" in text
    mu = mp.read_density_file(out)
    np.testing.assert_array_equal(mu.density, [0.0, -1.0])


def test_solve_round_trip_restarts_at_fixed_point(tmp_path, capsys):
    out = tmp_path / "fixed.density"
    cfg = _write(tmp_path, "two.cfg", TWO_POINT_CFG.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    # re-read the fixed density as the start: one exact step, residual 0
    cfg2 = _write(
        tmp_path,
        "again.cfg",
        TWO_POINT_CFG.format(out=tmp_path / "fixed2.density").replace(
            "kind = dirac\nindex = 1", f"kind = file\npath = {out}"
        ),
    )
    assert main(["solve", str(cfg2)]) == 0
    text = capsys.readouterr().out
    assert "iterations: 1" in text
    assert "residual (sup_density): 0" in text


def test_solve_nonconvergent_exit_code(tmp_path, capsys):
    out = tmp_path / "x.density"
    cfg = _write(
        tmp_path,
        "slow.cfg",
        CANTOR_CFG.format(out=out).replace("max_iter = 200", "max_iter = 2"),
    )
    assert main(["solve", str(cfg)]) == 4
    capsys.readouterr()


def test_attractor_matches_solve_support(tmp_path, capsys):
    out = tmp_path / "c.density"
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    solve_out = capsys.readouterr().out
    support_line = next(l for l in solve_out.splitlines() if l.startswith("support"))
    assert main(["attractor", str(cfg)]) == 0
    att_line = next(
        l for l in capsys.readouterr().out.splitlines() if l.startswith("attractor (")
    )
    assert support_line.split(":")[1] == att_line.split(":")[1]


def test_metric_command(tmp_path, capsys):
    g = mp.build_grid([0], [1], [1])
    fa, fb = tmp_path / "a.density", tmp_path / "b.density"
    mp.write_density_file(fa, mp.dirac(g, 0))
    mp.write_density_file(fb, mp.dirac(g, 1))
    assert main(["metric", str(fa), str(fa), "d1"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["metric", str(fa), str(fb), "d1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["metric", str(fa), str(fb), "da:a=4"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["metric", str(fa), str(fb), "dtilde:alpha=0.5,q=0.5,tol=1e-9"]) == 0
    value, _, tail = capsys.readouterr().out.split()
    assert float(value) == pytest.approx(3.0, abs=1e-8)  # (1+q)/(1-q)
    assert float(tail) <= 1e-9
    assert main(["metric", str(fa), str(fb), "brz:tol=1e-9"]) == 0
    value, _, tail = capsys.readouterr().out.split()
    assert float(value) == pytest.approx(1.0, abs=1e-8)


def test_metric_with_config_space(tmp_path, capsys):
    cfgtext = """
[space]
kind = matrix
size = 3
row = 0 1 2
row = 1 0 1
row = 2 1 0
"""
    cfg = _write(tmp_path, "m.cfg", cfgtext)
    space = mp.FiniteMetricSpace.from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    fa, fb = tmp_path / "a.density", tmp_path / "b.density"
    mp.write_density_file(fa, mp.dirac(space, 0))
    mp.write_density_file(fb, mp.dirac(space, 2))
    # files carry no coordinates: need the config
    assert main(["metric", str(fa), str(fb), "d1"]) == 2
    assert main(["metric", str(fa), str(fb), "d1", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_metric_spec_errors(tmp_path):
    g = mp.build_grid([0], [1], [1])
    fa = tmp_path / "a.density"
    mp.write_density_file(fa, mp.dirac(g, 0))
    assert main(["metric", str(fa), str(fa), "bogus"]) == 2
    assert main(["metric", str(fa), str(fa), "da:a=-1"]) == 2
    assert main(["metric", str(fa), str(fa), "dtilde:alpha=0.5"]) == 2
    assert main(["metric", str(fa), str(fa), "dtilde:alpha=2,q=0.5,tol=1e-6"]) == 2
    assert main(["metric", str(fa), str(fa), "dtilde:alpha=0.5,q=0.5,tol=0"]) == 2


def test_series_outside_float_range_is_a_config_error(tmp_path, capsys):
    g = mp.build_grid([0], [1], [1])
    fa, fb = tmp_path / "a.density", tmp_path / "b.density"
    mp.write_density_file(fa, mp.dirac(g, 0))
    mp.write_density_file(fb, mp.dirac(g, 1))
    assert main(["metric", str(fa), str(fb), "dtilde:alpha=0.5,q=0.99,tol=1e-9"]) == 2
    err = capsys.readouterr().err
    assert "alpha=0.5, q=0.99, tol=1e-09" in err and "Traceback" not in err
    assert main(["metric", str(fa), str(fb), "brz:tol=1e-320"]) == 2
    assert "tol=1e-320" in capsys.readouterr().err
    # valid parameters near the edge still give a finite value
    assert main(["metric", str(fa), str(fb), "dtilde:alpha=0.9,q=0.99,tol=1e-9"]) == 0
    value, _, tail = capsys.readouterr().out.split()
    assert float(value) == pytest.approx(199.0, abs=1e-6)  # (1+q)/(1-q)
    cfg = _write(
        tmp_path,
        "cantor.cfg",
        CANTOR_CFG.format(out=tmp_path / "c.density").replace("tol = 1e-6", "tol = 1e-9").replace(
            "alpha = 0.3333333333333333\nq = 0.5", "alpha = 0.5\nq = 0.99"
        ),
    )
    assert "q = 0.99" in cfg.read_text()
    assert main(["verify", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "[metric]" in err and "alpha=0.5, q=0.99, tol=1e-09" in err


def test_coordinates_outside_the_float_range_are_config_errors(tmp_path, capsys):
    # squared distances that overflow (or a grid step that squares to 0)
    # are refused when the space is built; before, verify and solve reported
    # a discrete factor of 0 or "0 usable pairs"
    for upper, words in (("1e200", "coordinate span 1e+200 overflows"), ("1e-170", "coincide")):
        text = CANTOR_CFG.format(out=tmp_path / "c.density").replace(
            "upper = 1\n", f"upper = {upper}\n"
        )
        cfg = _write(tmp_path, "big.cfg", text)
        for command in ("verify", "solve"):
            assert main([command, str(cfg)]) == 2
            captured = capsys.readouterr()
            assert "[space]" in captured.err and words in captured.err
            assert "factor" not in captured.out and "bound" not in captured.out
    fa = tmp_path / "wide.density"
    fa.write_text("space 2\n0 0 0\n1 3e154 -1\n")
    assert main(["metric", str(fa), str(fa), "d1"]) == 2
    err = capsys.readouterr().err
    assert "coordinate span 3e+154 overflows" in err and "value of p" not in err


def test_verify_cantor_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=tmp_path / "c.density"))
    assert main(["verify", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "check d1" in text and "PASS" in text
    assert "verify: PASS" in text


def test_verify_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=tmp_path / "c.density"))
    assert main(["verify", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", str(cfg)]) == 0
    second = capsys.readouterr().out
    assert first == second


# Full `verify` report of a small snapped Cantor config, recorded before the
# metric kernels were replaced; any drift in a metric route shows here.
GOLDEN_VERIFY = """verify: {cfg}
space: 82 points
maps: 2, discrete Lipschitz max 1, declared max 0.333333333333
certificates: declared factor 0.333333333333; sampling restricted to 28 exactly-mapped points (discrete factor on the full space is 1)
pairs: 20, seed 0, mode declared
check d1: max ratio 0.333333333333, max excess over bound 1.11022302463e-16 (20 usable pairs) PASS
check dtilde(alpha=0.333333333333, q=0.5): max ratio 0.474398706649 vs factor 0.666666666667, max certified excess -0.170912755123 (20 usable pairs) PASS
verify: PASS
"""


def test_verify_golden_report(tmp_path, capsys):
    text = CANTOR_CFG.format(out=tmp_path / "c.density")
    text = text.replace("cells = 27", "cells = 81").replace("pairs = 40", "pairs = 20")
    cfg = _write(tmp_path, "cantor81.cfg", text)
    assert main(["verify", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_VERIFY.format(cfg=cfg)
    assert captured.err == ""  # a passing check names no replay pair


GOLDEN_LADDER = """verify: {cfg}
space: 6 points
maps: 2, discrete Lipschitz max 0.333333333333, declared max n/a
certificates: witnesses verified on all pairs
pairs: 30, seed 3, mode witnessed
check d1: max ratio 0.333333333333, max excess over bound -0.00183145990247 (30 usable pairs) PASS
check dtilde(alpha=0.34, q=0.5): max ratio 0.376211129925 vs factor 0.68, max certified excess -0.0422167018176 (30 usable pairs) PASS
verify: PASS
"""


def test_verify_failure_names_the_worst_seeded_pair(tmp_path, capsys, monkeypatch):
    # with the identity in place of the Markov operator both checks fail at
    # the pair of largest distance; stderr names it for a replay from the seed
    text = CANTOR_CFG.format(out=tmp_path / "c.density")
    text = text.replace("cells = 27", "cells = 81").replace("pairs = 40", "pairs = 20")
    cfg = _write(tmp_path, "cantor81.cfg", text)
    monkeypatch.setattr("maxplus_ifs.cli.markov", lambda ifs, mu: mu)
    assert main(["verify", str(cfg)]) == 5
    captured = capsys.readouterr()
    assert captured.out.count("pairs) FAIL\n") == 2 and captured.out.endswith("verify: FAIL\n")
    raw = mp.config.parse_config(str(cfg))
    space = mp.config.build_space(raw)
    points = mp.config.build_ifs(raw, space).exactly_mapped_points()
    vp = mp.config.verify_params(raw)
    rng = mp.Lcg64(mp.config.run_params(raw).seed)
    measures = [
        mp.random_measure(space, rng, vp.support_prob, vp.depth, points=points)
        for _ in range(2 * vp.pairs)
    ]
    pairs = list(zip(measures[::2], measures[1::2]))
    mpar = mp.config.metric_params(raw)
    params = mp.SeriesParams(mpar.alpha, mpar.q, mpar.tol)
    # each excess is (1 - factor) * distance minus a constant: argmax of the distance
    k1 = int(np.argmax([mp.coupling_distance(a, b) for a, b in pairs]))
    k2 = int(np.argmax([mp.series_distance(a, b, params).value for a, b in pairs]))
    assert k1 == 13  # a pair inside the stream, not its first
    assert captured.err == (
        f"replay: d1 worst pair is #{k1} of seed 0\nreplay: dtilde worst pair is #{k2} of seed 0\n"
    )


def test_verify_takes_each_markov_step_once(tmp_path, capsys, monkeypatch):
    # the images of the sampled measures are computed once and shared by the
    # d1 and dtilde checks: 2 Markov steps per pair, not 4
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=tmp_path / "c.density"))
    steps = []
    markov = mp.markov
    monkeypatch.setattr("maxplus_ifs.cli.markov", lambda ifs, mu: steps.append(mu) or markov(ifs, mu))
    assert main(["verify", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "check d1:" in text and "check dtilde(alpha=" in text and "(40 usable pairs)" in text
    assert len(steps) == 2 * 40


def test_verify_witnessed_ladder(tmp_path, capsys):
    # explicit geometric space; pull-down maps carry rational witnesses
    coords = (3.0 ** np.arange(6) - 1.0) / 2.0
    coords /= coords.max()
    rows = "\n".join(
        "row = " + " ".join(f"{abs(a - b):.17g}" for b in coords) for a in coords
    )
    cfgtext = f"""
[space]
kind = matrix
size = 6
{rows}

[ifs]
map = table 0 0 1 2 3 4
map = table 0 0 0 1 2 3
witness = rational 2
witness = rational 8
weights = 0 -1

[run]
seed = 3

[metric]
alpha = 0.34
q = 0.5
tol = 1e-8

[verify]
pairs = 30
"""
    cfg = _write(tmp_path, "ladder.cfg", cfgtext)
    assert main(["verify", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "witnesses verified" in text
    assert "verify: PASS" in text
    # full report, recorded before verify went through empirical_contraction;
    # the d1 bound here is the combined witness, not a constant factor
    assert text == GOLDEN_LADDER.format(cfg=cfg)


def test_verify_one_point_space_reports_both_checks(tmp_path, capsys):
    # diameter 0: the series needs no terms; no pair is usable, so FAIL (5)
    cfgtext = """
[space]
kind = matrix
size = 1
row = 0

[ifs]
map = table 0
witness = rational 2
weights = 0

[metric]
alpha = 0.34
q = 0.5
tol = 1e-8

[verify]
pairs = 5
"""
    cfg = _write(tmp_path, "one.cfg", cfgtext)
    assert main(["verify", str(cfg)]) == 5
    captured = capsys.readouterr()
    assert "(0 usable pairs) FAIL" in captured.out
    assert "check dtilde(alpha=0.34, q=0.5)" in captured.out
    assert captured.err == ""


def test_verify_certificate_failure_exit_code(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "bad.cfg",
        CANTOR_CFG.format(out=tmp_path / "c.density").replace(
            "weights = 0 -1",
            "witness = linear 0.3333333333333333\nwitness = linear 0.3333333333333333\nweights = 0 -1",
        ),
    )
    assert main(["verify", str(cfg)]) == 3


WITNESSED_PLANE_CFG = """
[space]
kind = grid
lower = 0 0
upper = 1 1
cells = 8 8

[ifs]
map = affine {matrix} 0 0
witness = linear 0.5
weights = 0
"""


def test_witnessed_affine_map_computes_discrete_lip_once(tmp_path, monkeypatch):
    calls = []
    compute = mp.ContractionMap._compute_lip

    def counted(self):
        calls.append(self)
        return compute(self)

    monkeypatch.setattr(mp.ContractionMap, "_compute_lip", counted)
    cfg = _write(tmp_path, "plane.cfg", WITNESSED_PLANE_CFG.format(matrix="0 0 0 0"))
    raw = mp.config.parse_config(str(cfg))
    space = mp.config.build_space(raw)
    (m,) = mp.config.build_ifs(raw, space).maps
    assert len(calls) == 1
    assert m.witness == mp.ComparisonFunction("linear", 0.5) and m.discrete_lip == 0.0
    assert m.declared_lip == 0.0 and m.snap_error is not None
    # the witness is still checked: a snapped half-scaling breaks it (exit 3)
    cfg = _write(tmp_path, "half.cfg", WITNESSED_PLANE_CFG.format(matrix="0.5 0 0 0.5"))
    raw = mp.config.parse_config(str(cfg))
    with pytest.raises(mp.CertificateError):
        mp.config.build_ifs(raw, space)
    assert len(calls) == 2


def test_config_parse_error_reports_line(tmp_path, capsys):
    cfg = _write(tmp_path, "broken.cfg", "[space]\nkind = grid\nbroken line\n")
    assert main(["solve", str(cfg)]) == 2
    assert ":3:" in capsys.readouterr().err


def test_weights_renormalize_flag(tmp_path, capsys):
    bad = CANTOR_CFG.format(out=tmp_path / "c.density").replace(
        "weights = 0 -1", "weights = 1 0"
    )
    cfg = _write(tmp_path, "shift.cfg", bad)
    assert main(["solve", str(cfg)]) == 2
    assert "renormalize" in capsys.readouterr().err
    assert main(["solve", str(cfg), "--renormalize"]) == 0
    mu = mp.read_density_file(tmp_path / "c.density")
    assert mu.density.max() == 0.0


GRID2D_CFG = """
[space]
kind = grid
lower = 0 0
upper = 1 1
cells = 4 4

[ifs]
map = affine 0.5 0 0 0.5 0 0
map = affine 0.5 0 0 0.5 0.5 0
map = affine 0.5 0 0 0.5 0 0.5
weights = 0 -0.3 -0.7

[initial]
kind = dirac
index = 0

[run]
out = {out}
"""
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, template", [("solve_cantor27", CANTOR_CFG), ("solve_grid2d", GRID2D_CFG)]
)
def test_solve_density_file_matches_its_golden(tmp_path, capsys, name, template):
    # recorded from the line-by-line writer: 17 significant digits, `-inf`,
    # one `index coordinates value` line per point
    out = tmp_path / f"{name}.density"
    cfg = _write(tmp_path, f"{name}.cfg", template.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    assert "exact fixed point: yes" in capsys.readouterr().out
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.density").read_bytes()


def test_a_density_file_error_names_the_file(tmp_path, capsys):
    # a positive entry used to fail with no path: `density maximum must be
    # exactly 0; use normalize()`
    f = tmp_path / "pos.density"
    f.write_text("space 2\n0 0.0 0\n1 1.0 0.5\n")
    assert main(["metric", str(f), str(f), "d1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {f}:3: density entries must be <= 0\n"
    f.write_text("space 2\n0 0.0 -1\n1 1.0 -0.5\n")
    assert main(["render", str(f), str(tmp_path / "x.pgm"), "--floor", "-1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {f}: density maximum must be exactly 0; use normalize()\n"
    )


def test_render_dirac_and_uniform(tmp_path):
    g = mp.build_grid([0], [1], [3])
    f = tmp_path / "d.density"
    mp.write_density_file(f, mp.dirac(g, 2))
    out = tmp_path / "d.pgm"
    assert main(["render", str(f), str(out), "--floor", "-10"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n4 1\n255\n")
    assert data[-4:] == bytes([0, 0, 255, 0])
    mp.write_density_file(f, mp.uniform(g))
    assert main(["render", str(f), str(out), "--floor", "-10"]) == 0
    assert out.read_bytes()[-4:] == bytes([255] * 4)


def test_render_2d_and_gradient(tmp_path):
    g = mp.build_grid([0, 0], [1, 1], [1, 2])
    dens = mp.normalize(g, [0.0, -5.0, -10.0, -20.0, float("-inf"), 0.0])
    f = tmp_path / "g.density"
    mp.write_density_file(f, dens)
    out = tmp_path / "g.pgm"
    assert main(["render", str(f), str(out), "--floor", "-10"]) == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    np.testing.assert_array_equal(
        np.frombuffer(data[-6:], dtype=np.uint8).reshape(2, 3),
        [[255, 128, 0], [0, 0, 255]],
    )


def test_render_rejects_bad_floor_and_high_dim(tmp_path):
    g = mp.build_grid([0], [1], [1])
    f = tmp_path / "d.density"
    mp.write_density_file(f, mp.dirac(g, 0))
    assert main(["render", str(f), str(tmp_path / "x.pgm"), "--floor", "1"]) == 2
    g3 = mp.build_grid([0, 0, 0], [1, 1, 1], [1, 1, 1])
    mp.write_density_file(f, mp.dirac(g3, 0))
    assert main(["render", str(f), str(tmp_path / "x.pgm"), "--floor", "-1"]) == 2


def test_cantor_render_matches_attractor(tmp_path, capsys):
    out = tmp_path / "c.density"
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    img = tmp_path / "c.pgm"
    assert main(["render", str(out), str(img), "--floor", "-5"]) == 0
    data = img.read_bytes()
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    mu = mp.read_density_file(out)
    np.testing.assert_array_equal(np.flatnonzero(pixels), mu.support())


SCIPY_PROBE = """
import sys
from maxplus_ifs.cli import main

loaded = ["scipy" in sys.modules]
for argv in sys.argv[1:]:
    assert main(argv.split("|")) == 0
    loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_line_runs_never_import_scipy(tmp_path):
    # scipy is only needed off the line; import, solve, verify and d1 on a
    # 1-D grid run without it, in a fresh interpreter
    out = tmp_path / "c.density"
    cfg = _write(tmp_path, "cantor.cfg", CANTOR_CFG.format(out=out))
    other = tmp_path / "u.density"
    mp.write_density_file(other, mp.uniform(mp.build_grid([0.0], [1.0], [27])))
    runs = [f"solve|{cfg}", f"verify|{cfg}", f"metric|{out}|{other}|d1", f"metric|{out}|{other}|dtilde:alpha=0.3,q=0.5,tol=1e-6"]
    src = str(Path(mp.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *runs],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([False] * 5)
