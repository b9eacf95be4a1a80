"""Bad values in configs and metric specs end in a documented exit code.

The table sets every key of the README config example, on a 9-cell Cantor
grid, to each of a few bad values and runs `verify` (and `solve` where the
key is read by `solve`).  Every run must exit with 0, 2, 3, 4 or 5, print no
traceback and print no NaN.  The named tests below pin one defect each.
"""

import re
import time

import maxplus_ifs as mp
from maxplus_ifs.cli import main

BASE_CFG = """[space]
kind = grid
lower = 0
upper = 1
cells = 9

[ifs]
map = affine 0.3333333333333333 0
map = affine 0.3333333333333333 0.6666666666666666
weights = 0 -1

[initial]
kind = uniform

[run]
metric = sup_density
tol = 0
max_iter = 200
seed = 0
out = cantor.density

[metric]
alpha = 0.3333333333333333
q = 0.5
tol = 1e-6

[verify]
pairs = 5
support_prob = 0.7
depth = 3
"""

BAD_VALUES = ("", "x", "nan", "inf", "-inf", "-1", "0")
SPEC_VALUES = ("nan", "inf", "0", "-1")
SPECS = (
    "da:a={}",
    "dtilde:alpha={},q=0.5,tol=1e-6",
    "dtilde:alpha=0.5,q={},tol=1e-6",
    "dtilde:alpha=0.5,q=0.5,tol={}",
    "brz:tol={}",
)
DOCUMENTED_CODES = {0, 2, 3, 4, 5}
NAN_WORD = re.compile(r"(?<![\w/])nan\b", re.IGNORECASE)  # a printed value, not a path


def robustness_cases(tmp_path):
    """(case id, argv) for every row of the table; writes its files into tmp_path."""
    cases = []
    lines = BASE_CFG.splitlines()
    section = None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
            continue
        if "=" not in line:
            continue
        key = line.split("=")[0].strip()
        commands = ["verify"] + (["solve"] if section in ("initial", "run") else [])
        for j, value in enumerate(BAD_VALUES):
            cfg = tmp_path / f"case{i}-{j}.cfg"
            cfg.write_text("\n".join(lines[:i] + [f"{key} = {value}"] + lines[i + 1 :]) + "\n")
            cases += [(f"{command} [{section}] {key} = {value!r}", [command, str(cfg)])
                      for command in commands]
    grid = mp.build_grid([0.0], [1.0], [9])
    fa, fb = tmp_path / "a.density", tmp_path / "b.density"
    mp.write_density_file(fa, mp.dirac(grid, 0))
    mp.write_density_file(fb, mp.uniform(grid))
    for template in SPECS:
        for value in SPEC_VALUES:
            spec = template.format(value)
            cases.append((f"metric {spec}", ["metric", str(fa), str(fb), spec]))
    return cases


def _run(argv, capsys):
    """Exit code, stdout and stderr of one in-process run; an escaping exception is a fault."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - the table reports every escape
        code = f"raised {exc!r}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_robustness_table(tmp_path, capsys):
    cases = robustness_cases(tmp_path)
    assert len(cases) > 150
    start = time.perf_counter()
    faults = []
    for case, argv in cases:
        code, out, err = _run(argv, capsys)
        if code not in DOCUMENTED_CODES or "Traceback" in err or NAN_WORD.search(out):
            faults.append((case, code, out[-200:], err[-200:]))
    elapsed = time.perf_counter() - start
    assert faults == []
    assert elapsed < 3.0, f"{len(cases)} runs took {elapsed:.2f} s"


# --- one regression per defect that used to end in a traceback or a NaN ---------------


def _cantor(tmp_path, old, new):
    assert old in BASE_CFG
    cfg = tmp_path / "cantor.cfg"
    cfg.write_text(BASE_CFG.replace(old, new))
    return cfg


def _config_error(command, cfg, capsys, *words):
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and "Traceback" not in err
    for word in words:
        assert word in err
    return err


def test_bad_weight_token_names_its_line(tmp_path, capsys):
    cfg = _cantor(tmp_path, "weights = 0 -1", "weights = 0 x")
    _config_error("verify", cfg, capsys, f"{cfg}:10: [ifs] weights = '0 x'", "'x'")


def test_empty_map_names_its_line(tmp_path, capsys):
    cfg = _cantor(tmp_path, "map = affine 0.3333333333333333 0\n", "map =\n")
    _config_error("verify", cfg, capsys, f"{cfg}:8: [ifs] map = ''", "affine")


def test_empty_witness_names_its_line(tmp_path, capsys):
    cfg = _cantor(tmp_path, "weights = 0 -1", "witness =\nwitness = none\nweights = 0 -1")
    _config_error("verify", cfg, capsys, f"{cfg}:10: [ifs] witness = ''", "linear")


def test_infinite_depth_is_refused(tmp_path, capsys):
    # an infinite depth drew NaN densities
    cfg = _cantor(tmp_path, "depth = 3", "depth = inf")
    _config_error("verify", cfg, capsys, "[verify] depth must be positive and finite")


def test_nan_series_tol_is_refused(tmp_path, capsys):
    cfg = _cantor(tmp_path, "tol = 1e-6", "tol = nan")
    _config_error("verify", cfg, capsys, "[metric]", "tol must be positive")


def test_infinite_series_tol_is_one_term_per_side(tmp_path, capsys):
    # the term count used to take ceil(-inf)
    cfg = _cantor(tmp_path, "tol = 1e-6", "tol = inf")
    assert main(["verify", str(cfg)]) == 0
    assert "check dtilde(alpha=0.333333333333, q=0.5)" in capsys.readouterr().out


def test_nan_run_tol_is_refused(tmp_path, capsys):
    # a NaN tolerance was accepted and the run iterated to max_iter
    cfg = _cantor(tmp_path, "tol = 0\n", "tol = nan\n")
    _config_error("solve", cfg, capsys, "[run] tol must be nonnegative")


def test_lipschitz_level_outside_the_positive_reals_is_refused(tmp_path, capsys):
    # da:a=nan and da:a=inf printed nan and exited 0
    grid = mp.build_grid([0.0], [1.0], [9])
    fa = tmp_path / "a.density"
    mp.write_density_file(fa, mp.dirac(grid, 0))
    for value in ("nan", "inf"):
        assert main(["metric", str(fa), str(fa), f"da:a={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"da:a={value}: Lipschitz bound a" in captured.err


def test_solve_output_in_a_missing_directory_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "c.density"
    cfg = _cantor(tmp_path, "out = cantor.density", f"out = {out}")
    _config_error("solve", cfg, capsys, "[run] out", "No such file or directory", str(out))


def test_render_to_a_missing_directory_is_a_config_error(tmp_path, capsys):
    density = tmp_path / "d.density"
    mp.write_density_file(density, mp.dirac(mp.build_grid([0.0], [1.0], [3]), 1))
    out = tmp_path / "missing" / "d.pgm"
    assert main(["render", str(density), str(out), "--floor", "-1"]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "No such file or directory" in err and "Traceback" not in err


def test_failing_witness_certificate_still_exits_3(tmp_path, capsys):
    # a CertificateError is a ValueError; the config helper lets it through
    table = _cantor(
        tmp_path,
        "map = affine 0.3333333333333333 0\nmap = affine 0.3333333333333333 0.6666666666666666",
        "map = table 0 1 2 3 4 5 6 7 8 9\nmap = table 0 0 0 0 0 0 0 0 0 0",
    ).read_text()
    cfg = tmp_path / "table.cfg"
    cfg.write_text(table.replace("weights = 0 -1", "witness = linear 0.5\nwitness = none\nweights = 0 -1"))
    assert main(["verify", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("certificate failure: contraction certificate fails")
