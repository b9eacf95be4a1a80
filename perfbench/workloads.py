"""Workload inputs, independent reference results and the correctness gate.

Nothing here imports ``maxplus_ifs``: configs and density files are written
from a numpy generator seeded by the benchmark seed, and every reference the
gate compares against (the coupling distance ``d1`` by the level-set
formula, the invariant density by a plain max-plus iteration of the snapped
tables) is computed here with numpy and scipy alone.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.spatial.distance import cdist

THIRD = "0.3333333333333333"
TWO_THIRDS = "0.6666666666666666"

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps the same
# commands and code paths at a size the benchmark's own tests can afford.
SIZES = {
    "full": {
        "verify-cantor-1d": {"cells": 3**6, "pairs": 100},
        "solve-metric-large": {"cells": 3**8, "cells_2d": 80},
    },
    "tiny": {
        "verify-cantor-1d": {"cells": 3**3, "pairs": 6},
        "solve-metric-large": {"cells": 3**4, "cells_2d": 8},
    },
}
WORKLOADS = tuple(SIZES["full"])

_METRIC_SECTION = f"""
[metric]
alpha = {THIRD}
q = 0.5
tol = 1e-6
"""


def _cantor_config(cells: int, seed: int, pairs: int, out: str) -> str:
    return f"""# snapped middle-thirds Cantor IFS on the {cells}-cell unit grid
[space]
kind = grid
lower = 0
upper = 1
cells = {cells}

[ifs]
map = affine {THIRD} 0
map = affine {THIRD} {TWO_THIRDS}
weights = 0 -1

[initial]
kind = uniform

[run]
max_iter = 200
seed = {seed}
out = {out}
{_METRIC_SECTION}
[verify]
pairs = {pairs}
"""


def grid_coords(cells_per_axis) -> np.ndarray:
    """Row-major unit-box grid, both endpoints included, as (n, dim) coordinates."""
    axes = [np.linspace(0.0, 1.0, c + 1) for c in cells_per_axis]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def random_density(rng: np.random.Generator, n: int, p_finite=0.7, levels=8) -> np.ndarray:
    """Normalised density with integer levels 0, -1, ..., 1 - levels on a random support.

    Integer levels, as in the invariant densities of weights (0, -1), give
    each level many points, so ``d1`` is set by the whole support rather than
    by where the two maxima happen to fall; with continuous levels the cost
    and memory of ``d1`` swing by a quarter from seed to seed.
    """
    finite = rng.random(n) < p_finite
    if not finite.any():
        finite[rng.integers(n)] = True
    dens = np.full(n, -np.inf)
    dens[finite] = 0.0 - rng.integers(0, levels, int(finite.sum()))
    dens[finite] -= dens.max()
    return dens


def _token(x: float) -> str:
    return "-inf" if x == -np.inf else repr(float(x))


def write_density(path: str, coords: np.ndarray, dens: np.ndarray) -> None:
    lines = [f"space {dens.size}"]
    for i, (row, v) in enumerate(zip(coords, dens)):
        lines.append(" ".join([str(i), *(repr(float(c)) for c in row), _token(v)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_density_values(path: str) -> np.ndarray:
    """Density column of a density file, in index order, parsed exactly."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    n = int(lines[0].split()[1])
    out = np.full(n, np.nan)
    for line in lines[1 : n + 1]:
        parts = line.split()
        out[int(parts[0])] = float(parts[-1])
    return out


def levelset_d1(coords: np.ndarray, dens_a: np.ndarray, dens_b: np.ndarray, chunk=256) -> float:
    """Coupling distance by the directed level-set formula, in row chunks.

    Every support point x of a must reach a point y of b's support with
    b(y) >= a(x), and vice versa; d1 is the larger worst-case reach.  Row
    minima give the first direction, running column minima the second.
    """
    s1 = np.flatnonzero(dens_a > -np.inf)
    s2 = np.flatnonzero(dens_b > -np.inf)
    l1, l2 = dens_a[s1], dens_b[s2]
    c2 = coords[s2]
    worst = 0.0
    col_min = np.full(s2.size, np.inf)
    for start in range(0, s1.size, chunk):
        d = cdist(coords[s1[start : start + chunk]], c2)
        lc = l1[start : start + chunk, None]
        worst = max(worst, float(np.where(l2[None, :] >= lc, d, np.inf).min(axis=1).max()))
        np.minimum(col_min, np.where(lc >= l2[None, :], d, np.inf).min(axis=0), out=col_min)
    return max(worst, float(col_min.max()))


def snap_table(coords_1d: np.ndarray, scale: float, offset: float, cells: int) -> np.ndarray:
    """Nearest grid index of scale * x + offset on the unit grid."""
    return np.rint((coords_1d * scale + offset) * cells).astype(int)


def maxplus_fixed_point(tables, weights, n: int, max_iter=200) -> np.ndarray:
    """Iterate lambda -> max_j (q_j + max over the fibre of map j) from 0 until bitwise fixed."""
    dens = np.zeros(n)
    for _ in range(max_iter):
        nxt = np.full(n, -np.inf)
        for table, q in zip(tables, weights):
            push = np.full(n, -np.inf)
            np.maximum.at(push, table, dens)
            np.maximum(nxt, q + push, out=nxt)
        if np.array_equal(nxt, dens):
            return dens
        dens = nxt
    raise RuntimeError("reference iteration did not reach a fixed point")


def prepare(name: str, seed: int, workdir: str, size: str = "full") -> dict:
    """Write the inputs of one workload and return its plan.

    The plan holds the CLI commands (argv lists for ``maxplus_ifs.cli.main``),
    the inputs the worker builds during set-up, the references the gate
    checks each command's output against, and the files the commands write.  Paths are relative to the
    current directory, which is the checkout root.
    """
    p = SIZES[size][name]
    os.makedirs(workdir, exist_ok=True)

    def path(fname):
        return os.path.join(workdir, fname)

    plan = {"name": name, "workdir": workdir, "configs": [], "densities": [], "commands": [], "outputs": []}
    if name == "verify-cantor-1d":
        cfg = path("verify.cfg")
        with open(cfg, "w") as fh:
            fh.write(_cantor_config(p["cells"], seed, p["pairs"], "unused.density"))
        plan["configs"].append(cfg)
        plan["commands"].append({"argv": ["verify", cfg], "check": {"kind": "verify"}})
        return plan

    cells = p["cells"]
    cfg = path("solve.cfg")
    with open(cfg, "w") as fh:
        fh.write(_cantor_config(cells, seed, 1, "solve.density"))
    plan["configs"].append(cfg)
    x = grid_coords([cells])[:, 0]
    tables = [snap_table(x, 1.0 / 3.0, 0.0, cells), snap_table(x, 1.0 / 3.0, 2.0 / 3.0, cells)]
    fixed = maxplus_fixed_point(tables, [0.0, -1.0], x.size)
    plan["outputs"].append(path("solve.density"))
    plan["commands"].append(
        {
            "argv": ["solve", cfg],
            "check": {
                "kind": "solve",
                "density_file": path("solve.density"),
                "density": [_token(v) for v in fixed],
                "support": [int(i) for i in np.flatnonzero(fixed > -np.inf)],
            },
        }
    )
    rng = np.random.default_rng(seed)
    for dim, coords in (("1d", grid_coords([cells])), ("2d", grid_coords([p["cells_2d"]] * 2))):
        files = []
        dens = []
        for side in ("a", "b"):
            dens.append(random_density(rng, coords.shape[0]))
            files.append(path(f"{dim}_{side}.density"))
            write_density(files[-1], coords, dens[-1])
        plan["densities"].extend(files)
        plan["commands"].append(
            {
                "argv": ["metric", files[0], files[1], "d1"],
                "check": {"kind": "d1", "value": levelset_d1(coords, dens[0], dens[1])},
            }
        )
    return plan


def normalise(text: str, workdir: str) -> list[str]:
    """Output lines with the run's work directory replaced by ``{work}``."""
    text = text.replace(os.path.abspath(workdir), "{work}").replace(workdir, "{work}")
    return text.splitlines()


def _is_subsequence(needles, haystack) -> bool:
    it = iter(haystack)
    return all(any(line == got for got in it) for line in needles)


def check_command(
    cmd: dict, result: dict, workdir: str, first_stdout: str | None, expected
) -> list[str]:
    """Reasons one command's result fails the gate; empty when it passes.

    ``result`` holds the exit ``code`` and captured ``stdout``;
    ``first_stdout`` is the same command's stdout in the run's first pass
    and ``expected`` the lines recorded for the default seed (or None).
    """
    problems = []
    chk = cmd["check"]
    out = result["stdout"]
    lines = out.splitlines()
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}, expected 0")
    if chk["kind"] == "verify":
        checks = [ln for ln in lines if ln.startswith("check ")]
        if not checks or not all(ln.endswith(" PASS") for ln in checks):
            problems.append("a check line does not end in PASS")
        if not lines or lines[-1] != "verify: PASS":
            problems.append("last line is not 'verify: PASS'")
        if first_stdout is not None and out != first_stdout:
            problems.append("stdout differs from the first pass")
    elif chk["kind"] == "solve":
        try:
            got = [_token(v) for v in read_density_values(chk["density_file"])]
        except (OSError, ValueError, IndexError) as exc:
            got = None
            problems.append(f"density file unreadable: {exc}")
        if got is not None and got != chk["density"]:
            problems.append("density differs from the reference fixed point")
        if "exact fixed point: yes" not in lines:
            problems.append("no exact fixed point reported")
        support = chk["support"]
        want = f"support ({len(support)} points): {' '.join(map(str, support))}"
        if want not in lines:
            problems.append("support line differs from the reference")
    elif chk["kind"] == "d1":
        if out.strip() != f"{chk['value']:.12g}":
            problems.append(f"d1 printed {out.strip()!r}, reference {chk['value']:.12g}")
    if expected is not None and not _is_subsequence(expected, normalise(out, workdir)):
        problems.append("recorded default-seed lines missing or out of order")
    return problems
