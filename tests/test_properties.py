"""Property tests: the array code of the seeded stream, the stacked Markov
step, the density files, the line d1 and dual kernels, the plane d1
kernel, the off-line dual kernel, feasibility and Hausdorff distance
through d1, and the off-line coincidence check against the slower routes
kept in `oracles.py`; the
density reader on tokens outside numpy's grammar, and `metric` on mutated
density files.

Hypothesis runs derandomized with a bounded number of examples, so every
run checks the same cases.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import maxplus_ifs as mp
from maxplus_ifs.cli import main
from maxplus_ifs.metrics import _cell_width, _directed_d1, _dual_distances, _line_deltas, _plane_d1
from maxplus_ifs.spaces import _coincident_pair
from conftest import EXTREME_LEVELS, random_matrix_space
from oracles import (
    coincident_pair_kdtree,
    dense_deltas,
    feasible_sweep,
    random_measure_scalar,
    read_density_file_lines,
    threshold_d1,
    write_density_file_lines,
)

NEG = float("-inf")
PROPERTY = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# --- the seeded stream --------------------------------------------------------

@st.composite
def stream_cases(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["all", "subset", "single", "repeats"]))
    if kind == "all":
        points = None
    elif kind == "single":
        points = [draw(st.integers(0, n - 1))]
    elif kind == "subset":
        points = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    else:  # any order, repeated indices
        points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    prob = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.002, 0.5, 0.7]), st.floats(0.0, 1.0)))
    depth = draw(st.sampled_from([3.0, 1.0, 0.25, 1e-3, 40.0, 2.5e7]))
    seed = draw(st.integers(0, 2**64 - 1))
    return n, points, prob, depth, seed, draw(st.integers(1, 4))


@PROPERTY
@given(stream_cases())
def test_random_measure_equals_the_scalar_stream(case):
    n, points, prob, depth, seed, calls = case
    space = mp.FiniteMetricSpace.from_coords(np.arange(float(n)))
    fast, slow = mp.Lcg64(seed), mp.Lcg64(seed)
    for _ in range(calls):
        got = mp.random_measure(space, fast, prob, depth, points=points)
        want = random_measure_scalar(space, slow, prob, depth, points=points)
        assert _bits(got.density) == _bits(want.density)
        assert fast.state == slow.state
    # then one block draw: at support_prob 0 and 0.002 most measures miss
    # every candidate, so blocks end early and fallback draws come between
    for got in mp.random_measures(space, fast, 3 * calls, prob, depth, points=points):
        want = random_measure_scalar(space, slow, prob, depth, points=points)
        assert _bits(got.density) == _bits(want.density)
    assert fast.state == slow.state


# --- the stacked Markov step --------------------------------------------------

@st.composite
def ifs_cases(draw):
    """Table maps on a matrix space or an unsorted line, densities with any
    -inf pattern, single points and ties."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    if draw(st.booleans()):
        space = random_matrix_space(rng, n)
    else:
        space = mp.FiniteMetricSpace.from_coords(rng.permutation(np.arange(float(n))))
    n_maps = draw(st.integers(1, 3))
    targets = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n_maps)]
    maps = tuple(mp.ContractionMap(space, np.array(t)) for t in targets)
    depths = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n_maps, max_size=n_maps)
    weights = [-w for w in draw(depths)]
    weights[draw(st.integers(0, n_maps - 1))] = 0.0
    ifs = mp.MaxPlusIFS(space, maps, weights)
    level = st.sampled_from([0.0, -1.0, -0.25, -7.5]) | st.floats(-3.0, 0.0)
    measures = []
    for _ in range(draw(st.integers(1, 5))):
        finite = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        raw = np.where(finite, draw(st.lists(level, min_size=n, max_size=n)), NEG)
        raw[draw(st.integers(0, n - 1))] = 0.0
        measures.append(mp.normalize(space, raw))
    f = mp.TestFunction(space, draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return ifs, measures, f


@PROPERTY
@given(ifs_cases())
def test_stacked_markov_step_equals_the_step_of_each_measure(case):
    ifs, measures, f = case
    got = mp.markov_many(ifs, measures)
    assert len(got) == len(measures)
    for mu, out in zip(measures, got):
        oplus = mp.weighted_oplus(ifs.weights, [m(mu) for m in ifs.maps])
        assert _bits(out.density) == _bits(oplus.density) == _bits(mp.markov(ifs, mu).density)
        assert mp.integrate(out, f) == mp.integrate(mu, mp.markov_dual(ifs, f))


# --- writer and reader round trip ---------------------------------------------------

SPECIAL = [NEG, -0.0, -5e-324, -2.2250738585072014e-308, -1.7976931348623157e308, -1e-300]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 0.0),
)
coordinates = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0 / 3.0, 0.1, -1e-300]),
)


@st.composite
def measures(draw):
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        space = random_matrix_space(np.random.default_rng(draw(st.integers(0, 999))), n)
    else:
        dim = draw(st.integers(1, 3))
        rows = draw(st.lists(st.tuples(*[coordinates] * dim), min_size=n, max_size=n))
        try:
            space = mp.FiniteMetricSpace.from_coords(np.array(rows, dtype=float))
        except ValueError:  # coincident points or an overflowing span
            assume(False)
    dens = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    dens[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))
    return mp.IdempotentMeasure(space, dens)


@PROPERTY
@given(measures())
def test_written_file_reads_back_bit_for_bit(tmp_path, mu):
    path, old = tmp_path / "mu.density", tmp_path / "old.density"
    mp.write_density_file(path, mu)
    write_density_file_lines(old, mu)
    assert path.read_bytes() == old.read_bytes()
    back = mp.read_density_file(path, None if mu.space.euclidean else mu.space)
    assert _bits(back.density) == _bits(mu.density)
    if mu.space.euclidean:
        assert _bits(back.space.coords) == _bits(mu.space.coords)


# --- the reader against the per-line parser ------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# line breaks of str.splitlines; the file is read in text mode, so \r\n and \r end a line too
LINE_BREAKS = ("\n",) * 4 + ("\r\n", "\r", "\x0c", "\x1c", "\u2028")
BLANK_LINES = ("", "", " ", "\t", " \t ", "\u3000")
SUBNORMAL = st.sampled_from([-5e-324, -1e-310, -2.225073858507201e-308])


def _python_only(draw, token):
    """A spelling of a token with a digit that only Python's int and float
    read: an underscore between two digits, or Arabic-Indic digits."""
    pair = re.search(r"\d\d", token)
    if pair and draw(st.booleans()):
        return token[: pair.start() + 1] + "_" + token[pair.start() + 1 :]
    return token.translate(ARABIC_INDIC)


def _spell_value(draw, v):
    v = float(v)
    if v == NEG:
        return draw(st.sampled_from(["-inf", "-Infinity", "-INF", "-1e999"]))
    return draw(st.sampled_from([repr(v), "%.17g" % v, "%.20e" % v, "%.25g" % v]))


def _spell_index(draw, i):
    return draw(st.sampled_from([str(i), "+%d" % i, "%03d" % i]))


@st.composite
def density_files(draw, n=st.integers(1, 9), dim=st.integers(0, 3)):
    """Lines of a valid density file in varied spelling, its point count and dimension."""
    n, dim = draw(n), draw(dim)
    order = draw(st.permutations(range(n)))
    coords = np.arange(n * max(dim, 1), dtype=float).reshape(n, -1) / 7.0
    dens = np.array(draw(st.lists(values | SUBNORMAL, min_size=n, max_size=n)))
    dens[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0]))  # "-0" too
    lines = [draw(st.sampled_from(["space %d" % n, "space  %d " % n]))]
    for i in order:
        toks = [_spell_index(draw, i)]
        toks += [repr(float(c)) for c in coords[i][:dim]]
        toks.append(_spell_value(draw, dens[i]))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(toks))
    return lines, n, dim


def _with_blank_lines(draw, lines):
    out = [lines[0]]
    for line in lines[1:]:
        out += [draw(st.sampled_from(BLANK_LINES)) for _ in range(draw(st.integers(0, 2)))]
        out.append(line)
    return out


def _write(draw, path, lines):
    """The lines, each ended by a line break of its own, maybe a blank line after."""
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    path.write_bytes((text + draw(st.sampled_from(["", "\n", " \r\n"]))).encode())


def _hex(a) -> list:
    return [float.hex(v) for v in np.ravel(a).tolist()]


def _read(reader, path, space):
    try:
        mu = reader(path, space)
    except ValueError as exc:
        return str(exc)
    return _hex(mu.density), (None if mu.space.coords is None else _hex(mu.space.coords))


def _space_for(n, dim):
    return None if dim else mp.FiniteMetricSpace.from_coords(np.arange(float(n)))


@PROPERTY
@given(density_files(), st.data())
def test_reader_equals_the_line_parser_on_valid_files(tmp_path, case, data):
    lines, n, dim = case
    if data.draw(st.booleans()):
        lines = _with_blank_lines(data.draw, lines)
    path = tmp_path / "ok.density"
    _write(data.draw, path, lines)
    got = _read(mp.read_density_file, path, _space_for(n, dim))
    assert not isinstance(got, str), got
    assert got == _read(read_density_file_lines, path, _space_for(n, dim))


# Defects the per-line parser shares with the production reader.  Bad
# coordinate tokens and positive densities have their own regressions in
# test_measures.py.
LINE_MUTATIONS = (
    "bad index", "out of range", "duplicate", "bad value", "extra column",
    "drop one coordinate", "drop every coordinate", "bare index", "nan coordinate",
)
FILE_MUTATIONS = ("missing line", "extra line", "header", "whitespace line", "line break")


def _mutate(draw, lines, n, dim):
    kind = draw(st.sampled_from(LINE_MUTATIONS * 4 + FILE_MUTATIONS))
    k = draw(st.integers(1, len(lines) - 1))
    toks = lines[k].split()
    if kind in LINE_MUTATIONS and not toks:  # an earlier mutation left a blank line here
        return lines
    if kind == "bad index":
        toks[0] = draw(st.sampled_from(["x", "1.5", "1e2", "nan", "0x1", "--1"]))
    elif kind == "out of range":
        toks[0] = draw(st.sampled_from([str(n), "-1", str(n + 7), "9" * 30]))
    elif kind == "duplicate":
        others = [j for j in range(1, len(lines)) if j != k and lines[j].split()]
        toks[0] = lines[draw(st.sampled_from(others))].split()[0] if others else toks[0]
    elif kind == "bad value":
        toks[-1] = draw(st.sampled_from(["nan", "inf", "+inf", "1e999", "x", "-", "--1"]))
    elif kind == "extra column" and dim >= 1 and len(toks) > 1:  # before the value, kept last
        toks.insert(draw(st.integers(1, len(toks) - 1)), "0.5")
    elif kind == "drop one coordinate" and len(toks) >= 4:  # one coordinate stays
        del toks[draw(st.integers(1, len(toks) - 2))]
    elif kind == "drop every coordinate" and len(toks) >= 3:
        toks = [toks[0], toks[-1]]
    elif kind == "bare index":
        toks = toks[:1]
    elif kind == "nan coordinate" and len(toks) >= 3:
        toks[draw(st.integers(1, len(toks) - 2))] = "nan"
    elif kind == "missing line":
        return lines[:k] + lines[k + 1 :]
    elif kind == "extra line":
        return lines[:k] + [lines[k]] + lines[k:]
    elif kind == "header":
        return [draw(st.sampled_from(["space", "space x", "spaces 3", "#", ""]))] + lines[1:]
    elif kind == "whitespace line":
        return lines[:k] + [draw(st.sampled_from(BLANK_LINES[2:] + (" \r",)))] + lines[k:]
    elif kind == "line break":  # inside a line, or at its end as a CRLF ending
        at = draw(st.integers(0, len(lines[k])))
        brk = draw(st.sampled_from(LINE_BREAKS))
        return lines[:k] + [lines[k][:at] + brk + lines[k][at:]] + lines[k + 1 :]
    return lines[:k] + [" ".join(toks)] + lines[k + 1 :]


def _in_file_terms(message, path):
    """A per-line parser message as the reader words it: the line counted
    in the file, blank lines included, and the path on every message."""
    with open(path) as fh:
        body = [k + 2 for k, line in enumerate(fh.read().splitlines()[1:]) if line.split()]
    if not message.startswith(str(path)):  # a space or measure error
        return f"{path}: {message}"
    return re.sub(r"^(.*?):(\d+): ", lambda m: f"{m[1]}:{body[int(m[2]) - 2]}: ", message)


@settings(PROPERTY, max_examples=300)
@given(density_files(), st.data())
def test_reader_gives_the_line_parser_message_on_malformed_files(tmp_path, case, data):
    lines, n, dim = case
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(data.draw, lines, n, dim)
    if data.draw(st.booleans()):
        lines = _with_blank_lines(data.draw, lines)
    path = tmp_path / "bad.density"
    _write(data.draw, path, lines)
    got = _read(mp.read_density_file, path, _space_for(n, dim))
    want = _read(read_density_file_lines, path, _space_for(n, dim))
    if isinstance(want, str):
        assert got == _in_file_terms(want, path)
    else:
        assert got == want


def _spoil(draw, toks):
    """Put a token outside numpy's grammar into a point line: a Python-only
    spelling of a token with a digit, or a '#' token (no comment here).
    Returns the line and the reader's message for it."""
    if draw(st.booleans()):
        k = draw(st.sampled_from([k for k, tok in enumerate(toks) if re.search(r"\d", tok)]))
        toks[k] = _python_only(draw, toks[k])
        if k == len(toks) - 1:
            return " ".join(toks), "bad density value"
        return " ".join(toks), re.escape(f"bad {'point index' if k == 0 else 'coordinate'} {toks[k]!r}")
    toks.insert(draw(st.integers(1, len(toks))), draw(st.sampled_from(["#", "#x", "# 0", "# 0 0 0"])))
    return " ".join(toks), "bad density value|inconsistent coordinate columns|bad coordinate '#.*'"


@settings(PROPERTY, max_examples=300)
@given(density_files(), st.data())
def test_tokens_outside_numpys_grammar_are_refused_at_their_line(tmp_path, case, data):
    # Python-only spellings (1_0, Arabic-Indic digits) and '#' tokens; a '#'
    # line of its own is a point line too.  The first spoiled line is named.
    lines, n, dim = case
    whys = {}  # spoiled line -> the reader's message for it
    for k in data.draw(st.sets(st.integers(1, n), min_size=1, max_size=3)):
        lines[k], why = _spoil(data.draw, lines[k].split())
        whys[lines[k]] = why
    comments = data.draw(st.sampled_from([0, 0, 0, 1, 2]))
    for _ in range(comments):
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(["#", "# 0 0 0"])))
    if data.draw(st.booleans()):
        lines = _with_blank_lines(data.draw, lines)
    path = tmp_path / "spoiled.density"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = _read(mp.read_density_file, path, _space_for(n, dim))
    if comments:
        assert got == f"{path}: expected {n} point lines, found {n + comments}"
    else:
        first = next(k for k, line in enumerate(lines) if line in whys)
        assert re.fullmatch(rf"{re.escape(str(path))}:{first + 1}: ({whys[lines[first]]})", got), got


def _metric_mutation(draw, lines, n, dim):
    """One change to a density file: a token outside numpy's grammar, a
    30-digit index, a NaN or infinite coordinate, a blank or whitespace
    line, or one of the malformed-file mutations."""
    kind = draw(st.sampled_from(["spoil", "long index", "coordinate", "blank", "malformed"]))
    rows = [k for k in range(1, len(lines)) if len(lines[k].split()) >= 3 and re.search(r"\d", lines[k])]
    if kind == "malformed" or not rows:
        return _mutate(draw, lines, n, dim)
    k = draw(st.sampled_from(rows))
    toks = lines[k].split()
    if kind == "spoil":
        line = _spoil(draw, toks)[0]
    elif kind == "long index":
        toks[0] = draw(st.sampled_from(["9" * 30, "-" + "9" * 30, "0" * 29 + "1"]))
        line = " ".join(toks)
    elif kind == "coordinate":
        toks[draw(st.integers(1, len(toks) - 2))] = draw(st.sampled_from(["nan", "inf", "-inf", "+Infinity"]))
        line = " ".join(toks)
    else:
        return lines[:k] + [draw(st.sampled_from(BLANK_LINES + (" \r",)))] + lines[k:]
    return lines[:k] + [line] + lines[k + 1 :]


@settings(PROPERTY, max_examples=200)
@given(st.integers(1, 9), st.integers(1, 2), st.data())
def test_metric_on_mutated_files_exits_0_or_2_naming_a_file(tmp_path, capsys, n, dim, data):
    paths = [tmp_path / "a.density", tmp_path / "b.density"]
    for path in paths:
        lines = data.draw(density_files(st.just(n), st.just(dim)))[0]
        for _ in range(data.draw(st.integers(0, 2))):
            lines = _metric_mutation(data.draw, lines, n, dim)
        _write(data.draw, path, lines)
    code = main(["metric", str(paths[0]), str(paths[1]), "d1"])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert err.startswith((f"error: {paths[0]}", f"error: {paths[1]}")), err
    else:
        assert np.isfinite(float(out)) and err == ""


@settings(PROPERTY, max_examples=100)
@given(st.integers(1, 5), st.data())
def test_solve_and_attractor_of_table_systems_exit_0_or_4(tmp_path, capsys, n, data):
    # arbitrary tables need not contract: the fixed-point loop and the set
    # iteration may cycle, which is non-convergence (4), never a traceback
    n_maps = data.draw(st.integers(1, 3))
    maps = [data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n_maps)]
    weights = [0.0] + [-data.draw(st.sampled_from([0.0, 0.5, 2.0])) for _ in range(n_maps - 1)]
    start = data.draw(st.sampled_from(["uniform"] + [f"dirac\nindex = {i}" for i in range(n)]))
    rows = [" ".join("0" if i == j else "1" for j in range(n)) for i in range(n)]
    cfg = tmp_path / "table.cfg"
    cfg.write_text(
        f"[space]\nkind = matrix\nsize = {n}\n" + "".join(f"row = {r}\n" for r in rows)
        + "[ifs]\n" + "".join(f"map = table {' '.join(map(str, t))}\n" for t in maps)
        + f"weights = {' '.join(map(str, weights))}\n[initial]\nkind = {start}\n"
        + "[run]\nmax_iter = 50\nout = table.density\n"
    )
    for command in ("solve", "attractor"):
        code = main([command, str(cfg)])
        err = capsys.readouterr().err
        assert code in (0, 4), (command, err)
        assert err == "" if code == 0 else err.startswith("warning: ")


# --- the batched line d1 kernel -----------------------------------------------

@st.composite
def line_batches(draw):
    """An unsorted 1-D space and a batch of measure pairs on it.

    Coordinates are distinct integers times a scale (down to gaps of
    1e-160, above the 1.6e-162 coincidence limit) or free floats; levels
    are tied integers or continuous; a measure may be a single point.
    """
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True))
        scale = draw(st.sampled_from([1e-160, 3e-159, 3.0**-20, 1.0, 1e3]))
        x = np.array(ints, dtype=float) * scale
    else:
        x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n, unique=True)))
    try:
        space = mp.FiniteMetricSpace.from_coords(x)
    except ValueError:  # points closer than the coincidence limit
        assume(False)
    tied = draw(st.booleans())

    def measure():
        if draw(st.integers(0, 4)) == 0:
            return mp.dirac(space, draw(st.integers(0, n - 1)))
        finite = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if tied:
            vals = [-float(v) for v in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        else:
            vals = draw(st.lists(st.floats(-3.0, 0.0), min_size=n, max_size=n))
        raw = np.where(finite, vals, NEG)
        raw[draw(st.integers(0, n - 1))] = 0.0
        return mp.normalize(space, raw)

    return space, [(measure(), measure()) for _ in range(draw(st.integers(1, 6)))]


@settings(PROPERTY, max_examples=200)
@given(line_batches())
def test_batched_line_d1_equals_the_threshold_search_and_each_pair_alone(case):
    space, pairs = case
    got = mp.coupling_distances(pairs)
    x = space.coords[:, 0]
    exact = mp.FiniteMetricSpace(matrix=np.abs(x[:, None] - x[None, :]), validate=False)
    for (m1, m2), d in zip(pairs, got):
        assert d == mp.coupling_distances([(m1, m2)])[0] == mp.coupling_distance(m1, m2)
        assert d == threshold_d1(m1, m2)
        # the same distances as a matrix go through the off-line route
        c1, c2 = (mp.IdempotentMeasure(exact, m.density) for m in (m1, m2))
        assert d == mp.coupling_distance(c1, c2)


# --- d1 on the plane and in space ---------------------------------------------------

@st.composite
def plane_pairs(draw):
    """Two measures on 2-D or 3-D points scaled from 1e-150 to 1e150.

    Grids, shifted off the origin, and random points, with integer,
    continuous or equal levels, one one-point support, or cones toward
    opposite corners; or lattices at half the cell width h of the plane
    kernel, on the cell edges, where the cell indices round either way:
    level-0 sources sit on every 8th column and level-0 targets halfway
    between, 2h away on axis 0, the edge of the cover bound.
    """
    dim = draw(st.integers(2, 3))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "random", "edge"]))
    if kind == "edge":
        n = draw(st.integers(*{2: (16, 200), 3: (40, 120)}[dim]))  # |s1|: 5 lattice steps or more
        h = _cell_width(np.full(dim, scale), n)
        steps = np.arange(int(2.0 * scale / h)) * (h / 2)  # all below the corner
        axes = np.meshgrid(*[steps] * dim, indexing="ij")
        x = np.concatenate([np.stack([a.ravel() for a in axes], axis=1), np.full((1, dim), scale)])
        col = np.append(np.rint(axes[0].ravel() / (h / 2)).astype(int) % 8, 0)
        space = mp.FiniteMetricSpace.from_coords(x)
        picks = []
        for at in (0, 4):
            first = np.unique([x.shape[0] - 1, 0, np.flatnonzero(col == at)[0]])
            rest = rng.permutation(np.setdiff1d(np.arange(x.shape[0]), first))
            picks.append(np.concatenate([first, rest])[: n if at == 0 else draw(st.integers(2, n))])
        lam = np.full((2, x.shape[0]), NEG)
        for row, at, pick in zip(lam, (0, 4), picks):
            row[pick] = np.where(col[pick] == at, 0.0, -1.0)
        return tuple(mp.normalize(space, row) for row in lam)
    if kind == "grid":
        cells = draw(st.integers(1, {2: 14, 3: 5}[dim]))
        shift = draw(st.sampled_from([0.0, -0.5, 2.0])) * scale
        space = mp.build_grid([shift] * dim, [shift + scale] * dim, [cells] * dim)
    else:
        n = draw(st.integers(1, 150))
        x = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-2.0, 2.0, dim) * scale
        space = mp.FiniteMetricSpace.from_coords(x)
    x, n = space.coords, space.n_points
    levels = draw(st.sampled_from(["integer", "continuous", "equal", "one point", "cone"]))
    if levels == "cone":
        lo, hi = x.min(axis=0), x.max(axis=0)
        return tuple(
            mp.normalize(space, -np.sqrt(((x - corner) ** 2).sum(axis=1))) for corner in (lo, hi)
        )
    keep = rng.random((2, n)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    keep[:, rng.integers(n)] = True
    if levels == "integer":
        raw = -rng.integers(0, 4, (2, n)).astype(float)
    else:
        raw = -rng.uniform(0.0, 3.0, (2, n))
    m1, m2 = (mp.normalize(space, np.where(k, r, NEG)) for k, r in zip(keep, raw))
    if levels == "one point":
        m1 = mp.dirac(space, int(rng.integers(n)))
    return m1, (m1 if levels == "equal" else m2)


@settings(PROPERTY, max_examples=200)
@given(plane_pairs())
def test_plane_kernel_equals_the_threshold_search_on_drawn_pairs(case):
    m1, m2 = case
    space = m1.space
    s1, s2 = m1.support(), m2.support()
    l1, l2 = m1.density[s1], m2.density[s2]
    prefix = max(_directed_d1(space, s1, l1, s2, l2), _directed_d1(space, s2, l2, s1, l1))
    got = [_plane_d1(space, s1, l1, s2, l2), _plane_d1(space, s2, l2, s1, l1), prefix]
    assert [float.hex(d) for d in got] == [float.hex(threshold_d1(m1, m2))] * 3


# --- feasibility and Hausdorff distance through d1 ---------------------------------

SPACE_KINDS = ("line", "unsorted line", "2-D", "3-D", "4-D", "matrix", "product")


@st.composite
def coupling_cases(draw, kinds=SPACE_KINDS):
    """Two measures on a line (sorted or not), 2-D, 3-D or 4-D points, a
    random matrix space or a product (of the kinds given), with integer or
    continuous levels, Dirac measures among them, and two nonempty point sets."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 14))
    if kind == "matrix":
        space = random_matrix_space(np.random.default_rng(draw(st.integers(0, 999))), n)
    elif kind == "product":
        left = mp.build_grid([0.0], [1.0], [draw(st.integers(1, 4))])
        right = random_matrix_space(np.random.default_rng(draw(st.integers(0, 999))), 3)
        space = mp.product(left, right)
    else:
        dim = {"2-D": 2, "3-D": 3, "4-D": 4}.get(kind, 1)
        if draw(st.booleans()):  # small integers: many tied distances
            ints = draw(st.lists(st.integers(-4, 4), min_size=n * dim, max_size=n * dim))
            x = np.array(ints, dtype=float).reshape(n, dim) * draw(st.sampled_from([1.0, 0.1]))
        else:
            flat = draw(st.lists(st.floats(-10.0, 10.0), min_size=n * dim, max_size=n * dim))
            x = np.array(flat).reshape(n, dim)
        if kind == "line":
            x = np.sort(x, axis=0)
        try:
            space = mp.FiniteMetricSpace.from_coords(x)
        except ValueError:  # coincident points
            assume(False)
    n = space.n_points
    integer = draw(st.booleans())

    def measure():
        if draw(st.integers(0, 4)) == 0:
            return mp.dirac(space, draw(st.integers(0, n - 1)))
        finite = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if integer:
            vals = [-float(v) for v in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        else:
            vals = draw(st.lists(st.floats(-3.0, 0.0), min_size=n, max_size=n))
        raw = np.where(finite, vals, NEG)
        raw[draw(st.integers(0, n - 1))] = 0.0
        return mp.normalize(space, raw)

    def point_set():
        return draw(st.sets(st.integers(0, n - 1), min_size=1))

    m1, m2 = measure(), measure()
    table = space.distance_submatrix(m1.support(), m2.support()).ravel()
    entry = float(table[draw(st.integers(0, table.size - 1))])
    return space, m1, m2, entry, point_set(), point_set()


@PROPERTY
@given(coupling_cases())
def test_feasibility_and_hausdorff_through_d1_equal_the_dense_sweeps(case):
    space, m1, m2, entry, a, b = case
    d1 = mp.coupling_distance(m1, m2)
    for t in (d1, np.nextafter(d1, np.inf), np.nextafter(d1, -np.inf), 0.0, entry):
        assert mp.coupling_feasible(m1, m2, float(t)) == feasible_sweep(m1, m2, float(t))
    d = space.distance_submatrix(sorted(a), sorted(b))
    want = max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))
    assert mp.hausdorff(a, b, space) == want == mp.hausdorff(b, a, space)


# --- the coincidence check off the line ---------------------------------------

@st.composite
def point_sets(draw):
    """2-D and 3-D points with planted exact twins, offsets that underflow
    when squared (gaps near 1e-170) on some axes, and a third point sorted
    between an underflowing pair on axis 0 but apart on another axis.

    Coordinates are small integers times a scale, where 1e-162 steps chain
    into runs whose ends are apart, or free floats.
    """
    dim = draw(st.integers(2, 3))
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, 1e-150, 1e-162, 2e-162]))
        ints = draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
        x = np.array(ints, dtype=float).reshape(n, dim) * scale
    else:
        flat = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * dim, max_size=n * dim))
        x = np.array(flat).reshape(n, dim)
    tiny = st.sampled_from([0.0, -0.0, 1e-170, -3e-171, 1e-162, 1e-160])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x[j] = x[i] + np.array([draw(tiny) for _ in range(dim)])
    if draw(st.booleans()):  # a, c coincide; b lies between them on axis 0 only
        a = x[draw(st.integers(0, n - 1))]
        b = a + np.array([5e-171, 1.0] + [0.0] * (dim - 2))
        c = a + np.array([1e-170] + [0.0] * (dim - 1))
        rows = list(x) + [b, c]
        x = np.array([rows[k] for k in draw(st.permutations(range(len(rows))))])
    return x


@settings(PROPERTY, max_examples=300)
@given(point_sets())
def test_off_line_coincidence_check_equals_the_kdtree_pair_query(x):
    want = coincident_pair_kdtree(x)
    assert _coincident_pair(x, None) == want
    if want is None:
        assert mp.FiniteMetricSpace.from_coords(x).n_points == x.shape[0]
    else:
        with pytest.raises(ValueError, match=f"points {want[0]} and {want[1]} coincide"):
            mp.FiniteMetricSpace.from_coords(x)


# --- the line dual kernel -------------------------------------------------------

def _frame_thresholds(m1, m2):
    """The levels where the kernel's frames change, by its definitions.

    Returns the levels where the pair turns steep or flat; those where a
    source leaves a steep row, a (far - near) = 2 spread in either
    direction; and those where a point leaves a flat frame, a D = -top.
    """
    space = m1.space
    u = space.order[((m1.density > NEG) | (m2.density > NEG))[space.order]]
    x = space.coords[u, 0] - space.coords[u[0], 0]
    top = np.sort(np.maximum(m1.density[u], m2.density[u]))[::-1]
    spread = -min(m1.density[u].min(initial=0.0, where=m1.density[u] > NEG),
                  m2.density[u].min(initial=0.0, where=m2.density[u] > NEG))
    turns, edges, reaches = [], [], []
    if u.size > 1 and spread > 0.0 and np.diff(x).min() > 0.0:
        turns.append(2.0 * spread / np.diff(x).min())
    if top[u.size // 4] < 0.0:
        turns.append(-top[u.size // 4] / x[-1])
    with np.errstate(over="ignore", divide="ignore"):
        for lf, lt in ((m1.density[u], m2.density[u]), (m2.density[u], m1.density[u])):
            near = np.abs(x[lf > NEG, None] - x[None, lt > NEG]).min(axis=1)
            gaps = near.max() - np.unique(near)
            edges += (2.0 * spread / gaps[gaps > 0.0]).tolist()
        if u.size > 1:
            reaches += (-np.unique(top[top < 0.0]) / x[-1]).tolist()
    return turns, [a for a in edges if a < np.inf], [a for a in reaches if a < np.inf]


@st.composite
def line_dual_batches(draw):
    """Batches of pairs on an unsorted line for the dual kernel, with levels.

    Points are distinct integers times a scale (gaps near 1e-160 up to
    1e150, or inexact steps of 0.7) or free floats; densities have integer
    or continuous levels, single points, identical or nested supports,
    supports on either side of a cut (targets on one side only) or
    supports of very different sizes; the levels straddle each pair's steep and flat thresholds, the
    levels where a source leaves a steep row and those where a point
    leaves a flat frame, by less and by more than the kernel's margins.
    """
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 1e-160, 3e-150, 1e-3, 0.7, 7e149]))
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
        x = np.array(ints, dtype=float) * scale
    else:
        x = np.unique(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
        n = x.size
    x = x[draw(st.permutations(range(n)))]
    try:
        space = mp.FiniteMetricSpace.from_coords(x)
    except ValueError:  # points closer than the coincidence limit
        assume(False)
    integer = draw(st.booleans())

    def mask():
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))

    def measure(support=None):
        """A measure on the support (drawn if None), topping at one of its points."""
        support = mask() if support is None else support
        if integer:
            vals = [-float(v) for v in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        else:
            vals = draw(st.lists(st.floats(-3.0, 0.0), min_size=n, max_size=n))
        raw = np.where(support, vals, NEG)
        inside = np.flatnonzero(support).tolist() or list(range(n))
        raw[draw(st.sampled_from(inside))] = 0.0
        return mp.normalize(space, raw)

    kinds = ["free", "same-support", "nested", "dirac-vs-all", "dirac", "one-point", "equal"]
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(kinds + (["split"] if n > 1 else [])))
        if kind == "dirac":
            pair = tuple(mp.dirac(space, draw(st.integers(0, n - 1))) for _ in "ab")
        elif kind == "one-point":
            pair = (mp.dirac(space, draw(st.integers(0, n - 1))),) * 2
        elif kind == "dirac-vs-all":
            pair = (mp.dirac(space, draw(st.integers(0, n - 1))), measure(np.ones(n, dtype=bool)))
        elif kind == "same-support":
            support = mask()
            pair = (measure(support), measure(support))
        elif kind == "nested":  # every source of the first direction is a target
            outer = measure()
            inner = (outer.density > NEG) & mask()
            pair = (measure(inner if inner.any() else outer.density > NEG), outer)
        elif kind == "split":  # every target on one side of every source
            cut = draw(st.integers(1, n - 1))
            left = np.zeros(n, dtype=bool)
            left[space.order[:cut]] = True
            sides = [side & mask() for side in (left, ~left)]
            pair = tuple(measure(s if s.any() else side) for s, side in zip(sides, (left, ~left)))
        else:
            pair = (measure(), measure())
        if kind == "equal":
            pair = (pair[0], pair[0])
        pairs.append(pair if draw(st.booleans()) else pair[::-1])
    # series-like levels, then each pair's thresholds and their near sides
    levels = [3.0**k for k in range(-4, 5)]
    for m1, m2 in pairs:
        turns, edges, reaches = _frame_thresholds(m1, m2)
        for some in (edges, reaches):
            if some:
                turns += draw(st.lists(st.sampled_from(some), max_size=3, unique=True))
        for a in turns:
            levels += [a * (1.0 + t) for t in (-2.0**-20, -2.0**-45, 0.0, 2.0**-45, 2.0**-20)]
    span = max(float(np.ptp(x)), 1e-300)
    levels = np.array([a for a in levels if 1e-300 < a and a * span < 1e300])
    return space, pairs, levels


@settings(PROPERTY, max_examples=200)
@given(line_dual_batches())
def test_batched_line_dual_kernel_equals_the_dense_formula(case):
    space, pairs, levels = case
    got = _line_deltas(space, pairs, levels)
    for k, (m1, m2) in enumerate(pairs):
        want = np.array([dense_deltas(m1, m2, a) for a in levels.tolist()]).T
        # + 0.0 drops the sign of a zero, which numpy's max takes from its
        # reduction order: index order here, point order in the kernel
        assert _hex(got[:, k] + 0.0) == _hex(want + 0.0)


@st.composite
def grid_line_batches(draw):
    """Pairs on two copies of up to 10 points of an unsorted grid, with levels
    tied integers or continuous.

    The second copy of each measure repeats the first, lowered by a level
    that both measures of the pair share, as the two halves of a Markov
    image under two maps do: sources of the two copies tie in exact
    arithmetic and round apart.  Grid steps that floats do not hold
    exactly (0.7, 1/729, 0.1, 3^-20) and offsets widen the rounding.
    """
    ints = np.array(draw(st.lists(st.integers(0, 19), min_size=1, max_size=10, unique=True)))
    step = draw(st.sampled_from([0.7, 1 / 729, 0.1, 3.0**-20, 1.0]))
    ints = np.concatenate([ints, ints + draw(st.integers(20, 59))])
    space = mp.FiniteMetricSpace.from_coords(ints * step + draw(st.sampled_from([0.0, 0.5, 1e3])))
    n = ints.size // 2
    integer = draw(st.booleans())
    level = st.integers(0, 3).map(float) if integer else st.floats(0.0, 3.0)

    def measure(lower):
        finite = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        raw = np.where(finite, [-v for v in draw(st.lists(level, min_size=n, max_size=n))], NEG)
        raw[draw(st.integers(0, n - 1))] = 0.0
        return mp.normalize(space, np.concatenate([raw, raw - lower]))

    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        lower = draw(level)
        pairs.append((measure(lower), measure(lower)))
    return space, pairs


@settings(PROPERTY, max_examples=200)
@given(grid_line_batches())
def test_line_dual_metrics_equal_those_of_the_same_points_as_a_matrix(case):
    # the line kernel and the staircase kernel of an explicit matrix space
    # both give the dense formula's maximum, also where sources tie in the
    # line kernel's envelope ranking and differ in the last bits when dense
    space, pairs = case
    x = space.coords[:, 0]
    exact = mp.FiniteMetricSpace(matrix=np.abs(x[:, None] - x[None, :]), validate=False)
    same = [tuple(mp.IdempotentMeasure(exact, m.density) for m in pair) for pair in pairs]
    levels = np.array([3.0**k for k in range(-21, 22)])
    assert _hex(_dual_distances(pairs, levels)) == _hex(_dual_distances(same, levels))
    params = mp.SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6 * space.diameter())  # 21 terms a side
    got, want = (
        [(s.value.hex(), s.terms) for s in mp.series_distances(batch, params)] for batch in (pairs, same)
    )
    assert got == want


@st.composite
def mixed_steep_batches(draw):
    """Line batches whose pairs turn steep at different levels of one chunk.

    Up to 30 points of a grid, with steps that floats do not all hold
    exactly, and two or three points far past it, 10^3 to 10^6 steps apart,
    in any index order.  A pair on the far points turns steep about a factor
    10^3 below a pair on the grid.  The far gaps differ by at most 4 steps,
    so sources of a far pair lie at near-equal distances from their nearest
    targets, and one that is not the farthest wins at the pair's low steep
    levels only; pairs of equal supports keep every source, and integer
    levels make their values tie.
    """
    n = draw(st.integers(2, 30))
    step = draw(st.sampled_from([1.0, 0.7, 1 / 729, 3.0**-20]))
    base = draw(st.integers(10**3, 10**6))
    gaps = [base + g for g in draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3))]
    x = np.concatenate([np.arange(n), n - 1 + np.cumsum(gaps)]) * step
    perm = np.array(draw(st.permutations(range(x.size))))
    space = mp.FiniteMetricSpace.from_coords(x[perm])
    grid = perm < n
    integer = draw(st.booleans())
    level = st.integers(0, 3).map(float) if integer else st.floats(0.0, 3.0)

    def measure(support):
        raw = np.full(x.size, NEG)
        size = int(support.sum())
        raw[support] = [-v for v in draw(st.lists(level, min_size=size, max_size=size))]
        raw[draw(st.sampled_from(np.flatnonzero(support).tolist()))] = 0.0
        return mp.normalize(space, raw)

    def support(within):
        drawn = within & np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
        return drawn if drawn.any() else within

    more = draw(st.lists(st.sampled_from(["far", "grid", "equal", "all"]), max_size=4))
    pairs = []
    for kind in draw(st.permutations(["far", "grid"] + more)):
        within = {"far": ~grid, "grid": grid}.get(kind, np.ones(x.size, dtype=bool))
        if kind == "equal":
            first = measure(support(draw(st.sampled_from([grid, ~grid, within]))))
            pairs.append((first, measure(first.density > NEG)))
        else:
            pairs.append((measure(support(within)), measure(support(within))))
    return space, pairs


@settings(PROPERTY, max_examples=100)
@given(mixed_steep_batches())
def test_pairs_steep_at_different_levels_of_one_chunk_equal_the_dense_formula(case):
    # each steep row reads its own level, though the pairs of its chunk turn
    # steep at levels up to a factor 10^6 apart
    space, pairs = case
    levels = np.concatenate([EXTREME_LEVELS, [3.0**k for k in range(-21, 22)]])
    got = _dual_distances(pairs, levels)
    for k, (m1, m2) in enumerate(pairs):
        want = np.array([max(*dense_deltas(m1, m2, a), 0.0) for a in levels.tolist()])
        assert _hex(got[k] + 0.0) == _hex(want + 0.0)


# --- the off-line dual kernel against the dense formula --------------------------

@PROPERTY
@given(
    coupling_cases(kinds=SPACE_KINDS[2:]),
    st.lists(st.floats(1e-300, 1e300), max_size=4),
    st.sampled_from([1, 7, 64, None]),
)
def test_off_line_dual_kernel_equals_the_dense_formula(case, drawn, budget):
    # the extreme levels, powers of 3 and drawn levels, with row blocks and
    # level chunks of one entry, a few, or the default budget
    _, m1, m2 = case[:3]
    levels = np.concatenate([EXTREME_LEVELS, [3.0**k for k in range(-3, 4)], drawn])
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(mp.spaces, "_BLOCK_ELEMS", budget)
        got = _dual_distances([(m1, m2), (m2, m1)], levels)
    want = [float.hex(max(*dense_deltas(m1, m2, a), 0.0)) for a in levels.tolist()]
    assert _hex(got[0]) == _hex(got[1]) == want
