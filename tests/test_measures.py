import itertools
import re
import warnings

import numpy as np
import pytest

import maxplus_ifs as mp
from conftest import NEG, np_random_measure, random_matrix_space
from oracles import read_density_file_lines


def test_normalize_examples():
    g = mp.build_grid([0], [1], [2])
    m = mp.normalize(g, [-1, -3, NEG])
    np.testing.assert_array_equal(m.density, [0, -2, NEG])
    m = mp.normalize(g, [0, -1, -0.5])
    np.testing.assert_array_equal(m.density, [0, -1, -0.5])
    with pytest.raises(ValueError):
        mp.normalize(g, [NEG, NEG, NEG])


def test_normalize_is_idempotent():
    rng = np.random.default_rng(0)
    g = mp.build_grid([0], [1], [7])
    for _ in range(50):
        m = np_random_measure(g, rng)
        again = mp.normalize(g, m.density)
        assert again == m


def test_measure_constructor_enforces_invariants():
    g = mp.build_grid([0], [1], [1])
    with pytest.raises(ValueError):
        mp.IdempotentMeasure(g, [-1.0, -2.0])  # max not 0
    with pytest.raises(ValueError):
        mp.IdempotentMeasure(g, [0.0, 1.0])  # positive entry
    with pytest.raises(ValueError):
        mp.IdempotentMeasure(g, [0.0])  # wrong length
    with pytest.raises(ValueError):
        mp.IdempotentMeasure(g, [0.0, float("nan")])


def test_measures_from_rows_equal_one_by_one_and_refuse_alike():
    rng = np.random.default_rng(40)
    g = mp.build_grid([0], [1], [6])
    raw = np.where(rng.random((5, 7)) < 0.6, -rng.uniform(0.0, 3.0, (5, 7)), NEG)
    raw[:, 3] = 0.0
    got = mp.IdempotentMeasure.from_rows(g, raw)
    assert got == [mp.IdempotentMeasure(g, row) for row in raw]
    assert all(not mu.density.flags.writeable for mu in got)
    raw[0, 0] = -9.0  # the measures hold a copy
    assert got[0].density[0] != -9.0
    assert mp.IdempotentMeasure.from_rows(g, np.empty((0, 7))) == []
    bad_rows = [[-1.0] * 7] + [[0.0, bad] + [0.0] * 5 for bad in (1.0, float("nan"), np.inf)]
    for bad in bad_rows:
        table = np.vstack([raw[1:3], [bad], raw[3:]])
        with pytest.raises(ValueError) as one:
            mp.IdempotentMeasure(g, bad)
        with pytest.raises(ValueError) as batch:
            mp.IdempotentMeasure.from_rows(g, table)
        assert str(batch.value) == str(one.value)
    with pytest.raises(ValueError) as one:
        mp.IdempotentMeasure(g, [0.0] * 6)
    with pytest.raises(ValueError) as batch:
        mp.IdempotentMeasure.from_rows(g, np.zeros((3, 6)))
    assert str(batch.value) == str(one.value)
    # NaN or +inf anywhere is named before a maximum other than 0
    with pytest.raises(ValueError, match=re.escape("density entries must be in [-inf, 0]")):
        mp.IdempotentMeasure.from_rows(g, [[-1.0] * 7, [0.0] * 6 + [float("nan")]])


def test_measures_compare_and_hash_by_space_and_density():
    g = mp.build_grid([0], [1], [3])
    mu, same = mp.dirac(g, 1), mp.IdempotentMeasure(g, [NEG, 0.0, NEG, NEG])
    assert mu.__eq__(0) is NotImplemented and (mu == 0) is False
    assert mu == same and hash(mu) == hash(same) and len({mu, same}) == 1


def test_dirac_and_integrate_examples():
    g = mp.build_grid([0], [1], [3])
    d = mp.dirac(g, 2)
    f = mp.TestFunction(g, [1.0, 2.0, -7.5, 4.0])
    assert mp.integrate(d, f) == -7.5
    np.testing.assert_array_equal(d.support(), [2])
    # constant functions integrate to the constant
    c = mp.TestFunction(g, [3.25] * 4)
    assert mp.integrate(d, c) == 3.25
    # direct evaluation of the density formula
    two = mp.build_grid([0], [1], [1])
    m = mp.IdempotentMeasure(two, [0.0, -2.0])
    assert mp.integrate(m, mp.TestFunction(two, [1.0, 5.0])) == 3.0


def test_integrate_space_mismatch():
    a = mp.build_grid([0], [1], [1])
    b = mp.build_grid([0], [1], [1])
    with pytest.raises(ValueError):
        mp.integrate(mp.dirac(a, 0), mp.TestFunction(b, [0.0, 0.0]))


def test_support_examples():
    g = mp.build_grid([0], [1], [2])
    np.testing.assert_array_equal(
        mp.IdempotentMeasure(g, [0, -5, NEG]).support(), [0, 1]
    )
    np.testing.assert_array_equal(mp.uniform(g).support(), [0, 1, 2])


def test_lipschitz_constant_matches_double_loop_on_product():
    # 600 points: the row-block sweep crosses a block boundary
    rng = np.random.default_rng(12)
    left, right = mp.build_grid([0, 0], [1, 1], [3, 4]), random_matrix_space(rng, 30)
    p = mp.product(left, right)
    dl, dr = left.distance_matrix(), right.distance_matrix()
    f = mp.TestFunction(p, rng.normal(size=p.n_points))
    v = f.values.tolist()
    best = 0.0
    for i in range(p.n_points):
        il, ir = divmod(i, right.n_points)
        for j in range(p.n_points):
            jl, jr = divmod(j, right.n_points)
            if i != j:
                best = max(best, abs(v[i] - v[j]) / max(dl[il, jl], dr[ir, jr]))
    assert f.lipschitz_constant() == best


def test_measure_axioms_random():
    rng = np.random.default_rng(1)
    g = mp.build_grid([0], [1], [9])
    for _ in range(300):
        m = np_random_measure(g, rng)
        f = mp.TestFunction(g, rng.uniform(-5, 5, 10))
        h = mp.TestFunction(g, rng.uniform(-5, 5, 10))
        c = float(rng.uniform(-5, 5))
        assert mp.integrate(m, mp.TestFunction(g, np.full(10, c))) == c
        # oplus-linearity is exact; odot-homogeneity is one float add per entry
        shifted = mp.TestFunction(g, c + f.values)
        assert mp.integrate(m, shifted) == pytest.approx(
            c + mp.integrate(m, f), abs=1e-12
        )
        fmax = mp.TestFunction(g, np.maximum(f.values, h.values))
        assert mp.integrate(m, fmax) == max(mp.integrate(m, f), mp.integrate(m, h))


def test_integrate_dominates_zero_density_points():
    rng = np.random.default_rng(2)
    g = mp.build_grid([0], [1], [5])
    for _ in range(50):
        m = np_random_measure(g, rng)
        f = mp.TestFunction(g, rng.uniform(-5, 5, 6))
        for x in np.flatnonzero(m.density == 0.0):
            assert mp.integrate(m, f) >= f.values[x]


def test_pushforward_examples():
    g = mp.build_grid([0], [1], [3])
    h = mp.build_grid([0], [1], [1])
    # Dirac transport
    out = mp.pushforward(mp.dirac(g, 1), [1, 0, 1, 1], h)
    assert out == mp.dirac(h, 0)
    # constant map collapses everything
    rng = np.random.default_rng(3)
    m = np_random_measure(g, rng)
    assert mp.pushforward(m, [1, 1, 1, 1], h) == mp.dirac(h, 1)
    # fiber maximum
    two = mp.build_grid([0], [1], [1])
    m = mp.IdempotentMeasure(two, [0.0, -1.0])
    out = mp.pushforward(m, [0, 0], two)
    np.testing.assert_array_equal(out.density, [0.0, NEG])


def test_pushforward_change_of_variables():
    rng = np.random.default_rng(4)
    g = mp.build_grid([0], [1], [7])
    h = mp.build_grid([0], [1], [4])
    for _ in range(100):
        m = np_random_measure(g, rng)
        fmap = rng.integers(0, 5, 8)
        out = mp.pushforward(m, fmap, h)
        gfun = rng.uniform(-5, 5, 5)
        lhs = mp.integrate(out, mp.TestFunction(h, gfun))
        rhs = mp.integrate(m, mp.TestFunction(g, gfun[fmap]))
        assert lhs == rhs


def test_pushforward_functoriality_exhaustive():
    # I(g . f) = I(g) . I(f) on densities, all maps on a 3-point space
    rng = np.random.default_rng(5)
    s = random_matrix_space(rng, 3)
    measures = [mp.dirac(s, i) for i in range(3)] + [
        np_random_measure(s, rng) for _ in range(3)
    ]
    for f in itertools.product(range(3), repeat=3):
        for g in itertools.product(range(3), repeat=3):
            comp = [g[f[i]] for i in range(3)]
            for m in measures:
                one = mp.pushforward(m, comp, s)
                two = mp.pushforward(mp.pushforward(m, f, s), g, s)
                assert one == two


def test_weighted_oplus_examples():
    g = mp.build_grid([0], [1], [1])
    da, db = mp.dirac(g, 0), mp.dirac(g, 1)
    assert mp.weighted_oplus([0.0], [da]) == da
    out = mp.weighted_oplus([0.0, -1.0], [da, db])
    np.testing.assert_array_equal(out.density, [0.0, -1.0])
    m = mp.IdempotentMeasure(g, [0.0, -0.25])
    assert mp.weighted_oplus([0.0, 0.0], [m, m]) == m
    with pytest.raises(ValueError):
        mp.weighted_oplus([-1.0, -2.0], [da, db])  # max weight not 0
    with pytest.raises(ValueError):
        mp.weighted_oplus([0.0], [da, db])


def test_density_file_round_trip_exact(tmp_path):
    rng = np.random.default_rng(6)
    g = mp.build_grid([0, -1], [2, 4], [3, 2])
    for i in range(20):
        m = np_random_measure(g, rng, depth=30.0)
        path = tmp_path / f"m{i}.density"
        mp.write_density_file(path, m)
        back = mp.read_density_file(path)
        np.testing.assert_array_equal(back.density, m.density)
        np.testing.assert_allclose(back.space.coords, g.coords, atol=0)
    # with an explicit space handed over, coords are not required
    s = random_matrix_space(rng, 4)
    m = np_random_measure(s, rng)
    path = tmp_path / "matrix.density"
    mp.write_density_file(path, m)
    with pytest.raises(ValueError, match="coordinate"):
        mp.read_density_file(path)
    back = mp.read_density_file(path, s)
    assert back == m


def test_density_file_errors(tmp_path):
    p = tmp_path / "bad.density"
    p.write_text("nonsense\n")
    with pytest.raises(ValueError, match="header"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n")
    with pytest.raises(ValueError, match="expected 2"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n5 1.0 -1\n")
    with pytest.raises(ValueError, match="out of range"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n0 1.0 -1\n")
    with pytest.raises(ValueError, match="duplicate"):
        mp.read_density_file(p)


def test_density_file_space_consistency(tmp_path):
    a = mp.build_grid([0], [1], [1])
    b = mp.build_grid([0], [2], [1])
    p = tmp_path / "a.density"
    mp.write_density_file(p, mp.dirac(a, 0))
    with pytest.raises(ValueError, match="disagree"):
        mp.read_density_file(p, b)
    # same geometry is accepted
    assert mp.read_density_file(p, a) == mp.dirac(a, 0)


def test_blank_lines_keep_the_file_line_number(tmp_path):
    # the per-line parser counted point lines only and blamed line 3
    p = tmp_path / "blank.density"
    p.write_text("space 2\n\n\n0 0.0 0\n\n0 1.0 -1\n")
    with pytest.raises(ValueError, match=r"blank\.density:6: duplicate point index 0$"):
        mp.read_density_file(p)


def _refusal(reader, path, space=None):
    with pytest.raises(ValueError) as err:
        reader(path, space)
    return str(err.value)


def test_a_line_without_its_coordinate_column_is_refused(tmp_path):
    # point 1 used to be placed at coordinate 0.0; the per-line parser
    # refuses it with the reader's message
    p = tmp_path / "short.density"
    p.write_text("space 3\n0 5.0 0\n1 -1\n2 2.0 -2\n")
    with pytest.raises(ValueError, match=r"short\.density:3: inconsistent coordinate columns$"):
        mp.read_density_file(p)
    assert _refusal(read_density_file_lines, p) == _refusal(mp.read_density_file, p)
    # and a first line without coordinates is no exception
    p.write_text("space 2\n0 0\n1 1.0 -1\n")
    with pytest.raises(ValueError, match=r"short\.density:3: inconsistent coordinate columns$"):
        mp.read_density_file(p)
    assert _refusal(read_density_file_lines, p) == _refusal(mp.read_density_file, p)


def test_a_bare_index_line_is_refused(tmp_path):
    # the index token doubled as the value: `0` read as density 0; the
    # per-line parser refuses it with the reader's message
    space = mp.build_grid([0.0], [1.0], [1])
    p = tmp_path / "bare.density"
    p.write_text("space 2\n0\n1 -1\n")
    with pytest.raises(ValueError, match=r"bare\.density:2: bad density value$"):
        mp.read_density_file(p, space)
    assert _refusal(read_density_file_lines, p, space) == _refusal(mp.read_density_file, p, space)
    p.write_text("space 2\n0 0\n1\n")
    with pytest.raises(ValueError, match=r"bare\.density:3: bad density value$"):
        mp.read_density_file(p, space)
    assert _refusal(read_density_file_lines, p, space) == _refusal(mp.read_density_file, p, space)


def test_density_errors_name_the_file_and_line(tmp_path):
    p = tmp_path / "top.density"
    p.write_text("space 3\n0 0.0 -1\n1 0.5 0.25\n2 1.0 0.5\n")
    with pytest.raises(ValueError, match=r"top\.density:3: density entries must be <= 0$"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 -1\n1 1.0 -inf\n")
    with pytest.raises(
        ValueError, match=r"top\.density: density maximum must be exactly 0; use normalize\(\)$"
    ):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n1 1.x -1\n")
    with pytest.raises(ValueError, match=r"top\.density:3: bad coordinate '1\.x'$"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n99999999999999999999999 1.0 -1\n")
    with pytest.raises(ValueError, match=r":3: point index 99999999999999999999999 out of range$"):
        mp.read_density_file(p)


def test_first_bad_line_wins_whatever_its_kind(tmp_path):
    # each column is checked whole; the message is the first bad line's
    p = tmp_path / "two.density"
    body = ["0 0.0 0", "1 0.1 -1", "2 0.2 -2", "3 0.3 -3"]
    cases = {
        (1, "1 0.1 nan"): "bad density value",
        (2, "x 0.2 -2"): "bad point index 'x'",
        (3, "3 0.3 0.3 -3"): "inconsistent coordinate columns",
        (2, "1 0.2 -2"): "duplicate point index 1",
    }
    for (k, line), message in cases.items():
        for later in ("9 0.3 -3", "3 0.3 x", "3 0.3", "3 0.x -3"):
            lines = body[:k] + [line] + body[k + 1 :]
            if k < 3:
                lines[3] = later
            p.write_text("space 4\n" + "\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=rf"two\.density:{k + 2}: {re.escape(message)}$"):
                mp.read_density_file(p)


def test_writer_output_is_pinned_to_seventeen_digits(tmp_path):
    g = mp.FiniteMetricSpace.from_coords([[0.1, -0.0], [1.0 / 3.0, 1e-300]])
    p = tmp_path / "w.density"
    mp.write_density_file(p, mp.IdempotentMeasure(g, [-0.0, -5e-324]))
    assert p.read_text() == (
        "space 2\n0 0.10000000000000001 -0 -0\n1 0.33333333333333331 1e-300 "
        "-4.9406564584124654e-324\n"
    )
    mp.write_density_file(p, mp.IdempotentMeasure(g, [0.0, NEG]))
    assert p.read_text().splitlines()[2].endswith(" -inf")


def test_empty_bodies_keep_their_messages_and_warn_nothing(tmp_path):
    # np.loadtxt warns "input contained no data" on an empty body
    p = tmp_path / "empty.density"
    cases = {
        "space 3\n": "expected 3 point lines, found 0",
        "space 2\n\n \t\n\n": "expected 2 point lines, found 0",
        "space 0\n": "density maximum must be exactly 0; use normalize()",
        "space 0\n\n  \n": "density maximum must be exactly 0; use normalize()",
        "space 0\n0 0.0 0\n": "expected 0 point lines, found 1",
    }
    for text, message in cases.items():
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                mp.read_density_file(p)
        assert str(exc.value) == f"{p}: {message}" and caught == []


def test_a_hash_starts_no_comment(tmp_path):
    # np.loadtxt skips what follows a "#" unless told otherwise
    p = tmp_path / "hash.density"
    p.write_text("space 2\n0 0.0 0\n# 0 0 0\n1 1.0 -1\n")
    with pytest.raises(ValueError, match=r"hash\.density: expected 2 point lines, found 3$"):
        mp.read_density_file(p)
    p.write_text("space 2\n0 0.0 0\n1 1.0 -1 # last\n")
    with pytest.raises(ValueError, match=r"hash\.density:3: inconsistent coordinate columns$"):
        mp.read_density_file(p)


def test_an_index_spelled_as_a_float_is_refused_whatever_numpy_parses(tmp_path, monkeypatch):
    # numpy 2 refuses such an index; numpy 1.x parsed it with a DeprecationWarning,
    # which the reader takes for a refusal even where such warnings are ignored
    p = tmp_path / "float.density"
    real = np.loadtxt

    def lenient(lines, dtype=float, **kwargs):
        # numpy 1.x warned only where an integer column held a float spelling
        rows = [line.split() for line in lines]
        if np.dtype(dtype).names and any(not r[0].lstrip("+-").isdigit() for r in rows if r):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            lines = [" ".join([str(int(float(r[0])))] + r[1:]) for r in rows if r]
        return real(lines, dtype, **kwargs)

    for index in ("1.0", "1e0"):
        p.write_text(f"space 2\n0 0.0 0\n{index} 1.0 -1\n")
        for loadtxt in (real, lenient):
            monkeypatch.setattr(np, "loadtxt", loadtxt)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(ValueError, match=rf"float\.density:3: bad point index '{index}'$"):
                    mp.read_density_file(p)


def test_the_space_count_is_read_in_numpys_integer_grammar(tmp_path):
    # Python's int also reads these (a negative count too, refused as a header);
    # the point lines are judged the same way
    p = tmp_path / "py.density"
    for count in ("\u0662", "0_2", "2.0", "+", "-3"):
        p.write_text(f"space {count}\n0 0.0 0\n1 1.0 -1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"py.density: bad space header: 'space {count}'")):
            mp.read_density_file(p)
    with pytest.raises(ValueError, match=re.escape("py.density: bad space header: 'space -3'")):
        read_density_file_lines(p)  # the line parser refuses a negative count the same way
    p.write_text("space +02\n0 0.0 0\n1 1.0 -1\n")
    assert mp.read_density_file(p).space.n_points == 2


def test_a_bad_last_line_of_a_large_file_is_named(tmp_path):
    # the refusal bisects the point lines; the last one is found too
    plane = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    p = tmp_path / "large.density"
    mp.write_density_file(p, mp.uniform(plane))
    lines = p.read_text().splitlines()
    for bad, message in (("6560 1 1 1_0", "bad density value"), ("6560 1 1_0 0", "bad coordinate '1_0'")):
        p.write_text("\n".join(lines[:-1] + [bad]) + "\n")
        with pytest.raises(ValueError, match=rf"large\.density:6562: {re.escape(message)}$"):
            mp.read_density_file(p)


def test_a_line_with_an_extra_column_is_named_for_it_whatever_its_sign(tmp_path):
    # the value was checked before the column count, so an extra positive
    # last token was read as a positive density
    rng = np.random.default_rng(41)
    plane = mp.build_grid([0.0, 0.0], [1.0, 1.0], [80, 80])
    p = tmp_path / "wide.density"
    mp.write_density_file(p, mp.normalize(plane, -rng.integers(0, 8, plane.n_points).astype(float)))
    lines = p.read_text().splitlines()
    for extra in (" 7", " -7"):
        p.write_text("\n".join(lines[:3001] + [lines[3001] + extra] + lines[3002:]) + "\n")
        message = r"wide\.density:3002: inconsistent coordinate columns$"
        with pytest.raises(ValueError, match=message):
            mp.read_density_file(p)


def test_coordinates_are_compared_at_the_scale_of_the_space(tmp_path):
    # an absolute 1e-12 tolerance accepted any coordinates below that scale
    p = tmp_path / "tiny.density"
    tiny = mp.build_grid([0.0], [1e-150], [2])
    p.write_text("space 3\n0 0 0\n1 9e-151 -1\n2 1e-150 -2\n")
    with pytest.raises(ValueError, match=r"tiny\.density: coordinates disagree with the given space$"):
        mp.read_density_file(p, tiny)
    # coordinates rounded to 12 digits agree at every scale
    for exp in range(-150, 151, 25):
        space = mp.build_grid([0.0, -(10.0**exp)], [10.0**exp, 0.0], [7, 3])
        rows = [f"{i} {x:.12g} {y:.12g} 0" for i, (x, y) in enumerate(space.coords)]
        p.write_text(f"space {space.n_points}\n" + "\n".join(rows) + "\n")
        assert mp.read_density_file(p, space) == mp.uniform(space)
        # and a point moved by a tenth of a cell does not
        rows[5] = f"5 {space.coords[5, 0] + 10.0**exp / 70:.12g} {space.coords[5, 1]:.12g} 0"
        p.write_text(f"space {space.n_points}\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="disagree"):
            mp.read_density_file(p, space)
