"""Memory reuse on `verify`'s path: one workspace per batch call.

Each batch call that `verify` makes (`random_measures`, `markov_many`,
`coupling_distances`, `series_distances`) makes its chunk-sized
temporaries once, or keeps them under glibc's 128 KB mmap threshold; an
array above the threshold is mapped afresh and faulted in page by page at
each use.  So the number of large allocations inside one call is a
constant of the call, not a count per chunk of pairs or block of draws.
"""

import sys
import tracemalloc

import numpy as np

import maxplus_ifs as mp
from conftest import cantor_ifs

LARGE = 128 << 10  # glibc's default mmap threshold


def _verify_batch(pairs: int, k: int = 6):
    """The measures, Markov images and pairs of `verify` with seed 0 on the Cantor grid of
    3^k cells (730 points by default)."""
    ifs = cantor_ifs(k)
    draw = (ifs.space, mp.Lcg64(0), 2 * pairs, 0.7, 3.0, ifs.exactly_mapped_points())
    measures = mp.random_measures(*draw)
    images = mp.markov_many(ifs, measures)
    batch = list(zip(measures[::2], measures[1::2])) + list(zip(images[::2], images[1::2]))
    return ifs, draw, measures, batch


def _large_allocations(call, *args) -> int:
    """Bytecode steps inside call(*args) across which traced memory rose by LARGE or more.

    One step is one numpy call or operator, so a step counts when it
    allocates an array of at least LARGE bytes (or a few that add up to
    it).  The ufunc buffer size is cut from 8192 to 1024 elements for the
    count: numpy's iterator buffers (64 KB an operand) are its own scratch,
    under the threshold at any size, and must not add up to a count.
    """
    count, level = 0, 0

    def trace(frame, event, arg):
        nonlocal count, level
        frame.f_trace_opcodes = True
        if tracemalloc.get_traced_memory()[1] - level >= LARGE:
            count += 1
        tracemalloc.reset_peak()
        level = tracemalloc.get_traced_memory()[0]
        return trace

    old = np.setbufsize(1024)
    tracemalloc.start()
    level = tracemalloc.get_traced_memory()[0]
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
        np.setbufsize(old)
    return count


def test_large_allocations_of_a_verify_call_do_not_grow_with_its_chunks(monkeypatch):
    # per call on the seed-0 batch: sampling none (blocks of 2^13 states, 16
    # measures of 93 KB); the Markov step its index and weighted rows, the
    # running maximum of all measures, and from_rows' copy (4 in all, under
    # a bound of 6);
    # d1 its workspace; the series its workspace and its output.  Half the
    # budgets take about twice the chunks and no more large allocations
    params = mp.SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6)
    ifs, draw, measures, batch = _verify_batch(100)
    layout, chunks = mp.metrics._line_layout, []

    def counted(*args):
        chunks.append(0)
        for chunk in layout(*args):
            chunks[-1] += 1
            yield chunk

    counts = []
    for share in (1, 2):
        monkeypatch.setattr(mp.spaces, "_FRESH_ELEMS", mp.spaces._FRESH_ELEMS // share)
        monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", mp.spaces._BLOCK_ELEMS // share)
        monkeypatch.setattr(mp.metrics, "_line_layout", counted)
        counts.append(
            [
                _large_allocations(mp.random_measures, *draw),
                _large_allocations(mp.markov_many, ifs, measures),
                _large_allocations(mp.coupling_distances, batch),
                _large_allocations(mp.series_distances, batch, params),
            ]
        )
        monkeypatch.undo()
    assert chunks == [12, 2, 25, 3]  # d1 and series chunks at each budget
    assert counts[0] == counts[1]
    assert all(c <= bound for c, bound in zip(counts[0], [0, 6, 1, 2]))


def test_line_kernels_take_every_temporary_from_their_workspace(monkeypatch):
    # no take of a line kernel falls past the end of its call's workspace: a
    # 6562-point pair at one level and along a series, and the series and d1
    # of `verify`'s batch on the 28-point and the 730-point Cantor grids, at
    # the default budgets and at half of them
    take, outside = mp.metrics._Workspace.take, []

    def checked(ws, shape, dtype=float):
        view = take(ws, shape, dtype)
        if not np.shares_memory(view, ws._buf) and view.size:
            outside.append((sys._getframe(1).f_code.co_name, view.nbytes))
        return view

    params = mp.SeriesParams(alpha=1 / 3, q=0.5, tol=1e-6)
    line = mp.build_grid([0.0], [1.0], [6561])
    rng = np.random.default_rng(0)
    pair = []
    for _ in "ab":  # integer levels on about 70 % of the points, as in the benchmark files
        finite = rng.random(line.n_points) < 0.7
        raw = np.where(finite, -rng.integers(0, 8, line.n_points).astype(float), -np.inf)
        pair.append(mp.normalize(line, raw))
    batches = [_verify_batch(100, k)[3] for k in (3, 6)]
    for share in (1, 2):
        monkeypatch.setattr(mp.spaces, "_FRESH_ELEMS", mp.spaces._FRESH_ELEMS // share)
        monkeypatch.setattr(mp.spaces, "_BLOCK_ELEMS", mp.spaces._BLOCK_ELEMS // share)
        monkeypatch.setattr(mp.metrics._Workspace, "take", checked)
        mp.lipschitz_distance(*pair, 3.0)
        mp.series_distance(*pair, params)
        mp.coupling_distance(*pair)
        for batch in batches:
            mp.series_distances(batch, params)
            mp.coupling_distances(batch)
        monkeypatch.undo()
    assert outside == []
