"""Batch command-line front-end.

Commands: solve, metric, attractor, verify, render.  Exit codes: 0 success,
2 configuration or input error, 3 contraction-certificate failure, 4
non-convergence, 5 verification violation.  All randomness flows from the
config seed through the fixed 64-bit generator, so reports are byte-stable
across platforms.  `verify` formats the reports of
`metrics.empirical_contraction`, one per check; a failing check names its
worst pair on stderr (`replay: d1 worst pair is #k of seed s`).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .config import (
    ConfigError,
    build_ifs,
    build_initial,
    build_space,
    metric_params,
    parse_config,
    reported,
    run_params,
    verify_params,
)
from .ifs import CertificateError, attractor, iterate_fixed_point, markov_many
from .measures import NoCoordinatesError, read_density_file, write_density_file
from .metrics import (
    SeriesParams,
    coupling_distance,
    coupling_distances,
    empirical_contraction,
    harmonic_series_distance,
    lipschitz_distance,
    series_distance,
    series_distances,
)
from .rng import Lcg64, random_measures
from .semiring import NEG_INF


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    space = build_space(cfg)
    ifs = build_ifs(cfg, space, renormalize=args.renormalize)
    mu0 = build_initial(cfg, space)
    run = run_params(cfg)
    mu, diag = iterate_fixed_point(
        ifs, mu0, metric=run.metric, tol=run.tol, max_iter=run.max_iter
    )
    with reported(f"{args.config}: [run] out"):
        write_density_file(run.out, mu)
    sup = mu.support()
    print(f"solve: {args.config}")
    print(f"iterations: {diag.iterations}")
    print(f"residual ({run.metric}): {_fmt(diag.residuals[-1]) if diag.residuals else 'n/a'}")
    print(f"exact fixed point: {'yes' if diag.exact else 'no'}")
    if diag.apriori_bound is not None:
        print(f"a-priori distance bound: {_fmt(diag.apriori_bound)}")
    elif ifs.discrete_lip_max >= 1.0:
        print("a-priori distance bound: n/a (no Banach factor below 1)")
    else:
        print("a-priori distance bound: n/a (the bound holds for d1 residuals only)")
    print(f"support ({sup.size} points): {' '.join(str(i) for i in sup)}")
    print(f"density file: {run.out}")
    if not diag.converged:
        print(f"warning: {diag.message}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

_METRIC_OPTIONS = {"d1": (), "da": ("a",), "dtilde": ("alpha", "q", "tol"), "brz": ("tol",)}


def _parse_metric_spec(spec: str):
    """Metric name and option values; the metric itself judges the values."""
    name, _, rest = spec.partition(":")
    opts = {}
    for item in rest.split(",") if rest else ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"bad metric option {item!r} in {spec!r}")
        if key in opts:
            raise ConfigError(f"repeated metric option {key!r} in {spec!r}")
        with reported(f"bad metric option value in {item!r}"):
            opts[key] = float(val)
    if name not in _METRIC_OPTIONS:
        raise ConfigError(f"unknown metric {name!r} (want d1, da, dtilde or brz)")
    if set(opts) != set(_METRIC_OPTIONS[name]):
        wanted = ",".join(f"{key}=<real>" for key in _METRIC_OPTIONS[name])
        raise ConfigError(f"{name} takes {wanted or 'no options'}")
    return name, opts


def cmd_metric(args) -> int:
    kind, opts = _parse_metric_spec(args.spec)
    space = None
    if args.config:
        space = build_space(parse_config(args.config))
    with reported():
        mu1 = read_density_file(args.file_a, space)
        mu2 = read_density_file(args.file_b, mu1.space)
    with reported(args.spec):
        if kind == "d1":
            res = coupling_distance(mu1, mu2)
        elif kind == "da":
            res = lipschitz_distance(mu1, mu2, opts["a"])
        elif kind == "dtilde":
            res = series_distance(mu1, mu2, SeriesParams(**opts))
        else:
            res = harmonic_series_distance(mu1, mu2, opts["tol"])
    print(_fmt(res) if kind in ("d1", "da") else f"{_fmt(res.value)} tail {_fmt(res.tail_bound)}")
    return 0


# ---------------------------------------------------------------------------
# attractor
# ---------------------------------------------------------------------------

def cmd_attractor(args) -> int:
    cfg = parse_config(args.config)
    space = build_space(cfg)
    ifs = build_ifs(cfg, space, renormalize=args.renormalize)
    start = build_initial(cfg, space).support()
    print(f"attractor: {args.config}")
    try:
        points = sorted(attractor(ifs, start))
    except RuntimeError as exc:  # a non-contractive table can cycle: non-convergence
        print(f"warning: {exc}", file=sys.stderr)
        return 4
    print(f"attractor ({len(points)} points): {' '.join(str(i) for i in points)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    space = build_space(cfg)
    ifs = build_ifs(cfg, space, renormalize=args.renormalize)  # CertificateError -> 3
    run = run_params(cfg)
    params = metric_params(cfg)
    vp = verify_params(cfg)

    print(f"verify: {args.config}")
    print(f"space: {space.n_points} points")
    print(
        f"maps: {ifs.n_maps}, discrete Lipschitz max {_fmt(ifs.discrete_lip_max)}, "
        f"declared max {_fmt(ifs.declared_lip_max) if ifs.declared_lip_max is not None else 'n/a'}"
    )

    if ifs.all_witnessed():
        mode = "witnessed"
        candidates = None
        d1_bound = ifs.combined_witness
        alpha = ifs.discrete_lip_max
        print("certificates: witnesses verified on all pairs")
    else:
        alpha = ifs.declared_lip_max
        if alpha is None or alpha >= 1.0:
            print("error: maps carry neither witnesses nor contractive declared factors")
            return 3
        mode = "declared"
        candidates = ifs.exactly_mapped_points()
        if candidates.size < 2:
            print("error: fewer than 2 exactly-mapped points to sample from")
            return 3
        d1_bound = lambda t: alpha * t  # noqa: E731
        print(
            f"certificates: declared factor {_fmt(alpha)}; sampling restricted to "
            f"{candidates.size} exactly-mapped points (discrete factor on the full "
            f"space is {_fmt(ifs.discrete_lip_max)})"
        )

    run_series = alpha <= params.alpha * (1 + 1e-12) and params.alpha < params.q
    if run_series:
        with reported(f"{cfg.path}: [metric]"):
            # the Markov images lie up to -min(weights) below the sampled densities' depth
            params.n_terms(space.diameter(), vp.depth - float(ifs.weights.min()))

    measures = random_measures(
        space, Lcg64(run.seed), 2 * vp.pairs, vp.support_prob, vp.depth, points=candidates
    )
    pairs = list(zip(measures[::2], measures[1::2]))
    print(f"pairs: {vp.pairs}, seed {run.seed}, mode {mode}")

    steps = markov_many(ifs, measures)
    images = list(zip(steps[::2], steps[1::2]))
    d1 = empirical_contraction(coupling_distances, pairs, images, d1_bound)
    print(
        f"check d1: max ratio {_fmt(d1.max_ratio)}, max excess over bound "
        f"{_fmt(d1.max_excess)} ({d1.used} usable pairs) {'PASS' if d1.passed else 'FAIL'}"
    )
    reports = [("d1", d1)]

    if run_series:
        factor = params.alpha / params.q
        series = empirical_contraction(
            lambda batch: series_distances(batch, params),
            pairs,
            images,
            # certified: true numerator <= factor * (value + tail)
            lambda den: factor * (den.value + den.tail_bound),
        )
        print(
            f"check dtilde(alpha={_fmt(params.alpha)}, q={_fmt(params.q)}): max ratio "
            f"{_fmt(series.max_ratio)} vs factor {_fmt(factor)}, max certified excess "
            f"{_fmt(series.max_excess)} ({series.used} usable pairs) "
            f"{'PASS' if series.passed else 'FAIL'}"
        )
        reports.append(("dtilde", series))
    else:
        print(
            f"check dtilde: skipped (needs map factor <= alpha < q; "
            f"factor {_fmt(alpha)}, alpha {_fmt(params.alpha)}, q {_fmt(params.q)})"
        )

    for name, report in reports:
        if report.worst is not None and not report.passed:
            print(
                f"replay: {name} worst pair is #{report.worst} of seed {run.seed}",
                file=sys.stderr,
            )
    passed = all(report.passed for _, report in reports)
    print(f"verify: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 5


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def _grid_layout(space):
    """Map a space's points onto a dense 1-D or 2-D lattice, row-major."""
    n, dim = space.coords.shape
    if dim > 2:
        raise ConfigError(f"render supports 1-D and 2-D spaces, got {dim}-D")
    if dim == 1:
        return (1, n), space.order[None, :]
    ax0, i0 = np.unique(space.coords[:, 0], return_inverse=True)
    ax1, i1 = np.unique(space.coords[:, 1], return_inverse=True)
    if ax0.size * ax1.size != n:
        raise ConfigError("points do not form a full rectangular grid")
    layout = np.full((ax0.size, ax1.size), -1, dtype=int)
    layout[i0, i1] = np.arange(n)  # distinct points fill every cell
    return (ax0.size, ax1.size), layout


def cmd_render(args) -> int:
    if not -np.inf < args.floor < 0:
        raise ConfigError("--floor must be finite and negative (densities live in [-inf, 0])")
    with reported():
        try:
            mu = read_density_file(args.density_file)
        except NoCoordinatesError:
            raise ConfigError(
                f"{args.density_file}: render needs coordinate columns to lay out the points"
            ) from None
    shape, layout = _grid_layout(mu.space)
    vals = mu.density[layout]
    scaled = np.where(
        (vals == NEG_INF) | (vals <= args.floor),
        0.0,
        np.rint(255.0 * (1.0 - vals / args.floor)),
    )
    img = scaled.astype(np.uint8)
    header = f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii")
    with reported(), open(args.out, "wb") as fh:
        fh.write(header + img.tobytes())
    print(f"wrote {shape[1]}x{shape[0]} graymap to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="maxplus-ifs",
        description="Invariant idempotent measures of max-plus IFSs and metrics between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="iterate the Markov operator to its fixed measure")
    p.add_argument("config")
    p.add_argument("--renormalize", action="store_true", help="shift weights to max 0")

    p = sub.add_parser("metric", help="distance between two density files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("spec", help="d1 | da:a=<r> | dtilde:alpha=<r>,q=<r>,tol=<r> | brz:tol=<r>")
    p.add_argument("--config", help="config supplying the space for files without coordinates")

    p = sub.add_parser("attractor", help="stabilized set iteration of the map images")
    p.add_argument("config")
    p.add_argument("--renormalize", action="store_true")

    p = sub.add_parser("verify", help="empirical contraction checks against the proven bounds")
    p.add_argument("config")
    p.add_argument("--renormalize", action="store_true")

    p = sub.add_parser("render", help="density file to binary portable graymap")
    p.add_argument("density_file")
    p.add_argument("out")
    p.add_argument("--floor", type=float, required=True, help="density mapped to black, as --floor=-1e-3")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "metric": cmd_metric,
        "attractor": cmd_attractor,
        "verify": cmd_verify,
        "render": cmd_render,
    }
    try:
        return handlers[args.command](args)
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
