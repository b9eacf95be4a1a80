"""Batch command-line front-end.

Commands: solve, metric, attractor, verify, render.  Exit codes: 0 success,
2 configuration or input error, 3 contraction-certificate failure, 4
non-convergence, 5 verification violation.  All randomness flows from the
config seed through the fixed 64-bit generator, so reports are byte-stable
across platforms.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import (
    ConfigError,
    build_ifs,
    build_initial,
    build_space,
    metric_params,
    parse_config,
    run_params,
    verify_params,
)
from .ifs import CertificateError, attractor, iterate_fixed_point, markov
from .measures import read_density_file, write_density_file
from .metrics import (
    SeriesParams,
    coupling_distance,
    harmonic_series_distance,
    lipschitz_distance,
    series_distance,
)
from .rng import Lcg64, random_measure
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
    write_density_file(run.out, mu)
    sup = mu.support()
    print(f"solve: {args.config}")
    print(f"iterations: {diag.iterations}")
    print(f"residual ({run.metric}): {_fmt(diag.residuals[-1]) if diag.residuals else 'n/a'}")
    print(f"exact fixed point: {'yes' if diag.exact else 'no'}")
    if diag.apriori_bound is not None:
        print(f"a-priori distance bound: {_fmt(diag.apriori_bound)}")
    else:
        print("a-priori distance bound: n/a (no Banach factor below 1)")
    print(f"support ({sup.size} points): {' '.join(str(i) for i in sup)}")
    print(f"density file: {run.out}")
    if not diag.converged:
        print(f"warning: {diag.message}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def _parse_metric_spec(spec: str):
    name, _, rest = spec.partition(":")
    opts = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ConfigError(f"bad metric option {item!r} in {spec!r}")
            try:
                opts[key.strip()] = float(val)
            except ValueError as exc:
                raise ConfigError(f"bad metric option value in {item!r}") from exc
    if name == "d1":
        if opts:
            raise ConfigError("d1 takes no options")
        return ("d1", None)
    if name == "da":
        if set(opts) != {"a"} or opts["a"] <= 0:
            raise ConfigError("da requires a positive option a=<real>")
        return ("da", opts["a"])
    if name == "dtilde":
        if set(opts) != {"alpha", "q", "tol"}:
            raise ConfigError("dtilde requires alpha=<r>,q=<r>,tol=<r>")
        try:
            return ("dtilde", SeriesParams(opts["alpha"], opts["q"], opts["tol"]))
        except ValueError as exc:
            raise ConfigError(f"dtilde: {exc}") from exc
    if name == "brz":
        if set(opts) != {"tol"} or opts["tol"] <= 0:
            raise ConfigError("brz requires a positive option tol=<real>")
        return ("brz", opts["tol"])
    raise ConfigError(f"unknown metric {name!r} (want d1, da, dtilde or brz)")


def cmd_metric(args) -> int:
    kind, param = _parse_metric_spec(args.spec)
    space = None
    if args.config:
        space = build_space(parse_config(args.config))
    try:
        mu1 = read_density_file(args.file_a, space)
        mu2 = read_density_file(args.file_b, mu1.space)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if kind == "d1":
        print(_fmt(coupling_distance(mu1, mu2)))
    elif kind == "da":
        print(_fmt(lipschitz_distance(mu1, mu2, param)))
    else:
        series = series_distance if kind == "dtilde" else harmonic_series_distance
        try:
            res = series(mu1, mu2, param)
        except ValueError as exc:  # truncation outside the float range
            raise ConfigError(str(exc)) from exc
        print(f"{_fmt(res.value)} tail {_fmt(res.tail_bound)}")
    return 0


# ---------------------------------------------------------------------------
# attractor
# ---------------------------------------------------------------------------

def cmd_attractor(args) -> int:
    cfg = parse_config(args.config)
    space = build_space(cfg)
    ifs = build_ifs(cfg, space, renormalize=args.renormalize)
    start = build_initial(cfg, space).support()
    points = sorted(attractor(ifs, start))
    print(f"attractor: {args.config}")
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
    mp = metric_params(cfg)
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

    run_series = alpha <= mp.alpha * (1 + 1e-12) and mp.alpha < mp.q
    if run_series:
        params = SeriesParams(mp.alpha, mp.q, mp.tol)
        try:
            params.n_terms(space.diameter())
        except ValueError as exc:
            raise ConfigError(f"{cfg.path}: [metric] {exc}") from exc

    rng = Lcg64(run.seed)
    pairs = [
        (
            random_measure(space, rng, vp.support_prob, vp.depth, points=candidates),
            random_measure(space, rng, vp.support_prob, vp.depth, points=candidates),
        )
        for _ in range(vp.pairs)
    ]
    print(f"pairs: {vp.pairs}, seed {run.seed}, mode {mode}")

    failures = 0

    worst_gap = -float("inf")
    worst_ratio = 0.0
    used = 0
    for mu1, mu2 in pairs:
        den = coupling_distance(mu1, mu2)
        if den == 0.0:
            continue
        used += 1
        num = coupling_distance(markov(ifs, mu1), markov(ifs, mu2))
        worst_gap = max(worst_gap, num - d1_bound(den))
        worst_ratio = max(worst_ratio, num / den)
    d1_ok = used > 0 and worst_gap <= 1e-9
    failures += 0 if d1_ok else 1
    print(
        f"check d1: max ratio {_fmt(worst_ratio)}, max excess over bound "
        f"{_fmt(worst_gap)} ({used} usable pairs) {'PASS' if d1_ok else 'FAIL'}"
    )

    if run_series:
        factor = mp.alpha / mp.q
        worst_excess = -float("inf")
        worst_ratio = 0.0
        used = 0
        for mu1, mu2 in pairs:
            den = series_distance(mu1, mu2, params)
            if den.value == 0.0:
                continue
            used += 1
            num = series_distance(markov(ifs, mu1), markov(ifs, mu2), params)
            # certified: true numerator <= factor * (value + tail)
            worst_excess = max(worst_excess, num.value - factor * (den.value + den.tail_bound))
            worst_ratio = max(worst_ratio, num.value / den.value)
        series_ok = used > 0 and worst_excess <= 1e-9
        failures += 0 if series_ok else 1
        print(
            f"check dtilde(alpha={_fmt(mp.alpha)}, q={_fmt(mp.q)}): max ratio "
            f"{_fmt(worst_ratio)} vs factor {_fmt(factor)}, max certified excess "
            f"{_fmt(worst_excess)} ({used} usable pairs) {'PASS' if series_ok else 'FAIL'}"
        )
    else:
        print(
            f"check dtilde: skipped (needs map factor <= alpha < q; "
            f"factor {_fmt(alpha)}, alpha {_fmt(mp.alpha)}, q {_fmt(mp.q)})"
        )

    print(f"verify: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 5


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def _grid_layout(coords: np.ndarray):
    """Map coordinate rows onto a dense 1-D or 2-D lattice, row-major."""
    dim = coords.shape[1]
    if dim > 2:
        raise ConfigError(f"render supports 1-D and 2-D spaces, got {dim}-D")
    if dim == 1:
        order = np.argsort(coords[:, 0], kind="stable")
        return (1, coords.shape[0]), order[None, :]
    ax0 = np.unique(coords[:, 0])
    ax1 = np.unique(coords[:, 1])
    if ax0.size * ax1.size != coords.shape[0]:
        raise ConfigError("points do not form a full rectangular grid")
    i0 = np.searchsorted(ax0, coords[:, 0])
    i1 = np.searchsorted(ax1, coords[:, 1])
    layout = np.full((ax0.size, ax1.size), -1, dtype=int)
    layout[i0, i1] = np.arange(coords.shape[0])
    if np.any(layout < 0):
        raise ConfigError("points do not form a full rectangular grid")
    return (ax0.size, ax1.size), layout


def cmd_render(args) -> int:
    if args.floor >= 0:
        raise ConfigError("--floor must be negative (densities live in [-inf, 0])")
    try:
        mu = read_density_file(args.density_file)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    coords = mu.space.coords
    shape, layout = _grid_layout(coords)
    vals = mu.density[layout]
    scaled = np.where(
        (vals == NEG_INF) | (vals <= args.floor),
        0.0,
        np.rint(255.0 * (1.0 - vals / args.floor)),
    )
    img = scaled.astype(np.uint8)
    header = f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii")
    with open(args.out, "wb") as fh:
        fh.write(header + img.tobytes())
    print(f"wrote {shape[1]}x{shape[0]} graymap to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
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
    p.add_argument("--floor", type=float, required=True, help="density mapped to black")

    args = parser.parse_args(argv)
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
