"""Command-line experiment runner.

Subcommands: orbit, shadow, counterexample, chainrec, attractor,
list-examples, verify.  Every run is seeded explicitly; identical configs
write byte-identical files.  Exit codes: 0 success, 1 analysis failure,
2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys
from random import Random

from . import acceptance, reporting
from .catalog import all_examples, chaos_game, make
from .chainrec import analyze, build_chain_graph, find_chain
from .counterexample import run_sweep
from .errors import IfsShadowError
from .orbits import BurstNoise, UniformNoise, noisy_average_orbit, validate
from .seeding import mix_seed
from .shadowing import GreedySearch, brute_force_search, constructive_shadow, shadow_delta
from .spaces import grid_points
from .systems import SymbolStream

_OUT_ENV = "IFS_SHADOW_OUT"


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line needs key=value: {line!r}")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def _pick(args_value, config: dict[str, str], key: str, default, cast):
    if args_value is not None:
        return args_value
    if key in config:
        return cast(config[key])
    return default


def _parse_params(pairs: list[str] | None, config: dict[str, str]) -> dict:
    merged: dict[str, object] = {}
    tokens = []
    if "param" in config:
        tokens.extend(t for t in config["param"].split(",") if t)
    tokens.extend(pairs or [])
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"--param needs key=value: {token!r}")
        key, value = token.split("=", 1)
        try:
            merged[key] = int(value)
        except ValueError:
            merged[key] = float(value)
    return merged


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write-probe~")
    with open(probe, "w", encoding="utf-8"):
        pass
    os.unlink(probe)
    return path


def _parse_endpoints(space, *texts: str) -> tuple:
    """Parse comma-separated chain endpoints, one coordinate per coordinate label."""
    width = len(space.coord_labels())
    for text in texts:
        if text.count(",") + 1 != width:
            raise ValueError(
                f"{space.describe()} points need {width} comma-separated coordinates, got {text!r}"
            )
    return tuple(space.parse_coords(text.split(",")) for text in texts)


def _noise_model(kind: str, delta: float, jump_factor: float, period: int):
    if kind == "uniform":
        return UniformNoise()
    if kind == "burst":
        return BurstNoise(jump=jump_factor * delta, period=period)
    raise ValueError(f"unknown noise model {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifs-shadow",
        description="average-shadowing experiments for iterated function systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, example: bool = True) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help=f"output directory (default ${_OUT_ENV} or .)")
        p.add_argument("--seed", type=int, help="base seed (default 0)")
        if example:
            p.add_argument("--example", help="catalog entry name")
            p.add_argument(
                "--param", action="append", metavar="KEY=VALUE",
                help="example parameter, repeatable",
            )

    p = sub.add_parser("orbit", help="generate and validate a pseudo-orbit")
    common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--noise", choices=("uniform", "burst"))
    p.add_argument("--jump-factor", type=float, help="burst jump as a multiple of delta")
    p.add_argument("--period", type=int, help="burst period")
    p.add_argument("--mode", choices=("plain", "average", "average_shifted"))

    p = sub.add_parser("shadow", help="constructive shadow plus oracle search")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--noise", choices=("uniform", "burst"))
    p.add_argument("--jump-factor", type=float)
    p.add_argument("--period", type=int)
    p.add_argument("--search", choices=("greedy", "none"))
    p.add_argument("--candidates", type=int, help="search grid resolution")

    p = sub.add_parser("counterexample", help="block-orbit scan on the circle pair")
    common(p, example=False)
    p.add_argument("--a", type=float)
    p.add_argument("--block", type=int)
    p.add_argument("--doublings", type=int)
    p.add_argument("--grid", type=int)
    p.add_argument("--streams", type=int)

    p = sub.add_parser("chainrec", help="box graph, recurrence classes, chains")
    common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--resolution", type=int)
    p.add_argument("--samples", type=int, help="sample points per box")
    p.add_argument("--maps", help="semicolon-separated map labels (JSON each)")
    p.add_argument("--chain-from", dest="chain_from", help="comma-separated coords")
    p.add_argument("--chain-to", dest="chain_to", help="comma-separated coords")

    p = sub.add_parser("attractor", help="chaos game point cloud and image")
    common(p)
    p.add_argument("--iterations", type=int)
    p.add_argument("--resolution", type=int)

    p = sub.add_parser("list-examples", help="print the catalog")

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p, example=False)
    return parser


def _cmd_orbit(args, config) -> int:
    name = _pick(args.example, config, "example", "sierpinski", str)
    params = _parse_params(args.param, config)
    horizon = _pick(args.horizon, config, "horizon", 500, int)
    delta = _pick(args.delta, config, "delta", 0.05, float)
    noise = _pick(args.noise, config, "noise", "uniform", str)
    jump_factor = _pick(args.jump_factor, config, "jump_factor", 8.0, float)
    period = _pick(args.period, config, "period", 16, int)
    mode = _pick(args.mode, config, "mode", "average", str)
    seed = _pick(args.seed, config, "seed", 0, int)
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))

    ifs = make(name, **params)
    start = ifs.space.sample(Random(mix_seed(seed, 1)))
    stream = SymbolStream.random(ifs.labels, mix_seed(seed, 2))
    orbit = noisy_average_orbit(
        ifs, start, stream, horizon, delta,
        _noise_model(noise, delta, jump_factor, period), mix_seed(seed, 3),
    )
    verdict = validate(orbit, delta, mode)
    resolved = {
        "command": "orbit", "example": ifs.name, "horizon": horizon,
        "delta": delta, "noise": noise, "jump_factor": jump_factor,
        "period": period, "mode": mode, "seed": seed,
    }
    path = os.path.join(out, "orbit.tsv")
    reporting.write_orbit(path, orbit, resolved)
    print(f"wrote {path}")
    print(f"validation[{mode}] delta={delta:g}: passed={verdict.passed}")
    return 0


def _cmd_shadow(args, config) -> int:
    name = _pick(args.example, config, "example", "sierpinski", str)
    params = _parse_params(args.param, config)
    eps = _pick(args.eps, config, "eps", 0.1, float)
    horizon = _pick(args.horizon, config, "horizon", 2000, int)
    noise = _pick(args.noise, config, "noise", "burst", str)
    jump_factor = _pick(args.jump_factor, config, "jump_factor", 8.0, float)
    period = _pick(args.period, config, "period", 16, int)
    search = _pick(args.search, config, "search", "greedy", str)
    resolution = _pick(args.candidates, config, "candidates", 16, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))

    ifs = make(name, **params)
    delta = shadow_delta(ifs, eps)
    start = ifs.space.sample(Random(mix_seed(seed, 1)))
    stream = SymbolStream.random(ifs.labels, mix_seed(seed, 2))
    orbit = noisy_average_orbit(
        ifs, start, stream, horizon, delta,
        _noise_model(noise, delta, jump_factor, period), mix_seed(seed, 3),
    )
    report = constructive_shadow(ifs, orbit, eps)
    # search (and its budget check) before writing, so a failed run writes nothing
    result = None
    if search == "greedy":
        result = brute_force_search(
            ifs, orbit, grid_points(ifs.space, resolution), GreedySearch()
        )
    resolved = {
        "command": "shadow", "example": ifs.name, "eps": eps, "horizon": horizon,
        "noise": noise, "jump_factor": jump_factor, "period": period,
        "search": search, "candidates": resolution, "seed": seed,
    }
    path = os.path.join(out, "shadow_constructive.csv")
    reporting.write_shadow_report(path, report, resolved)
    print(f"wrote {path}")
    print(f"delta={delta:g} tail={report.tail:g} eps={eps:g} ok={report.tail < eps}")
    if result is not None:
        spath = os.path.join(out, "shadow_search.csv")
        reporting.write_shadow_report(spath, result.report, resolved)
        print(f"wrote {spath}")
        print(f"search average={result.report.average:g} vs constructive={report.average:g}")
    return 0


def _cmd_counterexample(args, config) -> int:
    a = _pick(args.a, config, "a", 0.5, float)
    block = _pick(args.block, config, "block", 16, int)
    doublings = _pick(args.doublings, config, "doublings", 10, int)
    grid = _pick(args.grid, config, "grid", 512, int)
    streams = _pick(args.streams, config, "streams", 64, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))

    sweep = run_sweep(
        a=a, block=block, doublings=doublings, grid=grid, streams=streams, seed=seed
    )
    resolved = {
        "command": "counterexample", "a": a, "block": block,
        "doublings": doublings, "grid": grid, "streams": streams, "seed": seed,
    }
    spath = os.path.join(out, "sweep.csv")
    reporting.write_sweep(spath, sweep, resolved)
    bpath = os.path.join(out, "block_orbit.tsv")
    reporting.write_orbit(bpath, sweep.block_orbit, resolved)
    print(f"wrote {spath}")
    print(f"wrote {bpath}")
    print(
        f"block orbit validates at delta={sweep.delta:g}: {sweep.validation.passed}; "
        f"captured={sweep.all_captured}; min tail={sweep.min_tail:g}"
    )
    return 0


def _cmd_chainrec(args, config) -> int:
    name = _pick(args.example, config, "example", "circle_counterexample", str)
    params = _parse_params(args.param, config)
    eps = _pick(args.eps, config, "eps", 0.02, float)
    resolution = _pick(args.resolution, config, "resolution", 256, int)
    samples = _pick(args.samples, config, "samples", 3, int)
    maps_spec = _pick(args.maps, config, "maps", "", str)
    chain_from = _pick(args.chain_from, config, "chain_from", "", str)
    chain_to = _pick(args.chain_to, config, "chain_to", "", str)
    seed = _pick(args.seed, config, "seed", 0, int)
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))

    if bool(chain_from) != bool(chain_to):
        raise ValueError("--chain-from and --chain-to must be given together")
    ifs = make(name, **params)
    ends = _parse_endpoints(ifs.space, chain_from, chain_to) if chain_from else None
    labels = None
    if maps_spec:
        labels = tuple(reporting.decode_label(tok) for tok in maps_spec.split(";") if tok)
    graph = build_chain_graph(
        ifs, eps, resolution, labels=labels, samples_per_box=samples, seed=seed
    )
    report = analyze(graph)
    resolved = {
        "command": "chainrec", "example": ifs.name, "eps": eps,
        "resolution": resolution, "samples": samples,
        "maps": maps_spec or "all", "seed": seed,
    }
    epath = os.path.join(out, "edges.txt")
    reporting.write_edges(epath, graph, resolved)
    rpath = os.path.join(out, "recurrence.csv")
    reporting.write_recurrence(rpath, report, resolved)
    print(f"wrote {epath}")
    print(f"wrote {rpath}")
    print(
        f"boxes={len(graph)} edges={graph.n_edges} "
        f"recurrent={len(report.recurrent)} components={len(report.components)}"
    )
    if ends:
        chain = find_chain(graph, *ends)
        if chain is None:
            print("no chain found at this eps/resolution")
            return 1
        cpath = os.path.join(out, "chain.tsv")
        reporting.write_orbit(cpath, chain.orbit, resolved)
        print(f"wrote {cpath}")
        print(f"chain length={chain.length} max step error={max(chain.orbit.errors):g}")
    return 0


def _cmd_attractor(args, config) -> int:
    name = _pick(args.example, config, "example", "sierpinski", str)
    params = _parse_params(args.param, config)
    iterations = _pick(args.iterations, config, "iterations", 20000, int)
    resolution = _pick(args.resolution, config, "resolution", 256, int)
    seed = _pick(args.seed, config, "seed", 0, int)
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))

    ifs = make(name, **params)
    start = ifs.space.sample(Random(mix_seed(seed, 1)))
    points = chaos_game(ifs, start, iterations, seed=mix_seed(seed, 2))
    resolved = {
        "command": "attractor", "example": ifs.name,
        "iterations": iterations, "resolution": resolution, "seed": seed,
    }
    ppath = os.path.join(out, "attractor_points.tsv")
    reporting.write_points(ppath, ifs.space, points, resolved)
    ipath = os.path.join(out, "attractor.pgm")
    reporting.write_pgm(ipath, ifs, points, resolution)
    print(f"wrote {ppath}")
    print(f"wrote {ipath}")
    return 0


def _cmd_list_examples() -> int:
    for descriptor in all_examples():
        print(descriptor.label())
        for key in sorted(descriptor.properties):
            print(f"  {key} = {descriptor.properties[key]}")
    return 0


def _cmd_verify(args, config) -> int:
    out = _ensure_out(_pick(args.out, config, "out", os.environ.get(_OUT_ENV, "."), str))
    passed, text = acceptance.verify()
    path = os.path.join(out, "acceptance_report.txt")
    reporting.write_text(path, text)
    sys.stdout.write(text)
    print(f"wrote {path}")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        if args.command == "orbit":
            return _cmd_orbit(args, config)
        if args.command == "shadow":
            return _cmd_shadow(args, config)
        if args.command == "counterexample":
            return _cmd_counterexample(args, config)
        if args.command == "chainrec":
            return _cmd_chainrec(args, config)
        if args.command == "attractor":
            return _cmd_attractor(args, config)
        if args.command == "list-examples":
            return _cmd_list_examples()
        if args.command == "verify":
            return _cmd_verify(args, config)
        parser.error(f"unknown command {args.command!r}")
    except IfsShadowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
