"""Deterministic file outputs: orbit tables, report CSVs, edge lists, PGM.

All writers are atomic (temp file + rename) and timestamp-free; identical
inputs produce byte-identical files.  Floats are serialized with repr, which
round-trips exactly.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterable, Sequence

from .chainrec import ChainGraph, RecurrenceReport
from .counterexample import CounterexampleSweep, stream_seed
from .errors import BudgetExceededError
from .orbits import PseudoOrbit
from .shadowing import ShadowReport
from .spaces import Circle, Interval, PlaneRegion, Point, Space
from .systems import IFSystem


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, data)


def fmt(x: float) -> str:
    return repr(float(x))


def encode_label(label: object) -> str:
    return json.dumps(label, separators=(",", ":"))


def _tuplify(value: object) -> object:
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def decode_label(text: str) -> object:
    return _tuplify(json.loads(text))


def _config_lines(config: dict) -> list[str]:
    return [f"# {key} = {config[key]}" for key in sorted(config)]


# --------------------------------------------------------------------------
# orbit tables


def render_orbit(orbit: PseudoOrbit, config: dict | None = None) -> str:
    space = orbit.space
    lines = ["# ifs-shadow orbit"]
    lines.extend(_config_lines(config or {}))
    lines.append(f"# space = {space.describe()}")
    lines.append(f"# horizon = {orbit.horizon}")
    coord_names = "\t".join(space.coord_labels())
    lines.append(f"index\tsymbol\t{coord_names}\talpha")
    for i, p in enumerate(orbit.points):
        coords = "\t".join(space.format_coords(p))
        if i < orbit.horizon:
            lines.append(
                f"{i}\t{encode_label(orbit.symbols[i])}\t{coords}\t{fmt(orbit.errors[i])}"
            )
        else:
            lines.append(f"{i}\t\t{coords}\t")
    return "\n".join(lines) + "\n"


def write_orbit(path: str, orbit: PseudoOrbit, config: dict | None = None) -> None:
    write_text(path, render_orbit(orbit, config))


def load_orbit(path: str, space: Space) -> PseudoOrbit:
    points: list[Point] = []
    symbols: list[object] = []
    errors: list[float] = []
    n_coords = len(space.coord_labels())
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("index\t"):
                continue
            cols = line.split("\t")
            if len(cols) != n_coords + 3:
                raise ValueError(f"bad orbit row: {line!r}")
            points.append(space.parse_coords(cols[2 : 2 + n_coords]))
            if cols[1]:
                symbols.append(decode_label(cols[1]))
                errors.append(float(cols[-1]))
    return PseudoOrbit(
        space=space,
        points=tuple(points),
        symbols=tuple(symbols),
        errors=tuple(errors),
    )


# --------------------------------------------------------------------------
# shadow reports


def render_shadow_report(report: ShadowReport, config: dict | None = None) -> str:
    lines = ["# ifs-shadow shadow report"]
    lines.extend(_config_lines(config or {}))
    lines.append(f"# horizon = {report.horizon}")
    lines.append(f"# window = {fmt(report.window)}")
    lines.append(f"# tail = {fmt(report.tail)}")
    lines.append(f"# average = {fmt(report.average)}")
    if report.delta is not None:
        lines.append(f"# delta = {fmt(report.delta)}")
    if report.cumulative is not None:
        lines.append(f"# cumulative = {fmt(report.cumulative)}")
    if report.cumulative_bound is not None:
        lines.append(f"# cumulative_bound = {fmt(report.cumulative_bound)}")
    has_bounds = report.bounds is not None
    header = "index,distance,profile" + (",bound" if has_bounds else "")
    lines.append(header)
    for i in range(report.horizon + 1):
        row = f"{i},{fmt(report.distances[i])},{fmt(report.profile[i])}"
        if has_bounds:
            row += f",{fmt(report.bounds[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_shadow_report(path: str, report: ShadowReport, config: dict | None = None) -> None:
    write_text(path, render_shadow_report(report, config))


# --------------------------------------------------------------------------
# chain graphs


def render_edges(graph: ChainGraph, config: dict | None = None) -> str:
    lines = ["# ifs-shadow chain graph edges"]
    lines.extend(_config_lines(config or {}))
    lines.append(f"# boxes = {len(graph)}")
    lines.append(f"# eps = {fmt(graph.eps)}")
    # one string per non-empty row, not one per edge: "src dst" lines joined
    names = [str(i) for i in range(len(graph))]
    for src, row in enumerate(graph.edges):
        if row:
            head = names[src] + " "
            lines.append(head + ("\n" + head).join(map(names.__getitem__, row)))
    return "\n".join(lines) + "\n"


def write_edges(path: str, graph: ChainGraph, config: dict | None = None) -> None:
    write_text(path, render_edges(graph, config))


def render_recurrence(report: RecurrenceReport, config: dict | None = None) -> str:
    graph = report.graph
    cover = graph.cover
    space = graph.ifs.space
    comp_of = {}
    for cid, comp in enumerate(report.components):
        for box in comp:
            comp_of[box] = cid
    lines = ["# ifs-shadow recurrence report"]
    lines.extend(_config_lines(config or {}))
    lines.append(f"# eps = {fmt(report.eps)}")
    lines.append(f"# resolution = {report.resolution}")
    lines.append(f"# boxes = {len(graph)}")
    lines.append(f"# recurrent = {len(report.recurrent)}")
    lines.append(f"# components = {len(report.components)}")
    coord_names = ",".join(space.coord_labels())
    lines.append(f"box,{coord_names},recurrent,component,self_loop")
    loops = set(report.self_loops)
    for box, center in enumerate(cover.centers):
        coords = ",".join(space.format_coords(center))
        lines.append(
            f"{box},{coords},{int(box in report.recurrent)},"
            f"{comp_of.get(box, -1)},{int(box in loops)}"
        )
    return "\n".join(lines) + "\n"


def write_recurrence(path: str, report: RecurrenceReport, config: dict | None = None) -> None:
    write_text(path, render_recurrence(report, config))


# --------------------------------------------------------------------------
# counterexample sweeps


def render_sweep(sweep: CounterexampleSweep, config: dict | None = None) -> str:
    lines = ["# ifs-shadow counterexample sweep"]
    lines.extend(_config_lines(config or {}))
    for key in ("a", "delta", "separation", "capture_tol", "window"):
        lines.append(f"# {key} = {fmt(getattr(sweep, key))}")
    for key in ("block", "horizon", "grid", "streams", "capture_steps", "seed"):
        lines.append(f"# {key} = {getattr(sweep, key)}")
    lines.append(f"# block_orbit_validates = {sweep.validation.passed}")
    lines.append(f"# all_captured = {sweep.all_captured}")
    lines.append(f"# min_tail = {fmt(sweep.min_tail)}")
    lines.append("grid_index,stream,stream_seed,start,captured,tail")
    for gi in range(sweep.grid):
        start = (gi + 0.5) / sweep.grid
        for s in range(sweep.streams):
            lines.append(
                f"{gi},{s},{stream_seed(sweep.seed, s)},{fmt(start)},"
                f"{int(sweep.captured[gi, s])},{fmt(sweep.tails[gi, s])}"
            )
    return "\n".join(lines) + "\n"


def write_sweep(path: str, sweep: CounterexampleSweep, config: dict | None = None) -> None:
    write_text(path, render_sweep(sweep, config))


# --------------------------------------------------------------------------
# point clouds and images


def render_points(space: Space, points: Sequence[Point], config: dict | None = None) -> str:
    lines = ["# ifs-shadow points"]
    lines.extend(_config_lines(config or {}))
    lines.append(f"# space = {space.describe()}")
    lines.append("\t".join(space.coord_labels()))
    for p in points:
        lines.append("\t".join(space.format_coords(p)))
    return "\n".join(lines) + "\n"


def write_points(path: str, space: Space, points: Sequence[Point], config: dict | None = None) -> None:
    write_text(path, render_points(space, points, config))


# Image size guard, checked before the counters are allocated: the default
# `attractor` image (256 x 256 = 65 536 pixels) sits 64 times below it.
_MAX_PIXELS = 1 << 22


def _blank_image(width: int, height: int) -> list[int]:
    if width * height > _MAX_PIXELS:
        raise BudgetExceededError(
            f"{width}x{height} pixels exceed the image budget {_MAX_PIXELS}"
        )
    return [0] * (width * height)


def rasterize(ifs: IFSystem, points: Iterable[Point], resolution: int) -> bytes:
    """P5 grayscale image of a point cloud; intensity scales with sqrt(hits)."""
    if resolution < 1:
        raise ValueError(f"resolution must be positive, got {resolution}")
    space = ifs.space
    plane = isinstance(space, PlaneRegion)
    if plane:
        width = height = resolution
    elif isinstance(space, (Interval, Circle)):
        width, height = resolution, max(resolution // 8, 1)
    else:
        raise ValueError(f"cannot rasterize points of {space.describe()}")
    counts = _blank_image(width, height)  # the budget check, before the cover
    cover = space.box_cover(width)
    for p in points:
        if plane:
            iy, ix = divmod(cover.locate(p), width)
            counts[(height - 1 - iy) * width + ix] += 1  # row 0 is the top
        else:
            ix = cover.locate(p)
            for iy in range(height):
                counts[iy * width + ix] += 1
    peak = max(counts) or 1
    shades = bytes(
        0 if c == 0 else min(255, 64 + int(191 * math.sqrt(c / peak))) for c in counts
    )
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + shades


def write_pgm(path: str, ifs: IFSystem, points: Iterable[Point], resolution: int) -> None:
    write_bytes(path, rasterize(ifs, points, resolution))
