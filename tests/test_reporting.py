"""File formats: exact float round trips, atomicity, deterministic bytes."""
from __future__ import annotations

import math
import os

import pytest

from ifs_shadow import (
    BinarySeq,
    IFSystem,
    Interval,
    ProductSpace,
    PseudoOrbit,
    Sigma2,
    SymbolStream,
    average_distance_profile,
    build_chain_graph,
    analyze,
    constructive_shadow,
    decode_label,
    encode_label,
    exact_orbit,
    fmt,
    load_orbit,
    make,
    noisy_average_orbit,
    product_ifs,
    rasterize,
    render_edges,
    render_orbit,
    render_recurrence,
    render_shadow_report,
    render_sweep,
    run_sweep,
    write_orbit,
    write_pgm,
    write_points,
    write_text,
)


def halving_pair() -> IFSystem:
    return IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1, 2),
        maps={1: lambda x: x / 2.0, 2: lambda x: x / 2.0 + 0.5},
        ratio=0.5,
        name="halving",
    )


def test_fmt_round_trips_doubles():
    for x in (0.1, 0.1 + 0.2, 1.0 / 3.0, 1e-300, 123456.789, 0.0):
        assert float(fmt(x)) == x
    assert fmt(0.1) == "0.1"


def test_label_codec():
    for label in (1, "a", (1, 2), ((1, 2), (0, 1)), 0):
        assert decode_label(encode_label(label)) == label
    assert encode_label((1, 2)) == "[1,2]"


def test_orbit_round_trip_interval(tmp_path):
    ifs = halving_pair()
    orbit = noisy_average_orbit(
        ifs, 0.7, SymbolStream.random(ifs.labels, seed=3), 40, 0.05, seed=3
    )
    path = str(tmp_path / "orbit.tsv")
    write_orbit(path, orbit, config={"example": "halving"})
    back = load_orbit(path, ifs.space)
    assert back.points == orbit.points  # repr floats are exact
    assert back.symbols == orbit.symbols
    assert back.errors == orbit.errors


def test_orbit_round_trip_sequences(tmp_path):
    shift = make("sigma2_shift")
    start = BinarySeq((1, 0, 1), (0, 1))
    orbit = exact_orbit(shift, start, SymbolStream.periodic((0, 1, 1)), 9)
    path = str(tmp_path / "orbit.tsv")
    write_orbit(path, orbit)
    back = load_orbit(path, Sigma2())
    assert back.points == orbit.points
    assert back.symbols == orbit.symbols


def test_orbit_round_trip_product(tmp_path):
    prod = product_ifs(halving_pair(), make("sigma2_shift"))
    start = (0.7, BinarySeq((), (1, 0)))
    orbit = exact_orbit(prod, start, SymbolStream.periodic(((1, 0), (2, 1))), 8)
    path = str(tmp_path / "orbit.tsv")
    write_orbit(path, orbit)
    back = load_orbit(path, prod.space)
    assert back.points == orbit.points
    assert back.symbols == orbit.symbols  # tuples survive the JSON column


def test_orbit_file_layout(tmp_path):
    gasket = make("sierpinski")
    orbit = exact_orbit(gasket, (0.25, 0.1), SymbolStream.constant(1), 3)
    text = render_orbit(orbit, config={"b": 1, "a": 2})
    lines = text.splitlines()
    assert lines[0] == "# ifs-shadow orbit"
    assert lines[1] == "# a = 2"  # config keys sorted
    assert lines[2] == "# b = 1"
    assert lines[3] == "# space = plane:triangle"
    assert lines[4] == "# horizon = 3"
    assert lines[5] == "index\tsymbol\tx\ty\talpha"
    assert len(lines) == 6 + 4  # one row per point
    assert lines[-1].startswith("3\t\t")  # final point carries no symbol


def test_load_orbit_rejects_malformed_rows(tmp_path):
    path = str(tmp_path / "bad.tsv")
    write_text(path, "index\tsymbol\tx\talpha\n0\t1\t0.5\n")
    with pytest.raises(ValueError, match="bad orbit row"):
        load_orbit(path, Interval(0.0, 1.0))


def test_render_is_byte_deterministic(tmp_path):
    ifs = halving_pair()
    orbit = noisy_average_orbit(
        ifs, 0.7, SymbolStream.random(ifs.labels, seed=3), 30, 0.05, seed=3
    )
    assert render_orbit(orbit) == render_orbit(orbit)
    a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
    write_orbit(a, orbit)
    write_orbit(b, orbit)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_shadow_report_columns():
    ifs = halving_pair()
    orbit = noisy_average_orbit(
        ifs, 0.7, SymbolStream.random(ifs.labels, seed=5), 50, 0.02, seed=5
    )
    built = constructive_shadow(ifs, orbit, eps=0.08)
    text = render_shadow_report(built)
    lines = text.splitlines()
    assert "# delta = " + fmt(0.02) in lines
    header_at = lines.index("index,distance,profile,bound")
    assert len(lines) - header_at - 1 == built.horizon + 1

    tracked = average_distance_profile(ifs, 0.3, SymbolStream.constant(1), orbit)
    plain = render_shadow_report(tracked).splitlines()
    assert "index,distance,profile" in plain
    assert not any(line.startswith("# delta") for line in plain)


def test_edge_and_recurrence_tables():
    ifs = halving_pair()
    graph = build_chain_graph(ifs, eps=0.06, resolution=10)
    edges_text = render_edges(graph)
    rows = [l for l in edges_text.splitlines() if not l.startswith("#")]
    assert len(rows) == graph.n_edges
    src, dst = rows[0].split()
    assert int(dst) in graph.edges[int(src)]

    report = analyze(graph)
    rec_lines = render_recurrence(report).splitlines()
    assert f"# recurrent = {len(report.recurrent)}" in rec_lines
    data = [l for l in rec_lines if l and not l.startswith("#")][1:]
    assert len(data) == len(graph)
    flags = {int(r.split(",")[0]): bool(int(r.split(",")[2])) for r in data}
    assert all(flags[i] == (i in report.recurrent) for i in range(len(graph)))


def test_sweep_table_shape():
    sweep = run_sweep(a=0.5, block=4, doublings=2, grid=4, streams=3, seed=2)
    lines = render_sweep(sweep).splitlines()
    data = [l for l in lines if l and not l.startswith("#")][1:]
    assert len(data) == 4 * 3
    assert f"# min_tail = {fmt(sweep.min_tail)}" in lines


def test_rasterize_plane_and_interval():
    gasket = make("sierpinski")
    from ifs_shadow import chaos_game

    pts = chaos_game(gasket, (0.2, 0.1), 2000, seed=1)
    image = rasterize(gasket, pts, 32)
    assert image.startswith(b"P5\n32 32\n255\n")
    body = image[len(b"P5\n32 32\n255\n") :]
    assert len(body) == 32 * 32
    assert max(body) == 255  # the busiest cell saturates

    pair = halving_pair()
    strip = rasterize(pair, [0.1, 0.2, 0.9], 64)
    assert strip.startswith(b"P5\n64 8\n255\n")

    # circle points are binned mod 1: 1.25 lands with 0.25
    ring = rasterize(make("circle_counterexample"), [0.05, 0.999, 0.25, 1.25], 16)
    header = b"P5\n16 2\n255\n"
    assert ring.startswith(header)
    row = [0] * 16
    row[0] = row[15] = 64 + int(191 * math.sqrt(0.5))
    row[4] = 255
    assert ring[len(header) :] == bytes(row * 2)


def test_rasterize_rejects_sequence_space():
    shift = make("sigma2_shift")
    with pytest.raises(ValueError, match="cannot rasterize"):
        rasterize(shift, [BinarySeq((), (0,))], 16)


def test_writes_are_atomic_and_fail_loudly(tmp_path):
    target = str(tmp_path / "points.tsv")
    write_points(target, Interval(0.0, 1.0), [0.25, 0.75])
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []
    with pytest.raises(OSError):
        write_text(str(tmp_path / "no" / "such" / "dir.txt"), "x")
    gasket = make("sierpinski")
    pgm = str(tmp_path / "img.pgm")
    write_pgm(pgm, gasket, [(0.2, 0.1)], 8)
    with open(pgm, "rb") as handle:
        assert handle.read() == rasterize(gasket, [(0.2, 0.1)], 8)
