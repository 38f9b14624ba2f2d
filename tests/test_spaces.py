"""Metric axioms, perturbation contracts, and box-cover geometry."""
from __future__ import annotations

import functools
import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ifs_shadow import (
    BinarySeq,
    Circle,
    DiscretePoints,
    Interval,
    PlaneCover,
    PlaneRegion,
    ProductSpace,
    PseudoOrbit,
    Sigma2,
    SpaceMismatchError,
    SymbolStream,
    brute_force_search,
    build_chain_graph,
    exact_orbit,
    find_chain,
    grid_points,
    make,
)

SQRT3 = math.sqrt(3.0)


def _spaces():
    return [
        ("unit_interval", Interval(0.0, 1.0)),
        ("wide_interval", Interval(-2.0, 3.0)),
        ("circle", Circle()),
        ("square", PlaneRegion(0.0, 0.0, 1.0, 1.0)),
        ("triangle", make("sierpinski").space),
        ("sequences", Sigma2()),
        ("five_points", DiscretePoints(5)),
        ("interval_x_circle", ProductSpace(Interval(0.0, 1.0), Circle())),
    ]


@pytest.fixture(params=_spaces(), ids=lambda s: s[0])
def space(request):
    return request.param[1]


def test_metric_axioms(space):
    """Identity, symmetry, triangle inequality, diameter soundness."""
    rng = Random(0xA11CE)
    pts = [space.sample(rng) for _ in range(24)]
    diam = space.diameter()
    for p in pts:
        assert space.distance(p, p) == 0.0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = space.distance(p, q)
            assert d == space.distance(q, p)
            assert 0.0 <= d <= diam + 1e-12
    for p, q, r in zip(pts, pts[8:], pts[16:]):
        assert space.distance(p, r) <= space.distance(p, q) + space.distance(q, r) + 1e-12


def test_sample_stays_inside(space):
    rng = Random(7)
    for _ in range(50):
        assert space.contains(space.sample(rng))


@pytest.mark.parametrize("magnitude", [1e-6, 0.01, 0.3, 1.5])
def test_perturb_bounded_and_contained(space, magnitude):
    rng = Random(0xBEEF)
    for _ in range(40):
        p = space.sample(rng)
        q = space.perturb(p, magnitude, rng)
        assert space.contains(q)
        assert space.distance(p, q) <= magnitude + 1e-9


def test_exact_diameters():
    assert Interval(0.0, 1.0).diameter() == 1.0
    assert Interval(-2.0, 3.0).diameter() == 5.0
    assert Circle().diameter() == 0.5
    assert PlaneRegion(0.0, 0.0, 1.0, 1.0).diameter() == math.sqrt(2.0)
    assert make("sierpinski").space.diameter() == pytest.approx(math.sqrt(7.0) / 2.0, abs=0)
    assert Sigma2().diameter() == 1.0
    assert DiscretePoints(5).diameter() == 1.0
    assert DiscretePoints(1).diameter() == 0.0
    assert ProductSpace(Interval(0.0, 1.0), Circle()).diameter() == 1.0


def test_interval_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_type_checks_raise_mismatch():
    """Wrong shapes are rejected where points enter: orbit records (also when
    their ledger is measured first), search candidates and chain endpoints."""
    with pytest.raises(SpaceMismatchError):
        PseudoOrbit(space=Interval(0.0, 1.0), points=(0.5, "x"), symbols=(0,), errors=(0.0,))
    for name in ("minimal_pair", "sigma2_shift"):
        with pytest.raises(SpaceMismatchError):
            PseudoOrbit.from_points(make(name), (0.5, "x"), (1,))
    shift = make("sigma2_shift")
    orbit = exact_orbit(shift, BinarySeq((), (0,)), SymbolStream.constant(shift.labels[0]), 4)
    with pytest.raises(SpaceMismatchError):
        brute_force_search(shift, orbit, [BinarySeq((), (0,)), 0.5])
    graph = build_chain_graph(make("finite_set", n=3), 0.5, 1)
    assert graph.cover.space == DiscretePoints(3)
    with pytest.raises(SpaceMismatchError):
        find_chain(graph, 0, True)


def test_circle_jump_moves_exactly_size():
    circle = Circle()
    rng = Random(11)
    for _ in range(100):
        p = circle.sample(rng)
        size = rng.uniform(0.0, 0.5)
        q = circle.jump(p, size, rng)
        assert circle.contains(q)
        assert circle.distance(p, q) == pytest.approx(size, abs=1e-12)


def test_interval_jump_prefers_full_step():
    space = Interval(0.0, 1.0)
    rng = Random(3)
    assert space.jump(0.1, 0.5, rng) == 0.6  # only upward fits
    assert space.jump(0.9, 0.5, rng) == pytest.approx(0.4)  # only downward fits
    assert space.jump(0.5, 0.8, rng) == 1.0  # neither fits: farther boundary
    for _ in range(20):
        q = space.jump(0.5, 0.3, rng)
        assert q in (0.2, 0.8)


def test_triangle_membership():
    tri = make("sierpinski").space
    assert tri.contains((0.5, 0.1))
    assert tri.contains((0.0, 0.0)) and tri.contains((1.0, 0.0))
    assert tri.contains((0.5, SQRT3 / 2.0))
    assert not tri.contains((0.0, 0.5))  # above the left edge
    assert not tri.contains((0.9, 0.4))


# --------------------------------------------------------------------------
# box covers


COVER_CASES = [
    ("unit_interval", Interval(0.0, 1.0), 8),
    ("wide_interval", Interval(-2.0, 3.0), 5),
    ("circle", Circle(), 6),
    ("square", PlaneRegion(0.0, 0.0, 1.0, 1.0), 4),
    ("triangle", make("sierpinski").space, 5),
    ("sequences", Sigma2(), 4),
    ("five_points", DiscretePoints(5), 1),
    ("interval_x_circle", ProductSpace(Interval(0.0, 1.0), Circle()), 3),
]


@pytest.fixture(params=COVER_CASES, ids=lambda c: c[0])
def cover_case(request):
    name, space, res = request.param
    return space, space.box_cover(res)


def test_locate_finds_each_center(cover_case):
    _, cover = cover_case
    for box in cover.boxes:
        assert cover.locate(box.center) == box.index


def test_near_matches_brute_force_center_filter(cover_case):
    space, cover = cover_case
    rng = Random(0x5CAB)
    for _ in range(12):
        p = space.sample(rng)
        radius = rng.uniform(0.0, 0.6 * space.diameter())
        # ascending: box-graph searches visit the boxes in this order
        expected = [b.index for b in cover.boxes if space.distance(b.center, p) <= radius]
        assert cover.near(p, radius) == expected
        assert cover.near(p, -1.0) == []


@pytest.mark.parametrize("resolution", [1, 2, 3, 2048])
def test_circle_near_wraps_around_in_ascending_order(resolution):
    circle = Circle()
    cover = circle.box_cover(resolution)
    width = 1.0 / resolution
    points = [0.0, 1e-9, 0.5 * width, width, 0.5, 1.0 - 0.5 * width, 1.0 - 1e-9, -0.01, 1.3]
    radii = [0.0, 1e-6, 0.5 * width, width, 2.5 * width, 0.25, math.nextafter(0.5, 0.0), 0.5]
    straddled = 0
    for p in points:
        for radius in radii:
            expected = [
                b.index for b in cover.boxes if circle.distance(b.center, p % 1.0) <= radius
            ]
            assert cover.near(p, radius) == expected, (p, radius)
            straddled += 0 in expected and resolution - 1 in expected
    assert straddled > 0  # some windows hold the boxes on both sides of 0


def _reference_interval_near(cover, p, radius):
    """Reference: `IntervalCover.near` as the per-box loop over its window."""
    if radius < 0.0:
        return []
    n = cover.resolution
    if cover.wrap:
        if 2.0 * radius >= 1.0:
            return list(range(n))
        p = p % 1.0
    lo = int(math.floor((p - radius - cover.lo) / cover.width - 0.5)) - 1
    hi = int(math.ceil((p + radius - cover.lo) / cover.width - 0.5)) + 2
    if not cover.wrap:
        window = range(max(lo, 0), min(hi, n))
    elif hi - lo >= n:
        window = range(n)
    else:
        window = [*range(hi - n), *range(max(lo, 0), min(hi, n)), *range(n + lo, n)]
    out = []
    for i in window:
        d = abs(cover.boxes[i].center - p)
        if cover.wrap:
            d = min(d, 1.0 - d)
        if d <= radius:
            out.append(i)
    return out


def _reference_plane_near(cover, p, radius):
    """Reference: `PlaneCover.near` as the per-box loop over its window."""
    if radius < 0.0:
        return []
    ix0 = cover._axis(p[0], cover.space.x0, cover.wx)
    iy0 = cover._axis(p[1], cover.space.y0, cover.wy)
    sx = int(radius / cover.wx) + 2
    sy = int(radius / cover.wy) + 2
    out = []
    for iy in range(max(iy0 - sy, 0), min(iy0 + sy + 1, cover.resolution)):
        for ix in range(max(ix0 - sx, 0), min(ix0 + sx + 1, cover.resolution)):
            b = cover.boxes[iy * cover.resolution + ix]
            if math.hypot(b.center[0] - p[0], b.center[1] - p[1]) <= radius:
                out.append(b.index)
    return out


_RUN_SPACES = (Interval(0.0, 1.0), Interval(-2.0, 3.0), Circle(),
               PlaneRegion(0.0, 0.0, 1.0, 1.0), make("sierpinski").space)


@functools.cache
def _run_cover(which, resolution):
    return _RUN_SPACES[which].box_cover(resolution)


@st.composite
def _near_queries(draw):
    """A cover, a point and a radius, drawn towards the edges of the index runs:
    points outside the interval on both sides and on the circle's seam, points
    on centres, and radii at exact centre distances and one ulp either side."""
    which = draw(st.integers(0, len(_RUN_SPACES) - 1))
    space = _RUN_SPACES[which]
    plane = isinstance(space, PlaneRegion)
    sizes = st.integers(1, 16) | st.sampled_from([33, 64] if plane else [97, 1000, 2048])
    cover = _run_cover(which, draw(sizes))
    centers = [b.center for b in cover.boxes]
    on_center = st.sampled_from(centers)
    if plane:
        coord = st.floats(-0.5, 1.5)
        p = draw(st.tuples(coord, coord) | on_center)
        width = cover.wx
        seam = []
    else:
        lo, hi = (0.0, 1.0) if cover.wrap else (space.lo, space.hi)
        span = hi - lo
        edges = [lo, hi, lo - 10.0 * span, hi + 10.0 * span,
                 math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        if cover.wrap:
            edges += [-1e-20, 1 - 1e-17, math.nextafter(1.0, 0.0), -0.01, 1.3]
        p = draw(st.floats(lo - span, hi + span) | st.sampled_from(edges) | on_center)
        width = cover.width
        seam = [0.5 - k * width for k in range(4)] + [math.nextafter(0.5, 0.0)] if cover.wrap else []
    q = p % 1.0 if not plane and cover.wrap else p
    d = space.distance(draw(on_center), q)
    radius = draw(
        st.sampled_from([d, math.nextafter(d, math.inf), math.nextafter(d, -math.inf)])
        | st.sampled_from([0.0, 0.5 * width, width, 2.5 * width] + seam)
        | st.floats(0.0, 0.7 * space.diameter())
    )
    return cover, p, radius


@settings(max_examples=800, deadline=None)
@given(_near_queries())
def test_near_runs_match_the_per_box_reference(query):
    cover, p, radius = query
    reference = _reference_plane_near if isinstance(cover, PlaneCover) else _reference_interval_near
    assert cover.near(p, radius) == reference(cover, p, radius)


@pytest.mark.parametrize(
    "space, resolution, p, radius",
    [
        (Interval(0.0, 1.0), 1000, 0.9, 0.05),
        (Circle(), 1000, 0.999, 0.05),  # the window wraps past 1
        (Circle(), 1000, 0.3, 0.499),  # a window of the whole circle
        (Circle(), 1000, 0.3, 0.5),
        (PlaneRegion(0.0, 0.0, 1.0, 1.0), 32, (0.5, 0.9), 0.05),
    ],
)
def test_near_returns_the_boxes_own_index_objects(space, resolution, p, radius):
    """Graph rows then share one int per box instead of holding one per edge."""
    cover = space.box_cover(resolution)
    found = cover.near(p, radius)
    assert max(found) > 256  # past the small ints the interpreter caches
    assert all(i is cover.boxes[i].index for i in found)


def test_box_samples_stay_in_their_box(cover_case):
    space, cover = cover_case
    for box in cover.boxes:
        samples = cover.box_samples(box.index, 5, seed=9)
        assert len(samples) <= 5
        for s in samples:
            assert space.contains(s)
            assert cover.locate(s) == box.index
        # deterministic in the seed
        assert samples == cover.box_samples(box.index, 5, seed=9)


def test_box_radius_is_sound(cover_case):
    """Every box sample lies within the advertised radius of the center."""
    space, cover = cover_case
    for box in cover.boxes[:: max(1, len(cover) // 9)]:
        for s in cover.box_samples(box.index, 8, seed=2):
            assert space.distance(s, box.center) <= box.radius + 1e-12


def test_grid_point_counts():
    assert len(grid_points(Interval(0.0, 1.0), 7)) == 7
    assert len(grid_points(Circle(), 5)) == 5
    assert len(grid_points(PlaneRegion(0.0, 0.0, 1.0, 1.0), 4)) == 16
    assert len(grid_points(Sigma2(), 3)) == 8
    assert len(grid_points(DiscretePoints(5), 3)) == 5
    assert len(grid_points(ProductSpace(Interval(0.0, 1.0), Circle()), 3)) == 9


def test_interval_grid_is_centered():
    pts = grid_points(Interval(0.0, 1.0), 4)
    assert pts == [0.125, 0.375, 0.625, 0.875]


def test_cover_resolution_validation():
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).box_cover(0)
    with pytest.raises(ValueError):
        Circle().box_cover(0)
    with pytest.raises(ValueError):
        Sigma2().box_cover(21)
    with pytest.raises(ValueError):
        Sigma2().box_cover(0)


def test_sigma2_cover_is_cylinder_indexed_by_word():
    cover = Sigma2().box_cover(3)
    assert len(cover) == 8
    # index is the word read as a binary number
    assert cover.boxes[5].key == (1, 0, 1)
    s = BinarySeq((1, 0, 1, 1), (0, 1))
    assert cover.locate(s) == 5
