"""Box graphs, strong components, chain realization."""
from __future__ import annotations

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from ifs_shadow import (
    DiscretePoints,
    IFSystem,
    InfeasibleParameterError,
    Interval,
    analyze,
    build_chain_graph,
    find_chain,
    make,
    product_ifs,
)


@pytest.fixture(scope="module")
def shrink_tower():
    """Single map x -> x/2 on [0, 1]: recurrence concentrates at the origin."""
    ifs = IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1,),
        maps={1: lambda x: x / 2.0},
        ratio=0.5,
        name="shrink",
    )
    return ifs, build_chain_graph(ifs, eps=0.05, resolution=20)


def perm_system() -> IFSystem:
    table = (1, 2, 0, 4, 3, 5)  # cycle (0 1 2), swap (3 4), fixed 5
    return IFSystem(
        space=DiscretePoints(6),
        labels=("p",),
        maps={"p": lambda i: table[i]},
        name="permutation",
    )


def test_shrink_tower_recurrent_boxes(shrink_tower):
    """Width-1/20 boxes at eps 1/20: only the three lowest boxes can close an
    eps-cycle under halving, the first two as a genuine 2-cycle."""
    ifs, graph = shrink_tower
    report = analyze(graph)
    assert report.recurrent == frozenset({0, 1, 2})
    assert report.components == ((0, 1),)
    assert set(report.self_loops) == {0, 1, 2}
    assert report.is_recurrent_point(0.02)
    assert not report.is_recurrent_point(0.9)
    assert report.eps == 0.05
    assert report.resolution == 20


def test_chain_descends_but_never_climbs(shrink_tower):
    ifs, graph = shrink_tower
    down = find_chain(graph, 0.9, 0.05)
    assert down is not None
    assert down.orbit.points[0] == 0.9
    assert down.orbit.points[-1] == 0.05
    assert max(down.orbit.errors) <= graph.eps + 1e-12
    assert down.length == len(down.boxes) + 1

    assert find_chain(graph, 0.05, 0.9) is None
    assert find_chain(graph, 0.9, 0.9) is None


def test_edges_grow_with_eps(shrink_tower):
    ifs, _ = shrink_tower
    small = build_chain_graph(ifs, eps=0.03, resolution=20)
    large = build_chain_graph(ifs, eps=0.08, resolution=20)
    for row_s, row_l in zip(small.edges, large.edges):
        assert set(row_s) <= set(row_l)
    assert small.n_edges < large.n_edges


def test_single_label_graph_is_a_subgraph():
    gasket = make("sierpinski")
    full = build_chain_graph(gasket, eps=0.08, resolution=8)
    only_first = build_chain_graph(gasket, eps=0.08, resolution=8, labels=(1,))
    assert only_first.labels == (1,)
    for row_part, row_full in zip(only_first.edges, full.edges):
        assert set(row_part) <= set(row_full)


def test_graph_construction_validation(shrink_tower):
    ifs, _ = shrink_tower
    with pytest.raises(ValueError):
        build_chain_graph(ifs, eps=0.0, resolution=10)
    with pytest.raises(ValueError):
        build_chain_graph(ifs, eps=0.1, resolution=10, samples_per_box=0)
    with pytest.raises(KeyError):
        build_chain_graph(ifs, eps=0.1, resolution=10, labels=(9,))


def test_chain_needs_fine_enough_boxes(shrink_tower):
    ifs, _ = shrink_tower
    coarse = build_chain_graph(ifs, eps=0.02, resolution=20)  # radius 0.025
    with pytest.raises(InfeasibleParameterError):
        find_chain(coarse, 0.9, 0.05)


def test_permutation_components_oracle():
    """Exact graph on six points: one 3-cycle, one 2-cycle, one fixed point."""
    report = analyze(build_chain_graph(perm_system(), eps=0.5, resolution=1))
    assert report.components == ((0, 1, 2), (3, 4))
    assert report.self_loops == (5,)
    assert report.recurrent == frozenset(range(6))


def test_permutation_chain_is_the_true_orbit():
    graph = build_chain_graph(perm_system(), eps=0.5, resolution=1)
    chain = find_chain(graph, 0, 2)
    assert chain is not None
    assert chain.orbit.points == (0, 1, 2)
    assert chain.orbit.errors == (0.0, 0.0)
    assert find_chain(graph, 5, 0) is None


def _reference_edges(ifs, eps, resolution, labels=None, samples_per_box=3, seed=0):
    """Reference: the set-and-sort row build, querying every box's centre."""
    use = tuple(labels) if labels is not None else ifs.labels
    cover = ifs.space.box_cover(resolution)
    slack = eps + cover.radius
    edges = []
    for i in range(len(cover)):
        targets: set[int] = set()
        for p in cover.box_samples(i, samples_per_box, seed):
            for label in use:
                q = ifs.apply(label, p)
                targets.update(
                    j for j, c in enumerate(cover.centers) if ifs.space.distance(c, q) <= slack
                )
        edges.append(tuple(sorted(targets)))
    return tuple(edges)


def _gasket_onto_one_centre(resolution=8, ix=4, iy=1):
    """A constant map of the gasket onto box (ix, iy)'s centre, and the eps
    whose query radius is exactly that centre's distance to the row above,
    so that row holds a box at `abs(dy) == radius`."""
    space = make("sierpinski").space
    cover = space.box_cover(resolution)
    centre = cover.centers[iy * resolution + ix]
    above = cover.centers[(iy + 1) * resolution + ix]
    dy = above[1] - centre[1]
    eps = dy - cover.radius
    assert eps + cover.radius == dy
    ifs = IFSystem(space=space, labels=("c",), maps={"c": lambda p: centre}, name="onto")
    return ifs, eps, resolution


@functools.cache
def _system(name):
    if name == "onto_centre":
        return _gasket_onto_one_centre()[0]
    if name == "product":
        return product_ifs(make("minimal_pair"), make("circle_counterexample"))
    return make(name)


# resolutions small enough for the per-box reference, large enough for long runs
_SIZES = {"minimal_pair": 48, "circle_counterexample": 48, "sierpinski": 10,
          "product": 6, "sigma2_shift": 6, "finite_set": 2, "onto_centre": 8}


@st.composite
def _graph_params(draw):
    name = draw(st.sampled_from(sorted(_SIZES)))
    resolution = draw(st.integers(1, _SIZES[name]))
    eps = draw(st.floats(1e-3, 0.6) | st.sampled_from([0.01, 0.02, 0.05, 0.2, 0.45]))
    return name, eps, resolution, draw(st.integers(1, 4)), draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(_graph_params())
# circle windows that wrap past 0 or 1, and whole-circle windows (hi - lo >= n)
@example(("circle_counterexample", 0.02, 48, 3, 0))
@example(("circle_counterexample", 0.2, 4, 3, 1))
@example(("circle_counterexample", 0.45, 3, 4, 0))
# a gasket row at abs(dy) == radius
@example(("onto_centre", _gasket_onto_one_centre()[1], 8, 1, 0))
@example(("product", 0.05, 6, 3, 0))
@example(("sigma2_shift", 0.1, 5, 3, 2))
@example(("finite_set", 0.5, 1, 1, 0))
def test_merged_runs_match_the_set_and_sort_build(params):
    """Rows merged from the covers' index runs hold the same boxes, in the
    same order, as a set of every passing centre sorted."""
    name, eps, resolution, samples, seed = params
    ifs = _system(name)
    graph = build_chain_graph(ifs, eps, resolution, samples_per_box=samples, seed=seed)
    assert graph.edges == _reference_edges(ifs, eps, resolution, None, samples, seed)
    assert all(i is graph.cover.ids[i] for row in graph.edges for i in row)


def test_gasket_row_at_the_query_radius_is_in_the_graph():
    ifs, eps, resolution = _gasket_onto_one_centre()
    graph = build_chain_graph(ifs, eps, resolution, samples_per_box=1)
    above = 2 * resolution + 4  # box (4, 2), at distance exactly the radius
    assert all(above in row for row in graph.edges if row)
    assert graph.edges == _reference_edges(ifs, eps, resolution, None, 1)
