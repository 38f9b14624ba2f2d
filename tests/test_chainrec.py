"""Box graphs, strong components, chain realization."""
from __future__ import annotations

import pytest

from ifs_shadow import (
    DiscretePoints,
    IFSystem,
    InfeasibleParameterError,
    Interval,
    analyze,
    build_chain_graph,
    find_chain,
    make,
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
