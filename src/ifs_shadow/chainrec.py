"""Chain structure over box graphs.

A box graph discretizes eps-chains: boxes are nodes, and an edge B -> B' is
recorded when some sampled point of B is mapped by some system map to within
eps + radius of the center of B'.  The edges come from finitely many sampled
points per box, so a missing path proves nothing about eps-chains between
unsampled points.  Chain realization walks a stricter inner-slack graph
(center within eps - radius) whose witness points chain together into a
genuine eps-pseudo-orbit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleParameterError
from .orbits import PseudoOrbit
from .spaces import BoxCover, Point
from .systems import IFSystem


@dataclass(eq=False)
class ChainGraph:
    """Directed box graph of eps-transitions for a subset of system maps."""

    ifs: IFSystem
    labels: tuple
    cover: BoxCover
    eps: float
    samples_per_box: int
    seed: int
    samples: tuple[tuple[Point, ...], ...]
    edges: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def n_edges(self) -> int:
        return sum(len(row) for row in self.edges)


def build_chain_graph(
    ifs: IFSystem,
    eps: float,
    resolution: int,
    labels: tuple | None = None,
    samples_per_box: int = 3,
    seed: int = 0,
) -> ChainGraph:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if samples_per_box < 1:
        raise ValueError("need at least one sample per box")
    use = tuple(labels) if labels is not None else ifs.labels
    for label in use:
        if label not in ifs.maps:
            raise KeyError(f"unknown label {label!r}")
    cover = ifs.space.box_cover(resolution)
    radius = cover.boxes[0].radius
    slack = eps + radius
    samples = tuple(
        tuple(cover.box_samples(i, samples_per_box, seed)) for i in range(len(cover))
    )
    edges = []
    for i in range(len(cover)):
        targets: set[int] = set()
        for p in samples[i]:
            for label in use:
                q = ifs.apply(label, p)
                targets.update(cover.near(q, slack))
        edges.append(tuple(sorted(targets)))
    return ChainGraph(
        ifs=ifs,
        labels=use,
        cover=cover,
        eps=eps,
        samples_per_box=samples_per_box,
        seed=seed,
        samples=samples,
        edges=tuple(edges),
    )


def _strong_components(adj: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            row = adj[v]
            for k in range(pos, len(row)):
                w = row[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
    return components


@dataclass(eq=False)
class RecurrenceReport:
    """Which boxes sit on eps-cycles of the box graph."""

    graph: ChainGraph
    components: tuple[tuple[int, ...], ...]  # strongly connected, size > 1
    self_loops: tuple[int, ...]
    recurrent: frozenset[int]

    @property
    def eps(self) -> float:
        return self.graph.eps

    @property
    def resolution(self) -> int:
        return self.graph.cover.resolution

    def is_recurrent_point(self, p: Point) -> bool:
        return self.graph.cover.locate(p) in self.recurrent


def analyze(graph: ChainGraph) -> RecurrenceReport:
    components = [c for c in _strong_components(graph.edges) if len(c) > 1]
    loops = tuple(i for i, row in enumerate(graph.edges) if i in row)
    recurrent = set(loops)
    for comp in components:
        recurrent.update(comp)
    components.sort(key=lambda c: (-len(c), c))
    return RecurrenceReport(
        graph=graph,
        components=tuple(components),
        self_loops=loops,
        recurrent=frozenset(recurrent),
    )


@dataclass(eq=False)
class RealizedChain:
    """An explicit eps-chain from x to y extracted from the box graph."""

    orbit: PseudoOrbit
    boxes: tuple[int, ...]  # intermediate boxes the chain passes through
    eps: float

    @property
    def length(self) -> int:
        return self.orbit.horizon


def find_chain(graph: ChainGraph, x: Point, y: Point) -> RealizedChain | None:
    """Breadth-first eps-chain from x to y, or None when none is found.

    Interior hops demand images within eps - radius of a box center, so the
    witness-to-witness distances stay below eps; the final hop captures y
    directly.  None means only that this sampling found no chain.
    """
    ifs = graph.ifs
    space = ifs.space
    cover = graph.cover
    eps = graph.eps
    inner = eps - cover.boxes[0].radius
    if inner <= 0.0:
        raise InfeasibleParameterError(
            f"boxes of radius {cover.boxes[0].radius:g} are too coarse for eps = {eps:g}"
        )
    space.check_point(x)
    space.check_point(y)

    parent: dict[int, tuple[int | None, object, Point]] = {}
    frontier: list[int | None] = [None]  # None stands for x, its only witness
    finish: tuple[int | None, object, Point] | None = None
    head = 0
    while finish is None and head < len(frontier):
        v = frontier[head]
        head += 1
        for w in (x,) if v is None else graph.samples[v]:
            for label in graph.labels:
                q = ifs.apply(label, w)
                if space.distance(q, y) <= eps:
                    finish = (v, label, w)
                    break
                for b in cover.near(q, inner):
                    if b not in parent:
                        parent[b] = (v, label, w)
                        frontier.append(b)
            if finish is not None:
                break

    if finish is None:
        return None

    steps = []
    boxes = []
    node, label, witness = finish
    steps.append((label, witness))
    while node is not None:
        boxes.append(node)
        node, label, witness = parent[node]
        steps.append((label, witness))
    steps.reverse()
    boxes.reverse()

    points = [x] + [w for _, w in steps[1:]] + [y]
    symbols = tuple(label for label, _ in steps)
    orbit = PseudoOrbit.from_points(ifs, tuple(points), symbols)
    return RealizedChain(orbit=orbit, boxes=tuple(boxes), eps=eps)
