"""Metric spaces, box covers, and point utilities.

Supported spaces: a compact interval, the circle with wrap-around metric,
a plane region (bounding rectangle plus optional membership predicate),
the binary sequence space, finite discrete point sets, and binary products
with the max metric.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from numbers import Real
from random import Random
from typing import Callable, Sequence

from .binseq import BinarySeq, sequence_distance
from .errors import BudgetExceededError, SpaceMismatchError
from .seeding import mix_seed

Point = object


class Space(ABC):
    """Common protocol for all point spaces.

    `distance`, `perturb` and `jump` assume points that have been checked:
    `check_point` runs once where a point enters the library (orbit records,
    search candidates, tracking starts, chain endpoints, sampler starts), and
    these inner operations do not repeat it.  A point of the wrong shape
    passed to them directly gets no SpaceMismatchError.
    """

    @abstractmethod
    def check_point(self, p: Point) -> None:
        """Raise SpaceMismatchError when p does not have this space's shape."""

    @abstractmethod
    def distance(self, p: Point, q: Point) -> float: ...

    @abstractmethod
    def diameter(self) -> float: ...

    @abstractmethod
    def contains(self, p: Point) -> bool: ...

    @abstractmethod
    def sample(self, rng: Random) -> Point: ...

    @abstractmethod
    def perturb(self, p: Point, magnitude: float, rng: Random) -> Point:
        """Random point at distance <= magnitude from p, staying inside."""

    @abstractmethod
    def jump(self, p: Point, size: float, rng: Random) -> Point:
        """Point at distance as close to `size` as membership allows (<= size)."""

    @abstractmethod
    def box_cover(self, resolution: int) -> "BoxCover": ...

    @abstractmethod
    def coord_labels(self) -> tuple[str, ...]: ...

    @abstractmethod
    def format_coords(self, p: Point) -> tuple[str, ...]: ...

    @abstractmethod
    def parse_coords(self, cols: Sequence[str]) -> Point: ...

    @abstractmethod
    def describe(self) -> str: ...


def _require_real(space: Space, p: Point) -> None:
    if not isinstance(p, Real) or isinstance(p, bool):
        raise SpaceMismatchError(f"{space.describe()} expects a real coordinate, got {p!r}")


def _require_pair(space: Space, p: Point) -> None:
    if not isinstance(p, tuple) or len(p) != 2:
        raise SpaceMismatchError(f"{space.describe()} expects a pair, got {p!r}")


@dataclass(frozen=True, eq=True)
class Interval(Space):
    """Compact interval [lo, hi] with the absolute-value metric."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval needs lo < hi")

    def check_point(self, p):
        _require_real(self, p)

    def distance(self, p, q):
        return abs(p - q)

    def diameter(self):
        return self.hi - self.lo

    def contains(self, p):
        return isinstance(p, Real) and not isinstance(p, bool) and self.lo - 1e-9 <= p <= self.hi + 1e-9

    def sample(self, rng):
        return rng.uniform(self.lo, self.hi)

    def perturb(self, p, magnitude, rng):
        return min(self.hi, max(self.lo, p + rng.uniform(-magnitude, magnitude)))

    def jump(self, p, size, rng):
        up, down = p + size <= self.hi, p - size >= self.lo
        if up and down:
            return p + size if rng.random() < 0.5 else p - size
        if up:
            return p + size
        if down:
            return p - size
        # neither full jump fits: take the farther boundary
        return self.hi if self.hi - p >= p - self.lo else self.lo

    def box_cover(self, resolution):
        return IntervalCover(self, resolution)

    def coord_labels(self):
        return ("x",)

    def format_coords(self, p):
        return (repr(float(p)),)

    def parse_coords(self, cols):
        return float(cols[0])

    def describe(self):
        return f"interval[{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True, eq=True)
class Circle(Space):
    """Circle of unit circumference; coordinates live in [0, 1)."""

    @staticmethod
    def wrap(t: float) -> float:
        return t % 1.0

    def check_point(self, p):
        _require_real(self, p)

    def distance(self, p, q):
        u = abs(p - q)
        return min(u, 1.0 - u)

    def diameter(self):
        return 0.5

    def contains(self, p):
        return isinstance(p, Real) and not isinstance(p, bool) and 0.0 <= p < 1.0

    def sample(self, rng):
        return rng.random()

    def perturb(self, p, magnitude, rng):
        return (p + rng.uniform(-magnitude, magnitude)) % 1.0

    def jump(self, p, size, rng):
        direction = 1.0 if rng.random() < 0.5 else -1.0
        return (p + direction * size) % 1.0

    def box_cover(self, resolution):
        return IntervalCover(self, resolution)

    def coord_labels(self):
        return ("t",)

    def format_coords(self, p):
        return (repr(float(p)),)

    def parse_coords(self, cols):
        return float(cols[0])

    def describe(self):
        return "circle"


@dataclass(frozen=True, eq=False)
class PlaneRegion(Space):
    """Region of the plane: bounding rectangle plus optional membership test."""

    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0
    member: Callable[[float, float], bool] | None = None
    label: str = "rect"

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("empty bounding rectangle")

    def check_point(self, p):
        _require_pair(self, p)
        for c in p:
            if not isinstance(c, Real) or isinstance(c, bool):
                raise SpaceMismatchError(f"{self.describe()} expects real pairs, got {p!r}")

    def distance(self, p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def diameter(self):
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        x, y = p
        inside_rect = (self.x0 - 1e-9 <= x <= self.x1 + 1e-9) and (
            self.y0 - 1e-9 <= y <= self.y1 + 1e-9
        )
        if not inside_rect:
            return False
        return self.member is None or self.member(x, y)

    def sample(self, rng):
        for _ in range(256):
            p = (rng.uniform(self.x0, self.x1), rng.uniform(self.y0, self.y1))
            if self.contains(p):
                return p
        raise ValueError(f"could not sample a member point of {self.describe()}")

    def perturb(self, p, magnitude, rng):
        for attempt in range(64):
            shrink = 0.5 ** (attempt // 16)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.0, magnitude * shrink)
            cand = (p[0] + r * math.cos(theta), p[1] + r * math.sin(theta))
            if self.contains(cand):
                return cand
        return p

    def jump(self, p, size, rng):
        for attempt in range(96):
            shrink = 0.7 ** (attempt // 12)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = size * shrink
            cand = (p[0] + r * math.cos(theta), p[1] + r * math.sin(theta))
            if self.contains(cand):
                return cand
        return p

    def box_cover(self, resolution):
        return PlaneCover(self, resolution)

    def coord_labels(self):
        return ("x", "y")

    def format_coords(self, p):
        return (repr(float(p[0])), repr(float(p[1])))

    def parse_coords(self, cols):
        return (float(cols[0]), float(cols[1]))

    def describe(self):
        return f"plane:{self.label}"


@dataclass(frozen=True, eq=True)
class Sigma2(Space):
    """Binary sequence space; distance 1/2**k at the first disagreement k (1-based)."""

    def check_point(self, p):
        if not isinstance(p, BinarySeq):
            raise SpaceMismatchError(f"binary-sequence space expects BinarySeq, got {p!r}")

    def distance(self, p, q):
        return sequence_distance(p, q)

    def diameter(self):
        return 1.0

    def contains(self, p):
        return isinstance(p, BinarySeq)

    def sample(self, rng):
        prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 8)))
        cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
        return BinarySeq(prefix, cycle)

    def _flip_index(self, magnitude: float) -> int:
        if magnitude >= 1.0:
            return 0
        j = max(0, math.ceil(-math.log2(magnitude)))
        if 2.0 ** (-j) > magnitude:
            j += 1
        return j

    def perturb(self, p, magnitude, rng):
        if magnitude <= 0.0:
            return p
        return p.with_flipped(self._flip_index(magnitude))

    def jump(self, p, size, rng):
        return self.perturb(p, size, rng)

    def box_cover(self, resolution):
        return Sigma2Cover(self, resolution)

    def coord_labels(self):
        return ("s",)

    def format_coords(self, p):
        return (str(p),)

    def parse_coords(self, cols):
        return BinarySeq.from_string(cols[0])

    def describe(self):
        return "binary-sequences"


@dataclass(frozen=True, eq=True)
class DiscretePoints(Space):
    """n isolated points carrying the discrete metric."""

    size: int = 2

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("need at least one point")

    def check_point(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise SpaceMismatchError(f"discrete space expects int labels, got {p!r}")

    def distance(self, p, q):
        return 0.0 if p == q else 1.0

    def diameter(self):
        return 1.0 if self.size > 1 else 0.0

    def contains(self, p):
        return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < self.size

    def sample(self, rng):
        return rng.randrange(self.size)

    def perturb(self, p, magnitude, rng):
        if magnitude >= 1.0 and self.size > 1:
            q = rng.randrange(self.size - 1)
            return q if q < p else q + 1
        return p

    def jump(self, p, size, rng):
        return self.perturb(p, size, rng)

    def box_cover(self, resolution):
        return DiscreteCover(self, resolution)

    def coord_labels(self):
        return ("p",)

    def format_coords(self, p):
        return (str(p),)

    def parse_coords(self, cols):
        return int(cols[0])

    def describe(self):
        return f"points({self.size})"


@dataclass(frozen=True, eq=False)
class ProductSpace(Space):
    """Product of two spaces under the max metric."""

    first: Space
    second: Space

    def check_point(self, p):
        _require_pair(self, p)
        self.first.check_point(p[0])
        self.second.check_point(p[1])

    def distance(self, p, q):
        return max(self.first.distance(p[0], q[0]), self.second.distance(p[1], q[1]))

    def diameter(self):
        return max(self.first.diameter(), self.second.diameter())

    def contains(self, p):
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and self.first.contains(p[0])
            and self.second.contains(p[1])
        )

    def sample(self, rng):
        return (self.first.sample(rng), self.second.sample(rng))

    def perturb(self, p, magnitude, rng):
        return (
            self.first.perturb(p[0], magnitude, rng),
            self.second.perturb(p[1], magnitude, rng),
        )

    def jump(self, p, size, rng):
        return (self.first.jump(p[0], size, rng), self.second.jump(p[1], size, rng))

    def box_cover(self, resolution):
        return ProductCover(self, resolution)

    def coord_labels(self):
        left = tuple("a." + c for c in self.first.coord_labels())
        right = tuple("b." + c for c in self.second.coord_labels())
        return left + right

    def format_coords(self, p):
        return self.first.format_coords(p[0]) + self.second.format_coords(p[1])

    def parse_coords(self, cols):
        n = len(self.first.coord_labels())
        return (self.first.parse_coords(cols[:n]), self.second.parse_coords(cols[n:]))

    def describe(self):
        return f"product({self.first.describe()}, {self.second.describe()})"


# --------------------------------------------------------------------------
# box covers


@dataclass(frozen=True, eq=False)
class Box:
    """One cell of a cover: integer index, grid key, center point, radius.

    The radius is the largest distance from the center to any box point, so
    `distance(p, center) <= slack + radius` is a sound reachability test.
    """

    index: int
    key: tuple
    center: Point
    radius: float
    lower: tuple | None = None
    upper: tuple | None = None


class BoxCover(ABC):
    """Disjoint cover of a space by finitely many boxes."""

    space: Space
    resolution: int
    boxes: tuple[Box, ...]

    def __len__(self) -> int:
        return len(self.boxes)

    @abstractmethod
    def locate(self, p: Point) -> int:
        """Index of the unique box containing p."""

    def near(self, p: Point, radius: float) -> list[int]:
        """Indices of boxes whose center lies within `radius` of p.

        The list is ascending and holds the boxes' own `index` objects, so
        graph rows built from it share one int per box rather than hold one
        per edge.  This default tests every box.  The interval, circle and
        plane covers return slices of index runs: along boxes ordered by one
        coordinate the centre distance falls and then rises, so the boxes
        within `radius` form one run, and trimming a window of such boxes
        from both ends finds it without testing the boxes inside it.
        """
        return [b.index for b in self.boxes if self.space.distance(b.center, p) <= radius]

    def box_samples(self, index: int, count: int, seed: int = 0) -> list[Point]:
        """Deterministic space members inside box `index`; may fall short of
        `count` (or be empty) when the box barely meets the space."""
        center = self.boxes[index].center
        return [center] if self.space.contains(center) else []

    def _box_rng(self, index: int, seed: int) -> Random:
        return Random(mix_seed(seed, index, 0xB0DE5))


# Size guard, checked before a cover allocates its boxes: Sigma2's cap of 2**20
# cylinders sits 64 times below it, the CLI defaults (at most 65 536 boxes) far more.
# It bounds boxes, not bytes: `tracemalloc` counts 401 bytes per box on the
# interval and 545 on the plane at 2**16 boxes (Box records plus the centre and
# index lists `near` reads), so a cover at the budget would take 27 or 37 GB.
_MAX_BOXES = 1 << 26


def _check_box_count(count: int) -> None:
    if count > _MAX_BOXES:
        raise BudgetExceededError(f"{count} boxes exceed the cover budget {_MAX_BOXES}")


class IntervalCover(BoxCover):
    """Equal-width boxes on an interval, or on the circle with wrap-around.

    On the circle, [0, 1) with its ends glued, points are reduced mod 1 and
    center distances go the shorter way round.
    """

    def __init__(self, space: Interval | Circle, resolution: int):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        _check_box_count(resolution)
        self.space = space
        self.resolution = resolution
        self.wrap = isinstance(space, Circle)
        self.lo, hi = (0.0, 1.0) if self.wrap else (space.lo, space.hi)
        self.width = (hi - self.lo) / resolution
        half = self.width / 2.0
        self.boxes = tuple(
            Box(
                index=i,
                key=(i,),
                center=self.lo + (i + 0.5) * self.width,
                radius=half,
                lower=(self.lo + i * self.width,),
                upper=(self.lo + (i + 1) * self.width,),
            )
            for i in range(resolution)
        )
        self._centers = [b.center for b in self.boxes]
        self._ids = [b.index for b in self.boxes]

    def locate(self, p):
        if self.wrap:
            p = p % 1.0
        i = int((p - self.lo) / self.width)
        return min(max(i, 0), self.resolution - 1)

    def near(self, p, radius):
        """Boxes within `radius` of p, as runs of an ascending index window.

        Centres increase with the index, and rounded subtraction, `abs` and
        `1.0 - d` are monotone, so along an ascending range `abs(c - p)`
        falls and then rises: the boxes passing `abs(c - p) <= radius` form
        one run.  On the circle the window is a proper arc around p reaching
        at least one width past `p ± radius`, and a centre more than 1/2 from
        p along it lies at least three widths past `radius` the short way
        round; so in each ascending range of the arc the passing boxes, under
        `min(d, 1.0 - d) <= radius`, are again one run.
        """
        if radius < 0.0:
            return []
        n = self.resolution
        centers, ids = self._centers, self._ids
        wrap = self.wrap
        if wrap:
            if 2.0 * radius >= 1.0:  # no circle point is more than 1/2 away
                return ids[:]
            p = p % 1.0

        def dist(c):
            d = abs(c - p)
            return min(d, 1.0 - d) if wrap else d

        lo = int(math.floor((p - radius - self.lo) / self.width - 0.5)) - 1
        hi = int(math.ceil((p + radius - self.lo) / self.width - 0.5)) + 2
        if not wrap:
            spans = ((lo, hi),)
        elif hi - lo >= n:
            return [i for i, c in zip(ids, centers) if dist(c) <= radius]
        else:
            # the window wraps past at most one end; listing the wrapped
            # part on its own side keeps the indices ascending
            spans = ((0, hi - n), (lo, hi), (n + lo, n))
        out = []
        for a, b in spans:
            # clamp both ends: a negative slice end would count from the top
            a, b = max(a, 0), max(min(b, n), 0)
            while a < b and dist(centers[a]) > radius:
                a += 1
            while a < b and dist(centers[b - 1]) > radius:
                b -= 1
            out += ids[a:b]
        return out

    def box_samples(self, index, count, seed=0):
        b = self.boxes[index]
        rng = self._box_rng(index, seed)
        out = [b.center]
        while len(out) < count:
            x = b.lower[0] + rng.random() * self.width
            out.append(x % 1.0 if self.wrap else x)
        return out[:count]


class PlaneCover(BoxCover):
    def __init__(self, space: PlaneRegion, resolution: int):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        _check_box_count(resolution * resolution)
        self.space = space
        self.resolution = resolution
        self.wx = (space.x1 - space.x0) / resolution
        self.wy = (space.y1 - space.y0) / resolution
        radius = math.hypot(self.wx, self.wy) / 2.0
        boxes = []
        for iy in range(resolution):
            for ix in range(resolution):
                lo = (space.x0 + ix * self.wx, space.y0 + iy * self.wy)
                hi = (space.x0 + (ix + 1) * self.wx, space.y0 + (iy + 1) * self.wy)
                boxes.append(
                    Box(
                        index=iy * resolution + ix,
                        key=(ix, iy),
                        center=((lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0),
                        radius=radius,
                        lower=lo,
                        upper=hi,
                    )
                )
        self.boxes = tuple(boxes)
        # a centre's x depends only on ix and its y only on iy, so these are
        # bitwise the floats of Box.center
        self._xs = [b.center[0] for b in self.boxes[:resolution]]
        self._ys = [self.boxes[iy * resolution].center[1] for iy in range(resolution)]
        self._ids = [b.index for b in self.boxes]

    def _axis(self, value, origin, width):
        i = int((value - origin) / width)
        return min(max(i, 0), self.resolution - 1)

    def locate(self, p):
        ix = self._axis(p[0], self.space.x0, self.wx)
        iy = self._axis(p[1], self.space.y0, self.wy)
        return iy * self.resolution + ix

    def near(self, p, radius):
        """Boxes within `radius` of p, as one column run per row of the window.

        Box (ix, iy)'s centre is (xs[ix], ys[iy]), so in a row y is fixed and
        x increases with the column: `hypot(cx - px, cy - py)` falls and then
        rises along the row.  On one side of p, neighbouring columns differ in
        true distance by at least wx**2 / (2 D), D the larger distance.  On
        the unit square at the cover budget that is about 5e-9, some 1e7
        times `hypot`'s sub-ulp error, and the gap stays above the error
        while D is under about 4000 rectangle widths; so for such radii the
        rounded test still passes one run of columns per row, and each row's
        column window is trimmed from both ends.
        """
        if radius < 0.0:
            return []
        n = self.resolution
        px, py = p[0], p[1]
        ix0 = self._axis(px, self.space.x0, self.wx)
        iy0 = self._axis(py, self.space.y0, self.wy)
        sx = int(radius / self.wx) + 2
        sy = int(radius / self.wy) + 2
        xs, ys, ids = self._xs, self._ys, self._ids
        left, right = max(ix0 - sx, 0), min(ix0 + sx + 1, n)
        out = []
        for iy in range(max(iy0 - sy, 0), min(iy0 + sy + 1, n)):
            dy = ys[iy] - py
            a, b = left, right
            while a < b and math.hypot(xs[a] - px, dy) > radius:
                a += 1
            while a < b and math.hypot(xs[b - 1] - px, dy) > radius:
                b -= 1
            out += ids[iy * n + a:iy * n + b]
        return out

    def box_samples(self, index, count, seed=0):
        # boundary boxes may hold few members, fully exterior boxes none
        b = self.boxes[index]
        rng = self._box_rng(index, seed)
        out = [b.center] if self.space.contains(b.center) else []
        for _ in range(16 * count):
            if len(out) >= count:
                break
            p = (b.lower[0] + rng.random() * self.wx, b.lower[1] + rng.random() * self.wy)
            if self.space.contains(p):
                out.append(p)
        return out[:count]


class Sigma2Cover(BoxCover):
    """Cylinder cover: all words of the given length."""

    def __init__(self, space: Sigma2, resolution: int):
        if not 1 <= resolution <= 20:
            raise ValueError("cylinder length must be in 1..20")
        self.space = space
        self.resolution = resolution
        radius = 2.0 ** (-resolution)
        boxes = []
        for value in range(2**resolution):
            word = tuple((value >> (resolution - 1 - k)) & 1 for k in range(resolution))
            boxes.append(
                Box(
                    index=value,
                    key=word,
                    center=BinarySeq(word, (0,)),
                    radius=radius,
                )
            )
        self.boxes = tuple(boxes)

    def locate(self, p):
        value = 0
        for k in range(self.resolution):
            value = (value << 1) | p.item(k)
        return value

    def box_samples(self, index, count, seed=0):
        word = self.boxes[index].key
        rng = self._box_rng(index, seed)
        out = [self.boxes[index].center]
        while len(out) < count:
            tail = tuple(rng.randrange(2) for _ in range(24))
            out.append(BinarySeq(word + tail, (rng.randrange(2),)))
        return out[:count]


class ProductCover(BoxCover):
    def __init__(self, space: ProductSpace, resolution: int):
        self.space = space
        self.resolution = resolution
        self.left = space.first.box_cover(resolution)
        self.right = space.second.box_cover(resolution)
        _check_box_count(len(self.left) * len(self.right))
        boxes = []
        for a in self.left.boxes:
            for b in self.right.boxes:
                boxes.append(
                    Box(
                        index=a.index * len(self.right) + b.index,
                        key=(a.key, b.key),
                        center=(a.center, b.center),
                        radius=max(a.radius, b.radius),
                    )
                )
        self.boxes = tuple(boxes)

    def locate(self, p):
        return self.left.locate(p[0]) * len(self.right) + self.right.locate(p[1])

    def near(self, p, radius):
        cols = self.right.near(p[1], radius)
        return [
            ia * len(self.right) + ib
            for ia in self.left.near(p[0], radius)
            for ib in cols
        ]


    def box_samples(self, index, count, seed=0):
        ia, ib = divmod(index, len(self.right))
        lefts = self.left.box_samples(ia, count, seed)
        rights = self.right.box_samples(ib, count, mix_seed(seed, 1))
        return [(a, b) for a, b in zip(lefts, rights)]


class DiscreteCover(BoxCover):
    def __init__(self, space: DiscretePoints, resolution: int):
        self.space = space
        self.resolution = resolution
        self.boxes = tuple(
            Box(index=i, key=(i,), center=i, radius=0.0) for i in range(space.size)
        )

    def locate(self, p):
        return p


def grid_points(space: Space, resolution: int) -> list[Point]:
    """Box-center grid, handy as a candidate set for searches."""
    return [box.center for box in space.box_cover(resolution).boxes]
