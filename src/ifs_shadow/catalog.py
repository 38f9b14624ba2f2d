"""Ready-made example systems with analytic ratios and inverses.

Six constructors: all permutations of a small discrete set, the Sierpinski
triangle maps, a minimal affine pair on its invariant interval, the two
prepend maps on binary sequences, and two pairs of circle homeomorphisms
given by piecewise polynomials in the angular coordinate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from random import Random
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError
from .seeding import mix_seed
from .spaces import Circle, DiscretePoints, Interval, PlaneRegion, Point, Sigma2, Space
from .systems import IFSystem

_SQRT3 = math.sqrt(3.0)
# Size guard for `chaos_game`, which keeps every point: the CLI default of
# 20 000 iterations sits 52 times below it.
_MAX_ITERATIONS = 1 << 20


@dataclass(frozen=True)
class ExampleDescriptor:
    """A catalog entry: constructor name, parameters, documented properties."""

    name: str
    parameters: dict = field(default_factory=dict)
    properties: dict = field(default_factory=dict)

    def label(self) -> str:
        if not self.parameters:
            return self.name
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.parameters.items()))
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# piecewise polynomial circle maps


@dataclass(frozen=True)
class PiecewisePoly:
    """Two polynomial branches on [0, split] and [split, 1], fixing the split.

    Coefficients are highest-degree first.  Branch selection is by t < split;
    both branches agree at the split point.
    """

    split: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __call__(self, t: float) -> float:
        coeffs = self.lo if t < self.split else self.hi
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        return acc

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.where(
            t < self.split, np.polyval(self.lo, t), np.polyval(self.hi, t)
        )

    def invert(self, y: float, tol: float = 1e-13) -> float:
        """Preimage by bisection on the branch whose range contains y.

        Branches map [0, split] and [split, 1] onto themselves, so the
        bracket always holds a root.
        """
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"target {y!r} outside [0, 1]")
        lo, hi = (0.0, self.split) if y <= self.split else (self.split, 1.0)
        flo = self(lo) - y
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = self(mid) - y
            if abs(fmid) <= tol or hi - lo <= 4.0 * math.ulp(mid):
                return mid
            if (flo <= 0.0) == (fmid <= 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def circle_polynomials(a: float = 0.5) -> tuple[PiecewisePoly, PiecewisePoly]:
    """The two angular maps moving every non-fixed point forward, fixing 0
    and a.  The first is quadratic per branch, the second cubic."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    first = PiecewisePoly(a, lo=(-1.0, 1.0 + a, 0.0), hi=(-1.0, 2.0 + a, -a))
    second = PiecewisePoly(a, lo=(-1.0, a, 1.0, 0.0), hi=(-1.0, a, 2.0, -a))
    return first, second


def halfpoint_polynomials() -> tuple[PiecewisePoly, PiecewisePoly]:
    """Two angular maps fixing 0, 1/2, 1: both raise points below 1/2;
    above 1/2 the first pulls back toward 1/2 and the second pushes on
    toward 1."""
    shared_lo = (-1.0, 1.5, 0.0)
    first = PiecewisePoly(0.5, lo=shared_lo, hi=(1.0, -0.5, 0.5))
    second = PiecewisePoly(0.5, lo=shared_lo, hi=(-1.0, 2.5, -0.5))
    return first, second


def _circle_system(name: str, polys: tuple[PiecewisePoly, ...]) -> IFSystem:
    space = Circle()
    maps = {}
    inverses = {}
    for k, poly in enumerate(polys, start=1):
        maps[k] = lambda t, p=poly: p(t) % 1.0
        inverses[k] = lambda y, p=poly: p.invert(y % 1.0) % 1.0
    return IFSystem(
        space=space,
        labels=tuple(maps),
        maps=maps,
        inverse_maps=inverses,
        ratio=None,
        name=name,
        surjective=True,
    )


# --------------------------------------------------------------------------
# descriptors


def finite_set(n: int = 3) -> ExampleDescriptor:
    if not 1 <= n <= 4:
        raise ValueError("n must lie in 1..4")
    return ExampleDescriptor(
        name="finite_set",
        parameters={"n": n},
        properties={
            "average_shadowing": True,
            "beta": None,
            "map_count": math.factorial(n),
            "note": "all surjective self-maps of a discrete n-point space",
        },
    )


def sierpinski() -> ExampleDescriptor:
    return ExampleDescriptor(
        name="sierpinski",
        parameters={},
        properties={
            "average_shadowing": True,
            "beta": 0.5,
            "fixed_points": ((0.0, 0.0), (1.0, 0.0), (0.5, _SQRT3 / 2.0)),
        },
    )


def minimal_pair(alpha: float = 0.125) -> ExampleDescriptor:
    if not 0.0 < alpha < 0.25:
        raise ValueError("alpha must lie in (0, 1/4)")
    return ExampleDescriptor(
        name="minimal_pair",
        parameters={"alpha": alpha},
        properties={
            "average_shadowing": True,
            "beta": 0.5 + 2.0 * alpha,
            "minimal": True,
        },
    )


def sigma2_shift() -> ExampleDescriptor:
    return ExampleDescriptor(
        name="sigma2_shift",
        parameters={},
        properties={"average_shadowing": True, "beta": 0.5},
    )


def circle_counterexample(a: float = 0.5) -> ExampleDescriptor:
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    return ExampleDescriptor(
        name="circle_counterexample",
        parameters={"a": a},
        properties={
            "average_shadowing": False,
            "beta": None,
            "fixed_points": (0.0, a),
            "chain_recurrent_everywhere": True,
        },
    )


def circle_halfpoint() -> ExampleDescriptor:
    return ExampleDescriptor(
        name="circle_halfpoint",
        parameters={},
        properties={
            "average_shadowing": None,
            "beta": None,
            "fixed_points": (0.0, 0.5),
        },
    )


# --------------------------------------------------------------------------
# builders


def _build_finite_set(n: int) -> IFSystem:
    space = DiscretePoints(n)
    maps = {}
    inverses = {}
    for perm in itertools.permutations(range(n)):
        maps[perm] = lambda p, t=perm: t[p]
        inv = tuple(perm.index(i) for i in range(n))
        inverses[perm] = lambda p, t=inv: t[p]
    return IFSystem(
        space=space,
        labels=tuple(maps),
        maps=maps,
        inverse_maps=inverses,
        ratio=None,
        name=f"finite_set({n})",
        surjective=True,
    )


def _build_sierpinski() -> IFSystem:
    def member(x: float, y: float) -> bool:
        tol = 1e-9
        return (
            y >= -tol
            and y <= _SQRT3 * x + tol
            and y <= _SQRT3 * (1.0 - x) + tol
        )

    space = PlaneRegion(0.0, 0.0, 1.0, _SQRT3 / 2.0, member=member, label="triangle")
    shifts = {1: (0.0, 0.0), 2: (0.5, 0.0), 3: (0.25, _SQRT3 / 4.0)}
    maps = {
        k: (lambda p, s=s: (p[0] / 2.0 + s[0], p[1] / 2.0 + s[1]))
        for k, s in shifts.items()
    }
    inverses = {
        k: (lambda p, s=s: (2.0 * (p[0] - s[0]), 2.0 * (p[1] - s[1])))
        for k, s in shifts.items()
    }
    return IFSystem(
        space=space,
        labels=(1, 2, 3),
        maps=maps,
        inverse_maps=inverses,
        ratio=0.5,
        name="sierpinski",
    )


def invariant_interval(alpha: float, tol: float = 1e-10) -> tuple[float, float]:
    """Interval the affine pair maps into itself, found by iterating the
    union image of [0, 1] until the endpoints settle, then padded by 1e-9
    so membership survives rounding."""
    slope = 0.5 + 2.0 * alpha
    lo, hi = 0.0, 1.0
    step = 1.0
    for _ in range(20000):
        nlo = slope * lo - alpha
        nhi = slope * hi + 0.5 - alpha
        step = max(abs(nlo - lo), abs(nhi - hi))
        lo, hi = nlo, nhi
        if step <= tol:
            break
    # affine steps shrink by exactly `slope`, so the leftover endpoint error
    # is step * slope / (1 - slope) even when the loop hits its cap
    pad = 1e-9 + step * slope / (1.0 - slope)
    return lo - pad, hi + pad


def _build_minimal_pair(alpha: float) -> IFSystem:
    slope = 0.5 + 2.0 * alpha
    lo, hi = invariant_interval(alpha)
    space = Interval(lo, hi)
    maps = {
        1: lambda x: slope * x - alpha,
        2: lambda x: slope * x + 0.5 - alpha,
    }
    inverses = {
        1: lambda y: (y + alpha) / slope,
        2: lambda y: (y - 0.5 + alpha) / slope,
    }
    return IFSystem(
        space=space,
        labels=(1, 2),
        maps=maps,
        inverse_maps=inverses,
        ratio=slope,
        name=f"minimal_pair({alpha:g})",
    )


def _build_sigma2_shift() -> IFSystem:
    space = Sigma2()
    maps = {0: lambda s: s.prepend(0), 1: lambda s: s.prepend(1)}
    inverses = {0: lambda s: s.shift(), 1: lambda s: s.shift()}
    return IFSystem(
        space=space,
        labels=(0, 1),
        maps=maps,
        inverse_maps=inverses,
        ratio=0.5,
        name="sigma2_shift",
    )


def _build_circle_counterexample(a: float) -> IFSystem:
    return _circle_system(f"circle_counterexample({a:g})", circle_polynomials(a))


def _build_circle_halfpoint() -> IFSystem:
    return _circle_system("circle_halfpoint", halfpoint_polynomials())


# name -> (descriptor factory, builder taking the descriptor's parameters)
_EXAMPLES = {
    "finite_set": (finite_set, _build_finite_set),
    "sierpinski": (sierpinski, _build_sierpinski),
    "minimal_pair": (minimal_pair, _build_minimal_pair),
    "sigma2_shift": (sigma2_shift, _build_sigma2_shift),
    "circle_counterexample": (circle_counterexample, _build_circle_counterexample),
    "circle_halfpoint": (circle_halfpoint, _build_circle_halfpoint),
}


def all_examples() -> list[ExampleDescriptor]:
    """One descriptor per catalog entry, at default parameters."""
    return [factory() for factory, _ in _EXAMPLES.values()]


def make(example: ExampleDescriptor | str, **overrides) -> IFSystem:
    """Build the system for a descriptor, or for a name plus parameters."""
    if overrides and not isinstance(example, str):
        raise TypeError("parameter overrides need a name, not a descriptor")
    name = example if isinstance(example, str) else example.name
    if name not in _EXAMPLES:
        raise KeyError(f"unknown example {name!r}")
    factory, build = _EXAMPLES[name]
    if isinstance(example, str):
        example = factory(**overrides)
    return build(**example.parameters)


# --------------------------------------------------------------------------
# empirical probes


def _random_walk(ifs: IFSystem, start: Point, steps: int, rng: Random) -> Iterator[Point]:
    """The points after each step of a random composition orbit: every step
    applies a map drawn uniformly with `rng`."""
    p = start
    for _ in range(steps):
        p = ifs.apply(ifs.labels[rng.randrange(len(ifs.labels))], p)
        yield p


def minimality_probe(
    ifs: IFSystem,
    start: Point,
    iterations: int,
    resolution: int,
    seed: int = 0,
) -> float:
    """Fraction of cover boxes visited by one random composition orbit.

    Evidence of denseness, not a proof; the first tenth of the orbit (at
    most 1000 steps) is discarded as burn-in.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ifs.space.check_point(start)
    cover = ifs.space.box_cover(resolution)
    walk = _random_walk(ifs, start, iterations, Random(mix_seed(seed, 0xD1CE)))
    burn = min(1000, iterations // 10)
    visited = {cover.locate(p) for p in itertools.islice(walk, burn, None)}
    return len(visited) / len(cover)


def chaos_game(
    ifs: IFSystem, start: Point, iterations: int, seed: int = 0, burn: int = 100
) -> list[Point]:
    """Random-composition orbit after burn-in; the classic attractor sampler."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if burn < 0:
        raise ValueError("burn must be >= 0")
    if iterations > _MAX_ITERATIONS:
        raise BudgetExceededError(
            f"{iterations} iterations exceed the chaos-game budget {_MAX_ITERATIONS}"
        )
    ifs.space.check_point(start)
    walk = _random_walk(ifs, start, iterations + burn, Random(mix_seed(seed, 0xC0DE)))
    return list(itertools.islice(walk, burn, None))
