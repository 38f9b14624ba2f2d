"""Pseudo-orbits with per-step error ledgers, generators, and validation.

An orbit record stores points x_0..x_n, the symbols driving each step, and
the step errors a_i = d(f_{s_i}(x_i), x_{i+1}).  Validation is either plain
(every a_i < delta) or on-average (running means eventually stay < delta),
with an optional variant that also quantifies over every window start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Literal

import numpy as np

from .errors import InfeasibleParameterError, PreimageError
from .seeding import mix_seed
from .spaces import Point, Space
from .systems import IFSystem, Symbol, SymbolStream


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """Points, driving symbols, and the per-step error ledger."""

    space: Space
    points: tuple
    symbols: tuple
    errors: tuple

    def __post_init__(self):
        if len(self.points) != len(self.symbols) + 1:
            raise ValueError("need exactly one more point than symbols")
        if len(self.errors) != len(self.symbols):
            raise ValueError("need one error entry per step")
        for p in self.points:
            self.space.check_point(p)

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    @classmethod
    def from_points(cls, ifs: IFSystem, points, symbols) -> "PseudoOrbit":
        points = tuple(points)
        symbols = tuple(symbols)
        try:
            errors = tuple(
                ifs.space.distance(ifs.apply(symbols[i], points[i]), points[i + 1])
                for i in range(len(symbols))
            )
        except (TypeError, AttributeError):
            # a point of the wrong shape fails inside distance; report it as a mismatch
            for p in points:
                ifs.space.check_point(p)
            raise
        return cls(space=ifs.space, points=points, symbols=symbols, errors=errors)

    def map_points(self, fn: Callable[[Point], Point], ifs: IFSystem) -> "PseudoOrbit":
        """Transport every point through fn, keeping symbols; errors recomputed."""
        return PseudoOrbit.from_points(ifs, [fn(p) for p in self.points], self.symbols)

    def truncated(self, horizon: int) -> "PseudoOrbit":
        if horizon > self.horizon:
            raise ValueError("cannot extend an orbit by truncation")
        return PseudoOrbit(
            space=self.space,
            points=self.points[: horizon + 1],
            symbols=self.symbols[:horizon],
            errors=self.errors[:horizon],
        )


@dataclass(frozen=True)
class PlainValidation:
    delta: float
    passed: bool
    max_error: float


@dataclass(frozen=True, eq=False)
class AverageValidation:
    """Smallest N past which every running mean stays under delta (None if none)."""

    delta: float
    threshold: int | None
    profile: np.ndarray
    shifted: bool = False

    @property
    def passed(self) -> bool:
        return self.threshold is not None


ValidationMode = Literal["plain", "average", "average_shifted"]


def validate(orbit: PseudoOrbit, delta: float, mode: ValidationMode = "average"):
    """Check the error ledger against delta in the requested mode."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    alphas = np.asarray(orbit.errors, dtype=float)
    if np.isnan(alphas).any():
        raise ValueError("the error ledger contains NaN")
    if mode == "plain":
        worst = float(alphas.max()) if alphas.size else 0.0
        return PlainValidation(delta=delta, passed=bool(worst < delta), max_error=worst)
    if alphas.size == 0:
        return AverageValidation(delta=delta, threshold=1, profile=np.empty(0))
    sums = np.cumsum(alphas)
    profile = sums / np.arange(1, alphas.size + 1)
    if mode == "average":
        bad = np.nonzero(profile >= delta)[0]
        threshold = 1 if bad.size == 0 else int(bad[-1]) + 2
        if threshold > alphas.size:
            threshold = None
        return AverageValidation(delta=delta, threshold=threshold, profile=profile)
    if mode == "average_shifted":
        # windows: mean of a_k..a_{k+m-1} < delta for every start k once m >= N.
        # With Q_i = prefix_i - i*delta this asks Q_{k+m} < Q_k, so N is one
        # more than the widest gap j-k with Q_j >= Q_k (max-width ramp).
        q = np.concatenate(([0.0], sums)) - delta * np.arange(alphas.size + 1)
        stack = [0]
        for i in range(1, q.size):
            if q[i] < q[stack[-1]]:
                stack.append(i)
        widest = 0
        for j in range(q.size - 1, -1, -1):
            while stack and q[j] >= q[stack[-1]]:
                widest = max(widest, j - stack.pop())
            if not stack:
                break
        threshold = max(1, widest + 1)
        if widest >= alphas.size:
            threshold = None
        return AverageValidation(
            delta=delta, threshold=threshold, profile=profile, shifted=True
        )
    raise ValueError(f"unknown validation mode {mode!r}")


# --------------------------------------------------------------------------
# generators


def exact_orbit(ifs: IFSystem, start: Point, stream: SymbolStream, horizon: int) -> PseudoOrbit:
    """True orbit: zero error at every step."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    points = [start]
    symbols = []
    p = start
    for i in range(horizon):
        label = stream[i]
        p = ifs.apply(label, p)
        points.append(p)
        symbols.append(label)
    return PseudoOrbit(
        space=ifs.space,
        points=tuple(points),
        symbols=tuple(symbols),
        errors=(0.0,) * horizon,
    )


@dataclass(frozen=True)
class UniformNoise:
    """Perturb every step by less than scale*delta."""

    scale: float = 0.9


@dataclass(frozen=True)
class BurstNoise:
    """Insert a jump of size <= jump every `period` steps, exact otherwise."""

    jump: float
    period: int


NoiseModel = UniformNoise | BurstNoise


def noisy_average_orbit(
    ifs: IFSystem,
    start: Point,
    stream: SymbolStream,
    horizon: int,
    delta: float,
    model: NoiseModel = UniformNoise(),
    seed: int = 0,
) -> PseudoOrbit:
    """Seeded on-average pseudo-orbit; the returned ledger validates at delta."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if isinstance(model, BurstNoise):
        if not model.jump >= 0.0:
            raise ValueError(f"burst jump must be >= 0, got {model.jump!r}")
        if model.period < 1:
            raise InfeasibleParameterError("burst period must be >= 1")
        if model.jump / model.period >= delta:
            raise InfeasibleParameterError(
                f"jump/period = {model.jump / model.period:g} must stay below delta = {delta:g}"
            )
    rng = Random(mix_seed(seed, 0x0B17))
    space = ifs.space
    points = [start]
    symbols = []
    errors = []
    p = start
    for i in range(horizon):
        label = stream[i]
        image = ifs.apply(label, p)
        if isinstance(model, UniformNoise):
            magnitude = rng.random() * model.scale * delta
            nxt = space.perturb(image, magnitude, rng)
            err = space.distance(image, nxt)
        else:
            if (i + 1) % model.period == 0:
                nxt = space.jump(image, model.jump, rng)
                err = space.distance(image, nxt)
            else:
                nxt, err = image, 0.0
        points.append(nxt)
        symbols.append(label)
        errors.append(err)
        p = nxt
    return PseudoOrbit(
        space=space, points=tuple(points), symbols=tuple(symbols), errors=tuple(errors)
    )


def block_value(i: int, block: int) -> int:
    """0 or 1: which anchor the doubling-block sequence occupies at index i."""
    if i <= block:
        return 0
    if i <= 3 * block:
        return 1
    j = ((i - 1) // (3 * block)).bit_length() - 1
    return j % 2


def block_switching_points(first: Point, second: Point, block: int, horizon: int) -> tuple:
    """Doubling-block sequence: anchor `first` up to index `block`, then `second`
    up to 3*block, then alternating on blocks that double in length."""
    if block < 1:
        raise ValueError("block length must be >= 1")
    anchors = (first, second)
    return tuple(anchors[block_value(i, block)] for i in range(horizon + 1))


def block_switching_orbit(
    ifs: IFSystem, first: Point, second: Point, block: int, horizon: int, symbol: Symbol | None = None
) -> PseudoOrbit:
    """Error ledger of the doubling-block sequence against one constant symbol."""
    label = ifs.labels[0] if symbol is None else symbol
    points = block_switching_points(first, second, block, horizon)
    return PseudoOrbit.from_points(ifs, points, (label,) * horizon)


def _preimage(ifs: IFSystem, target: Point, preferred: Symbol) -> tuple[Point, Symbol]:
    """One backward step: a point w and symbol s with f_s(w) == target (1e-9)."""
    order = [preferred] + [l for l in ifs.labels if l != preferred]
    for label in order:
        if not ifs.has_inverse(label):
            continue
        w = ifs.invert(label, target)
        if not ifs.space.contains(w):
            continue
        if ifs.space.distance(ifs.apply(label, w), target) <= 1e-9:
            return w, label
    raise PreimageError(f"no preimage of {target!r} stays inside {ifs.space.describe()}")


def cyclic_connecting_orbit(
    ifs: IFSystem,
    x: Point,
    y: Point,
    primary: Symbol,
    n0: int,
    horizon: int,
) -> PseudoOrbit:
    """Periodic sequence visiting x and y whose average error is below
    3*diameter/n0: forward orbit of x for n0 steps, then a backward preimage
    chain descending to y, repeated with period 2*n0.

    The backward chain prefers the primary symbol's inverse and falls back to
    any registered inverse that keeps the point inside the space.  Inverse
    branches of contracting maps expand, so deep pullbacks amplify rounding;
    once every branch leaves the space the remaining period slots carry an
    exact forward segment instead, and the single junction jump lands in the
    error ledger.  Worst case three diameter-size jumps per period, so the
    running average stays below 3*diameter/n0 either way.
    """
    if n0 < 3:
        raise ValueError("n0 must be >= 3")
    if not any(ifs.has_inverse(label) for label in ifs.labels):
        raise PreimageError(f"{ifs.name} registers no inverse maps")
    space = ifs.space
    forward = [x]
    p = x
    for _ in range(n0):
        p = ifs.apply(primary, p)
        forward.append(p)
    for j, q in enumerate(forward):
        if space.distance(q, y) <= 1e-12 and j > 0:
            # degenerate case: y already sits on the forward orbit
            period_points = forward[: j + 1]
            period_symbols = [primary] * (j + 1)
            break
    else:
        back_points = []  # w_1 .. w_q: f(w_1) ~ y, f(w_{j+1}) ~ w_j
        back_symbols = []  # symbol used to map w_j one step forward
        target = y
        depth = n0 - 2
        for _ in range(depth):
            try:
                w, label = _preimage(ifs, target, primary)
            except PreimageError:
                break  # rounding pushed every branch out of the space
            back_points.append(w)
            back_symbols.append(label)
            target = w

        period_points = list(forward)  # residues 0..n0
        period_symbols = [primary] * (n0 + 1)  # residues 0..n0 (seam at n0)
        p = x
        for _ in range(depth - len(back_points)):  # forward filler when truncated
            period_points.append(p)
            period_symbols.append(primary)
            p = ifs.apply(primary, p)
        for j in range(len(back_points), 0, -1):  # w_q .. w_1
            period_points.append(back_points[j - 1])
            period_symbols.append(back_symbols[j - 1])
        period_points.append(y)  # residue 2n0-1
        period_symbols.append(primary)  # seam back to x

    points = []
    symbols = []
    while len(points) <= horizon:
        points.extend(period_points)
        symbols.extend(period_symbols)
    return PseudoOrbit.from_points(ifs, points[: horizon + 1], symbols[:horizon])


# --------------------------------------------------------------------------
# structure-preserving transforms


def refine_power_orbit(base: IFSystem, orbit: PseudoOrbit, k: int) -> PseudoOrbit:
    """Interleave a k-step orbit into a one-step orbit of the base system.

    Block n contributes x_n followed by the partial compositions of x_n under
    the first 1..k-1 symbols of the block's word; the symbols flatten in
    application order, so only block seams inherit the original errors.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    points = []
    symbols = []
    for n, word in enumerate(orbit.symbols):
        if len(word) != k:
            raise ValueError("orbit symbols are not length-k words")
        p = orbit.points[n]
        points.append(p)
        symbols.extend(word)
        for label in word[:-1]:
            p = base.apply(label, p)
            points.append(p)
    points.append(orbit.points[-1])
    return PseudoOrbit.from_points(base, points, symbols)


def split_product_orbit(
    orbit: PseudoOrbit, left: IFSystem, right: IFSystem
) -> tuple[PseudoOrbit, PseudoOrbit]:
    """Coordinate orbits of a product-system orbit, with recomputed ledgers."""
    first = PseudoOrbit.from_points(
        left, [p[0] for p in orbit.points], [s[0] for s in orbit.symbols]
    )
    second = PseudoOrbit.from_points(
        right, [p[1] for p in orbit.points], [s[1] for s in orbit.symbols]
    )
    return first, second
