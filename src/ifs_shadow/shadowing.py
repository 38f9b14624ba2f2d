"""Shadow construction, error-bound ledgers, and average-distance profiles.

For a uniformly contracting system, a pseudo-orbit that validates on average
at delta = (1-beta)*eps/2 is tracked on average within eps by the true orbit
started at the pseudo-orbit's own first point.  The per-step gap obeys the
geometric ledger b_0 = d(x_0, z) and b_{i+1} = a_i + beta*b_i.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationFailedError
from .orbits import PseudoOrbit, validate
from .spaces import Point
from .systems import IFSystem, SymbolStream

DEFAULT_WINDOW = 0.1
_SEARCH_BUDGET = 50_000_000


def tail_statistic(profile: np.ndarray, window: float = DEFAULT_WINDOW) -> float:
    """Max running average over the final `window` fraction of the profile."""
    if not 0.0 < window <= 1.0:
        raise ValueError("window must lie in (0, 1]")
    count = max(1, math.ceil(len(profile) * window))
    return float(np.max(profile[-count:]))


def profile_from_distances(distances: Sequence[float]) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    return np.cumsum(d) / np.arange(1, d.size + 1)


@dataclass(frozen=True, eq=False)
class ShadowReport:
    """A candidate tracking orbit against a target pseudo-orbit."""

    start: Point
    symbols: tuple
    horizon: int
    distances: np.ndarray  # d(F_{s_i}(z), x_i), i = 0..horizon
    profile: np.ndarray  # running averages of `distances`
    tail: float  # max running average over the final window
    window: float
    bounds: np.ndarray | None = None  # geometric ledger, when constructed
    cumulative: float | None = None  # sum of distances
    cumulative_bound: float | None = None
    delta: float | None = None  # validation level used by the construction

    @property
    def average(self) -> float:
        return float(self.profile[-1])


def _walk_distances(
    ifs: IFSystem, start: Point, symbols: Sequence, orbit: PseudoOrbit
) -> np.ndarray:
    space = ifs.space
    out = np.empty(len(symbols) + 1)
    p = start
    out[0] = space.distance(p, orbit.points[0])
    for i, label in enumerate(symbols):
        p = ifs.apply(label, p)
        out[i + 1] = space.distance(p, orbit.points[i + 1])
    return out


def _report(
    ifs: IFSystem,
    start: Point,
    symbols: tuple,
    orbit: PseudoOrbit,
    window: float,
    **extras,
) -> ShadowReport:
    distances = _walk_distances(ifs, start, symbols, orbit)
    profile = profile_from_distances(distances)
    return ShadowReport(
        start=start,
        symbols=symbols,
        horizon=len(symbols),
        distances=distances,
        profile=profile,
        tail=tail_statistic(profile, window),
        window=window,
        **extras,
    )


def shadow_delta(ifs: IFSystem, eps: float) -> float:
    """Validation level delta = (1-beta)*eps/2 at which constructive_shadow
    tracks a pseudo-orbit within eps; needs an analytic contraction ratio."""
    if ifs.ratio is None:
        raise ValidationFailedError(
            f"{ifs.name} has no analytic contraction ratio for constructive shadowing"
        )
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return (1.0 - ifs.ratio) * eps / 2.0


def constructive_shadow(
    ifs: IFSystem, orbit: PseudoOrbit, eps: float, window: float = DEFAULT_WINDOW
) -> ShadowReport:
    """Shadow a contracting system's pseudo-orbit from its own first point.

    Requires an analytic contraction ratio and an orbit that validates on
    average at delta = (1-beta)*eps/2.  The report carries the geometric
    per-step ledger and the telescoped cumulative bound
    sum d_i <= (gap + sum a_i) / (1-beta).
    """
    delta = shadow_delta(ifs, eps)
    beta = ifs.ratio
    check = validate(orbit, delta, "average")
    if not check.passed:
        raise ValidationFailedError(
            f"orbit does not validate on average at delta = {delta:g}"
        )
    start = orbit.points[0]
    alphas = np.asarray(orbit.errors, dtype=float)
    bounds = np.empty(alphas.size + 1)
    bounds[0] = 0.0  # the shadow starts at x_0, so the initial gap vanishes
    for i in range(alphas.size):
        bounds[i + 1] = alphas[i] + beta * bounds[i]
    cumulative_bound = float((bounds[0] + alphas.sum()) / (1.0 - beta))
    distances = _walk_distances(ifs, start, orbit.symbols, orbit)
    profile = profile_from_distances(distances)
    return ShadowReport(
        start=start,
        symbols=orbit.symbols,
        horizon=orbit.horizon,
        distances=distances,
        profile=profile,
        tail=tail_statistic(profile, window),
        window=window,
        bounds=bounds,
        cumulative=float(distances.sum()),
        cumulative_bound=cumulative_bound,
        delta=delta,
    )


def average_distance_profile(
    ifs: IFSystem,
    start: Point,
    stream: SymbolStream,
    orbit: PseudoOrbit,
    window: float = DEFAULT_WINDOW,
) -> ShadowReport:
    """Track `orbit` with the orbit of `start` under `stream`."""
    if orbit.horizon < 10:
        raise ValueError("profiles need a horizon of at least 10 steps")
    ifs.space.check_point(start)
    symbols = stream.prefix(orbit.horizon)
    return _report(ifs, start, symbols, orbit, window)


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Try every symbol word of the given length, extended periodically."""

    word_length: int


@dataclass(frozen=True)
class GreedySearch:
    """Pick, at each step, the symbol landing nearest the next target point."""


SearchStrategy = ExhaustiveSearch | GreedySearch


@dataclass(frozen=True, eq=False)
class SearchResult:
    report: ShadowReport
    candidate_index: int
    word: tuple
    evaluations: int


def brute_force_search(
    ifs: IFSystem,
    orbit: PseudoOrbit,
    candidates: Sequence[Point],
    strategy: SearchStrategy = GreedySearch(),
    window: float = DEFAULT_WINDOW,
) -> SearchResult:
    """Oracle search for the best average-tracking orbit.

    Exhaustive mode minimizes the horizon average over candidates x words
    (ties: first candidate, then first word); greedy mode minimizes each step
    locally.  Exhaustive work is capped at |labels|**word_length <= 10**6.
    """
    if not candidates:
        raise ValueError("need at least one candidate start point")
    space = ifs.space
    for z in candidates:
        space.check_point(z)
    horizon = orbit.horizon
    evaluations = 0

    if isinstance(strategy, ExhaustiveSearch):
        n_words = len(ifs.labels) ** strategy.word_length
        if n_words > 1_000_000:
            raise BudgetExceededError(f"{n_words} words exceed the exhaustive budget")
        if n_words * len(candidates) * (horizon + 1) > _SEARCH_BUDGET:
            raise BudgetExceededError("candidate grid times word count is too large")
        best = None
        for ci, z in enumerate(candidates):
            for word in itertools.product(ifs.labels, repeat=strategy.word_length):
                symbols = tuple(word[i % len(word)] for i in range(horizon))
                total = space.distance(z, orbit.points[0])
                p = z
                for i, label in enumerate(symbols):
                    p = ifs.apply(label, p)
                    total += space.distance(p, orbit.points[i + 1])
                evaluations += horizon + 1
                key = total / (horizon + 1)
                if best is None or key < best[0]:
                    best = (key, ci, word, symbols)
        _, ci, word, symbols = best
        report = _report(ifs, candidates[ci], symbols, orbit, window)
        return SearchResult(report=report, candidate_index=ci, word=word, evaluations=evaluations)

    best = None
    for ci, z in enumerate(candidates):
        p = z
        symbols = []
        total = space.distance(z, orbit.points[0])
        for i in range(horizon):
            target = orbit.points[i + 1]
            pick = None
            for label in ifs.labels:
                q = ifs.apply(label, p)
                d = space.distance(q, target)
                evaluations += 1
                if pick is None or d < pick[0]:
                    pick = (d, label, q)
            total += pick[0]
            symbols.append(pick[1])
            p = pick[2]
        key = total / (horizon + 1)
        if best is None or key < best[0]:
            best = (key, ci, tuple(symbols))
    _, ci, symbols = best
    report = _report(ifs, candidates[ci], symbols, orbit, window)
    return SearchResult(report=report, candidate_index=ci, word=symbols, evaluations=evaluations)
