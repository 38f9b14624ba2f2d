"""Shadow construction, error-bound ledgers, and average-distance profiles.

For a uniformly contracting system, a pseudo-orbit that validates on average
at delta = (1-beta)*eps/2 is tracked on average within eps by the true orbit
started at the pseudo-orbit's own first point.  The per-step gap obeys the
geometric ledger b_0 = d(x_0, z) and b_{i+1} = a_i + beta*b_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    report = _report(
        ifs, start, orbit.symbols, orbit, window,
        bounds=bounds, cumulative_bound=cumulative_bound, delta=delta,
    )
    return replace(report, cumulative=float(report.distances.sum()))


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


def _merge_equal_states(groups: list) -> list:
    """Fold (state, members) groups whose states are bitwise equal into the
    first of them.  A dict hit only proves ``==``, so `repr` must agree too:
    0.0 == -0.0 stays apart, and so does an unhashable state."""
    if len(groups) < 2:
        return groups
    merged = []
    first: dict = {}
    for state, members in groups:
        try:
            k = first.setdefault(state, len(merged))
        except TypeError:
            k = len(merged)
        if k < len(merged) and repr(merged[k][0]) == repr(state):
            merged[k][1].extend(members)
        else:
            merged.append((state, members))
    return merged


def brute_force_search(
    ifs: IFSystem,
    orbit: PseudoOrbit,
    candidates: Sequence[Point],
    strategy: SearchStrategy = GreedySearch(),
    window: float = DEFAULT_WINDOW,
) -> SearchResult:
    """Oracle search for the best average-tracking orbit.

    Exhaustive mode minimizes the horizon average over candidates x words
    (ties: first candidate, then first word); greedy mode picks, at each step,
    the label landing nearest the next target point (ties: first label) and
    keeps the candidate with the least average (ties: first candidate).
    Exhaustive work is capped at |labels|**word_length <= 10**6, and the
    triples counted by `evaluations` at 5 * 10**7 in either mode.

    Neither mode computes a decision twice.  Greedy candidates advance in
    lockstep as groups that share one state; two groups merge once their
    states are bitwise equal, which contracting systems reach within a few
    dozen steps, and only the winner is replayed for its symbols.  Exhaustive
    words are walked as a prefix tree in `itertools.product` order, sharing
    each prefix's image and partial sum, and a node is pruned once its
    partial sum reaches the best total: sums of non-negative distances only
    grow, and dividing by horizon + 1 is monotone, so pruning is exact.

    `evaluations` counts the (candidate, step, label) triples (greedy) or
    (candidate, word, step) triples (exhaustive) that were decided, however
    few map calls the sharing left to make.
    """
    if not candidates:
        raise ValueError("need at least one candidate start point")
    space = ifs.space
    for z in candidates:
        space.check_point(z)
    horizon = orbit.horizon
    points = orbit.points
    labels = ifs.labels
    apply = ifs.apply
    distance = space.distance

    if isinstance(strategy, ExhaustiveSearch):
        length = strategy.word_length
        n_words = len(labels) ** length
        if n_words > 1_000_000:
            raise BudgetExceededError(f"{n_words} words exceed the exhaustive budget")
        if n_words * len(candidates) * (horizon + 1) > _SEARCH_BUDGET:
            raise BudgetExceededError("candidate grid times word count is too large")
        depth = min(length, horizon)  # levels where the word still branches
        best = None  # (key, total, candidate, branching prefix)
        for ci, z in enumerate(candidates):
            stack = [(z, distance(z, points[0]), ())]  # (image, partial sum, prefix)
            while stack:
                p, total, prefix = stack.pop()
                if best is not None and total >= best[1]:
                    continue
                i = len(prefix)
                if i < depth:
                    for label in reversed(labels):
                        q = apply(label, p)
                        stack.append((q, total + distance(q, points[i + 1]), prefix + (label,)))
                    continue
                # a leaf of the branching part: the rest of the walk repeats the word
                for j in range(depth, horizon):
                    p = apply(prefix[j % length], p)
                    total += distance(p, points[j + 1])
                    if best is not None and total >= best[1]:
                        break
                else:
                    key = total / (horizon + 1)
                    if best is None or key < best[0]:
                        best = (key, total, ci, prefix)
        _, _, ci, prefix = best
        word = prefix + (labels[0],) * (length - depth)  # the first word with that prefix
        symbols = tuple(word[i % length] for i in range(horizon))
        report = _report(ifs, candidates[ci], symbols, orbit, window)
        return SearchResult(
            report=report,
            candidate_index=ci,
            word=word,
            evaluations=len(candidates) * n_words * (horizon + 1),
        )

    triples = len(candidates) * horizon * len(labels)
    if triples > _SEARCH_BUDGET:
        raise BudgetExceededError(f"{triples} greedy triples exceed the search budget")

    def nearest(p, target):
        pick = None
        for label in labels:
            q = apply(label, p)
            d = distance(q, target)
            if pick is None or d < pick[0]:
                pick = (d, label, q)
        return pick

    totals = [distance(z, points[0]) for z in candidates]
    groups = _merge_equal_states([(z, [ci]) for ci, z in enumerate(candidates)])
    for i in range(horizon):
        target = points[i + 1]
        stepped = []
        for p, members in groups:
            d, _, q = nearest(p, target)
            for m in members:
                totals[m] += d
            stepped.append((q, members))
        groups = _merge_equal_states(stepped)
    # min keeps the first of equal averages, as a strict `<` scan would
    ci = min(range(len(totals)), key=lambda k: totals[k] / (horizon + 1))
    symbols = []
    p = candidates[ci]
    for i in range(horizon):
        _, label, p = nearest(p, points[i + 1])
        symbols.append(label)
    symbols = tuple(symbols)
    report = _report(ifs, candidates[ci], symbols, orbit, window)
    return SearchResult(
        report=report,
        candidate_index=ci,
        word=symbols,
        evaluations=triples,
    )
