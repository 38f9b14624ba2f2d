"""Constructive shadowing ledger, tracking profiles, and oracle searches."""
from __future__ import annotations

import itertools
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifs_shadow import (
    BudgetExceededError,
    ExhaustiveSearch,
    GreedySearch,
    IFSystem,
    Interval,
    PseudoOrbit,
    SymbolStream,
    ValidationFailedError,
    average_distance_profile,
    brute_force_search,
    constructive_shadow,
    exact_orbit,
    grid_points,
    make,
    noisy_average_orbit,
    profile_from_distances,
    tail_statistic,
)


def halving_pair() -> IFSystem:
    return IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1, 2),
        maps={1: lambda x: x / 2.0, 2: lambda x: x / 2.0 + 0.5},
        ratio=0.5,
        name="halving",
    )


def test_tail_statistic_oracle():
    profile = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    assert tail_statistic(profile, window=0.4) == 3.0  # last two entries
    assert tail_statistic(profile, window=1.0) == 5.0
    assert tail_statistic(profile, window=0.05) == 3.0  # at least one entry
    with pytest.raises(ValueError):
        tail_statistic(profile, window=0.0)
    with pytest.raises(ValueError):
        tail_statistic(profile, window=1.1)


def test_profile_from_distances_oracle():
    assert profile_from_distances([1.0, 3.0, 2.0]) == pytest.approx([1.0, 2.0, 2.0])


def test_constructive_shadow_matches_hand_ledger():
    """Pseudo-orbit 0, 1/10, 1/20, ... under the halving map: the only error
    is the first kick, and the shadow from 0 tracks at exactly the geometric
    ledger values."""
    ifs = halving_pair()
    points = [0.0, 0.1]
    for _ in range(9):
        points.append(points[-1] / 2.0)
    orbit = PseudoOrbit.from_points(ifs, points, (1,) * 10)
    assert orbit.errors[0] == 0.1
    assert orbit.errors[1:] == (0.0,) * 9

    report = constructive_shadow(ifs, orbit, eps=0.4)
    assert report.delta == 0.1
    assert report.start == 0.0
    assert report.bounds[0] == 0.0
    # true orbit is identically zero, so distance i equals the orbit point i
    assert report.distances == pytest.approx(points, abs=0.0)
    assert report.bounds == pytest.approx(points, abs=0.0)
    assert report.cumulative_bound == pytest.approx(0.2)
    assert report.cumulative <= report.cumulative_bound
    assert report.average == pytest.approx(sum(points) / 11.0)


def test_constructive_shadow_requires_analytic_ratio():
    ifs = halving_pair()
    anon = IFSystem(
        space=ifs.space, labels=ifs.labels, maps=ifs.maps, ratio=None, check=False
    )
    orbit = exact_orbit(anon, 0.5, SymbolStream.constant(1), 20)
    with pytest.raises(ValidationFailedError):
        constructive_shadow(anon, orbit, eps=0.1)


def test_constructive_shadow_requires_validation():
    ifs = halving_pair()
    orbit = PseudoOrbit(
        space=ifs.space, points=(0.0,) * 11, symbols=(1,) * 10, errors=(0.2,) * 10
    )
    with pytest.raises(ValidationFailedError):
        constructive_shadow(ifs, orbit, eps=0.4)  # delta 0.1 < errors
    with pytest.raises(ValueError):
        constructive_shadow(ifs, orbit, eps=0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), eps=st.floats(min_value=0.05, max_value=0.5))
def test_constructive_shadow_ledger_is_sound(seed: int, eps: float):
    """Per-step distances never exceed the geometric ledger, and the telescoped
    cumulative bound holds, for arbitrary on-average noise on the gasket."""
    gasket = make("sierpinski")
    delta = (1.0 - gasket.ratio) * eps / 2.0
    stream = SymbolStream.random(gasket.labels, seed=seed)
    orbit = noisy_average_orbit(gasket, (0.5, 0.2), stream, 60, delta, seed=seed)
    report = constructive_shadow(gasket, orbit, eps=eps)
    assert np.all(report.distances <= report.bounds + 1e-9)
    assert report.cumulative <= report.cumulative_bound + 1e-9


def test_average_profile_of_a_parallel_orbit():
    """Same symbols, start displaced by 1/2: the gap halves every step."""
    ifs = halving_pair()
    orbit = exact_orbit(ifs, 0.0, SymbolStream.constant(1), 12)
    report = average_distance_profile(ifs, 0.5, SymbolStream.constant(1), orbit)
    expected = [0.5 * 0.5**i for i in range(13)]
    assert report.distances == pytest.approx(expected, abs=0.0)
    assert report.tail < report.distances[0]
    with pytest.raises(ValueError):
        average_distance_profile(ifs, 0.5, SymbolStream.constant(1), orbit.truncated(9))


# --------------------------------------------------------------------------
# oracle searches


def _search_setup():
    pair = make("minimal_pair", alpha=0.125)
    stream = SymbolStream.random(pair.labels, seed=0x5EA)
    orbit = noisy_average_orbit(pair, 0.25, stream, 4, 0.05, seed=0x5EA)
    candidates = grid_points(pair.space, 9)
    return pair, orbit, candidates


def test_exhaustive_search_agrees_with_reimplementation():
    pair, orbit, candidates = _search_setup()
    result = brute_force_search(pair, orbit, candidates, ExhaustiveSearch(word_length=4))

    # independent enumeration of every candidate x word pair
    best = None
    for ci, z in enumerate(candidates):
        for word in itertools.product(pair.labels, repeat=4):
            total = abs(z - orbit.points[0])
            p = z
            for i in range(orbit.horizon):
                p = pair.apply(word[i % 4], p)
                total += abs(p - orbit.points[i + 1])
            key = total / (orbit.horizon + 1)
            if best is None or key < best[0]:
                best = (key, ci, word)
    assert result.candidate_index == best[1]
    assert result.word == best[2]
    assert result.report.average == pytest.approx(best[0], abs=1e-12)
    assert result.evaluations == len(candidates) * 2**4 * (orbit.horizon + 1)


def test_greedy_search_is_stepwise_optimal():
    pair, orbit, candidates = _search_setup()
    result = brute_force_search(pair, orbit, candidates, GreedySearch())
    z = candidates[result.candidate_index]
    p = z
    for i, label in enumerate(result.report.symbols):
        options = {l: abs(pair.apply(l, p) - orbit.points[i + 1]) for l in pair.labels}
        assert options[label] == min(options.values())
        p = pair.apply(label, p)
    # the report's distances re-walk the same orbit
    assert result.report.distances[0] == abs(z - orbit.points[0])
    assert result.report.horizon == orbit.horizon
    assert result.evaluations == len(candidates) * orbit.horizon * len(pair.labels)


def test_search_budget_gates():
    pair, orbit, candidates = _search_setup()
    with pytest.raises(BudgetExceededError):
        brute_force_search(pair, orbit, candidates, ExhaustiveSearch(word_length=30))
    long_orbit = noisy_average_orbit(
        pair, 0.25, SymbolStream.random(pair.labels, seed=1), 200, 0.05, seed=1
    )
    with pytest.raises(BudgetExceededError):
        brute_force_search(
            pair, long_orbit, grid_points(pair.space, 700), ExhaustiveSearch(word_length=19)
        )
    with pytest.raises(ValueError):
        brute_force_search(pair, orbit, [], GreedySearch())


# --------------------------------------------------------------------------
# the searches against their original per-candidate loops, bit for bit


def _reference_walk(ifs, start, symbols, orbit):
    out = np.empty(len(symbols) + 1)
    p = start
    out[0] = ifs.space.distance(p, orbit.points[0])
    for i, label in enumerate(symbols):
        p = ifs.apply(label, p)
        out[i + 1] = ifs.space.distance(p, orbit.points[i + 1])
    return out


def _reference_exhaustive(ifs, orbit, candidates, word_length):
    space = ifs.space
    horizon = orbit.horizon
    evaluations = 0
    best = None
    for ci, z in enumerate(candidates):
        for word in itertools.product(ifs.labels, repeat=word_length):
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
    return ci, word, evaluations, _reference_walk(ifs, candidates[ci], symbols, orbit).tobytes()


def _reference_greedy(ifs, orbit, candidates):
    space = ifs.space
    horizon = orbit.horizon
    evaluations = 0
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
    return ci, symbols, evaluations, _reference_walk(ifs, candidates[ci], symbols, orbit).tobytes()


def _searched(ifs, orbit, candidates, strategy):
    result = brute_force_search(ifs, orbit, candidates, strategy)
    return (result.candidate_index, result.word, result.evaluations,
            result.report.distances.tobytes())


def _signed_zero_pair() -> IFSystem:
    """Maps that send 0.0 and -0.0 to opposite ends, so 0.0 == -0.0 states
    must never share one walk."""
    return IFSystem(
        space=Interval(-1.0, 1.0),
        labels=(1, 2),
        maps={1: lambda x: math.copysign(0.5, x), 2: lambda x: math.copysign(0.25, x)},
        ratio=None,
        name="signed_zero",
        check=False,
    )


_REFERENCE_SETUPS = [
    # (example, grid resolution, horizon, word length, seed)
    ("sierpinski", 6, 40, 3, 7),
    ("sierpinski", 4, 5, 2, 1),
    ("minimal_pair", 16, 60, 4, 3),
    ("minimal_pair", 9, 9, 4, 0x5EA),  # horizon past the word: periodic extension
    ("circle_counterexample", 12, 50, 4, 0),
    ("circle_counterexample", 12, 3, 5, 2),  # word longer than the horizon
    ("finite_set", 3, 30, 1, 5),
    ("finite_set", 3, 4, 2, 6),  # 0/1 distances: many words tie
    ("sigma2_shift", 3, 40, 4, 11),
]


@pytest.mark.parametrize(
    "example, resolution, horizon, word_length, seed", _REFERENCE_SETUPS,
    ids=[f"{s[0]}-h{s[2]}-w{s[3]}" for s in _REFERENCE_SETUPS],
)
def test_searches_match_their_original_loops(example, resolution, horizon, word_length, seed):
    ifs = make(example)
    stream = SymbolStream.random(ifs.labels, seed=seed)
    start = ifs.space.sample(Random(seed))
    orbit = noisy_average_orbit(ifs, start, stream, horizon, 0.05, seed=seed)
    candidates = grid_points(ifs.space, resolution)
    # repeated starts tie in both modes, and the first of them must win
    for grid in (candidates, candidates[:4] + candidates[:4] + candidates[2:]):
        assert _searched(ifs, orbit, grid, GreedySearch()) == _reference_greedy(ifs, orbit, grid)
        assert _searched(ifs, orbit, grid, ExhaustiveSearch(word_length)) == \
            _reference_exhaustive(ifs, orbit, grid, word_length)


@pytest.mark.parametrize("candidates", [[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]])
def test_signed_zero_starts_are_never_merged(candidates):
    ifs = _signed_zero_pair()
    orbit = PseudoOrbit.from_points(ifs, [0.0] + [0.5] * 6, (1,) * 6)
    expected = _reference_greedy(ifs, orbit, candidates)
    assert math.copysign(1.0, candidates[expected[0]]) == 1.0  # only 0.0 reaches 0.5
    assert _searched(ifs, orbit, candidates, GreedySearch()) == expected
    assert _searched(ifs, orbit, candidates, ExhaustiveSearch(2)) == \
        _reference_exhaustive(ifs, orbit, candidates, 2)


def test_unmerged_sigma2_greedy_is_pinned():
    """Distinct cylinder centres never meet under prepending, so every walk
    stays apart; the winner was recorded from the per-candidate loop."""
    ifs = make("sigma2_shift")
    stream = SymbolStream.random(ifs.labels, seed=0x51)
    start = ifs.space.sample(Random(0x51))
    orbit = noisy_average_orbit(ifs, start, stream, 60, 0.05, seed=0x51)
    result = brute_force_search(ifs, orbit, grid_points(ifs.space, 4), GreedySearch())
    assert result.candidate_index == 14
    assert "".join(map(str, result.word)) == "101010110110100011110000010110100100000011010100101101111011"
    assert result.evaluations == 16 * 60 * 2
