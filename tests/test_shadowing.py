"""Constructive shadowing ledger, tracking profiles, and oracle searches."""
from __future__ import annotations

import itertools

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
