"""Vectorized sweep against a scalar re-implementation and against the
full-evaluation loop, plus frozen pins."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ifs_shadow import (
    BudgetExceededError,
    Circle,
    SymbolStream,
    block_switching_points,
    circle_polynomials,
    indexed_words,
    make,
    profile_from_distances,
    run_sweep,
    stream_seed,
    tail_statistic,
)


@pytest.fixture(scope="module")
def small_sweep():
    return run_sweep(
        a=0.5, block=4, doublings=4, grid=8, streams=4,
        capture_tol=1e-3, capture_steps=500, seed=5,
    )


def test_sweep_shapes_and_delta(small_sweep):
    s = small_sweep
    assert s.horizon == 3 * 2**4 * 4
    assert s.tails.shape == (8, 4)
    assert s.captured.shape == (8, 4)
    assert s.separation == 0.5
    assert s.delta == 3.0 * 0.5 / 4 + 1e-9
    assert s.validation.passed


def test_sweep_frozen_pin(small_sweep):
    assert small_sweep.min_tail == 0.1812175143579945
    assert small_sweep.all_captured


def test_sweep_is_deterministic(small_sweep):
    again = run_sweep(
        a=0.5, block=4, doublings=4, grid=8, streams=4,
        capture_tol=1e-3, capture_steps=500, seed=5,
    )
    assert np.array_equal(again.tails, small_sweep.tails)
    assert np.array_equal(again.captured, small_sweep.captured)
    other = run_sweep(
        a=0.5, block=4, doublings=4, grid=8, streams=4,
        capture_tol=1e-3, capture_steps=500, seed=6,
    )
    assert not np.array_equal(other.tails, small_sweep.tails)


def test_sweep_matches_scalar_replay(small_sweep):
    """Each sweep cell equals a plain one-point simulation driven by the
    equivalent symbol stream: bit 1 in column s picks the second map."""
    s = small_sweep
    ifs = make("circle_counterexample", a=0.5)
    circle = Circle()
    targets = block_switching_points(0.0, 0.5, s.block, s.horizon)
    for g in (0, 3, 7):
        for col in range(4):
            stream = SymbolStream.random((1, 2), stream_seed(5, col))
            x = (g + 0.5) / 8.0
            distances = [circle.distance(x, targets[0])]
            for n in range(s.horizon):
                x = ifs.apply(stream[n], x)
                distances.append(circle.distance(x, targets[n + 1]))
            profile = profile_from_distances(distances)
            assert tail_statistic(profile, s.window) == pytest.approx(
                s.tails[g, col], abs=1e-12
            )


def test_capture_flags_match_scalar_replay(small_sweep):
    s = small_sweep
    ifs = make("circle_counterexample", a=0.5)
    circle = Circle()
    for g in (0, 5):
        for col in range(4):
            stream = SymbolStream.random((1, 2), stream_seed(5, col))
            x = (g + 0.5) / 8.0
            hit = min(circle.distance(x, 0.0), circle.distance(x, 0.5)) <= 1e-3
            for n in range(min(s.horizon, s.capture_steps)):
                x = ifs.apply(stream[n], x)
                if min(circle.distance(x, 0.0), circle.distance(x, 0.5)) <= 1e-3:
                    hit = True
                    break
            assert hit == bool(s.captured[g, col])


def test_sweep_rejects_degenerate_blocks():
    with pytest.raises(ValueError):
        run_sweep(block=0, doublings=2, grid=4, streams=2)
    with pytest.raises(ValueError):
        run_sweep(block=4, doublings=0, grid=4, streams=2)
    with pytest.raises(ValueError, match="grid and streams"):
        run_sweep(block=4, doublings=2, grid=0, streams=2)
    with pytest.raises(ValueError, match="grid and streams"):
        run_sweep(block=4, doublings=2, grid=4, streams=0)


@pytest.mark.parametrize(
    "block, doublings, streams",
    [(16, 60, 64), (16, 10**9, 64), (1 << 20, 1, 64), (16, 10, 4096)],
    ids=["doublings-60", "doublings-1e9", "long-block", "too-many-streams"],
)
def test_sweep_budget_is_checked_before_allocating(block, doublings, streams):
    with pytest.raises(BudgetExceededError, match="budget"):
        run_sweep(block=block, doublings=doublings, grid=4, streams=streams)


# (a, block, doublings, capture_steps) at grid 16, 8 streams, seed 5.  With
# these streams the states become common fixed points of both maps at step
# 101 (a=0.5), 67 (a=0.7), 238 (a=0.3), 291 (a=0.25) and 378 (a=0.2), or
# never within a horizon of 192 (a=0.3 and a=0.25 at doublings 4).
EQUIVALENCE_CASES = [
    (a, block, doublings, capture_steps)
    for a in (0.5, 0.3, 0.25, 0.7)
    for block, doublings, capture_steps in ((4, 4, 500), (4, 6, 50), (2, 7, 10_000))
] + [(0.2, 17, 3, 10_000)]


def _symbol_bits(seed, horizon, streams):
    bits = np.empty((horizon, streams), dtype=bool)
    steps = np.arange(horizon)
    for s in range(streams):
        bits[:, s] = (indexed_words(stream_seed(seed, s), steps) & 1).astype(bool)
    return bits


def _full_evaluation_sweep(a, block, doublings, grid, streams, capture_tol, capture_steps, seed, window=0.1):
    """Reference: the sweep loop that evaluates both maps at every step."""
    horizon = 3 * (2**doublings) * block
    poly1, poly2 = circle_polynomials(a)
    targets = np.asarray(block_switching_points(0.0, a, block, horizon))
    bits = _symbol_bits(seed, horizon, streams)

    def wrap(x, t):
        d = np.abs(x - t)
        return np.minimum(d, 1.0 - d)

    centers = (np.arange(grid) + 0.5) / grid
    x = np.tile(centers[:, None], (1, streams))
    sums = wrap(x, targets[0])
    count = horizon + 1
    win_start = count - max(1, math.ceil(count * window))
    tails = sums.copy() if win_start <= 0 else np.zeros_like(sums)
    captured = np.minimum(wrap(x, 0.0), wrap(x, a)) <= capture_tol
    for n in range(horizon):
        y1 = poly1.eval_array(x)
        y2 = poly2.eval_array(x)
        x = np.where(bits[n][None, :], y2, y1) % 1.0
        j = n + 1
        sums += wrap(x, targets[j])
        if j >= win_start:
            np.maximum(tails, sums / (j + 1), out=tails)
        if j <= capture_steps:
            near = np.minimum(wrap(x, 0.0), wrap(x, a))
            captured |= near <= capture_tol
    return tails, captured


def _first_common_fixed_step(a, horizon, grid, streams, seed):
    """First step whose states both maps fix bitwise, or None."""
    poly1, poly2 = circle_polynomials(a)
    bits = _symbol_bits(seed, horizon, streams)
    x = np.tile(((np.arange(grid) + 0.5) / grid)[:, None], (1, streams))
    for n in range(horizon):
        y1 = poly1.eval_array(x) % 1.0
        y2 = poly2.eval_array(x) % 1.0
        if y1.tobytes() == x.tobytes() and y2.tobytes() == x.tobytes():
            return n
        x = np.where(bits[n][None, :], y2, y1)
    return None


@pytest.mark.parametrize("a, block, doublings, capture_steps", EQUIVALENCE_CASES)
def test_sweep_is_bitwise_equal_to_full_evaluation(a, block, doublings, capture_steps):
    """Stopping map evaluation once every state is frozen changes no bit."""
    config = dict(a=a, block=block, doublings=doublings, grid=16, streams=8,
                  capture_tol=1e-3, capture_steps=capture_steps, seed=5)
    sweep = run_sweep(**config)
    tails, captured = _full_evaluation_sweep(**config)
    assert sweep.tails.tobytes() == tails.tobytes()
    assert sweep.captured.tobytes() == captured.tobytes()


def test_equivalence_cases_cover_every_freeze_timing():
    """The cases above freeze before the capture window ends, after it
    ends, inside the tail window, and not at all."""
    timings = set()
    for a, block, doublings, capture_steps in EQUIVALENCE_CASES:
        horizon = 3 * (2**doublings) * block
        count = horizon + 1
        win_start = count - max(1, math.ceil(count * 0.1))
        fixed = _first_common_fixed_step(a, horizon, grid=16, streams=8, seed=5)
        if fixed is None:
            timings.add("never")
            continue
        timings.add("inside capture" if fixed < capture_steps else "after capture")
        if fixed >= win_start:
            timings.add("inside tail window")
    assert timings == {"never", "inside capture", "after capture", "inside tail window"}
