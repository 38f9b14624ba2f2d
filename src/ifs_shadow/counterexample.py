"""Average-shadowing failure scan for the forward-moving circle pair.

The block-switching target orbit dwells on the two fixed anchors with
exponentially growing blocks, so it validates at any delta once the block
length beats 3 * separation / delta.  True orbits, however, converge to one
anchor and sit still, so their average distance to the target stays bounded
away from zero.  The sweep quantifies both halves over a start-point grid
crossed with seeded symbol streams, fully vectorized.

In floating point the true orbits do more than converge: every state soon
lands exactly on a value that both maps send to itself, bit for bit.  Such
a state never moves again, whatever the symbol stream, so once the whole
state array is frozen the sweep stops evaluating the maps and only keeps
accumulating distances to the target orbit.  Its results are bitwise those
of evaluating both maps at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import circle_polynomials, make
from .errors import BudgetExceededError
from .orbits import AverageValidation, PseudoOrbit, block_switching_orbit, block_switching_points, validate
from .seeding import indexed_words, mix_seed
from .spaces import Circle

_STREAM_TAG = 0x57E4
_FREEZE_CHECK_EVERY = 64  # steps between tests for a fully frozen state array
# Size guards, checked before anything is allocated: the default sweep
# (horizon 49 152, grid 512, 64 streams) sits at least 40 times below each.
_MAX_HORIZON = 1 << 21
_MAX_HORIZON_STREAMS = 1 << 27
_MAX_GRID_STREAMS = 1 << 21


def stream_seed(base: int, column: int) -> int:
    """Seed of the symbol stream behind one sweep column."""
    return mix_seed(base, _STREAM_TAG, column)


def _wrap_distance(x: np.ndarray, t: float) -> np.ndarray:
    d = np.abs(x - t)
    return np.minimum(d, 1.0 - d)


def _same_bits(u: np.ndarray, v: np.ndarray) -> bool:
    return np.array_equal(u.view(np.int64), v.view(np.int64))


@dataclass(frozen=True, eq=False)
class CounterexampleSweep:
    a: float
    block: int
    horizon: int
    grid: int
    streams: int
    capture_tol: float
    capture_steps: int
    window: float
    seed: int
    delta: float
    separation: float  # circle distance between the two anchors
    captured: np.ndarray  # (grid, streams): came near an anchor in time
    tails: np.ndarray  # (grid, streams): tail statistic vs the block orbit
    block_orbit: PseudoOrbit
    validation: AverageValidation

    @property
    def all_captured(self) -> bool:
        return bool(self.captured.all())

    @property
    def min_tail(self) -> float:
        return float(self.tails.min())


def run_sweep(
    a: float = 0.5,
    block: int = 16,
    doublings: int = 10,
    grid: int = 512,
    streams: int = 64,
    capture_tol: float = 1e-3,
    capture_steps: int = 10_000,
    window: float = 0.1,
    seed: int = 0,
    margin: float = 1e-9,
) -> CounterexampleSweep:
    """Run the full grid-times-streams scan against the block orbit.

    Every 64 steps the sweep tests whether each state is bitwise a fixed
    point of both maps (after reduction mod 1).  Once that holds, the next
    state equals the current one whichever map the stream picks, and so do
    all later states; `captured` can no longer change either.  From then on
    the maps are not evaluated: each step adds the frozen states' distance
    to the current target to the running sums, in the same order of float
    operations, so `tails` and `captured` are bitwise unchanged.
    """
    if doublings < 1 or block < 1:
        raise ValueError("block and doublings must be positive")
    if grid < 1 or streams < 1:
        raise ValueError("grid and streams must be positive")
    # the exponent test comes first so a huge `doublings` builds no huge int
    if doublings >= _MAX_HORIZON.bit_length() or 3 * (2**doublings) * block > _MAX_HORIZON:
        raise BudgetExceededError(
            f"block {block} with {doublings} doublings exceeds the sweep horizon budget {_MAX_HORIZON}"
        )
    if grid * streams > _MAX_GRID_STREAMS:
        raise BudgetExceededError(
            f"grid {grid} times {streams} streams exceeds the sweep budget {_MAX_GRID_STREAMS}"
        )
    horizon = 3 * (2**doublings) * block
    if horizon * streams > _MAX_HORIZON_STREAMS:
        raise BudgetExceededError(
            f"horizon {horizon} times {streams} streams exceeds the sweep budget {_MAX_HORIZON_STREAMS}"
        )
    circle = Circle()
    separation = circle.distance(0.0, a)
    delta = 3.0 * separation / block + margin

    ifs = make("circle_counterexample", a=a)
    orbit = block_switching_orbit(ifs, 0.0, a, block, horizon)
    validation = validate(orbit, delta, "average")

    poly1, poly2 = circle_polynomials(a)
    targets = np.asarray(block_switching_points(0.0, a, block, horizon))

    bits = np.empty((horizon, streams), dtype=bool)
    steps = np.arange(horizon)
    for s in range(streams):
        bits[:, s] = (indexed_words(stream_seed(seed, s), steps) & 1).astype(bool)

    centers = (np.arange(grid) + 0.5) / grid
    x = np.tile(centers[:, None], (1, streams))

    sums = _wrap_distance(x, targets[0])
    count = horizon + 1
    win_count = max(1, math.ceil(count * window))
    win_start = count - win_count
    tails = sums.copy() if win_start <= 0 else np.zeros_like(sums)
    buf = np.empty_like(sums)  # the window's running averages, reused each step

    near_anchor = np.minimum(_wrap_distance(x, 0.0), _wrap_distance(x, a))
    captured = near_anchor <= capture_tol

    # Once every state is a common fixed point, its distance to each anchor.
    frozen: dict[float, np.ndarray] | None = None
    for n in range(horizon):
        j = n + 1
        if frozen is None:
            y1 = poly1.eval_array(x) % 1.0
            y2 = poly2.eval_array(x) % 1.0
            if n % _FREEZE_CHECK_EVERY == 0 and _same_bits(y1, x) and _same_bits(y2, x):
                frozen = {t: _wrap_distance(x, t) for t in set(targets.tolist())}
            else:
                x = np.where(bits[n][None, :], y2, y1)
                if j <= capture_steps:
                    near = np.minimum(_wrap_distance(x, 0.0), _wrap_distance(x, a))
                    captured |= near <= capture_tol
        sums += _wrap_distance(x, targets[j]) if frozen is None else frozen[targets[j]]
        if j >= win_start:
            np.maximum(tails, np.divide(sums, j + 1, out=buf), out=tails)

    return CounterexampleSweep(
        a=a,
        block=block,
        horizon=horizon,
        grid=grid,
        streams=streams,
        capture_tol=capture_tol,
        capture_steps=capture_steps,
        window=window,
        seed=seed,
        delta=delta,
        separation=separation,
        captured=captured,
        tails=tails,
        block_orbit=orbit,
        validation=validation,
    )
