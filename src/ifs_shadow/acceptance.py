"""Acceptance suite: the package's verifiable claims as numbered criteria.

Each criterion is deterministic (explicit seeds throughout) and reports
pass/fail plus stable detail lines; rendering the results twice yields
byte-identical text.  Wall-clock budgets are judged as booleans so the
report never embeds a timing.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

import numpy as np

from .catalog import chaos_game, make
from .chainrec import analyze, build_chain_graph
from .counterexample import run_sweep
from .orbits import (
    BurstNoise,
    PseudoOrbit,
    UniformNoise,
    cyclic_connecting_orbit,
    noisy_average_orbit,
    refine_power_orbit,
    split_product_orbit,
    validate,
)
from .reporting import fmt
from .seeding import mix_seed
from .shadowing import (
    ExhaustiveSearch,
    average_distance_profile,
    brute_force_search,
    constructive_shadow,
    profile_from_distances,
    shadow_delta,
    tail_statistic,
)
from .spaces import Interval, grid_points
from .systems import SymbolStream, conjugate_ifs, power_ifs, product_ifs

# brute-force best averages of the first three seeded trials of criterion 6,
# frozen after the first oracle run as regression constants
_FROZEN_C6: tuple[float, ...] | None = (
    0.0065848251463874645,
    0.009906489127344435,
    0.005666509231349271,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: tuple[str, ...]
    budget: float | None = None
    within_budget: bool | None = None


def _criterion_1() -> tuple[bool, list[str]]:
    ifs = make("sierpinski")
    cases = tail_ok = ledger_ok = cumulative_ok = 0
    worst_tail = 0.0
    for ei, eps in enumerate((0.1, 0.05)):
        delta = shadow_delta(ifs, eps)
        for trial in range(50):
            seed = mix_seed(0xACC, 1, ei, trial)
            start = ifs.space.sample(Random(mix_seed(seed, 1)))
            stream = SymbolStream.random(ifs.labels, mix_seed(seed, 2))
            orbit = noisy_average_orbit(
                ifs,
                start,
                stream,
                horizon=5000,
                delta=delta,
                model=BurstNoise(jump=8.0 * delta, period=16),
                seed=mix_seed(seed, 3),
            )
            report = constructive_shadow(ifs, orbit, eps)
            cases += 1
            worst_tail = max(worst_tail, report.tail / eps)
            tail_ok += report.tail < eps
            ledger_ok += bool(np.all(report.distances <= report.bounds + 1e-9))
            cumulative_ok += report.cumulative <= report.cumulative_bound + 1e-9
    passed = cases == tail_ok == ledger_ok == cumulative_ok == 100
    details = [
        f"cases={cases}",
        f"tail_below_eps={tail_ok}/{cases}",
        f"ledger_bound_ok={ledger_ok}/{cases}",
        f"cumulative_bound_ok={cumulative_ok}/{cases}",
        f"worst_tail_over_eps={fmt(worst_tail)}",
    ]
    return passed, details


def _criterion_2() -> tuple[bool, list[str]]:
    k = 2
    delta = 0.05
    horizon = 399  # 400 decimated positions, so the tail windows align
    refined_ok = scaling_ok = cases = 0
    worst_gap = -1.0
    for name in ("sierpinski", "sigma2_shift"):
        base = make(name)
        power = power_ifs(base, k)
        for trial in range(100):
            seed = mix_seed(0xACC, 2, name == "sigma2_shift", trial)
            start = base.space.sample(Random(mix_seed(seed, 1)))
            stream = SymbolStream.random(power.labels, mix_seed(seed, 2))
            orbit = noisy_average_orbit(
                power, start, stream, horizon, delta, seed=mix_seed(seed, 3)
            )
            refined = refine_power_orbit(base, orbit, k)
            cases += 1
            refined_ok += validate(refined, delta).passed
            track = average_distance_profile(
                base, refined.points[0], SymbolStream.explicit(refined.symbols), refined
            )
            decimated_tail = tail_statistic(profile_from_distances(track.distances[::k]))
            gap = k * track.tail + 1e-9 - decimated_tail
            worst_gap = gap if worst_gap < 0 else min(worst_gap, gap)
            scaling_ok += gap >= 0.0
    passed = cases == refined_ok == scaling_ok == 200
    details = [
        f"cases={cases}",
        f"refined_validates={refined_ok}/{cases}",
        f"decimation_scaling_ok={scaling_ok}/{cases}",
        f"smallest_scaling_slack={fmt(worst_gap)}",
    ]
    return passed, details


def _criterion_3() -> tuple[bool, list[str]]:
    left = make("sierpinski")
    right = make("minimal_pair")
    prod = product_ifs(left, right)
    delta = 0.08
    horizon = 300
    cases = implication_ok = bounds_ok = 0
    product_passes = 0
    for trial in range(200):
        seed = mix_seed(0xACC, 3, trial)
        start_l = left.space.sample(Random(mix_seed(seed, 1)))
        start_r = right.space.sample(Random(mix_seed(seed, 2)))
        stream_l = SymbolStream.random(left.labels, mix_seed(seed, 3))
        stream_r = SymbolStream.random(right.labels, mix_seed(seed, 4))
        model = UniformNoise() if trial % 2 == 0 else BurstNoise(jump=5.0 * delta, period=8)
        orbit_l = noisy_average_orbit(
            left, start_l, stream_l, horizon, delta, model, mix_seed(seed, 5)
        )
        orbit_r = noisy_average_orbit(
            right, start_r, stream_r, horizon, delta, model, mix_seed(seed, 6)
        )
        combined = PseudoOrbit.from_points(
            prod,
            tuple(zip(orbit_l.points, orbit_r.points)),
            tuple(zip(orbit_l.symbols, orbit_r.symbols)),
        )
        back_l, back_r = split_product_orbit(combined, left, right)
        cases += 1
        implied = True
        for level in (delta, 0.7 * delta):
            vp = validate(combined, level)
            if vp.passed:
                product_passes += 1
                implied &= validate(back_l, level).passed and validate(back_r, level).passed
        implication_ok += implied
        prof_p = validate(combined, delta).profile
        prof_l = validate(back_l, delta).profile
        prof_r = validate(back_r, delta).profile
        lower = np.maximum(prof_l, prof_r)
        bounds_ok += bool(
            np.all(lower <= prof_p + 1e-12) and np.all(prof_p <= prof_l + prof_r + 1e-12)
        )
    passed = cases == implication_ok == bounds_ok == 200
    details = [
        f"cases={cases}",
        f"factor_implication_ok={implication_ok}/{cases}",
        f"profile_bounds_ok={bounds_ok}/{cases}",
        f"product_validations_seen={product_passes}",
    ]
    return passed, details


def _criterion_4() -> tuple[bool, list[str]]:
    eps = 0.15
    sweep = run_sweep(seed=0xACC4)
    separated = eps < sweep.separation / 3.0
    block_valid = sweep.validation.passed
    captured = sweep.all_captured
    tails_high = sweep.min_tail >= eps - 0.01
    passed = separated and block_valid and captured and tails_high
    details = [
        f"eps={fmt(eps)} separation={fmt(sweep.separation)}",
        f"block_orbit_validates_at_delta={fmt(sweep.delta)}: {block_valid}",
        f"captured={int(sweep.captured.sum())}/{sweep.captured.size}",
        f"min_tail={fmt(sweep.min_tail)} (needs >= {fmt(eps - 0.01)})",
    ]
    return passed, details


def _criterion_5() -> tuple[bool, list[str]]:
    counter = make("circle_counterexample")
    full = analyze(build_chain_graph(counter, eps=0.02, resolution=256))
    all_recurrent = len(full.recurrent) == len(full.graph)
    one_component = len(full.components) == 1

    half = make("circle_halfpoint")
    both = analyze(build_chain_graph(half, eps=0.01, resolution=512))
    box = both.graph.cover.locate(0.5)
    pair_recurrent = box in both.recurrent
    solo = analyze(build_chain_graph(half, eps=0.01, resolution=512, labels=(1,)))
    solo_escapes = box not in solo.recurrent

    gasket = make("sierpinski")
    points = chaos_game(gasket, (0.0, 0.0), iterations=300, seed=0xACC5)
    x, y = points[101], points[237]
    n0 = 64
    bound = 3.0 * gasket.space.diameter() / n0
    connector = cyclic_connecting_orbit(gasket, x, y, primary=1, n0=n0, horizon=16 * n0)
    connector_ok = validate(connector, bound).passed

    passed = all((all_recurrent, one_component, pair_recurrent, solo_escapes, connector_ok))
    details = [
        f"counterexample_recurrent_boxes={len(full.recurrent)}/{len(full.graph)}",
        f"counterexample_components={len(full.components)}",
        f"halfpoint_pair_box_recurrent={pair_recurrent}",
        f"halfpoint_single_map_box_non_recurrent={solo_escapes}"
        " (the box holds a fixed point of that map, which forces a self-loop)",
        f"gasket_connector_validates_at={fmt(bound)}: {connector_ok}",
    ]
    return passed, details


def _criterion_6() -> tuple[bool, list[str]]:
    ifs = make("minimal_pair")
    eps = 0.2
    delta = shadow_delta(ifs, eps)
    horizon = 6
    candidates = grid_points(ifs.space, 64)
    cases = oracle_ok = 0
    first_three: list[float] = []
    for trial in range(100):
        seed = mix_seed(0xACC, 6, trial)
        rng = Random(mix_seed(seed, 1))
        start = candidates[rng.randrange(len(candidates))]
        stream = SymbolStream.random(ifs.labels, mix_seed(seed, 2))
        orbit = noisy_average_orbit(
            ifs, start, stream, horizon, delta, seed=mix_seed(seed, 3)
        )
        shadow = constructive_shadow(ifs, orbit, eps)
        search = brute_force_search(
            ifs, orbit, candidates, ExhaustiveSearch(word_length=horizon)
        )
        cases += 1
        oracle_ok += search.report.average <= shadow.average + 1e-12
        if trial < 3:
            first_three.append(search.report.average)
    frozen_ok = True
    if _FROZEN_C6 is not None:
        frozen_ok = all(
            abs(a - b) <= 1e-12 for a, b in zip(first_three, _FROZEN_C6)
        ) and len(_FROZEN_C6) == len(first_three)
    passed = cases == oracle_ok == 100 and frozen_ok
    details = [
        f"cases={cases}",
        f"oracle_below_constructive={oracle_ok}/{cases}",
        f"first_three_best_averages=({', '.join(fmt(v) for v in first_three)})",
        f"frozen_regression_match={frozen_ok}",
    ]
    return passed, details


def _criterion_7() -> tuple[bool, list[str]]:
    base = make("minimal_pair")
    half_space = Interval(base.space.lo / 2.0, base.space.hi / 2.0)
    conjugacy = conjugate_ifs(
        base,
        lambda x: x / 2.0,
        lambda y: 2.0 * y,
        target_space=half_space,
        seed=0xACC7,
    )
    shrunk = conjugacy.system
    contraction = 0.5  # analytic Lipschitz constant of the coordinate change
    delta = 0.04
    cases = transported_ok = 0
    for trial in range(100):
        seed = mix_seed(0xACC, 7, trial)
        start = shrunk.space.sample(Random(mix_seed(seed, 1)))
        stream = SymbolStream.random(shrunk.labels, mix_seed(seed, 2))
        orbit = noisy_average_orbit(
            shrunk, start, stream, horizon=400, delta=contraction * delta,
            seed=mix_seed(seed, 3),
        )
        source_ok = validate(orbit, contraction * delta).passed
        mapped = orbit.map_points(lambda y: 2.0 * y, base)
        cases += 1
        transported_ok += source_ok and validate(mapped, delta).passed
    passed = cases == transported_ok == 100
    details = [
        f"cases={cases}",
        f"transported_validations={transported_ok}/{cases}",
        f"sampled_distortion=({fmt(conjugacy.lower)}, {fmt(conjugacy.upper)})",
    ]
    return passed, details


_REGISTRY: dict[int, tuple[str, float | None, object]] = {
    1: ("constructive average shadowing on the gasket", 30.0, _criterion_1),
    2: ("power-system refinement and decimation scaling", None, _criterion_2),
    3: ("product validation and profile bounds", None, _criterion_3),
    4: ("circle pair defeats average shadowing", 60.0, _criterion_4),
    5: ("chain recurrence landscapes and cyclic connector", None, _criterion_5),
    6: ("brute-force oracle versus constructive shadow", None, _criterion_6),
    7: ("conjugacy transport of average validation", None, _criterion_7),
}


def run_criterion(number: int) -> CriterionResult:
    title, budget, fn = _REGISTRY[number]
    t0 = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - t0
    within = None if budget is None else elapsed < budget
    return CriterionResult(
        number=number,
        title=title,
        passed=passed and within is not False,
        details=tuple(details),
        budget=budget,
        within_budget=within,
    )


def run_all() -> tuple[CriterionResult, ...]:
    return tuple(run_criterion(n) for n in sorted(_REGISTRY))


def render_report(results: tuple[CriterionResult, ...]) -> str:
    lines = ["ifs-shadow acceptance report", "=" * 28, ""]
    for r in results:
        lines.append(f"criterion {r.number}: {'PASS' if r.passed else 'FAIL'} - {r.title}")
        if r.within_budget is not None:
            lines.append(
                f"  within budget ({r.budget:g} s): {'yes' if r.within_budget else 'NO'}"
            )
        lines.extend(f"  {d}" for d in r.details)
        lines.append("")
    won = sum(r.passed for r in results)
    lines.append(f"summary: {won}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


def verify() -> tuple[bool, str]:
    """Run every criterion once; returns (all passed, rendered report)."""
    results = run_all()
    return all(r.passed for r in results), render_report(results)
