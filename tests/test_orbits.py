"""Pseudo-orbit ledgers, validation modes, and orbit generators."""
from __future__ import annotations

import math
from random import Random

import pytest

from ifs_shadow import (
    BurstNoise,
    IFSystem,
    InfeasibleParameterError,
    Interval,
    PreimageError,
    PseudoOrbit,
    SymbolStream,
    UniformNoise,
    block_switching_orbit,
    block_switching_points,
    block_value,
    cyclic_connecting_orbit,
    exact_orbit,
    make,
    noisy_average_orbit,
    power_ifs,
    product_ifs,
    refine_power_orbit,
    split_product_orbit,
    validate,
)


def halving_pair() -> IFSystem:
    return IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1, 2),
        maps={1: lambda x: x / 2.0, 2: lambda x: x / 2.0 + 0.5},
        inverse_maps={1: lambda y: 2.0 * y, 2: lambda y: 2.0 * (y - 0.5)},
        ratio=0.5,
        name="halving",
    )


def ledger_orbit(errors: tuple) -> PseudoOrbit:
    """Orbit scaffold whose error ledger is chosen by hand."""
    n = len(errors)
    return PseudoOrbit(
        space=Interval(0.0, 10.0),
        points=(0.0,) * (n + 1),
        symbols=(1,) * n,
        errors=errors,
    )


def test_from_points_computes_the_ledger():
    orbit = PseudoOrbit.from_points(halving_pair(), (0.0, 0.1, 0.55), (1, 2))
    assert orbit.errors == (0.1, 0.0)
    assert orbit.horizon == 2
    again = PseudoOrbit.from_points(halving_pair(), orbit.points, orbit.symbols)
    assert again.errors == orbit.errors


def test_orbit_shape_validation():
    space = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        PseudoOrbit(space=space, points=(0.0,), symbols=(1,), errors=(0.0,))
    with pytest.raises(ValueError):
        PseudoOrbit(space=space, points=(0.0, 0.5), symbols=(1,), errors=())


def test_truncated_shortens_only():
    orbit = ledger_orbit((0.1, 0.2, 0.3))
    cut = orbit.truncated(2)
    assert cut.errors == (0.1, 0.2)
    assert len(cut.points) == 3
    with pytest.raises(ValueError):
        orbit.truncated(4)


def test_map_points_recomputes_errors():
    ifs = IFSystem(
        space=Interval(0.0, 10.0),
        labels=(1,),
        maps={1: lambda x: x},
        name="identity",
        check=False,
    )
    orbit = PseudoOrbit.from_points(ifs, (0.0, 1.0, 3.0), (1, 1))
    assert orbit.errors == (1.0, 2.0)
    moved = orbit.map_points(lambda x: x + 0.1, ifs)
    assert moved.points[0] == 0.1
    assert moved.errors == pytest.approx((1.0, 2.0), abs=1e-12)


# --------------------------------------------------------------------------
# validation modes


def test_plain_validation_is_a_strict_sup_bound():
    orbit = ledger_orbit((0.4, 0.0, 0.0, 0.0, 0.0))
    failed = validate(orbit, 0.1, mode="plain")
    assert not failed.passed and failed.max_error == 0.4
    assert validate(orbit, 0.5, mode="plain").passed
    assert not validate(orbit, 0.4, mode="plain").passed  # strict


def test_average_validation_threshold_oracle():
    """One early spike of 0.4: running means 0.4, 0.2, 2/15, 0.1, 0.08 against
    delta 0.1 stay bad through index 3, so the threshold lands at 5."""
    orbit = ledger_orbit((0.4, 0.0, 0.0, 0.0, 0.0))
    report = validate(orbit, 0.1, mode="average")
    assert report.passed
    assert report.threshold == 5
    assert report.profile == pytest.approx((0.4, 0.2, 0.4 / 3.0, 0.1, 0.08))


def test_average_validation_failure_is_none():
    orbit = ledger_orbit((0.2,) * 8)
    report = validate(orbit, 0.1, mode="average")
    assert report.threshold is None and not report.passed


def test_zero_error_orbit_validates_at_threshold_one():
    orbit = ledger_orbit((0.0,) * 6)
    assert validate(orbit, 1e-9, mode="average").threshold == 1
    empty = PseudoOrbit(space=Interval(0.0, 1.0), points=(0.5,), symbols=(), errors=())
    assert validate(empty, 0.5, mode="average").threshold == 1
    assert validate(empty, 0.5, mode="plain").passed


def test_shifted_validation_sees_late_bursts():
    """A spike at the end never degrades prefix means, but every window of
    length four that covers it has mean exactly delta, so the shifted
    threshold is 5 while the plain average threshold stays 1."""
    orbit = ledger_orbit((0.0,) * 9 + (0.4,))
    assert validate(orbit, 0.1, mode="average").threshold == 1
    shifted = validate(orbit, 0.1, mode="average_shifted")
    assert shifted.shifted
    assert shifted.threshold == 5


def test_shifted_validation_threshold_oracle():
    orbit = ledger_orbit((0.4, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert validate(orbit, 0.1, mode="average_shifted").threshold == 5


def test_shifted_validation_failure():
    orbit = ledger_orbit((0.2,) * 8)
    assert validate(orbit, 0.1, mode="average_shifted").threshold is None


def test_validate_rejects_bad_arguments():
    orbit = ledger_orbit((0.1,))
    with pytest.raises(ValueError):
        validate(orbit, 0.0)
    with pytest.raises(ValueError):
        validate(orbit, -0.3, mode="plain")
    with pytest.raises(ValueError):
        validate(orbit, 0.1, mode="sup")
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta"):
            validate(orbit, delta)
    for mode in ("plain", "average", "average_shifted"):
        with pytest.raises(ValueError, match="NaN"):
            validate(ledger_orbit((0.01, math.nan, 0.01)), 0.1, mode)


# --------------------------------------------------------------------------
# generators


def test_exact_orbit_has_zero_ledger():
    ifs = halving_pair()
    orbit = exact_orbit(ifs, 1.0, SymbolStream.periodic((1, 2)), 10)
    assert orbit.errors == (0.0,) * 10
    assert orbit.points[1] == 0.5
    assert orbit.points[2] == 0.75
    assert orbit.symbols == (1, 2) * 5
    assert validate(orbit, 1e-12, mode="plain").passed


def test_generators_reject_negative_horizon():
    ifs = halving_pair()
    stream = SymbolStream.periodic((1, 2))
    with pytest.raises(ValueError, match="horizon"):
        exact_orbit(ifs, 0.5, stream, -1)
    with pytest.raises(ValueError, match="horizon"):
        noisy_average_orbit(ifs, 0.5, stream, -3, 0.1)


def test_uniform_noise_stays_under_delta_each_step():
    gasket = make("sierpinski")
    stream = SymbolStream.random(gasket.labels, seed=3)
    orbit = noisy_average_orbit(gasket, (0.25, 0.1), stream, 300, 0.05, seed=8)
    assert orbit.horizon == 300
    assert max(orbit.errors) < 0.05
    recomputed = PseudoOrbit.from_points(gasket, orbit.points, orbit.symbols).errors
    assert recomputed == pytest.approx(orbit.errors, abs=1e-12)
    assert validate(orbit, 0.05).passed
    again = noisy_average_orbit(gasket, (0.25, 0.1), stream, 300, 0.05, seed=8)
    assert again.points == orbit.points
    other = noisy_average_orbit(gasket, (0.25, 0.1), stream, 300, 0.05, seed=9)
    assert other.points != orbit.points


def test_burst_noise_jumps_on_schedule():
    gasket = make("sierpinski")
    stream = SymbolStream.constant(1)
    model = BurstNoise(jump=0.3, period=7)
    orbit = noisy_average_orbit(gasket, (0.5, 0.2), stream, 70, 0.05, model=model, seed=4)
    for i, err in enumerate(orbit.errors):
        if (i + 1) % 7 == 0:
            assert 0.0 < err <= 0.3 + 1e-12
        else:
            assert err == 0.0
    assert validate(orbit, 0.05).passed


def test_burst_noise_feasibility_gate():
    gasket = make("sierpinski")
    stream = SymbolStream.constant(1)
    with pytest.raises(InfeasibleParameterError):
        noisy_average_orbit(
            gasket, (0.5, 0.2), stream, 10, 0.2, model=BurstNoise(jump=0.5, period=2)
        )
    with pytest.raises(InfeasibleParameterError):
        noisy_average_orbit(
            gasket, (0.5, 0.2), stream, 10, 0.2, model=BurstNoise(jump=0.1, period=0)
        )
    with pytest.raises(InfeasibleParameterError):
        noisy_average_orbit(
            gasket, (0.5, 0.2), stream, 10, 0.2, model=BurstNoise(jump=math.inf, period=2)
        )
    with pytest.raises(ValueError):
        noisy_average_orbit(gasket, (0.5, 0.2), stream, 10, 0.0)
    for jump in (math.nan, -0.4):
        with pytest.raises(ValueError, match="burst jump") as info:
            noisy_average_orbit(
                gasket, (0.5, 0.2), stream, 10, 0.2, model=BurstNoise(jump=jump, period=2)
            )
        assert not isinstance(info.value, InfeasibleParameterError)


def test_block_value_doubling_table():
    """Blocks for block=2: anchor 0 on [0,2], 1 on [3,6], 0 on [7,12],
    1 on [13,24], 0 on [25,48], each after the first two doubling in length."""
    expected = (
        [(i, 0) for i in range(0, 3)]
        + [(i, 1) for i in range(3, 7)]
        + [(i, 0) for i in range(7, 13)]
        + [(i, 1) for i in range(13, 25)]
        + [(i, 0) for i in range(25, 49)]
        + [(49, 1), (96, 1), (97, 0)]
    )
    for i, anchor in expected:
        assert block_value(i, 2) == anchor, f"index {i}"
    with pytest.raises(ValueError):
        block_switching_points(0.0, 1.0, 0, 10)


def test_block_switching_orbit_error_schedule():
    """Anchors 0 and 1/2 are fixed by both circle maps, so the ledger carries
    distance 1/2 exactly at the block switches and nothing anywhere else."""
    pair = make("circle_counterexample", a=0.5)
    orbit = block_switching_orbit(pair, 0.0, 0.5, block=4, horizon=50, symbol=1)
    jumps = {i for i, e in enumerate(orbit.errors) if e != 0.0}
    assert jumps == {4, 12, 24, 48}
    assert all(orbit.errors[i] == 0.5 for i in jumps)
    report = validate(orbit, 0.05)
    assert report.passed
    assert report.threshold == 31  # last bad running mean sits at index 29


def test_block_switching_points_follow_block_value():
    pts = block_switching_points("a", "b", 3, 30)
    assert len(pts) == 31
    assert all(p == ("a", "b")[block_value(i, 3)] for i, p in enumerate(pts))


# --------------------------------------------------------------------------
# cyclic connector


def test_connector_visits_both_endpoints_on_schedule():
    pair = make("minimal_pair", alpha=0.125)
    lo, hi = pair.space.lo, pair.space.hi
    x, y = lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)
    n0 = 8
    orbit = cyclic_connecting_orbit(pair, x, y, primary=1, n0=n0, horizon=100)
    assert orbit.points[0] == x
    assert orbit.points[2 * n0] == x  # period 2*n0
    assert orbit.points[2 * n0 - 1] == y
    assert orbit.points[4 * n0 - 1] == y
    bound = 3.0 * pair.space.diameter() / n0
    assert validate(orbit, bound).passed


def test_connector_on_the_gasket_with_deep_pullbacks():
    gasket = make("sierpinski")
    x, y = (0.3, 0.1), (0.7, 0.05)
    n0 = 16
    orbit = cyclic_connecting_orbit(gasket, x, y, primary=1, n0=n0, horizon=320)
    assert orbit.points[2 * n0 - 1] == y
    assert orbit.points[2 * n0] == x
    bound = 3.0 * gasket.space.diameter() / n0
    assert validate(orbit, bound).passed


def test_connector_degenerate_forward_hit():
    """y on the forward orbit of x collapses the period to the hitting time."""
    ifs = halving_pair()
    orbit = cyclic_connecting_orbit(ifs, 1.0, 0.25, primary=1, n0=8, horizon=30)
    assert orbit.points[:4] == (1.0, 0.5, 0.25, 1.0)
    assert orbit.errors[:2] == (0.0, 0.0)
    assert orbit.errors[2] == 0.875  # seam back to x
    assert validate(orbit, 3.0 * 1.0 / 8).passed


def test_connector_degenerate_hit_on_the_gasket_is_pinned():
    """(1/8, 0) is two halvings from (1/2, 0): period 3, one seam jump each."""
    gasket = make("sierpinski")
    orbit = cyclic_connecting_orbit(gasket, (0.5, 0.0), (0.125, 0.0), primary=1, n0=8, horizon=7)
    assert orbit.points == ((0.5, 0.0), (0.25, 0.0), (0.125, 0.0)) * 2 + ((0.5, 0.0), (0.25, 0.0))
    assert orbit.symbols == (1,) * 7
    assert orbit.errors == (0.0, 0.0, 0.4375, 0.0, 0.0, 0.4375, 0.0)


def test_connector_requires_inverses_and_sane_period():
    bare = IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1,),
        maps={1: lambda x: x / 2.0},
        name="no-inverse",
    )
    with pytest.raises(PreimageError):
        cyclic_connecting_orbit(bare, 0.9, 0.1, primary=1, n0=5, horizon=20)
    with pytest.raises(ValueError):
        cyclic_connecting_orbit(halving_pair(), 0.9, 0.1, primary=1, n0=2, horizon=20)


# --------------------------------------------------------------------------
# structure-preserving transforms


def test_refine_power_orbit_round_trip():
    base = halving_pair()
    squared = power_ifs(base, 2)
    word_stream = SymbolStream.periodic(((1, 2), (2, 1)))
    coarse = exact_orbit(squared, 1.0, word_stream, 4)
    fine = refine_power_orbit(base, coarse, 2)
    direct = exact_orbit(base, 1.0, SymbolStream.periodic((1, 2, 2, 1)), 8)
    assert fine.symbols == direct.symbols
    assert fine.points == pytest.approx(direct.points, abs=1e-15)
    assert fine.errors == pytest.approx((0.0,) * 8, abs=1e-15)


def test_refine_rejects_mismatched_words():
    base = halving_pair()
    squared = power_ifs(base, 2)
    coarse = exact_orbit(squared, 1.0, SymbolStream.constant((1, 2)), 3)
    with pytest.raises(ValueError):
        refine_power_orbit(base, coarse, 3)
    with pytest.raises(ValueError):
        refine_power_orbit(base, coarse, 0)


def test_split_product_orbit_coordinates():
    left = halving_pair()
    right = make("sigma2_shift")
    prod = product_ifs(left, right)
    stream = SymbolStream.random(prod.labels, seed=12)
    start = (1.0, right.space.sample(Random(2)))
    orbit = exact_orbit(prod, start, stream, 12)
    a, b = split_product_orbit(orbit, left, right)
    assert a.symbols == tuple(s[0] for s in orbit.symbols)
    assert b.symbols == tuple(s[1] for s in orbit.symbols)
    assert a.errors == (0.0,) * 12
    assert b.errors == (0.0,) * 12
    # the product ledger is the max of the coordinate ledgers
    tampered = list(orbit.points)
    tampered[3] = (tampered[3][0] + 0.01, tampered[3][1])
    noisy = PseudoOrbit.from_points(prod, tampered, orbit.symbols)
    na, nb = split_product_orbit(noisy, left, right)
    assert noisy.errors == tuple(
        max(ea, eb) for ea, eb in zip(na.errors, nb.errors)
    )
