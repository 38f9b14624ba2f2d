"""Catalog systems: branch formulas, fixed points, inverses, probes."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ifs_shadow import (
    BinarySeq,
    IFSystem,
    Interval,
    PiecewisePoly,
    all_examples,
    chaos_game,
    circle_polynomials,
    halfpoint_polynomials,
    invariant_interval,
    make,
    minimality_probe,
    sequence_distance,
)

SQRT3 = math.sqrt(3.0)


# --------------------------------------------------------------------------
# piecewise polynomial circle maps


def test_circle_branch_values_at_half():
    f1, f2 = circle_polynomials(a=0.5)
    # quadratic pair: t + (a-t)t below the split, t + (1-t)(t-a) above
    assert f1(0.25) == 0.3125
    assert f1(0.75) == 0.8125
    # cubic pair: t + (a-t)t^2 below, t + (1-t^2)(t-a) above
    assert f2(0.25) == 0.265625
    assert f2(0.75) == 0.859375
    for f in (f1, f2):
        assert f(0.0) == 0.0
        assert f(0.5) == 0.5
        assert f(1.0) == 1.0


def test_halfpoint_branch_values():
    g1, g2 = halfpoint_polynomials()
    assert g1(0.25) == g2(0.25) == 0.3125  # shared branch below 1/2
    assert g1(0.75) == 0.6875  # pulled back toward 1/2
    assert g2(0.75) == 0.8125  # pushed on toward 1
    for g in (g1, g2):
        assert g(0.0) == 0.0
        assert g(0.5) == 0.5
        assert g(1.0) == 1.0


def test_circle_maps_move_non_fixed_points_forward():
    f1, f2 = circle_polynomials(a=0.5)
    grid = np.linspace(0.0, 1.0, 1001)
    interior = grid[(grid > 0) & (grid < 1) & (grid != 0.5)]
    for f in (f1, f2):
        values = f.eval_array(grid)
        assert np.all(np.diff(values) > 0.0)  # strictly increasing
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(f.eval_array(interior) > interior)


def test_halfpoint_first_map_pulls_back_above_half():
    g1, g2 = halfpoint_polynomials()
    upper = np.linspace(0.55, 0.95, 200)
    assert np.all(g1.eval_array(upper) < upper)
    assert np.all(g2.eval_array(upper) > upper)
    lower = np.linspace(0.05, 0.45, 200)
    assert np.all(g1.eval_array(lower) > lower)
    assert np.all(g2.eval_array(lower) > lower)


def test_eval_array_matches_scalar_calls():
    for poly in circle_polynomials(0.35) + halfpoint_polynomials():
        t = np.linspace(0.0, 1.0, 97)
        assert poly.eval_array(t) == pytest.approx([poly(v) for v in t], abs=1e-15)


def test_polynomial_inversion_round_trips():
    for poly in circle_polynomials(0.5) + circle_polynomials(0.3) + halfpoint_polynomials():
        for y in np.linspace(0.0, 1.0, 101):
            assert abs(poly(poly.invert(y)) - y) <= 1e-12
        # t-space round trip only where the branch value stays in range:
        # below a = 1/2 the cubic overshoots 1 and the system map wraps
        for t in np.linspace(0.05, 0.95, 37):
            if poly(t) <= 1.0:
                assert abs(poly.invert(poly(t)) - t) <= 1e-9
    with pytest.raises(ValueError):
        circle_polynomials(0.5)[0].invert(1.5)


def test_circle_system_wraps_and_inverts():
    for a in (0.5, 0.3):
        ifs = make("circle_counterexample", a=a)
        assert ifs.surjective
        for label in ifs.labels:
            for t in np.linspace(0.0, 0.999, 57):
                image = ifs.apply(label, t)
                assert 0.0 <= image < 1.0
                assert abs(ifs.apply(label, ifs.invert(label, image)) - image) <= 1e-12
        assert ifs.apply(1, 0.0) == 0.0
        assert ifs.apply(2, a) == a


def test_halfpoint_system_fixes_half():
    ifs = make("circle_halfpoint")
    for label in (1, 2):
        assert ifs.apply(label, 0.5) == 0.5
        assert ifs.apply(label, 0.0) == 0.0


# --------------------------------------------------------------------------
# gasket and affine pair


def test_gasket_maps_hit_known_images():
    gasket = make("sierpinski")
    assert gasket.apply(1, (1.0, 0.0)) == (0.5, 0.0)
    assert gasket.apply(2, (0.0, 0.0)) == (0.5, 0.0)
    assert gasket.apply(3, (0.0, 0.0)) == (0.25, SQRT3 / 4.0)
    assert gasket.ratio == 0.5


def test_gasket_corner_fixed_points_match_descriptor():
    from ifs_shadow import sierpinski

    props = sierpinski().properties
    gasket = make("sierpinski")
    for label, fp in zip((1, 2, 3), props["fixed_points"]):
        image = gasket.apply(label, fp)
        assert image == pytest.approx(fp, abs=0.0)
        assert gasket.space.contains(fp)


def test_minimal_pair_geometry():
    pair = make("minimal_pair", alpha=0.125)
    assert pair.ratio == 0.75
    assert pair.space.lo == -0.5000000010000003
    assert pair.space.hi == 1.5000000010000003
    # exact fixed endpoints of the two branches
    assert pair.apply(1, -0.5) == -0.5
    assert pair.apply(2, 1.5) == 1.5
    assert pair.space.contains(-0.5) and pair.space.contains(1.5)
    assert pair.invert(1, pair.apply(1, 0.3)) == pytest.approx(0.3, abs=1e-15)


def test_invariant_interval_is_forward_invariant():
    for alpha in (0.05, 0.125, 0.2):
        lo, hi = invariant_interval(alpha)
        slope = 0.5 + 2.0 * alpha
        for x in (lo, hi):
            assert lo <= slope * x - alpha <= hi
            assert lo <= slope * x + 0.5 - alpha <= hi


def test_parameter_range_validation():
    with pytest.raises(ValueError):
        make("minimal_pair", alpha=0.25)
    with pytest.raises(ValueError):
        make("minimal_pair", alpha=0.0)
    with pytest.raises(ValueError):
        make("circle_counterexample", a=1.0)
    with pytest.raises(ValueError):
        make("finite_set", n=5)
    with pytest.raises(ValueError):
        make("finite_set", n=0)


# --------------------------------------------------------------------------
# discrete permutations and the sequence shift


def test_finite_set_holds_every_permutation():
    ifs = make("finite_set", n=3)
    assert len(ifs.labels) == 6
    for label in ifs.labels:
        images = {ifs.apply(label, p) for p in range(3)}
        assert images == {0, 1, 2}  # bijective, hence surjective
        for p in range(3):
            assert ifs.invert(label, ifs.apply(label, p)) == p
    single = make("finite_set", n=1)
    assert len(single.labels) == 1
    assert single.apply(single.labels[0], 0) == 0


def test_sigma2_shift_halves_distances_exactly():
    ifs = make("sigma2_shift")
    assert ifs.ratio == 0.5
    s = BinarySeq((1, 0), (0, 1))
    t = BinarySeq((), (1,))
    d = sequence_distance(s, t)
    for label in (0, 1):
        assert sequence_distance(ifs.apply(label, s), ifs.apply(label, t)) == d / 2.0
        assert ifs.invert(label, ifs.apply(label, s)) == s


# --------------------------------------------------------------------------
# descriptors and factory plumbing


def test_all_examples_lists_the_catalog():
    names = [d.name for d in all_examples()]
    assert names == [
        "finite_set",
        "sierpinski",
        "minimal_pair",
        "sigma2_shift",
        "circle_counterexample",
        "circle_halfpoint",
    ]
    for desc in all_examples():
        system = make(desc)
        assert isinstance(system, IFSystem)
        beta = desc.properties.get("beta")
        if beta is not None:
            assert system.ratio == pytest.approx(beta)


def test_descriptor_labels():
    from ifs_shadow import circle_counterexample, minimal_pair, sierpinski

    assert sierpinski().label() == "sierpinski"
    assert minimal_pair(0.125).label() == "minimal_pair(alpha=0.125)"
    assert circle_counterexample(0.5).label() == "circle_counterexample(a=0.5)"


def test_make_rejects_bad_requests():
    with pytest.raises(KeyError):
        make("lorenz")
    with pytest.raises(TypeError):
        from ifs_shadow import sierpinski

        make(sierpinski(), n=3)


# --------------------------------------------------------------------------
# empirical probes


def test_minimality_probe_frozen_values():
    pair = make("minimal_pair", alpha=0.125)
    assert minimality_probe(pair, 0.5, 100000, 256) == 0.9921875
    gasket = make("sierpinski")
    assert minimality_probe(gasket, (0.5, 0.2), 100000, 64) == 0.2373046875


def test_probe_of_a_collapsing_orbit_visits_one_box():
    shrink = IFSystem(
        space=Interval(0.0, 1.0),
        labels=(1,),
        maps={1: lambda x: x / 2.0},
        ratio=0.5,
        name="shrink",
    )
    assert minimality_probe(shrink, 1.0, 5000, 16) == 0.0625
    with pytest.raises(ValueError):
        minimality_probe(shrink, 1.0, 0, 16)


def test_chaos_game_is_deterministic_and_contained():
    gasket = make("sierpinski")
    pts = chaos_game(gasket, (0.2, 0.1), 500, seed=7)
    assert len(pts) == 500
    assert pts == chaos_game(gasket, (0.2, 0.1), 500, seed=7)
    assert pts != chaos_game(gasket, (0.2, 0.1), 500, seed=8)
    assert all(gasket.space.contains(p) for p in pts)
    with pytest.raises(ValueError):
        chaos_game(gasket, (0.2, 0.1), 0)
    with pytest.raises(ValueError, match="burn"):
        chaos_game(gasket, (0.2, 0.1), 10, burn=-3)
