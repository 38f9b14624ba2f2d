"""System construction, composition order, streams, derived systems."""
from __future__ import annotations

from random import Random

import pytest

from ifs_shadow import (
    ConjugacyError,
    IFSystem,
    Interval,
    SymbolStream,
    UnknownSymbolError,
    conjugate_ifs,
    make,
    power_ifs,
    product_ifs,
)


@pytest.fixture
def halving_pair() -> IFSystem:
    space = Interval(0.0, 1.0)
    return IFSystem(
        space=space,
        labels=(1, 2),
        maps={1: lambda x: x / 2.0, 2: lambda x: x / 2.0 + 0.5},
        inverse_maps={1: lambda y: 2.0 * y, 2: lambda y: 2.0 * (y - 0.5)},
        ratio=0.5,
        name="halving",
    )


def test_compose_applies_first_symbol_first(halving_pair):
    assert halving_pair.compose((1, 2), 0.0) == 0.5
    assert halving_pair.compose((2, 1), 0.0) == 0.25
    assert halving_pair.compose((), 0.3) == 0.3


def test_apply_rejects_unknown_symbols(halving_pair):
    with pytest.raises(UnknownSymbolError):
        halving_pair.apply(3, 0.5)
    with pytest.raises(UnknownSymbolError):
        halving_pair.invert(3, 0.5)
    assert halving_pair.has_inverse(1)
    assert not halving_pair.has_inverse(3)


def test_constructor_validation():
    space = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        IFSystem(space=space, labels=(), maps={})
    with pytest.raises(ValueError):
        IFSystem(space=space, labels=(1, 1), maps={1: lambda x: x})
    with pytest.raises(ValueError):
        IFSystem(space=space, labels=(1,), maps={2: lambda x: x})
    with pytest.raises(ValueError):
        IFSystem(space=space, labels=(1,), maps={1: lambda x: x}, ratio=1.0)


def test_membership_probes_catch_escaping_map():
    space = Interval(0.0, 1.0)
    with pytest.raises(ValueError, match="leaves the space"):
        IFSystem(space=space, labels=(1,), maps={1: lambda x: x + 0.5})
    # the check can be waived for maps known to be safe on the orbit of interest
    IFSystem(space=space, labels=(1,), maps={1: lambda x: x + 0.5}, check=False)


def test_symbol_streams():
    assert SymbolStream.constant("a")[12345] == "a"
    per = SymbolStream.periodic((1, 2, 3))
    assert per.prefix(7) == (1, 2, 3, 1, 2, 3, 1)
    exp = SymbolStream.explicit((1, 2))
    assert exp[1] == 2
    with pytest.raises(IndexError):
        exp[2]
    with pytest.raises(IndexError):
        per[-1]
    with pytest.raises(ValueError):
        SymbolStream.periodic(())
    with pytest.raises(ValueError):
        SymbolStream.random((), seed=0)


def test_random_stream_is_seed_deterministic():
    a = SymbolStream.random((1, 2, 3), seed=42)
    b = SymbolStream.random((1, 2, 3), seed=42)
    c = SymbolStream.random((1, 2, 3), seed=43)
    assert a.prefix(200) == b.prefix(200)
    assert a.prefix(200) != c.prefix(200)
    assert set(a.prefix(200)) <= {1, 2, 3}


def test_product_system_acts_componentwise():
    pair = make("minimal_pair", alpha=0.1)  # slope 0.7
    shift = make("sigma2_shift")
    prod = product_ifs(pair, shift)
    assert prod.name == f"{pair.name}*{shift.name}"
    assert set(prod.labels) == {(a, b) for a in (1, 2) for b in (0, 1)}
    assert prod.ratio == pytest.approx(0.7)
    x = 0.25
    s = shift.space.sample(Random(5))
    fx, fs = prod.apply((2, 0), (x, s))
    assert fx == pair.apply(2, x)
    assert fs == shift.apply(0, s)
    back = prod.invert((2, 0), (fx, fs))
    assert back[0] == pytest.approx(x)
    assert back[1] == s


def test_power_system_runs_words(halving_pair):
    cubed = power_ifs(halving_pair, 3)
    assert len(cubed.labels) == 8
    assert cubed.ratio == 0.125
    assert cubed.name == "halving^3"
    w = (1, 2, 1)
    p = 0.375
    assert cubed.apply(w, p) == halving_pair.compose(w, p)
    assert cubed.invert(w, cubed.apply(w, p)) == pytest.approx(p)
    with pytest.raises(ValueError):
        power_ifs(halving_pair, 0)


def test_conjugacy_transports_maps_and_reports_distortion():
    pair = make("minimal_pair", alpha=0.125)
    lo, hi = pair.space.lo, pair.space.hi
    target = Interval(lo / 2.0, hi / 2.0)
    result = conjugate_ifs(
        pair, lambda x: x / 2.0, lambda y: 2.0 * y, target_space=target, samples=64
    )
    assert (result.lower, result.upper) == (0.5, 0.5)
    assert result.pairs == 32
    assert result.system.ratio is None
    assert result.system.name.endswith("~h")
    p = 0.3
    expected = pair.apply(1, 2.0 * p) / 2.0
    assert result.system.apply(1, p) == pytest.approx(expected, abs=1e-12)


def test_conjugacy_rejects_broken_round_trip():
    pair = make("minimal_pair", alpha=0.125)
    with pytest.raises(ConjugacyError):
        conjugate_ifs(pair, lambda x: x * x, lambda y: y / 2.0, samples=16)
