"""Exact arithmetic on eventually periodic binary sequences."""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ifs_shadow import BinarySeq, sequence_distance

bits = st.integers(min_value=0, max_value=1)
prefixes = st.lists(bits, min_size=0, max_size=6).map(tuple)
cycles = st.lists(bits, min_size=1, max_size=5).map(tuple)
seqs = st.builds(BinarySeq, prefixes, cycles)


def test_canonical_form_absorbs_redundant_prefix():
    # 0(1) and 01(1) and (01 rotated) all describe the same symbol stream
    assert BinarySeq((0, 1), (1,)) == BinarySeq((0,), (1,))
    assert BinarySeq((), (0, 1, 0, 1)) == BinarySeq((), (0, 1))
    assert BinarySeq((0, 1), (0, 1)) == BinarySeq((), (0, 1))


def test_item_and_take():
    s = BinarySeq((1, 0), (1, 1, 0))
    assert s.take(8) == (1, 0, 1, 1, 0, 1, 1, 0)
    assert s.item(0) == 1
    assert s.item(7) == 0
    with pytest.raises(IndexError):
        s.item(-1)
    with pytest.raises(IndexError):
        s.with_flipped(-1)


def test_cycle_must_be_nonempty_and_binary():
    with pytest.raises(ValueError):
        BinarySeq((), ())
    with pytest.raises(ValueError):
        BinarySeq((2,), (0,))


def test_symbols_must_round_trip_through_text():
    """A float symbol would print as '1.0', which `from_string` cannot read."""
    for prefix in ((1.0,), (0, 0.0), ("1",), (-1,), (256,)):
        with pytest.raises(ValueError, match="symbols must be 0 or 1"):
            BinarySeq(prefix, (0,))
    with pytest.raises(ValueError):
        BinarySeq((), (1.0,))
    s = BinarySeq((True, False), (True,))
    assert str(s) == "10|1"
    assert BinarySeq.from_string(str(s)) == s


def test_distance_worked_example():
    """001000... and 000000... first disagree at the third symbol."""
    s = BinarySeq((0, 0, 1), (0,))
    t = BinarySeq((), (0,))
    assert sequence_distance(s, t) == 0.25
    assert s.first_difference(t) == 2


def test_distance_extremes():
    zeros = BinarySeq((), (0,))
    ones = BinarySeq((), (1,))
    assert sequence_distance(zeros, ones) == 1.0
    assert sequence_distance(zeros, zeros) == 0.0
    assert zeros.first_difference(zeros) is None


def test_prepend_then_shift_is_identity():
    s = BinarySeq((1, 0, 0), (0, 1))
    for bit in (0, 1):
        assert s.prepend(bit).shift() == s
        assert s.prepend(bit).item(0) == bit


def test_shift_rotates_pure_cycle():
    s = BinarySeq((), (0, 1))
    assert s.shift() == BinarySeq((), (1, 0))
    assert s.shift().shift() == s


@given(seqs, seqs, bits)
def test_prepend_shared_bit_halves_distance(s: BinarySeq, t: BinarySeq, b: int):
    d = sequence_distance(s, t)
    assert sequence_distance(s.prepend(b), t.prepend(b)) == d / 2.0


@given(seqs, seqs)
def test_differing_heads_are_at_distance_one(s: BinarySeq, t: BinarySeq):
    assert sequence_distance(s.prepend(0), t.prepend(1)) == 1.0


@given(seqs, seqs)
def test_distance_symmetry_and_identity(s: BinarySeq, t: BinarySeq):
    assert sequence_distance(s, t) == sequence_distance(t, s)
    assert (sequence_distance(s, t) == 0.0) == (s == t)


@given(seqs, seqs, seqs)
def test_distance_is_ultrametric(s: BinarySeq, t: BinarySeq, u: BinarySeq):
    d_su = sequence_distance(s, u)
    assert d_su <= max(sequence_distance(s, t), sequence_distance(t, u))


@given(seqs, st.integers(min_value=0, max_value=12))
def test_flip_moves_by_exactly_its_scale(s: BinarySeq, i: int):
    flipped = s.with_flipped(i)
    assert flipped.item(i) == 1 - s.item(i)
    assert sequence_distance(s, flipped) == 2.0 ** (-i)
    assert flipped.with_flipped(i) == s


@given(seqs)
def test_string_round_trip(s: BinarySeq):
    assert BinarySeq.from_string(str(s)) == s


def test_from_string_rejects_malformed_text():
    with pytest.raises(ValueError):
        BinarySeq.from_string("0101")
    with pytest.raises(ValueError):
        BinarySeq.from_string("01|")


def _primitive_cycle(cycle):
    n = len(cycle)
    for period in range(1, n + 1):
        if n % period:
            continue
        if cycle == cycle[:period] * (n // period):
            return cycle[:period]
    return cycle


def _canonical(prefix, cycle):
    cycle = _primitive_cycle(cycle)
    prefix = list(prefix)
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = cycle[-1:] + cycle[:-1]
    return tuple(prefix), cycle


@dataclass(frozen=True)
class _ReferenceSeq:
    """The symbol-by-symbol implementation that `BinarySeq` replaced."""

    prefix: tuple = ()
    cycle: tuple = (0,)

    def __post_init__(self):
        prefix, cycle = _canonical(tuple(self.prefix), tuple(self.cycle))
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def item(self, i):
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def take(self, n):
        return tuple(self.item(i) for i in range(n))

    def first_difference(self, other):
        if self.prefix == other.prefix and self.cycle == other.cycle:
            return None
        bound = max(len(self.prefix), len(other.prefix)) + lcm(
            len(self.cycle), len(other.cycle)
        )
        for i in range(bound):
            if self.item(i) != other.item(i):
                return i
        return None

    def prepend(self, bit):
        return _ReferenceSeq((bit,) + self.prefix, self.cycle)

    def shift(self):
        if self.prefix:
            return _ReferenceSeq(self.prefix[1:], self.cycle)
        return _ReferenceSeq((), self.cycle[1:] + self.cycle[:1])

    def with_head(self, head):
        n = max(len(head), len(self.prefix))
        symbols = list(self.take(n))
        symbols[: len(head)] = list(head)
        start = (n - len(self.prefix)) % len(self.cycle)
        return _ReferenceSeq(tuple(symbols), self.cycle[start:] + self.cycle[:start])

    def with_flipped(self, i):
        head = list(self.take(i + 1))
        head[i] ^= 1
        return self.with_head(tuple(head))

    def __str__(self):
        return "".join(map(str, self.prefix)) + "|" + "".join(map(str, self.cycle))


@st.composite
def long_parts(draw):
    """A prefix of up to a few hundred symbols, often ending in a long run that
    restates the cycle (which the canonical form absorbs), and a cycle of up to 8."""
    cycle = draw(st.lists(bits, min_size=1, max_size=8).map(tuple))
    head = draw(st.lists(bits, max_size=300).map(tuple))
    run = cycle * draw(st.integers(min_value=0, max_value=40))
    return head + run[draw(st.integers(min_value=0, max_value=len(cycle) - 1)):], cycle


def _fields(s):
    return s.prefix, s.cycle, str(s)


@settings(max_examples=300)
@given(long_parts(), long_parts(), st.integers(min_value=0, max_value=350),
       st.integers(min_value=0, max_value=400), bits)
def test_matches_symbol_by_symbol_reference(a, b, i, n, bit):
    s, ref = BinarySeq(*a), _ReferenceSeq(*a)
    other, other_ref = BinarySeq(*b), _ReferenceSeq(*b)
    assert _fields(s) == _fields(ref)
    assert s.take(n) == ref.take(n)
    assert s.first_difference(other) == ref.first_difference(other_ref)
    last = max(len(ref.prefix) - 1, 0)  # flipping it may let a long run be absorbed
    pairs = [
        (s.with_flipped(i), ref.with_flipped(i)),
        (s.with_flipped(last), ref.with_flipped(last)),
        (s.prepend(bit), ref.prepend(bit)),
        (s.shift(), ref.shift()),
    ]
    for got, want in pairs:
        assert _fields(got) == _fields(want)
