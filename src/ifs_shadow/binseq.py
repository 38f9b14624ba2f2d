"""Eventually periodic binary sequences.

Points of the binary sequence space are stored exactly as a finite prefix
plus a repeating cycle, so prepending symbols and measuring the first
disagreement are exact operations (all distances are powers of two).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _canonical(prefix: tuple[int, ...], cycle: tuple[int, ...]):
    code = bytes(cycle)
    # the shortest rotation that maps the cycle onto itself is its primitive period
    period = (code + code).find(code, 1)
    cycle = cycle[:period]
    if prefix and prefix[-1] == cycle[-1]:
        # absorb the k prefix symbols that restate the cycle read backwards, so equal
        # sequences share one form: k counts the trailing zero bytes of the XOR below
        tail = code[:period] * (len(prefix) // period + 1)
        diff = int.from_bytes(bytes(prefix), "big") ^ int.from_bytes(tail[-len(prefix):], "big")
        k = ((diff & -diff).bit_length() - 1) // 8 if diff else len(prefix)
        start = period - k % period
        prefix, cycle = prefix[: len(prefix) - k], cycle[start:] + cycle[:start]
    return prefix, cycle


@dataclass(frozen=True)
class BinarySeq:
    """One point of the binary sequence space: prefix followed by a cycle."""

    prefix: tuple[int, ...] = ()
    cycle: tuple[int, ...] = (0,)

    def __post_init__(self):
        prefix, cycle = tuple(self.prefix), tuple(self.cycle)
        if not cycle:
            raise ValueError("cycle must be non-empty")
        try:
            other = (bytes(prefix) + bytes(cycle)).translate(None, b"\0\1")
        except (TypeError, ValueError) as exc:  # floats, strings, ints outside 0..255
            raise ValueError(f"symbols must be 0 or 1: {exc}") from None
        if other:
            raise ValueError(f"symbols must be 0 or 1, got {other[0]}")
        prefix, cycle = _canonical(prefix, cycle)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def item(self, i: int) -> int:
        if i < 0:
            raise IndexError("sequence indices start at 0")
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def take(self, n: int) -> tuple[int, ...]:
        repeats = max(n - len(self.prefix), 0) // len(self.cycle) + 1
        return (self.prefix + self.cycle * repeats)[: max(n, 0)]

    def first_difference(self, other: BinarySeq) -> int | None:
        """Index of the first disagreeing symbol, or None when equal.

        Two eventually periodic sequences that agree past both prefixes for a
        full common period agree everywhere, so the scan is bounded.
        """
        if self.prefix == other.prefix and self.cycle == other.cycle:
            return None
        bound = max(len(self.prefix), len(other.prefix)) + lcm(
            len(self.cycle), len(other.cycle)
        )
        for i in range(bound):
            if self.item(i) != other.item(i):
                return i
        return None

    def prepend(self, bit: int) -> BinarySeq:
        return BinarySeq((bit,) + self.prefix, self.cycle)

    def shift(self) -> BinarySeq:
        """Drop the first symbol."""
        if self.prefix:
            return BinarySeq(self.prefix[1:], self.cycle)
        return BinarySeq((), self.cycle[1:] + self.cycle[:1])

    def with_flipped(self, i: int) -> BinarySeq:
        """Copy with symbol i replaced by its complement."""
        # unroll the cycle through symbol i, so the flip lands in the prefix
        head = self.take(i + 1) if i >= len(self.prefix) else self.prefix
        start = (len(head) - len(self.prefix)) % len(self.cycle)
        flipped = head[:i] + (self.item(i) ^ 1,) + head[i + 1 :]  # item rejects i < 0
        return BinarySeq(flipped, self.cycle[start:] + self.cycle[:start])

    def __str__(self) -> str:
        return (bytes(self.prefix) + b"|" + bytes(self.cycle)).translate(_DIGITS).decode()

    @classmethod
    def from_string(cls, text: str) -> BinarySeq:
        head, sep, tail = text.partition("|")
        if not sep or not tail:
            raise ValueError(f"expected 'prefix|cycle', got {text!r}")
        return cls(tuple(map(int, head)), tuple(map(int, tail)))


def sequence_distance(s: BinarySeq, t: BinarySeq) -> float:
    """1 / 2**k where symbol k+1 (counting from one) first disagrees."""
    diff = s.first_difference(t)
    if diff is None:
        return 0.0
    return 2.0 ** (-diff)
