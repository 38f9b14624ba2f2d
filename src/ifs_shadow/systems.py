"""Iterated function systems and symbol streams.

A system is a finite family of self-maps of one space, indexed by symbols.
Orbits consume one symbol per step; the composition over a word applies the
word's first symbol first.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, InitVar
from random import Random
from typing import Any, Callable, Mapping

from .errors import ConjugacyError, UnknownSymbolError
from .seeding import indexed_word, mix_seed
from .spaces import Point, Space

Symbol = Any
SymbolWord = tuple

_MEMBERSHIP_SAMPLES = 32
_MEMBERSHIP_SEED = 0x5EED


@dataclass(eq=False)
class IFSystem:
    """Finite family of maps on one space, indexed by hashable symbols."""

    space: Space
    labels: tuple
    maps: Mapping[Symbol, Callable[[Point], Point]]
    inverse_maps: Mapping[Symbol, Callable[[Point], Point]] | None = None
    ratio: float | None = None
    name: str = "ifs"
    surjective: bool = False  # declared by the constructor, not verified
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not self.labels:
            raise ValueError("a system needs at least one map")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate symbols in index set")
        if set(self.maps) != set(self.labels):
            raise ValueError("maps must be keyed exactly by the index set")
        if self.ratio is not None and not 0.0 < self.ratio < 1.0:
            raise ValueError("contraction ratio must lie in (0, 1)")
        if check:
            self._check_membership()

    def _check_membership(self):
        rng = Random(_MEMBERSHIP_SEED)
        probes = [self.space.sample(rng) for _ in range(_MEMBERSHIP_SAMPLES)]
        for label in self.labels:
            f = self.maps[label]
            for p in probes:
                q = f(p)
                if not self.space.contains(q):
                    raise ValueError(
                        f"map {label!r} of {self.name} leaves the space: "
                        f"{p!r} -> {q!r}"
                    )

    def apply(self, label: Symbol, p: Point) -> Point:
        try:
            f = self.maps[label]
        except KeyError:
            raise UnknownSymbolError(f"{label!r} is not a symbol of {self.name}") from None
        return f(p)

    def compose(self, word: SymbolWord, p: Point) -> Point:
        """Apply the word left to right: the first symbol acts first."""
        for label in word:
            p = self.apply(label, p)
        return p

    def invert(self, label: Symbol, p: Point) -> Point:
        if self.inverse_maps is None or label not in self.inverse_maps:
            raise UnknownSymbolError(f"no inverse registered for {label!r} in {self.name}")
        return self.inverse_maps[label](p)

    def has_inverse(self, label: Symbol) -> bool:
        return self.inverse_maps is not None and label in self.inverse_maps


@dataclass(frozen=True)
class SymbolStream:
    """Infinite symbol sequence with O(1) random access to element n."""

    kind: str
    word: tuple = ()
    alphabet: tuple = ()
    seed: int = 0

    @classmethod
    def constant(cls, label: Symbol) -> "SymbolStream":
        return cls(kind="constant", word=(label,))

    @classmethod
    def periodic(cls, word: SymbolWord) -> "SymbolStream":
        if not word:
            raise ValueError("periodic stream needs a non-empty word")
        return cls(kind="periodic", word=tuple(word))

    @classmethod
    def explicit(cls, word: SymbolWord) -> "SymbolStream":
        if not word:
            raise ValueError("explicit stream needs a non-empty word")
        return cls(kind="explicit", word=tuple(word))

    @classmethod
    def random(cls, alphabet: tuple, seed: int) -> "SymbolStream":
        if not alphabet:
            raise ValueError("random stream needs a non-empty alphabet")
        return cls(kind="random", alphabet=tuple(alphabet), seed=seed)

    def __getitem__(self, i: int) -> Symbol:
        if i < 0:
            raise IndexError("stream indices start at 0")
        if self.kind == "constant":
            return self.word[0]
        if self.kind == "periodic":
            return self.word[i % len(self.word)]
        if self.kind == "explicit":
            if i >= len(self.word):
                raise IndexError(f"explicit stream has only {len(self.word)} symbols")
            return self.word[i]
        if self.kind == "random":
            return self.alphabet[indexed_word(self.seed, i) % len(self.alphabet)]
        raise ValueError(f"unknown stream kind {self.kind!r}")

    def prefix(self, n: int) -> tuple:
        return tuple(self[i] for i in range(n))


def product_ifs(left: IFSystem, right: IFSystem) -> IFSystem:
    """Componentwise system on the product space; symbols are pairs."""
    from .spaces import ProductSpace

    labels = tuple(itertools.product(left.labels, right.labels))
    maps = {}
    for la, lb in labels:
        fa, fb = left.maps[la], right.maps[lb]
        maps[(la, lb)] = lambda p, fa=fa, fb=fb: (fa(p[0]), fb(p[1]))
    inverse = None
    if left.inverse_maps is not None and right.inverse_maps is not None:
        inverse = {}
        for la, lb in labels:
            if la in left.inverse_maps and lb in right.inverse_maps:
                ga, gb = left.inverse_maps[la], right.inverse_maps[lb]
                inverse[(la, lb)] = lambda p, ga=ga, gb=gb: (ga(p[0]), gb(p[1]))
    ratio = None
    if left.ratio is not None and right.ratio is not None:
        ratio = max(left.ratio, right.ratio)
    return IFSystem(
        space=ProductSpace(left.space, right.space),
        labels=labels,
        maps=maps,
        inverse_maps=inverse,
        ratio=ratio,
        name=f"{left.name}*{right.name}",
        check=False,
    )


def power_ifs(ifs: IFSystem, k: int) -> IFSystem:
    """k-step system: one symbol is a length-k word, applied first symbol first."""
    if k < 1:
        raise ValueError("power must be >= 1")
    labels = tuple(itertools.product(ifs.labels, repeat=k))
    maps = {w: (lambda p, w=w: ifs.compose(w, p)) for w in labels}
    inverse = None
    if ifs.inverse_maps is not None and all(l in ifs.inverse_maps for l in ifs.labels):
        def make_inv(w):
            def inv(p, w=w):
                for label in reversed(w):
                    p = ifs.inverse_maps[label](p)
                return p
            return inv

        inverse = {w: make_inv(w) for w in labels}
    return IFSystem(
        space=ifs.space,
        labels=labels,
        maps=maps,
        inverse_maps=inverse,
        ratio=None if ifs.ratio is None else ifs.ratio**k,
        name=f"{ifs.name}^{k}",
        surjective=ifs.surjective,
        check=False,
    )


@dataclass(frozen=True)
class ConjugacyResult:
    """Conjugated system plus the sampled distortion range of the coordinate change."""

    system: IFSystem
    lower: float
    upper: float
    pairs: int


def conjugate_ifs(
    ifs: IFSystem,
    h: Callable[[Point], Point],
    h_inv: Callable[[Point], Point],
    samples: int = 256,
    target_space: Space | None = None,
    seed: int = 0,
) -> ConjugacyResult:
    """Transport the system through the coordinate change h.

    Each map f becomes h o f o h_inv on the target space.  h_inv(h(p)) must
    return p (tolerance 1e-9) on sampled points, and the sampled pairwise
    distortion of h is reported as (lower, upper).
    """
    target = target_space if target_space is not None else ifs.space
    rng = Random(mix_seed(seed, 0xC0))
    points = [ifs.space.sample(rng) for _ in range(max(2, samples))]
    for p in points:
        if ifs.space.distance(h_inv(h(p)), p) > 1e-9:
            raise ConjugacyError(f"round trip failed near {p!r}")
    lower, upper = float("inf"), 0.0
    pairs = 0
    for p, q in zip(points[::2], points[1::2]):
        d = ifs.space.distance(p, q)
        if d == 0.0:
            continue
        ratio = target.distance(h(p), h(q)) / d
        lower, upper = min(lower, ratio), max(upper, ratio)
        pairs += 1
    if pairs == 0:
        raise ConjugacyError("no distinct sample pairs to estimate distortion")
    maps = {}
    for label in ifs.labels:
        f = ifs.maps[label]
        maps[label] = lambda p, f=f: h(f(h_inv(p)))
    inverse = None
    if ifs.inverse_maps is not None:
        inverse = {}
        for label, g in ifs.inverse_maps.items():
            inverse[label] = lambda p, g=g: h(g(h_inv(p)))
    system = IFSystem(
        space=target,
        labels=ifs.labels,
        maps=maps,
        inverse_maps=inverse,
        ratio=None,
        name=f"{ifs.name}~h",
        surjective=ifs.surjective,
    )
    return ConjugacyResult(system=system, lower=lower, upper=upper, pairs=pairs)
