"""Layer tracing from outside the package.

The tracer replaces public functions and methods of the ``ifs_shadow``
modules with timing wrappers for the length of one operation and puts the
originals back afterwards; nothing under ``src/`` is edited.  Hot per-point
calls (distance, apply, near, ...) are only aggregated into call counts and
total/self time, because one span per call would mean millions per op.
Coarse calls (a CLI command, ``run_sweep``, ``build_chain_graph``, the
writers) also record a span: name, start, end and the enclosing span.
Spans stay in memory until the benchmark writes them out at the end.

Self time is a call's duration minus the time of the traced calls it made;
summed per layer it splits an operation's wall time between the modules.
"""
from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "ifs_shadow"

# (module, attribute path, stats key, records a span).  The key's first
# component names the layer; several attributes may share one key, such as
# every Space subclass's ``distance``.
_SPACES = ("Interval", "Circle", "PlaneRegion", "Sigma2", "DiscretePoints", "ProductSpace")
_COVERS = ("IntervalCover", "CircleCover", "PlaneCover", "Sigma2Cover", "ProductCover", "DiscreteCover")
_WRITERS = (
    "write_orbit", "write_shadow_report", "write_edges", "write_recurrence",
    "write_sweep", "write_points", "write_pgm",
)

TARGETS = (
    [
        ("cli", "main", "cli.main", True),
        ("counterexample", "run_sweep", "counterexample.run_sweep", True),
        ("catalog", "make", "catalog.make", True),
        ("catalog", "chaos_game", "catalog.chaos_game", True),
        ("catalog", "PiecewisePoly.__call__", "catalog.poly_call", False),
        ("catalog", "PiecewisePoly.eval_array", "catalog.eval_array", False),
        ("catalog", "PiecewisePoly.invert", "catalog.poly_invert", False),
        ("seeding", "indexed_words", "seeding.indexed_words", False),
        ("seeding", "indexed_word", "seeding.indexed_word", False),
        ("seeding", "mix_seed", "seeding.mix_seed", False),
        ("orbits", "noisy_average_orbit", "orbits.noisy_average_orbit", True),
        ("orbits", "validate", "orbits.validate", True),
        ("orbits", "PseudoOrbit.from_points", "orbits.from_points", True),
        ("orbits", "block_switching_orbit", "orbits.block_switching_orbit", True),
        ("orbits", "block_switching_points", "orbits.block_switching_points", False),
        ("shadowing", "constructive_shadow", "shadowing.constructive_shadow", True),
        ("shadowing", "brute_force_search", "shadowing.brute_force_search", True),
        ("shadowing", "tail_statistic", "shadowing.tail_statistic", False),
        ("shadowing", "profile_from_distances", "shadowing.profile_from_distances", False),
        ("binseq", "BinarySeq.first_difference", "binseq.first_difference", False),
        ("binseq", "BinarySeq.prepend", "binseq.prepend", False),
        ("binseq", "BinarySeq.shift", "binseq.shift", False),
        ("binseq", "BinarySeq.with_flipped", "binseq.with_flipped", False),
        ("binseq", "BinarySeq.__post_init__", "binseq.construct", False),
        ("binseq", "sequence_distance", "binseq.sequence_distance", False),
        ("spaces", "grid_points", "spaces.grid_points", False),
        ("systems", "IFSystem.apply", "systems.apply", False),
        ("systems", "SymbolStream.__getitem__", "systems.stream_item", False),
        ("systems", "SymbolStream.prefix", "systems.stream_prefix", False),
        ("chainrec", "build_chain_graph", "chainrec.build_chain_graph", True),
        ("chainrec", "analyze", "chainrec.analyze", True),
        ("chainrec", "find_chain", "chainrec.find_chain", True),
        ("reporting", "write_text", "reporting.write", True),
        ("reporting", "write_bytes", "reporting.write", True),
    ]
    + [("spaces", f"{cls}.{meth}", f"spaces.{meth}", False)
       for cls in _SPACES for meth in ("distance", "sample", "perturb", "jump", "box_cover")]
    + [("spaces", f"{cls}.{meth}", f"spaces.{meth}", False)
       for cls in _COVERS for meth in ("near", "locate", "box_samples")]
    + [("reporting", name, "reporting.write", True) for name in _WRITERS]
)

# Work counters read from a traced call's arguments or result.
_COUNTERS = {
    "shadowing.brute_force_search": ("shadowing.search_evaluations", lambda args, r: r.evaluations),
    "chainrec.build_chain_graph": ("chainrec.edges", lambda args, r: r.n_edges),
    "reporting.write": (
        "reporting.bytes",
        lambda args, r: os.path.getsize(args[0]) if args and isinstance(args[0], str) else 0,
    ),
}


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for a dotted path in a module."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def replace_everywhere(self, original, value) -> None:
        """Replace `original` in every package module that binds it by name."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, bound in list(vars(module).items()):
                if bound is original:
                    self.replace(module, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Per-key call counts and total/self times, per-layer self time, spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, depth]
        self.layer_self: dict[str, float] = {}
        self.counters: dict[str, int] = {name: 0 for name, _ in _COUNTERS.values()}
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.op = 0
        self._stack: list[list] = []  # [child time, span id] per active call
        self._span_stack: list[int] = []

    def install(self, patcher: Patcher) -> None:
        for modname, path, key, span in TARGETS:
            module = sys.modules[f"{PACKAGE}.{modname}"]
            try:
                owner, name, raw = _resolve(module, path)
            except (AttributeError, KeyError):
                continue  # a later version may drop a target; its metrics then read 0
            span_name = f"{modname}.{path}"
            if isinstance(raw, classmethod):
                patcher.replace(owner, name, classmethod(self._wrap(raw.__func__, key, span_name, span)))
            elif owner is module:
                # other modules imported the function by name; replace those bindings too
                patcher.replace_everywhere(raw, self._wrap(raw, key, span_name, span))
            else:
                patcher.replace(owner, name, self._wrap(raw, key, span_name, span))

    def _wrap(self, func, key: str, span_name: str, span: bool):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        layer = key.split(".", 1)[0]
        self.layer_self.setdefault(layer, 0.0)
        layer_self = self.layer_self
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        counter = _COUNTERS.get(key)
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append(None)  # reserve the id; filled in on return
                span_stack.append(frame[1])
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[3] -= 1
                duration = end - start
                own = duration - frame[0]
                stat[0] += 1
                stat[2] += own
                if stat[3] == 0:
                    stat[1] += duration
                layer_self[layer] += own
                if stack:
                    stack[-1][0] += duration
                if span:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    spans[frame[1]] = (tracer.op, frame[1], parent, span_name, start, end)
            if counter is not None and stat[3] == 0:
                counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def take(self) -> dict:
        """Totals since the last call, then zeroed: one op's layer figures."""
        out = {
            "calls": {k: s[0] for k, s in self.stats.items()},
            "total_s": {k: s[1] for k, s in self.stats.items()},
            "self_s": {k: s[2] for k, s in self.stats.items()},
            "layer_self_s": dict(self.layer_self),
            "counters": dict(self.counters),
        }
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0
        for layer in self.layer_self:
            self.layer_self[layer] = 0.0
        for name in self.counters:
            self.counters[name] = 0
        return out
