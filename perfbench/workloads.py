"""The three benchmark workloads: inputs from the seed, one op, its checks.

Each op runs CLI commands in-process through ``ifs_shadow.cli.main`` (and,
for ``pointwise``, library calls shaped like acceptance criterion 6).  The
return values the checks need are captured by wrapping the names the CLI
module imported; the wrappers only record and pass the call through.

Why these three: ``sweep`` is the numpy-vectorised counterexample scan,
where per-point layers barely run; ``pointwise`` is per-point Python objects
on three spaces with no numpy kernel; ``graph`` is the box-graph layer with
cover range queries.  A change to one of them should leave the others still.
"""
from __future__ import annotations

import contextlib
import functools
import io
import os
from random import Random

# Library calls go through module attributes so that the tracer's
# replacements of those attributes see them.
from ifs_shadow import catalog, cli, orbits, seeding, shadowing, spaces
from ifs_shadow.systems import SymbolStream

_CAPTURED = (
    "run_sweep", "constructive_shadow", "brute_force_search", "validate",
    "build_chain_graph", "analyze", "find_chain",
)


class Capture:
    """Return values of the library calls the CLI makes during one op."""

    def __init__(self):
        self.results: dict[str, list] = {name: [] for name in _CAPTURED}

    def install(self, patcher) -> None:
        for name in _CAPTURED:
            original = getattr(cli, name)
            patcher.replace(cli, name, self._recorder(name, original))

    def _recorder(self, name, original):
        sink = self.results[name]

        @functools.wraps(original)
        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result)
            return result

        return record

    def last(self, name: str):
        return self.results[name][-1] if self.results[name] else None


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _ledger_ok(report) -> bool:
    return report.bounds is not None and bool((report.distances <= report.bounds + 1e-9).all())


class Workload:
    """One op is `run`; `check` turns its captured results into problems
    (empty when every invariant holds) and the op's work count."""

    name = ""

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out

    def dirs(self) -> list[str]:
        return [self.out]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, capture: Capture) -> dict:
        raise NotImplementedError

    def check(self, capture: Capture, state: dict) -> tuple[list[str], int]:
        raise NotImplementedError

    def digest_extra(self, state: dict) -> bytes:
        """Results the op returns without writing them to a file."""
        return b""


class Sweep(Workload):
    """`ifs-shadow counterexample` at its default config."""

    name = "sweep"

    def warm_up(self) -> None:
        _cli(["counterexample", "--out", self.out, "--seed", str(self.seed),
              "--doublings", "3", "--grid", "64", "--streams", "8"])

    def run(self, capture: Capture) -> dict:
        return {"rc": _cli(["counterexample", "--out", self.out, "--seed", str(self.seed)])}

    def check(self, capture, state):
        problems = []
        sweep = capture.last("run_sweep")
        if state["rc"] != 0 or sweep is None:
            return [f"counterexample exited {state['rc']}"], 0
        if not sweep.validation.passed:
            problems.append("block orbit does not validate")
        if not sweep.all_captured:
            problems.append("a state was never captured")
        if not sweep.min_tail >= 0.14:
            problems.append(f"min_tail {sweep.min_tail!r} < 0.14")
        return problems, sweep.grid * sweep.streams * sweep.horizon


class Pointwise(Workload):
    """Shadow (sierpinski), sigma2 orbit, and 20 criterion-6 style trials."""

    name = "pointwise"
    TRIALS, TRIAL_EPS, TRIAL_HORIZON = 20, 0.2, 6
    SHADOW_EPS = 0.1  # CLI default

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.pair = catalog.make("minimal_pair")
        self.candidates = spaces.grid_points(self.pair.space, 64)

    def dirs(self):
        return [os.path.join(self.out, "shadow"), os.path.join(self.out, "orbit")]

    def _commands(self, horizon: int, trials: int) -> dict:
        shadow_dir, orbit_dir = self.dirs()
        rc_shadow = _cli(["shadow", "--out", shadow_dir, "--seed", str(self.seed),
                          "--horizon", str(horizon)])
        rc_orbit = _cli(["orbit", "--example", "sigma2_shift", "--horizon", str(horizon),
                         "--mode", "average_shifted", "--out", orbit_dir, "--seed", str(self.seed)])
        pair, eps = self.pair, self.TRIAL_EPS
        delta = (1.0 - pair.ratio) * eps / 2.0
        results = []
        for trial in range(trials):
            seed = seeding.mix_seed(self.seed, 6, trial)
            rng = Random(seeding.mix_seed(seed, 1))
            start = self.candidates[rng.randrange(len(self.candidates))]
            stream = SymbolStream.random(pair.labels, seeding.mix_seed(seed, 2))
            orbit = orbits.noisy_average_orbit(
                pair, start, stream, self.TRIAL_HORIZON, delta, seed=seeding.mix_seed(seed, 3)
            )
            shadow = shadowing.constructive_shadow(pair, orbit, eps)
            search = shadowing.brute_force_search(
                pair, orbit, self.candidates,
                shadowing.ExhaustiveSearch(word_length=self.TRIAL_HORIZON),
            )
            results.append((orbit, shadow, search))
        return {"rc": (rc_shadow, rc_orbit), "trials": results, "horizon": horizon}

    def warm_up(self) -> None:
        self._commands(200, 2)

    def run(self, capture):
        return self._commands(2000, self.TRIALS)

    def check(self, capture, state):
        problems = []
        if state["rc"] != (0, 0):
            return [f"shadow/orbit exited {state['rc']}"], 0
        shadow = capture.last("constructive_shadow")
        search = capture.last("brute_force_search")
        verdict = capture.last("validate")  # the orbit command's validation comes last
        if not shadow.tail < self.SHADOW_EPS:
            problems.append(f"shadow tail {shadow.tail!r} >= eps")
        if not _ledger_ok(shadow):
            problems.append("shadow distances exceed the ledger bounds")
        if not verdict.passed:
            problems.append("sigma2 orbit does not validate")
        work = 2 * state["horizon"] + search.evaluations
        for i, (orbit, trial_shadow, trial_search) in enumerate(state["trials"]):
            if not _ledger_ok(trial_shadow):
                problems.append(f"trial {i}: distances exceed the ledger bounds")
            if not trial_search.report.average <= trial_shadow.average + 1e-12:
                problems.append(f"trial {i}: oracle average above the constructive average")
            work += orbit.horizon + trial_search.evaluations
        return problems, work

    def digest_extra(self, state) -> bytes:
        return "".join(
            f"{shadow.average!r} {search.report.average!r}\n"
            for _, shadow, search in state["trials"]
        ).encode()


class Graph(Workload):
    """Three `ifs-shadow chainrec` runs: circle, sierpinski and interval chains."""

    name = "graph"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        gasket = catalog.make("sierpinski")
        cloud = catalog.chaos_game(gasket, (0.0, 0.0), 300, seed=seeding.mix_seed(seed, 0xC4A1))
        pick = Random(seeding.mix_seed(seed, 0xC4A2))
        pair = catalog.make("minimal_pair")
        ends = Random(seeding.mix_seed(seed, 0xC4A3))
        coords = lambda space, p: ",".join(space.format_coords(p))
        # (dir, example, eps, resolution, chain endpoints or None)
        self.parts = [
            ("circle", "circle_counterexample", 0.02, 2048, None),
            ("sierpinski", "sierpinski", 0.05, 64,
             (coords(gasket.space, cloud[pick.randrange(300)]),
              coords(gasket.space, cloud[pick.randrange(300)]))),
            ("interval", "minimal_pair", 0.02, 4096,
             (coords(pair.space, pair.space.sample(ends)),
              coords(pair.space, pair.space.sample(ends)))),
        ]

    def dirs(self):
        return [os.path.join(self.out, part[0]) for part in self.parts]

    def _commands(self, scale: int) -> tuple:
        codes = []
        for name, example, eps, resolution, chain in self.parts:
            argv = ["chainrec", "--example", example, "--eps", str(eps),
                    "--resolution", str(resolution // scale),
                    "--out", os.path.join(self.out, name), "--seed", str(self.seed)]
            if chain is not None:
                argv += ["--chain-from", chain[0], "--chain-to", chain[1]]
            codes.append(_cli(argv))
        return tuple(codes)

    def warm_up(self) -> None:
        self._commands(4)  # a chain may be missing at this coarseness; no check

    def run(self, capture):
        return {"rc": self._commands(1)}

    def check(self, capture, state):
        if state["rc"] != (0, 0, 0):
            return [f"chainrec exited {state['rc']}"], 0
        problems = []
        graphs = capture.results["build_chain_graph"]
        circle = capture.results["analyze"][0]
        if len(circle.recurrent) != len(circle.graph):
            problems.append("a circle box is not recurrent")
        if len(circle.components) != 1:
            problems.append(f"circle graph has {len(circle.components)} components")
        chains = capture.results["find_chain"]
        for (name, _, eps, _, _), chain in zip(self.parts[1:], chains):
            if chain is None or not max(chain.orbit.errors) < eps:
                problems.append(f"{name}: no chain with max step error below eps")
        if len(chains) != 2:
            problems.append(f"expected 2 chains, got {len(chains)}")
        work = sum(len(g) * g.samples_per_box * len(g.labels) for g in graphs)
        return problems, work


WORKLOADS = {cls.name: cls for cls in (Sweep, Pointwise, Graph)}
