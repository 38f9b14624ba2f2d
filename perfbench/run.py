"""Benchmark of ifs-shadow: wall time until a checked result.

    python3 perfbench/run.py --workload {sweep,pointwise,graph} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, and nothing needs installing.  One
single-threaded process runs a closed loop with one client: the next op
starts when the last one ends, until the next op would end after ``S``
seconds (at least one op).  Every op's outputs are checked against the
paper's invariants and hashed; a failed check, an unexpected exception or a
digest that differs from the first op's counts as a failed op and never
aborts the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops, prints the per-layer metrics (medians over the
traced ops), each layer's share of op time and the tracing overhead, and
writes the spans to ``perfbench/out/trace-<workload>-<seed>.json``.  The
tracing wrappers' own cost lands partly in the callers' self time, so the
shares are of traced op time; ``trace.overhead_s`` states that cost.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

LAYERS = (
    "counterexample", "catalog", "seeding", "orbits", "shadowing", "spaces",
    "systems", "binseq", "chainrec", "reporting", "cli",
)

# (metric, unit, statistic, tracer key).  `_s` metrics are inclusive time
# in the layer's calls, except run_sweep's, which is self time.
LAYER_METRICS = (
    ("counterexample.run_sweep_s", "s", "self_s", "counterexample.run_sweep"),
    ("catalog.eval_array_s", "s", "total_s", "catalog.eval_array"),
    ("catalog.eval_array_calls", "count", "calls", "catalog.eval_array"),
    ("seeding.indexed_words_s", "s", "total_s", "seeding.indexed_words"),
    ("orbits.noisy_average_orbit_s", "s", "total_s", "orbits.noisy_average_orbit"),
    ("orbits.validate_s", "s", "total_s", "orbits.validate"),
    ("orbits.validate_calls", "count", "calls", "orbits.validate"),
    ("orbits.from_points_s", "s", "total_s", "orbits.from_points"),
    ("shadowing.constructive_shadow_s", "s", "total_s", "shadowing.constructive_shadow"),
    ("shadowing.brute_force_search_s", "s", "total_s", "shadowing.brute_force_search"),
    ("shadowing.search_evaluations", "count", "counters", "shadowing.search_evaluations"),
    ("binseq.first_difference_s", "s", "total_s", "binseq.first_difference"),
    ("binseq.first_difference_calls", "count", "calls", "binseq.first_difference"),
    ("spaces.distance_s", "s", "total_s", "spaces.distance"),
    ("spaces.distance_calls", "count", "calls", "spaces.distance"),
    ("spaces.near_s", "s", "total_s", "spaces.near"),
    ("spaces.near_calls", "count", "calls", "spaces.near"),
    ("systems.apply_s", "s", "total_s", "systems.apply"),
    ("systems.apply_calls", "count", "calls", "systems.apply"),
    ("chainrec.build_chain_graph_s", "s", "total_s", "chainrec.build_chain_graph"),
    ("chainrec.analyze_s", "s", "total_s", "chainrec.analyze"),
    ("chainrec.find_chain_s", "s", "total_s", "chainrec.find_chain"),
    ("chainrec.edges", "count", "counters", "chainrec.edges"),
    ("reporting.write_s", "s", "total_s", "reporting.write"),
    ("reporting.bytes", "bytes", "counters", "reporting.bytes"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "pointwise", "graph"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    """One compute thread for numpy's native libraries; set before import."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ifs_shadow.cli; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _run_record(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "native_threads": 1,
    }


def _fresh(dirs: list[str]) -> None:
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)


def _digest(dirs: list[str], extra: bytes) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(extra)
    return h.hexdigest()


def _tail(times: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it, when
    that is at or above the median; otherwise the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 20:
        k = n - 11
        return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of n={n}"
    return ordered[-1], f"max of n={n}"


def _layer_metrics(snapshots: list[dict], traced: list[float], untraced: list[float]) -> dict:
    def median_of(fn):
        return statistics.median(fn(s) for s in snapshots)

    out = {}
    for name, unit, stat, key in LAYER_METRICS:
        out[name] = (median_of(lambda s: s[stat].get(key, 0)), unit)
    for layer in LAYERS:
        out[f"{layer}.share"] = (
            median_of(lambda s: 100.0 * s["layer_self_s"].get(layer, 0.0) / s["op_s"]), "%"
        )
    out["unattributed.share"] = (
        median_of(lambda s: 100.0 * (s["op_s"] - sum(s["layer_self_s"].values())) / s["op_s"]),
        "%",
    )
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    out["trace.op_p50_s"] = (traced_p50, "s")
    out["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ifs_shadow" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(SRC))

    import numpy
    import ifs_shadow
    from tracing import Patcher, Tracer
    from workloads import WORKLOADS, Capture
    if Path(ifs_shadow.__file__).resolve().parent != SRC / "ifs_shadow":
        print(f"error: imported ifs_shadow from {ifs_shadow.__file__}", file=sys.stderr)
        return 2

    record = _run_record(args, numpy.__version__)
    print(json.dumps({"run": record}, sort_keys=True))
    out = OUT / args.workload
    cls = WORKLOADS[args.workload]

    # set-up: importing the package in a fresh interpreter, then input and
    # system construction plus a reduced op in this one; each repeated
    import_times = [_import_seconds() for _ in range(SETUP_REPEATS)]
    import_s = statistics.median(import_times)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload = cls(args.seed, str(out))
        _fresh(workload.dirs())
        workload.warm_up()
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    ops = []  # dicts: seconds, traced, work, problems, digest
    snapshots = []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 0
        _fresh(workload.dirs())
        capture = Capture()
        patcher = Patcher()
        if traced:
            tracer.op = len(ops)
            tracer.install(patcher)
        capture.install(patcher)
        gc.collect()
        state, error = None, None
        start = time.perf_counter()
        try:
            state = workload.run(capture)
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        patcher.restore()
        if traced:
            snap = tracer.take()
            snap["op_s"] = seconds
            snapshots.append(snap)

        problems, work, digest = [], 0, None
        if error is not None:
            problems.append("exception:\n" + error)
        else:
            try:
                problems, work = workload.check(capture, state)
                digest = _digest(workload.dirs(), workload.digest_extra(state))
            except Exception:
                problems.append("check raised:\n" + traceback.format_exc())
        reference = next((op["digest"] for op in ops if op["digest"]), None)
        if digest is not None and reference not in (None, digest):
            problems.append(f"output digest {digest} differs from the first op's {reference}")
        for problem in problems:
            print(f"op {len(ops)} failed: {problem}", file=sys.stderr)
        ops.append({"seconds": seconds, "traced": traced, "work": work,
                    "problems": problems, "digest": digest})

        elapsed = time.perf_counter() - began
        both_kinds = tracer is None or len(ops) >= 2
        if both_kinds and elapsed + seconds > args.seconds:
            break

    failed = sum(1 for op in ops if op["problems"])
    plain = [op for op in ops if not op["traced"]]
    times = [op["seconds"] for op in plain]
    digests = sorted({op["digest"] for op in ops if op["digest"]})
    print(f"digest {args.workload} seed={args.seed} sha256={','.join(digests) or 'none'}")
    print(f"fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")

    if tracer is None:
        tail, tail_note = _tail(times)
        rates = [op["work"] / op["seconds"] for op in plain if not op["problems"]]
        metrics = {
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail, "s"),
            "steps_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"op_tail_s is the {tail_note}")
        print(f"op times: {' '.join(f'{t:.4f}' for t in times)} s")
        print(f"setup_s = median import of {', '.join(f'{t:.4f}' for t in import_times)} s"
              f" + median warm-up of {', '.join(f'{t:.4f}' for t in setup_times)} s")
    else:
        traced_times = [op["seconds"] for op in ops if op["traced"]]
        metrics = _layer_metrics(snapshots, traced_times, times)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({
                "run": record,
                "span_fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                "spans": tracer.spans,
                "ops": [{k: op[k] for k in ("seconds", "traced", "work", "digest")} for op in ops],
                "layers": snapshots,
            }, handle)
        print(f"wrote {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
