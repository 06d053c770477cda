"""eNVy repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload tpca --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Each run builds its inputs from ``--seed``, repeats one rep (set-up, then
the timed phase) until ``--seconds`` have passed, checks every rep's
outputs, and prints a table of metrics followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced reps, adds one profiled rep
that counts Python calls, and reports the per-layer metrics.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostspeed
import tracer as tracer_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for trace files and file-backend images (ignored by git);
#: each run works in its own directory here and removes it when it ends.
WORKDIR = os.path.join(HERE, "_work")
#: Where traced runs write their spans (ignored by git).
OUTDIR = os.path.join(HERE, "_out")
REFERENCE = os.path.join(HERE, "reference.json")

#: The seed whose output digests are stored in ``reference.json``.
DEFAULT_SEED = 1
#: Never used while the benchmark was tuned; for confirming a claim.
HELD_OUT_SEED = 90210
#: A run makes at least this many reps, however short ``--seconds`` is.
MIN_REPS = 2
#: Full set-ups per untraced run.  A workload with ``snapshot``/``restore``
#: starts its later reps from a snapshot of the last set-up, so more of
#: the run is spent in the timed phase.
SETUPS = 5
WORKLOADS = ("tpca", "clean", "serve", "replay")

#: Every end-to-end metric, with the workloads it applies to; printed in
#: the table.  (name, unit, better, workloads)
E2E_ALL: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("wall_accesses_per_s", "1/s", "higher", WORKLOADS),
    ("norm_accesses_per_s", "1/s", "higher", WORKLOADS),
    ("setup_s", "s", "lower", WORKLOADS),
    ("peak_rss_mib", "MiB", "lower", WORKLOADS),
    ("failed_frac", "ratio", "lower", WORKLOADS),
    ("sim_accesses_per_sim_s", "1/sim_s", "higher", ("tpca", "serve")),
    ("sim_read_p50_ns", "sim_ns", "lower", ("tpca", "serve")),
    ("sim_read_p999_ns", "sim_ns", "lower", ("tpca", "serve")),
    ("sim_write_p50_ns", "sim_ns", "lower", ("tpca", "serve")),
    ("sim_write_p99_ns", "sim_ns", "lower", ("tpca", "serve")),
    ("write_amp", "programs/flush", "lower", WORKLOADS),
    ("slo_violation_frac", "ratio", "lower", ("serve",)),
    ("recover_s", "s", "lower", ("replay",)),
)

#: End-to-end metrics in the JSON line: the ones defined, never 0 and
#: steady across seeds and host-speed spells on every workload.
#: (name, unit, better)
E2E_JSON: Tuple[Tuple[str, str, str], ...] = tuple(
    (name, unit, better) for name, unit, better, _ in E2E_ALL
    if name in ("norm_accesses_per_s", "setup_s", "peak_rss_mib"))

#: ``py_calls_per_access`` is also split by ``repro`` subpackage.
CALL_GROUPS = ("backends", "cleaning", "core", "db", "flash", "obs", "perf",
               "service", "sim", "sram", "workloads", "other")

#: Per-layer metrics of a traced run.  (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.self_s", "s", "lower"),
    ("workloads.calls", "count", "lower"),
    ("service.loadgen.self_s", "s", "lower"),
    ("service.loadgen.requests", "count", "higher"),
    ("service.loadgen.calls", "count", "lower"),
    ("service.frontend.partition_s", "s", "lower"),
    ("service.frontend.self_s", "s", "lower"),
    ("service.frontend.calls", "count", "lower"),
    ("service.executor.self_s", "s", "lower"),
    ("service.executor.shard_setup_s", "s", "lower"),
    ("service.executor.batches", "count", "lower"),
    ("service.executor.calls", "count", "lower"),
    ("service.cache.self_s", "s", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.cache.calls", "count", "lower"),
    ("service.admission.self_s", "s", "lower"),
    ("service.admission.decisions", "count", "lower"),
    ("service.admission.calls", "count", "lower"),
    ("sim.engine.self_s", "s", "lower"),
    ("sim.engine.calls", "count", "lower"),
    ("core.controller.self_s", "s", "lower"),
    ("core.controller.reads", "count", "lower"),
    ("core.controller.writes", "count", "lower"),
    ("core.controller.flushes", "count", "lower"),
    ("core.controller.calls", "count", "lower"),
    ("sram.buffer_hit_ratio", "ratio", "higher"),
    ("sram.mmu_hit_ratio", "ratio", "higher"),
    ("cleaning.self_s", "s", "lower"),
    ("cleaning.clean_copies", "count", "lower"),
    ("cleaning.erases", "count", "lower"),
    ("cleaning.copies_per_flush", "copies/flush", "lower"),
    ("cleaning.calls", "count", "lower"),
    ("flash.self_s", "s", "lower"),
    ("flash.programs", "count", "lower"),
    ("flash.erases", "count", "lower"),
    ("flash.calls", "count", "lower"),
    ("backends.file.self_s", "s", "lower"),
    ("backends.file.media_writes", "count", "lower"),
    ("backends.file.bytes_per_user_byte", "B/B", "lower"),
    ("backends.file.calls", "count", "lower"),
    ("backends.trace.self_s", "s", "lower"),
    ("backends.trace.load_s", "s", "lower"),
    ("backends.trace.calls", "count", "lower"),
    ("core.recovery.self_s", "s", "lower"),
    ("core.recovery.calls", "count", "lower"),
    ("obs.hist.self_s", "s", "lower"),
    ("obs.hist.records_per_access", "1/access", "lower"),
    ("obs.hist.calls", "count", "lower"),
    ("unattributed.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.accesses", "count", "higher"),
    ("py_calls_per_access", "calls/access", "lower"),
) + tuple((f"py_calls_per_access.{group}", "calls/access", "lower")
          for group in CALL_GROUPS)

UNITS = {name: unit for name, unit, *_ in E2E_ALL + PER_LAYER}


def _import_workloads():
    """Put ``src`` on the path; fail clearly when the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program to measure: "
                         f"{os.path.join(SRC, 'repro')} is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    return workloads


class Phases:
    """Times named phases; ``hooks`` start and stop tracers/profilers.

    With ``calibrate``, the host's speed is measured just before and just
    after each phase, and ``ref_seconds`` holds the phase's time scaled to
    the reference host speed (``hostspeed``).
    """

    def __init__(self, hooks: Tuple[Tuple[Callable[[], None],
                                          Callable[[], None]], ...] = (),
                 calibrate: bool = False) -> None:
        self.seconds: Dict[str, float] = {}
        self.ref_seconds: Dict[str, float] = {}
        self._hooks = hooks
        self._calibrate = calibrate

    @contextmanager
    def timed(self, name: str):
        speed_before = hostspeed.rate() if self._calibrate else 0.0
        for start, _stop in self._hooks:
            start()
        began = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - began
            for _start, stop in self._hooks:
                stop()
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            if self._calibrate:
                speed = (speed_before + hostspeed.rate()) / 2
                self.ref_seconds[name] = self.ref_seconds.get(
                    name, 0.0) + elapsed * speed / hostspeed.REFERENCE_RATE


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_reference() -> Dict[str, Dict[str, str]]:
    if not os.path.isfile(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


class Rep:
    """The timed phases of one measured rep and what they produced."""

    def __init__(self, phases: Phases, outcome) -> None:
        self.seconds = phases.seconds
        self.ref_seconds = phases.ref_seconds
        self.outcome = outcome
        self.digest = _digest(outcome.digest_payload)
        # Kept, the payloads would grow the process with the rep count.
        outcome.digest_payload = None

    @property
    def timed_s(self) -> float:
        return sum(self.seconds.values())


def set_up(workload, seed: int, size: Dict[str, Any],
           calibrate: bool = False):
    """Run the workload's set-up; returns ``(state, phases)``, the set-up
    timed as the phase ``"setup"``."""
    gc.collect()
    phases = Phases(calibrate=calibrate)
    with phases.timed("setup"):
        state = workload.setup(seed, size)
    return state, phases


def measure(workload, state, size: Dict[str, Any], hooks=(),
            calibrate: bool = False) -> Rep:
    """Run the timed phases; ``hooks`` bracket each of them."""
    gc.collect()
    phases = Phases(hooks, calibrate)
    outcome = workload.measure(state, size, phases)
    return Rep(phases, outcome)


class Checks:
    """Collects correctness problems across reps."""

    def __init__(self, name: str, seed: int, size_name: str) -> None:
        self.name = name
        self.seed = seed
        self.size_name = size_name
        self.problems: List[str] = []
        self.digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def add(self, rep: Rep) -> None:
        outcome = rep.outcome
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self.digest is None:
            self.digest = rep.digest
            expected = _load_reference().get(self.size_name, {}).get(
                self.name)
            if self.seed == DEFAULT_SEED and expected is not None and \
                    expected != rep.digest:
                self.problems.append(
                    f"{self.name}: output digest {rep.digest[:16]} differs "
                    f"from the stored reference {expected[:16]} "
                    f"(seed {DEFAULT_SEED}, size {self.size_name})")
        elif rep.digest != self.digest:
            self.problems.append(f"{self.name}: reps of one seed gave "
                                 f"different outputs")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(workload, seed, size, seconds, checks):
    reps: List[Rep] = []
    setups: List[Phases] = []
    snapshot = None
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < seconds:
        if snapshot is None or len(setups) < SETUPS:
            state, setup = set_up(workload, seed, size, calibrate=True)
            setups.append(setup)
            if hasattr(workload, "snapshot"):
                snapshot = workload.snapshot(state)
        else:
            state = workload.restore(snapshot)
        rep = measure(workload, state, size, calibrate=True)
        del state
        checks.add(rep)
        reps.append(rep)
    first = reps[0].outcome
    values: Dict[str, float] = dict(first.model)
    # On a shared host the machine's speed swings in spells of seconds to
    # minutes, which a wall time tracks as much as it tracks the program;
    # times scaled to the reference host speed cancel the spells.
    values["wall_accesses_per_s"] = statistics.median(
        rep.outcome.accesses / rep.seconds["run"] for rep in reps)
    values["norm_accesses_per_s"] = statistics.median(
        rep.outcome.accesses / rep.ref_seconds["run"] for rep in reps)
    values["setup_s"] = statistics.median(
        setup.ref_seconds["setup"] for setup in setups)
    wall_setup_s = statistics.median(setup.seconds["setup"]
                                     for setup in setups)
    values["peak_rss_mib"] = _rss_mib()
    notes = {"wall_accesses_per_s": f"median of {len(reps)} reps",
             "norm_accesses_per_s": f"median of {len(reps)} reps, at "
                                    f"reference host speed",
             "setup_s": f"median of {len(setups)} set-ups, at reference "
                        f"host speed (wall {wall_setup_s:.4g} s)"}
    if "recover_s" in values:
        values["recover_s"] = min(rep.seconds["recover"] for rep in reps)
        notes["recover_s"] = f"fastest of {len(reps)} recoveries"
    for name, count in first.samples.items():
        notes[name] = f"n={count:,}"
    return values, notes


def measure_traced(workload, seed, size, seconds, checks, spans_path):
    untraced: List[Rep] = []
    traced: List[Rep] = []
    layer_sums: Dict[str, Dict[str, float]] = {}
    label_sums: Dict[str, Dict[str, float]] = {}
    call_counts: List[Dict[str, int]] = []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        rep = measure(workload, set_up(workload, seed, size)[0], size)
        checks.add(rep)
        untraced.append(rep)
        # Installed before the set-up, so that objects built there cache
        # the wrapped bound methods.
        tracer = tracer_mod.Tracer(workload.rid_target)
        tracer.install()
        try:
            rep = measure(workload, set_up(workload, seed, size)[0], size,
                          hooks=((tracer.start, tracer.stop),))
        finally:
            tracer.remove()
        checks.add(rep)
        traced.append(rep)
        layers, labels = tracer.summary()
        if len(traced) == 1:
            tracer.write_spans(spans_path)
        call_counts.append({layer: int(entry["calls"])
                            for layer, entry in layers.items()})
        for layer, entry in layers.items():
            total = layer_sums.setdefault(layer, {"self_s": 0.0,
                                                  "calls": 0})
            total["self_s"] += entry["self_s"]
            total["calls"] += entry["calls"]
        for label, entry in labels.items():
            total = label_sums.setdefault(label, {"total_s": 0.0,
                                                  "calls": 0})
            total["total_s"] += entry["total_s"]
            total["calls"] += entry["calls"]
    if any(counts != call_counts[0] for counts in call_counts):
        checks.problems.append(f"{workload.name}: traced reps of one seed "
                               f"made different numbers of calls")

    profiler = cProfile.Profile()
    profiled = measure(workload, set_up(workload, seed, size)[0], size,
                       hooks=((profiler.enable, profiler.disable),))
    checks.add(profiled)
    groups = tracer_mod.count_calls(pstats.Stats(profiler).stats)

    reps = len(traced)
    outcome = traced[0].outcome
    accesses = outcome.accesses
    values: Dict[str, float] = dict(outcome.counts)
    for layer, total in layer_sums.items():
        values[f"{layer}.self_s"] = total["self_s"] / reps
        values[f"{layer}.calls"] = total["calls"] / reps

    def label(name: str, key: str) -> float:
        return label_sums.get(name, {}).get(key, 0.0) / reps

    values["service.frontend.partition_s"] = label(
        "service.frontend:partition", "total_s")
    values["service.executor.shard_setup_s"] = label(
        "service.executor:build_shard_controller", "total_s")
    values["backends.trace.load_s"] = label("backends.trace:load",
                                            "total_s")
    values["core.controller.reads"] = label("core.controller:read_timed",
                                            "calls")
    values["core.controller.writes"] = label("core.controller:write",
                                             "calls")
    values["flash.programs"] = label("flash:program_page", "calls")
    values["flash.erases"] = label("flash:erase_segment", "calls")
    values["obs.hist.records_per_access"] = (
        values["obs.hist.calls"] / accesses)
    traced_wall = sum(rep.timed_s for rep in traced) / reps
    attributed = sum(total["self_s"] for total in layer_sums.values()) / reps
    values["unattributed.self_s"] = traced_wall - attributed
    values["trace.wall_s"] = traced_wall
    values["trace.overhead"] = (min(rep.timed_s for rep in traced)
                                / min(rep.timed_s for rep in untraced))
    values["trace.accesses"] = accesses
    profiled_accesses = profiled.outcome.accesses
    values["py_calls_per_access"] = (sum(groups.values())
                                     / profiled_accesses)
    for group in CALL_GROUPS:
        values[f"py_calls_per_access.{group}"] = 0.0
    for group, calls in groups.items():
        key = group if group in CALL_GROUPS else "other"
        values[f"py_calls_per_access.{key}"] += calls / profiled_accesses
    notes = {"trace.wall_s": f"mean of {reps} traced reps",
             "trace.overhead": f"fastest traced / fastest of "
                               f"{len(untraced)} untraced reps",
             "unattributed.self_s": "traced wall minus every layer's self"}
    return values, notes


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.6g}"


def run_one(args) -> int:
    workloads = _import_workloads()
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        return _run_one(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_one(args, workloads, workdir: str) -> int:
    size = workloads.SIZES[args.size][args.workload]
    workload = workloads.make_workload(args.workload, workdir)
    checks = Checks(args.workload, args.seed, args.size)
    if args.trace:
        os.makedirs(OUTDIR, exist_ok=True)
        spans_path = os.path.join(
            OUTDIR, f"{args.workload}-{args.size}-seed{args.seed}"
                    f".spans.jsonl")
        values, notes = measure_traced(workload, args.seed, size,
                                          args.seconds, checks, spans_path)
        table = [(name, unit, better) for name, unit, better in PER_LAYER]
        emitted = [name for name, *_ in PER_LAYER]
        for name in emitted:
            values.setdefault(name, 0.0)
    else:
        values, notes = measure_untraced(workload, args.seed, size,
                                            args.seconds, checks)
        table = [(name, unit, better) for name, unit, better, names
                 in E2E_ALL if args.workload in names]
        emitted = [name for name, *_ in E2E_JSON]

    if args.update_reference:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("--update-reference needs the default seed")
        reference = _load_reference()
        reference.setdefault(args.size, {})[args.workload] = checks.digest
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  digest {checks.digest[:16]}")
    for name, unit, better in table:
        note = notes.get(name, "")
        print(f"  {name:<36} {_format(values[name]):>16} {unit:<14} "
              f"{better:<6} {note}")
    if args.trace:
        print(f"  spans of the first traced rep: "
              f"{os.path.relpath(spans_path, ROOT)}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]}
                    for name in emitted},
    }
    print(json.dumps(result))
    return 0


def run_all(args, names: List[str]) -> int:
    """Each workload in a fresh process; the last line maps name -> result."""
    results = {}
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--size", args.size]
        if args.update_reference:
            command.append("--update-reference")
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            status = completed.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        print(lines[-1])
    print(json.dumps(results))
    return status


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="eNVy repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", default="all",
                        help="tpca, clean, serve, replay, a comma list, "
                             "or all (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep repeating reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the tests")
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's output digest as the "
                             "reference for the default seed")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    chosen = (list(WORKLOADS) if args.workload == "all"
              else args.workload.split(","))
    unknown = [name for name in chosen if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"perfbench: unknown workload(s) {unknown}; "
                         f"choose from {list(WORKLOADS)} or all")
    if len(chosen) > 1:
        return run_all(args, chosen)
    args.workload = chosen[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
