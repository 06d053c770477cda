"""Perf-regression harness: canonical scenarios, wall-clock, trajectory.

``benchmarks/bench_perf.py`` and ``python -m repro perf`` both land
here.  The harness measures simulator *throughput* (simulated accesses
per wall-clock second) on a small set of canonical scenarios, checks
that a parallel sweep reproduces serial results exactly while scaling
across cores, and emits ``BENCH_PERF.json`` — the repo's perf
trajectory, one committed point per optimization PR.

The timed TPC-A scenario's rate divides post-warm-up accesses by the
wall time of the simulated run alone; building the system and
prewarming it are reported apart, as ``setup_s``.

Machine comparability: raw wall-clock numbers are only comparable on
one machine, so every report embeds a *calibration* score (a fixed pure
Python loop, ops/s).  Regression checks compare calibration-normalized
throughput, which makes the committed baseline meaningful on CI runners
of different speeds; the 25% default tolerance absorbs the remaining
noise.

Scenario fidelity: each scenario also records its seeded simulation
outputs (cleaning cost, wear spread, latency percentiles).  Those are
machine-independent and must match the committed baseline *exactly* —
an optimization that changes them is a correctness bug, not a perf win.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from ..sim import prewarmed_tpca_system
from .points import cleaning_cost_point
from .sweep import derive_seed, resolve_jobs, run_sweep

__all__ = ["SCENARIOS", "run_bench", "compare_reports", "main"]

SCHEMA = "envy-bench-perf/1"

#: Canonical scenarios, in (full, smoke) variants.  The untimed
#: cleaning-cost pair exercises the store/cleaner fast path; the timed
#: TPC-A point exercises the controller/MMU/latency-histogram path.
SCENARIOS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "cleaning_greedy": {
        "full": dict(policy="greedy", locality="50/50", num_segments=128,
                     pages_per_segment=256, utilization=0.80,
                     turnovers=6.0, warmup_turnovers=4.0, seed=1234),
        "smoke": dict(policy="greedy", locality="50/50", num_segments=32,
                      pages_per_segment=64, utilization=0.80,
                      turnovers=2.0, warmup_turnovers=2.0, seed=1234),
    },
    "cleaning_locality": {
        "full": dict(policy="locality", locality="10/90", num_segments=128,
                     pages_per_segment=256, utilization=0.80,
                     turnovers=6.0, warmup_turnovers=4.0, seed=1234),
        "smoke": dict(policy="locality", locality="10/90", num_segments=32,
                      pages_per_segment=64, utilization=0.80,
                      turnovers=2.0, warmup_turnovers=2.0, seed=1234),
    },
    "tpca_hybrid": {
        "full": dict(rate_tps=20_000.0, num_segments=32,
                     pages_per_segment=256, duration_s=0.15,
                     warmup_s=0.05, prewarm_turnovers=5.0, seed=7),
        "smoke": dict(rate_tps=20_000.0, num_segments=16,
                      pages_per_segment=128, duration_s=0.04,
                      warmup_s=0.01, prewarm_turnovers=3.0, seed=7),
    },
}


def _total_host_writes(spec: Dict[str, Any]) -> int:
    """Host writes driven by an untimed scenario, warm-up included."""
    live = int(spec["num_segments"] * spec["pages_per_segment"]
               * spec["utilization"])
    return int(live * spec["warmup_turnovers"]) + int(live
                                                      * spec["turnovers"])


def _run_scenario(name: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    spec = dict(spec)
    setup_s = None
    start = time.perf_counter()
    if name.startswith("cleaning"):
        result = cleaning_cost_point(spec)
        wall_s = time.perf_counter() - start
        accesses = _total_host_writes(spec)
        fidelity = {
            "cleaning_cost": result.cleaning_cost,
            "flushes": result.flushes,
            "clean_copies": result.clean_copies,
            "erases": result.erases,
            "wear_spread": result.wear_spread,
            "wear_swaps": result.wear_swaps,
        }
    else:
        # The rate counts only the simulated run; system build +
        # prewarm is set-up, timed apart.
        run_args = {key: spec.pop(key) for key in ("duration_s",
                                                   "warmup_s")}
        simulator = prewarmed_tpca_system(**spec)
        setup_s = time.perf_counter() - start
        start = time.perf_counter()
        stats = simulator.run(**run_args)
        wall_s = time.perf_counter() - start
        accesses = stats.read_latency.count + stats.write_latency.count
        fidelity = {
            "transactions_completed": stats.transactions_completed,
            "read_p50_ns": stats.read_latency.p50,
            "read_p99_ns": stats.read_latency.p99,
            "write_p50_ns": stats.write_latency.p50,
            "write_p99_ns": stats.write_latency.p99,
            "pages_flushed": stats.pages_flushed,
            "clean_copies": stats.clean_copies,
            "erases": stats.erases,
        }
    entry = {
        "wall_s": round(wall_s, 4),
        "accesses": accesses,
        "accesses_per_s": round(accesses / wall_s, 1),
        "fidelity": fidelity,
    }
    if setup_s is not None:
        entry["setup_s"] = round(setup_s, 4)
    return entry


def calibrate(iterations: int = 2_000_000) -> float:
    """Machine speed score: fixed pure-Python loop, iterations/s."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    elapsed = time.perf_counter() - start
    assert x >= 0
    return iterations / elapsed


def _scaling_points(smoke: bool, count: int) -> List[Dict[str, Any]]:
    base = dict(policy="greedy", locality="50/50", utilization=0.80,
                num_segments=32 if smoke else 64,
                pages_per_segment=32 if smoke else 128,
                turnovers=1.0 if smoke else 3.0,
                warmup_turnovers=1.0 if smoke else 2.0)
    return [dict(base, seed=derive_seed(1234, index))
            for index in range(count)]


def measure_scaling(jobs: Optional[int] = None,
                    smoke: bool = False) -> Dict[str, Any]:
    """Serial vs parallel wall-clock on an independent policy sweep.

    Runs the same point list once with ``jobs=1`` and once with the
    resolved worker count; reports the speedup, the per-core efficiency
    and whether the two result lists were identical (they must be).
    """
    jobs = resolve_jobs(jobs)
    count = max(2, jobs)
    points = _scaling_points(smoke, count)
    worker = "repro.perf.points:cleaning_cost_point"
    start = time.perf_counter()
    serial = run_sweep(worker, points, jobs=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_sweep(worker, points, jobs=jobs)
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s if parallel_s else 0.0
    effective = min(jobs, count)
    return {
        "points": count,
        "jobs": effective,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        "efficiency": round(speedup / effective, 3),
        "results_identical": serial == parallel,
    }


def run_bench(smoke: bool = False, jobs: Optional[int] = None,
              scaling: bool = True) -> Dict[str, Any]:
    """Run every scenario (plus the scaling probe) and build the report."""
    mode = "smoke" if smoke else "full"
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "mode": mode,
        "timestamp": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "calibration_ops_per_s": round(calibrate(), 1),
        "scenarios": {},
    }
    for name, variants in SCENARIOS.items():
        report["scenarios"][name] = _run_scenario(name, variants[mode])
    if scaling:
        report["parallel_scaling"] = measure_scaling(jobs, smoke)
    return report


def attach_seed_baseline(report: Dict[str, Any],
                         baseline: Dict[str, Any]) -> None:
    """Embed a pre-optimization report and the speedups against it.

    ``baseline`` is a report produced by this harness running against
    the unoptimized code (same machine, same mode), so raw wall-clock
    ratios are meaningful.
    """
    summary = {}
    for name, entry in baseline.get("scenarios", {}).items():
        current = report["scenarios"].get(name)
        if current is None:
            continue
        speedup = (current["accesses_per_s"] / entry["accesses_per_s"]
                   if entry["accesses_per_s"] else 0.0)
        summary[name] = {
            "accesses_per_s": entry["accesses_per_s"],
            "wall_s": entry["wall_s"],
            "speedup": round(speedup, 2),
        }
    report["seed_baseline"] = {
        "mode": baseline.get("mode"),
        "calibration_ops_per_s": baseline.get("calibration_ops_per_s"),
        "scenarios": summary,
    }


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    max_regression: float = 0.25) -> List[str]:
    """Regression check; returns a list of failure descriptions.

    Throughput is normalized by each report's calibration score before
    comparison, so a slower CI runner does not read as a regression.
    Fidelity values are compared exactly: any drift in seeded outputs
    fails regardless of speed.
    """
    failures: List[str] = []
    if current.get("mode") != baseline.get("mode"):
        failures.append(
            f"mode mismatch: current={current.get('mode')} "
            f"baseline={baseline.get('mode')} (run with the same --smoke "
            f"setting as the committed baseline)")
        return failures
    cur_calib = current.get("calibration_ops_per_s") or 1.0
    base_calib = baseline.get("calibration_ops_per_s") or 1.0
    for name, base_entry in baseline.get("scenarios", {}).items():
        cur_entry = current.get("scenarios", {}).get(name)
        if cur_entry is None:
            failures.append(f"scenario {name!r} missing from current run")
            continue
        cur_norm = cur_entry["accesses_per_s"] / cur_calib
        base_norm = base_entry["accesses_per_s"] / base_calib
        ratio = cur_norm / base_norm if base_norm else 0.0
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{name}: normalized throughput fell to {ratio:.0%} of "
                f"baseline ({cur_entry['accesses_per_s']:,.0f}/s vs "
                f"{base_entry['accesses_per_s']:,.0f}/s; calibration "
                f"{cur_calib:,.0f} vs {base_calib:,.0f} ops/s)")
        base_fid = base_entry.get("fidelity", {})
        cur_fid = cur_entry.get("fidelity", {})
        for key, value in base_fid.items():
            if key in cur_fid and cur_fid[key] != value:
                failures.append(
                    f"{name}: seeded output {key!r} changed "
                    f"({value!r} -> {cur_fid[key]!r}) — determinism break")
    scaling = current.get("parallel_scaling")
    if scaling is not None and not scaling.get("results_identical", True):
        failures.append("parallel sweep results differ from serial run")
    return failures


def _format_report(report: Dict[str, Any]) -> str:
    lines = [f"perf bench ({report['mode']}, python {report['python']}, "
             f"{report['cpu_count']} cpus, calibration "
             f"{report['calibration_ops_per_s']:,.0f} ops/s)"]
    for name, entry in report["scenarios"].items():
        line = (f"  {name:<18} {entry['wall_s']:>8.3f}s "
                f"{entry['accesses_per_s']:>12,.0f} accesses/s")
        if "setup_s" in entry:
            line += f"   (+{entry['setup_s']:.3f}s build + prewarm)"
        seed = report.get("seed_baseline", {}).get("scenarios", {})
        if name in seed:
            line += f"   {seed[name]['speedup']:.2f}x vs seed"
        lines.append(line)
    scaling = report.get("parallel_scaling")
    if scaling:
        lines.append(
            f"  parallel sweep     {scaling['points']} points on "
            f"{scaling['jobs']} workers: {scaling['speedup']:.2f}x "
            f"(efficiency {scaling['efficiency']:.2f}, results "
            f"{'identical' if scaling['results_identical'] else 'DIFFER'})")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_perf",
        description="eNVy simulator perf-regression harness")
    parser.add_argument("--smoke", action="store_true",
                        help="small scenarios for CI (seconds, not minutes)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel sweep workers (default: ENVY_JOBS "
                             "or CPU count)")
    parser.add_argument("--output", default="BENCH_PERF.json",
                        help="write the JSON report here "
                             "(default: %(default)s)")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="fail on regression vs this committed report")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="tolerated normalized-throughput drop "
                             "(default: %(default)s)")
    parser.add_argument("--seed-baseline", metavar="REPORT",
                        help="embed this pre-optimization report and the "
                             "speedups against it")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the parallel scaling probe")
    args = parser.parse_args(argv)

    report = run_bench(smoke=args.smoke, jobs=args.jobs,
                       scaling=not args.no_scaling)
    if args.seed_baseline:
        with open(args.seed_baseline, "r", encoding="utf-8") as handle:
            attach_seed_baseline(report, json.load(handle))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(_format_report(report))
    print(f"report written to {args.output}")

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = compare_reports(report, baseline,
                                   max_regression=args.max_regression)
        if failures:
            print(f"\nPERF REGRESSION vs {args.compare}:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.compare} "
              f"(tolerance {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
