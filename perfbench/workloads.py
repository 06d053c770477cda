"""The four benchmark workloads, driven through the program's public API.

Each workload has a set-up step (untimed by the throughput figure,
reported as ``setup_s``) and a measure step whose timed phases run
inside ``phases.timed(name)`` (``run.Phases``).  Everything a workload
computes from its simulated outputs is deterministic for a given
``(seed, size)``; the measure step returns it in ``digest_payload`` so
the runner can check that repeated reps, repeated runs and the stored
reference agree.

``SIZES`` holds the full sizes the benchmark measures and the tiny ones
its tests run.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
from typing import Any, Dict, List, Tuple

from repro import PolicySimulator, build_tpca_system, make_policy
from repro.backends import trace as run_trace
from repro.cleaning.store import StoreError
from repro.core import recovery
from repro.core.config import EnvyConfig
from repro.obs.hist import LatencyHistogram
from repro.service.bench import scale_fleet
from repro.service.frontend import EnvyService, ServiceConfig
from repro.service.tenant import TenantSpec
from repro.workloads import BimodalWorkload

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "tpca": dict(num_segments=32, pages_per_segment=256,
                     rate_tps=40_000.0, duration_s=0.02,
                     prewarm_turnovers=5.0),
        "clean": dict(num_segments=128, pages_per_segment=256,
                      utilization=0.80, locality="10/90",
                      warmup_turnovers=4.0, turnovers=2.0),
        "serve": dict(fleet=1000, num_shards=4, num_segments=16,
                      pages_per_segment=32, cache_pages=128,
                      cache_tenant_cap=0.25, duration_s=0.002, runs=2),
        "replay": dict(num_segments=32, pages_per_segment=64,
                       workload="zipf:skew=0.9", writes=20_000),
    },
    "tiny": {
        "tpca": dict(num_segments=16, pages_per_segment=64,
                     rate_tps=40_000.0, duration_s=0.002,
                     prewarm_turnovers=2.0),
        "clean": dict(num_segments=16, pages_per_segment=32,
                      utilization=0.80, locality="10/90",
                      warmup_turnovers=1.0, turnovers=1.0),
        "serve": dict(fleet=40, num_shards=4, num_segments=8,
                      pages_per_segment=32, cache_pages=32,
                      cache_tenant_cap=0.25, duration_s=0.0004, runs=2),
        "replay": dict(num_segments=8, pages_per_segment=32,
                       workload="zipf:skew=0.9", writes=400),
    },
}


@dataclasses.dataclass
class Outcome:
    """What one measured rep produced, besides its timings."""

    #: Host accesses the timed phase completed (the throughput numerator).
    accesses: int
    #: Operations the rep attempted, and those that errored or were wrong.
    attempted: int
    failed: int
    #: End-to-end values that come from the model, not the
    #: clock (failed_frac, sim_*, write_amp, slo_violation_frac).
    model: Dict[str, float]
    #: Sample counts behind each simulated percentile.
    samples: Dict[str, int]
    #: Deterministic per-layer work counts read from public stats.
    counts: Dict[str, float]
    #: Everything simulated the rep produced, for the determinism digest.
    digest_payload: Any
    #: Human-readable notes on failed checks.
    problems: List[str] = dataclasses.field(default_factory=list)


def _percentiles(read: LatencyHistogram,
                 write: LatencyHistogram) -> Tuple[Dict, Dict]:
    model = {"sim_read_p50_ns": read.p50, "sim_read_p999_ns": read.p999,
             "sim_write_p50_ns": write.p50, "sim_write_p99_ns": write.p99}
    samples = {"sim_read_p50_ns": read.count,
               "sim_read_p999_ns": read.count,
               "sim_write_p50_ns": write.count,
               "sim_write_p99_ns": write.count}
    return model, samples


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# tpca: timed TPC-A on one controller, open loop in simulated time
# ----------------------------------------------------------------------

class Tpca:
    name = "tpca"
    #: The TPC-A transaction is the request id: drawing one starts it.
    rid_target = ("TpcaWorkload", "next_transaction", "sticky")

    def setup(self, seed: int, size: Dict[str, Any]):
        simulator = build_tpca_system(
            num_segments=size["num_segments"],
            pages_per_segment=size["pages_per_segment"],
            rate_tps=size["rate_tps"], policy="hybrid", seed=seed)
        simulator.prewarm(size["prewarm_turnovers"], seed=seed)
        return simulator

    def measure(self, simulator, size: Dict[str, Any],
                phases) -> Outcome:
        controller = simulator.controller
        mmu = controller.mmu
        mmu_before = (mmu.hits, mmu.misses)
        with phases.timed("run"):
            stats = simulator.run(size["duration_s"])
        problems = []
        try:
            controller.check_consistency()
        except (AssertionError, StoreError) as exc:
            problems.append(f"tpca consistency: {exc}")
        reads = stats.read_latency.count
        writes = stats.write_latency.count
        accesses = reads + writes
        model, samples = _percentiles(stats.read_latency,
                                      stats.write_latency)
        model["sim_accesses_per_sim_s"] = accesses / (
            stats.simulated_ns / 1e9)
        model["write_amp"] = _ratio(stats.pages_flushed
                                    + stats.clean_copies,
                                    stats.pages_flushed)
        model["failed_frac"] = _ratio(len(problems), accesses)
        mmu_hits = mmu.hits - mmu_before[0]
        mmu_lookups = mmu_hits + mmu.misses - mmu_before[1]
        counts = {
            "core.controller.flushes": stats.pages_flushed,
            "cleaning.clean_copies": stats.clean_copies,
            "cleaning.erases": stats.erases,
            "cleaning.copies_per_flush": stats.cleaning_cost,
            "sram.buffer_hit_ratio": controller.metrics.buffer_hit_rate,
            "sram.mmu_hit_ratio": _ratio(mmu_hits, mmu_lookups),
        }
        payload = {
            "offered": stats.transactions_offered,
            "completed": stats.transactions_completed,
            "simulated_ns": stats.simulated_ns,
            "read_latency": stats.read_latency.state_dict(),
            "write_latency": stats.write_latency.state_dict(),
            "pages_flushed": stats.pages_flushed,
            "clean_copies": stats.clean_copies,
            "erases": stats.erases,
            "busy_ns": stats.busy_ns,
            "host_stall_ns": stats.host_stall_ns,
        }
        return Outcome(accesses, accesses, len(problems), model, samples,
                       counts, payload, problems)


# ----------------------------------------------------------------------
# clean: untimed Figure 8 run, locality gathering under 10/90 writes
# ----------------------------------------------------------------------

class Clean:
    name = "clean"
    rid_target = None

    def setup(self, seed: int, size: Dict[str, Any]):
        simulator = PolicySimulator(
            make_policy("locality"), size["num_segments"],
            size["pages_per_segment"], size["utilization"],
            buffer_pages=0, layout_seed=seed)
        live = simulator.store.num_logical_pages
        workload = BimodalWorkload.from_label(live, size["locality"],
                                              seed=seed)
        simulator.run(workload, 0,
                      warmup_writes=int(live * size["warmup_turnovers"]))
        return simulator, workload

    def snapshot(self, state) -> bytes:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, snapshot: bytes):
        return pickle.loads(snapshot)

    def measure(self, state, size: Dict[str, Any],
                phases) -> Outcome:
        simulator, workload = state
        writes = int(simulator.store.num_logical_pages * size["turnovers"])
        with phases.timed("run"):
            result = simulator.run(workload, writes)
        problems = []
        try:
            simulator.store.check_invariants()
        except StoreError as exc:
            problems.append(f"clean invariants: {exc}")
        model = {"write_amp": result.write_amplification,
                 "failed_frac": _ratio(len(problems), writes)}
        counts = {
            "cleaning.clean_copies": result.clean_copies,
            "cleaning.erases": result.erases,
            "cleaning.copies_per_flush": result.cleaning_cost,
        }
        payload = dataclasses.asdict(result)
        return Outcome(result.host_writes, writes, len(problems), model,
                       {}, counts, payload, problems)


# ----------------------------------------------------------------------
# serve: 1000-tenant churn fleet on a sharded service, open loop
# ----------------------------------------------------------------------

class Serve:
    name = "serve"
    rid_target = None

    def setup(self, seed: int, size: Dict[str, Any]):
        config = ServiceConfig(
            num_shards=size["num_shards"],
            num_segments=size["num_segments"],
            pages_per_segment=size["pages_per_segment"], seed=seed,
            cache_pages=size["cache_pages"],
            cache_tenant_cap=size["cache_tenant_cap"], admission=True)
        tenants = [TenantSpec.from_spec(spec) for spec in
                   scale_fleet(size["fleet"], size["duration_s"])]
        return EnvyService(config, tenants)

    def measure(self, service: EnvyService, size: Dict[str, Any],
                phases) -> Outcome:
        runs = []
        slo_requests = slo_violations = decisions = 0
        for _ in range(size["runs"]):
            with phases.timed("run"):
                stats = service.run(size["duration_s"], jobs=1)
            runs.append(stats)
            for entry in service.slo.report().values():
                slo_requests += entry.get("last_requests", 0)
                slo_violations += entry.get("last_violations", 0)
            decisions += len(service.admission.report()["last_decisions"])
        problems = []
        read = LatencyHistogram()
        write = LatencyHistogram()
        offered = served = refused = 0
        flushes = copies = erases = batches = 0
        hits = misses = invalidations = admitted = 0
        simulated_ns = 0
        for index, stats in enumerate(runs):
            for tstats in stats.tenants.values():
                read.merge(tstats.read_latency)
                write.merge(tstats.write_latency)
                tenant_refused = (tstats.throttled + tstats.rejected
                                  + tstats.rejected_wear)
                if tstats.offered != tstats.served + tenant_refused:
                    problems.append(
                        f"serve run {index} tenant {tstats.name}: offered "
                        f"{tstats.offered} != served {tstats.served} + "
                        f"refused {tenant_refused}")
            run_refused = (stats.requests_throttled
                           + stats.requests_rejected_queue
                           + stats.requests_rejected_shed
                           + stats.requests_rejected_wear)
            if stats.requests_offered != stats.accesses_served + run_refused:
                problems.append(
                    f"serve run {index}: offered {stats.requests_offered} "
                    f"!= served {stats.accesses_served} + refused "
                    f"{run_refused}")
            offered += stats.requests_offered
            served += stats.accesses_served
            refused += run_refused
            admitted += stats.requests_admitted
            simulated_ns += stats.simulated_ns
            hits += stats.cache_hits
            misses += stats.cache_misses
            invalidations += stats.cache_invalidations
            for shard in stats.shards:
                flushes += shard["flushes"]
                copies += shard["clean_copies"]
                erases += shard["erases"]
                batches += shard["batches"]
        model, samples = _percentiles(read, write)
        model["sim_accesses_per_sim_s"] = served / (simulated_ns / 1e9)
        model["write_amp"] = _ratio(flushes + copies, flushes)
        model["slo_violation_frac"] = _ratio(slo_violations, slo_requests)
        model["failed_frac"] = _ratio(refused + len(problems), offered)
        samples["slo_violation_frac"] = slo_requests
        counts = {
            "service.loadgen.requests": admitted,
            "service.executor.batches": batches,
            "service.cache.hit_ratio": _ratio(hits, hits + misses),
            "service.cache.invalidations": invalidations,
            "service.admission.decisions": decisions,
            "core.controller.flushes": flushes,
            "cleaning.clean_copies": copies,
            "cleaning.erases": erases,
            "cleaning.copies_per_flush": _ratio(copies, flushes),
        }
        payload = {"runs": [stats.as_dict() for stats in runs],
                   "slo": [slo_requests, slo_violations],
                   "decisions": decisions}
        return Outcome(served, offered, len(problems), model, samples,
                       counts, payload, problems)


# ----------------------------------------------------------------------
# replay: recorded zipf trace through the file backend, then recovery
# ----------------------------------------------------------------------

class Replay:
    name = "replay"
    #: A replayed op is the request id: each top-level host write.
    rid_target = ("EnvyController", "write", "scoped")

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def setup(self, seed: int, size: Dict[str, Any]):
        config = EnvyConfig.small(num_segments=size["num_segments"],
                                  pages_per_segment=size[
                                      "pages_per_segment"])
        trace, reference = run_trace.record_workload(
            config, size["workload"], size["writes"], seed=seed)
        directory = tempfile.mkdtemp(prefix="replay-", dir=self.workdir)
        trace_path = os.path.join(directory, "trace.jsonl")
        trace.save(trace_path)
        expected: Dict[int, bytes] = {}
        for _op, address, data in trace.ops:
            expected[address // config.page_bytes] = data
        return dict(config=config, reference=reference,
                    directory=directory, trace_path=trace_path,
                    expected=expected)

    def snapshot(self, state):
        """The set-up's trace file and reference are only read."""
        return state

    def restore(self, snapshot):
        return snapshot

    def measure(self, state, size: Dict[str, Any],
                phases) -> Outcome:
        config = state["config"]
        image = os.path.join(state["directory"], "image.bin")
        file_config = dataclasses.replace(
            config, backend=f"file:path={image},fsync=0")
        with phases.timed("run"):
            trace = run_trace.RunTrace.load(state["trace_path"])
            result = run_trace.replay_trace(trace, file_config,
                                            keep_controller=True)
        controller = result.controller
        array = controller.array
        with phases.timed("recover"):
            reopened = array.reopen()
            recovered, _report = recovery.recover_from_flash(reopened,
                                                             file_config)
        array.close()
        reference = state["reference"]
        problems = []
        if result.digest != reference.digest:
            problems.append(f"replay digest {result.digest[:12]} != "
                            f"recording digest {reference.digest[:12]}")
        page_bytes = config.page_bytes
        blank = bytes(page_bytes)
        wrong_pages = 0
        for page in range(config.logical_pages):
            data = recovered.read(page * page_bytes, page_bytes)
            if data != state["expected"].get(page, blank):
                wrong_pages += 1
        reopened.close()
        if wrong_pages:
            problems.append(f"{wrong_pages} pages differ from the "
                            f"reference after reopen + recovery")
        media = array.media_report()
        metrics = controller.metrics
        ops = result.ops
        failed = wrong_pages + (result.digest != reference.digest)
        model = {
            "write_amp": _ratio(metrics.flushes + metrics.clean_copies,
                                metrics.flushes),
            "failed_frac": _ratio(failed, ops),
            "recover_s": phases.seconds["recover"],
        }
        counts = {
            "core.controller.flushes": metrics.flushes,
            "cleaning.clean_copies": metrics.clean_copies,
            "cleaning.erases": metrics.erases,
            "cleaning.copies_per_flush": metrics.cleaning_cost,
            "sram.buffer_hit_ratio": metrics.buffer_hit_rate,
            "sram.mmu_hit_ratio": controller.mmu.hit_rate(),
            "backends.file.media_writes": media["media_writes"],
            "backends.file.bytes_per_user_byte": _ratio(
                media["media_bytes_written"],
                sum(len(op[2]) for op in trace.ops if op[0] == "w")),
        }
        payload = {
            "digest": result.digest,
            "total_ns": result.total_ns,
            "ops": ops,
            "media_writes": media["media_writes"],
            "media_bytes_written": media["media_bytes_written"],
            "flushes": metrics.flushes,
            "clean_copies": metrics.clean_copies,
            "erases": metrics.erases,
        }
        return Outcome(ops, ops, failed, model, {}, counts, payload,
                       problems)


def make_workload(name: str, workdir: str):
    if name == "replay":
        return Replay(workdir)
    return {"tpca": Tpca, "clean": Clean, "serve": Serve}[name]()
