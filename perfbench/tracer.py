"""Span tracer that wraps the program's layer boundaries from outside.

The benchmark never edits the program.  For a traced run it replaces
each layer's public callables (class methods and module functions) with
thin wrappers that record one span per call, and restores the originals
afterwards.  A span is ``[label, start_ns, end_ns, parent, rid]``:
``label`` is ``"<layer>:<callable>"``, ``parent`` is
the index of the enclosing span (-1 at top level) and ``rid`` is the
request id current when the span opened (``None`` where the workload's
public API exposes none).

Spans are recorded only while :attr:`Tracer.recording` is set, so the
set-up that precedes a timed phase runs through the wrappers (objects
built there cache the wrapped bound methods) but leaves no spans.

A layer's self time is the total duration of its spans minus the time
their child spans cover.  Calls on one thread nest strictly, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: (module, owner class or None for a module function, attribute, layer).
#: A span's label is ``"<layer>:<attribute>"``.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.workloads.zipf", "ZipfWorkload", "__init__", "workloads"),
    ("repro.workloads.tpca", "TpcaWorkload", "next_transaction",
     "workloads"),
    ("repro.workloads.bimodal", "BimodalWorkload", "next_page",
     "workloads"),
    ("repro.service.loadgen", "LoadGenerator", "generate",
     "service.loadgen"),
    ("repro.service.frontend", "EnvyService", "run", "service.frontend"),
    ("repro.service.frontend", "EnvyService", "partition",
     "service.frontend"),
    ("repro.service.executor", None, "build_shard_controller",
     "service.executor"),
    ("repro.service.executor", "ShardExecutor", "run",
     "service.executor"),
    ("repro.service.cache", "PageCache", "lookup", "service.cache"),
    ("repro.service.cache", "PageCache", "admit", "service.cache"),
    ("repro.service.cache", "PageCache", "invalidate", "service.cache"),
    ("repro.service.admission", "AdmissionController", "observe",
     "service.admission"),
    ("repro.obs.slo", "SLOTracker", "observe", "service.admission"),
    ("repro.sim.engine", "TimedSimulator", "run", "sim.engine"),
    ("repro.core.controller", "EnvyController", "read_timed",
     "core.controller"),
    ("repro.core.controller", "EnvyController", "write",
     "core.controller"),
    ("repro.core.controller", "EnvyController", "flush_one",
     "core.controller"),
    ("repro.cleaning.simulator", "PolicySimulator", "write", "cleaning"),
    ("repro.cleaning.locality", "LocalityGatheringPolicy", "flush",
     "cleaning"),
    ("repro.cleaning.hybrid", "HybridPolicy", "flush", "cleaning"),
    ("repro.cleaning.store", "SegmentStore", "clean", "cleaning"),
    ("repro.flash.array", "FlashArray", "program_page", "flash"),
    ("repro.flash.array", "FlashArray", "erase_segment", "flash"),
    ("repro.backends.filestore", "FileBackend", "program_page",
     "backends.file"),
    ("repro.backends.filestore", "FileBackend", "invalidate_page",
     "backends.file"),
    ("repro.backends.filestore", "FileBackend", "erase_segment",
     "backends.file"),
    ("repro.backends.trace", "RunTrace", "load", "backends.trace"),
    ("repro.core.recovery", None, "recover_from_flash", "core.recovery"),
    ("repro.obs.hist", "LatencyHistogram", "record", "obs.hist"),
)

#: Every layer the tracer can attribute time to, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for *_, layer in TARGETS))

#: Request-id modes.  ``sticky``: each call of the id-bearing callable
#: starts a new request that lasts until the next call (a TPC-A
#: transaction is drawn, then its accesses run).  ``scoped``: a top-level
#: call is one request, which ends when the call returns (a replayed op).
RID_MODES = ("sticky", "scoped")


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self, rid_target: Optional[Tuple[str, str, str]] = None
                 ) -> None:
        self.spans: List[list] = []
        self.recording = False
        self.rid: Optional[int] = None
        self._stack: List[int] = []
        self._next_rid = 0
        self._saved: List[Tuple[Any, str, Any]] = []
        if rid_target is not None and rid_target[2] not in RID_MODES:
            raise ValueError(f"unknown request-id mode {rid_target[2]!r}")
        #: (owner name, attribute, mode) of the callable that opens a
        #: request, or None when the workload exposes no request id.
        self.rid_target = rid_target

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for module_name, owner_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = (module if owner_name is None
                     else getattr(module, owner_name))
            raw = vars(owner)[attr]
            mode = None
            if self.rid_target is not None and \
                    self.rid_target[:2] == (owner_name, attr):
                mode = self.rid_target[2]
            label = f"{layer}:{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, label, mode))
            else:
                wrapped = self._wrap(raw, label, mode)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def _wrap(self, fn, label: str, rid_mode: Optional[str]):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            scoped = rid_mode == "scoped" and not stack
            if rid_mode == "sticky" or scoped:
                tracer.rid = tracer._next_rid
                tracer._next_rid += 1
            spans = tracer.spans
            span = [label, clock(), 0, stack[-1] if stack else -1,
                    tracer.rid]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if scoped:
                    tracer.rid = None

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, Dict[str, float]],
                               Dict[str, Dict[str, float]]]:
        """``(layers, labels)``: per layer ``self_s`` and ``calls``; per
        label ``total_s`` (span durations, children included) and
        ``calls``."""
        spans = self.spans
        covered = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        labels: Dict[str, Dict[str, float]] = {}
        for index, (label, start, end, _parent, _rid) in enumerate(spans):
            layer = layers[label.split(":")[0]]
            layer["self_s"] += (end - start - covered[index]) / 1e9
            layer["calls"] += 1
            entry = labels.setdefault(label, {"total_s": 0.0, "calls": 0})
            entry["total_s"] += (end - start) / 1e9
            entry["calls"] += 1
        return layers, labels

    def write_spans(self, path: str) -> None:
        """One JSON array per line: label, start_ns, end_ns, parent, rid."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


def subpackage_of(filename: str) -> str:
    """``repro.<subpackage>`` group of a profiled function's file."""
    marker = "/repro/"
    if marker not in filename:
        return "other"
    rest = filename.rsplit(marker, 1)[1]
    return rest.split("/", 1)[0] if "/" in rest else "other"


def count_calls(stats: Dict[Any, Sequence]) -> Dict[str, int]:
    """Group a ``pstats`` table's call counts by ``repro`` subpackage."""
    groups: Dict[str, int] = {}
    for (filename, _line, _name), entry in stats.items():
        group = subpackage_of(filename)
        groups[group] = groups.get(group, 0) + entry[1]
    return groups
