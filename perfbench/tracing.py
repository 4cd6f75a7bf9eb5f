"""Traced run mode: spans around calls into each layer's public functions.

:class:`Tracer` wraps public methods of the package's classes from the
benchmark's own files — nothing under ``src/`` changes. Spans stay in
memory, carry one trace id per simulated cell, and are written at exit
as Chrome trace-event JSON that Perfetto opens. A span's self time is
its duration minus the time its direct children cover (calls nest, so
children never overlap).

Per-layer metrics (:func:`layer_metrics`) are sums over the spans of one
traced child process: its set-up, its cold pass and its warm render.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from repro.directgraph import ImageCache
from repro.orchestrate import ResultCache
from repro.platforms import PlatformRun, PreparedWorkload, RunResult
from repro.serving import BatchService

from .metrics import TABLE3_WORKLOADS

# Spans opened by the workloads around each public entry point.
SWEEP_ROOTS = ("run_grid", "measure_query_latency", "sweep_serving", "sweep_cache")


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "args")

    def __init__(self, name, start, parent, trace_id, args):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = True
        self.cells: Dict[int, Dict] = {}  # trace id -> cell attributes
        self._stack: List[int] = []
        self._cell_of: Dict[int, int] = {}  # id(run or result) -> trace id
        self._patches: List = []
        self._origin = time.perf_counter()

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, trace_id=None, **args) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, trace_id, args))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **args):
        index = self.open(name, **args)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark itself stay out of the layer spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        wrapper = functools.wraps(func)(make(func))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def _timed(self, name: str, trace_of=None, after=None):
        """Wrapper factory: one span per call, optional trace id and hook."""

        def make(func):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return func(*args, **kwargs)
                trace_id = trace_of(args) if trace_of else None
                index = self.open(name, trace_id)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.close(index)
                if after is not None:
                    after(self.spans[index], result)
                return result

            return wrapper

        return make

    def install(self) -> None:
        """Wrap the public layer boundaries; :meth:`uninstall` undoes it."""
        cell_of = self._cell_of.get

        def prepare(func):
            def wrapper(cls, *args, **kwargs):
                if not self.active:
                    return func(cls, *args, **kwargs)
                # prepare(spec, page_size, image_cache, layout)
                image_cache = ImageCache.coerce(
                    kwargs["image_cache"]
                    if "image_cache" in kwargs
                    else (args[2] if len(args) > 2 else None)
                )
                before = image_cache.stats().entries if image_cache else 0
                with self.span("PreparedWorkload.prepare") as span:
                    result = func(cls, *args, **kwargs)
                span.args["built"] = (
                    image_cache.stats().entries - before if image_cache else 1
                )
                return result

            return wrapper

        def run_init(func):
            def wrapper(run, *args, **kwargs):
                if not self.active:
                    return func(run, *args, **kwargs)
                trace_id = len(self.cells)
                # PlatformRun(platform, workload, *, ..., page_cache=None)
                workload = args[1] if len(args) > 1 else kwargs["workload"]
                page_cache = kwargs.get("page_cache")
                self.cells[trace_id] = {
                    "workload": getattr(workload, "spec", workload).name,
                    "cached": page_cache is not None and page_cache.capacity_mb > 0,
                }
                with self.span("PlatformRun.__init__", trace_id=trace_id):
                    func(run, *args, **kwargs)
                self._cell_of[id(run)] = trace_id

            return wrapper

        def note_events(span, events):
            span.args["events"] = events

        def note_result(span, result):
            self._cell_of[id(result)] = span.trace_id

        def note_hit(span, document):
            span.args["hit"] = document is not None

        first_arg = lambda args: cell_of(id(args[0]))  # noqa: E731
        self._patch(PreparedWorkload, "prepare", prepare)
        self._patch(PlatformRun, "__init__", run_init)
        self._patch(
            PlatformRun,
            "step",
            self._timed("PlatformRun.step", first_arg, note_events),
        )
        self._patch(
            PlatformRun,
            "finalize",
            self._timed("PlatformRun.finalize", first_arg, note_result),
        )
        self._patch(RunResult, "to_dict", self._timed("RunResult.to_dict", first_arg))
        self._patch(RunResult, "from_dict", self._timed("RunResult.from_dict"))
        self._patch(ResultCache, "get", self._timed("ResultCache.get", after=note_hit))
        self._patch(ResultCache, "put", self._timed("ResultCache.put"))
        self._patch(BatchService, "prefetch", self._timed("BatchService.prefetch"))
        self._patch(BatchService, "result_for", self._timed("BatchService.result_for"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------------

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        """Chrome trace-event JSON; spans nest on one thread track."""
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": process_name},
            }
        ]
        for span in self.spans:
            args = dict(span.args)
            if span.trace_id is not None:
                args["trace_id"] = span.trace_id
                args.update(self.cells.get(span.trace_id, {}))
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - self._origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(
    tracer: Tracer, extras, image_mb: float, payload_mb: float
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``.

    A layer the workload never enters reports 0.
    """
    spans = tracer.spans
    self_time = tracer.self_times()
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        count[span.name] += 1

    step_s: Dict[str, float] = defaultdict(float)
    events: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name == "PlatformRun.step" and span.trace_id is not None:
            cell = tracer.cells[span.trace_id]
            for group in (cell["workload"], "cached" if cell["cached"] else "uncached"):
                step_s[group] += span.duration
                events[group] += span.args["events"]
    all_events = sum(s.args["events"] for s in spans if s.name == "PlatformRun.step")

    loop_s = sum(
        t for s, t in zip(spans, self_time)
        if s.parent is None and s.name == "sweep_serving"
    )
    glue_s = sum(
        t
        for s, t in zip(spans, self_time)
        if (s.parent is None and s.name in SWEEP_ROOTS and s.name != "sweep_serving")
        or s.name.startswith("BatchService.")
    )
    # sweep_cache replays its trace inside the root span; the benchmark's
    # identical replay calls price that share, which is not glue.
    glue_s -= extras.replay_seconds

    lookups = [s for s in spans if s.name == "BatchService.result_for"]
    # A memo miss is a result_for call that had to prefetch its cell.
    misses = {
        s.parent
        for s in spans
        if s.name == "BatchService.prefetch"
        and s.parent is not None
        and spans[s.parent].name == "BatchService.result_for"
    }
    gets = [s for s in spans if s.name == "ResultCache.get"]

    metrics = {
        "prepare.build_s": total["PreparedWorkload.prepare"],
        "prepare.images_built": sum(
            s.args["built"] for s in spans if s.name == "PreparedWorkload.prepare"
        ),
        "prepare.image_mb": image_mb,
        "platforms.setup_ms_per_cell": _ratio(
            total["PlatformRun.__init__"], count["PlatformRun.__init__"], 1e3
        ),
        "platforms.finalize_s": total["PlatformRun.finalize"],
        "platforms.cells": count["PlatformRun.__init__"],
        "sim.step_s": total["PlatformRun.step"],
        "sim.events": all_events,
        "sim.us_per_event": _ratio(total["PlatformRun.step"], all_events, 1e6),
    }
    for group in TABLE3_WORKLOADS + ("cached", "uncached"):
        metrics[f"sim.us_per_event.{group}"] = _ratio(
            step_s[group], events[group], 1e6
        )
    metrics.update(
        {
            "pagecache.hits": extras.pagecache_hits,
            "pagecache.misses": extras.pagecache_misses,
            "replay.run_s": extras.replay_seconds,
            "serialize.encode_s": total["RunResult.to_dict"],
            "serialize.decode_s": total["RunResult.from_dict"],
            "serialize.payload_mb": payload_mb,
            "resultcache.put_s": total["ResultCache.put"],
            "resultcache.get_s": total["ResultCache.get"],
            "resultcache.hits": sum(1 for s in gets if s.args["hit"]),
            "resultcache.misses": sum(1 for s in gets if not s.args["hit"]),
            "orchestrate.key_ms_per_cell": _ratio(
                extras.key_seconds, extras.keys, 1e3
            ),
            "orchestrate.glue_s": glue_s,
            "serving.loop_s": loop_s,
            "serving.batches_simulated": extras.batches_simulated,
            "serving.memo_hit_ratio": _ratio(len(lookups) - len(misses), len(lookups)),
        }
    )
    return metrics
