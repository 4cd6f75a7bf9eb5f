"""Kernel microbenchmark suite behind ``repro perf`` / ``BENCH_kernel.json``.

Four microbenchmarks stress the kernel's distinct scheduling paths —
zero-delay event churn, heap-ordered timeout storms, AllOf/AnyOf fan-in,
and process spawning — plus one end-to-end benchmark that runs every
registered platform on a small workload (a miniature
``bench_fig14_throughput``), so a kernel change is measured both in
isolation and under the real simulation mix.

All workloads are deterministic: ops counts are exact (the kernel's
sequence counter) and identical across runs, so only wall time varies.
Reports are plain JSON documents; :func:`merge_before_after` produces the
before/after comparison shape checked in as ``BENCH_kernel.json`` and
:func:`check_against_baseline` implements the CI regression gate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..sim import AllOf, AnyOf, Simulator

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "MICROBENCHES",
    "run_suite",
    "format_report",
    "write_report",
    "load_report",
    "merge_before_after",
    "check_against_baseline",
]

BENCH_SCHEMA_VERSION = 1

# Per-benchmark base op scale; multiplied by ``run_suite(scale=...)``.
_BASE_N = {
    "event_churn": 30_000,
    "timeout_storm": 30_000,
    "fanin": 4_000,
    "process_spawn": 15_000,
}


# -- microbench workloads -----------------------------------------------------


def _workload_event_churn(n: int) -> Simulator:
    """Create/trigger/await churn over manual events: the zero-delay
    dispatch + resume path that dominates real simulations. Deliberately
    free of list bookkeeping so the kernel, not benchmark scaffolding,
    is what gets timed."""
    sim = Simulator()

    def churn():
        event = sim.event
        for _ in range(n):
            # drop-after-yield: nothing outlives the delivery, so the
            # kernel's event recycling gets to do its job
            yield event().succeed("token")

    sim.process(churn())
    return sim


def _workload_timeout_storm(n: int) -> Simulator:
    """Many concurrent processes with colliding positive delays: the heap
    path, including same-timestamp FIFO resolution. The delay patterns
    are precomputed in the (untimed) build phase so the timed run is
    kernel ops only."""
    sim = Simulator()
    lanes = 16
    per_lane = max(1, n // lanes)

    def lane(delays: Tuple[float, ...]):
        timeout = sim.timeout
        for d in delays:
            yield timeout(d)

    for k in range(lanes):
        base = 0.25 + 0.25 * (k % 4)
        # collide half the wakeups onto shared timestamps
        delays = tuple(base if i % 2 else 0.25 for i in range(per_lane))
        sim.process(lane(delays))
    return sim


def _workload_fanin(n: int) -> Simulator:
    """AllOf/AnyOf fan-in over mixed timeouts, n rounds."""
    sim = Simulator()
    width = 8

    def round_trip():
        for i in range(n):
            vals = yield AllOf(
                sim, [sim.timeout(0.001 * (j % 3), j) for j in range(width)]
            )
            assert len(vals) == width
            idx_val = yield AnyOf(
                sim, [sim.timeout(0.002, "slow"), sim.timeout(0.0, "now")]
            )
            assert idx_val[1] == "now"

    sim.process(round_trip())
    return sim


def _workload_process_spawn(n: int) -> Simulator:
    """Spawn-join of short-lived child processes (Process start path)."""
    sim = Simulator()

    def child(i: int):
        yield sim.timeout(0.0)
        return i

    def parent():
        process = sim.process
        for i in range(n):
            val = yield process(child(i))
            assert val == i

    sim.process(parent())
    return sim


MICROBENCHES: Dict[str, Callable[[int], Simulator]] = {
    "event_churn": _workload_event_churn,
    "timeout_storm": _workload_timeout_storm,
    "fanin": _workload_fanin,
    "process_spawn": _workload_process_spawn,
}


# -- runners ------------------------------------------------------------------


def _time_kernel(build: Callable[[int], Simulator], n: int, repeats: int) -> Dict:
    """Best-of-``repeats`` timing; ops = the kernel's exact op count."""
    best: Optional[Tuple[float, int]] = None
    for _ in range(max(1, repeats)):
        sim = build(n)
        t0 = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, sim._seq)
    seconds, ops = best
    return {
        "metric": "ops_per_sec",
        "value": ops / seconds if seconds > 0 else 0.0,
        "ops": ops,
        "seconds": seconds,
    }


def _run_end_to_end(nodes: int, batch: int) -> Dict:
    """Miniature bench_fig14_throughput: all platforms, one workload."""
    from ..platforms import PLATFORMS, PreparedWorkload, run_platform
    from ..workloads import workload_by_name

    spec = workload_by_name("ogbn").scaled(nodes)
    prepared = PreparedWorkload.prepare(spec)
    t0 = time.perf_counter()
    total_targets = 0
    for name in sorted(PLATFORMS):
        result = run_platform(
            name,
            prepared,
            batch_size=batch,
            num_batches=2,
            num_hops=3,
            fanout=3,
            seed=0,
            scaled_nodes=nodes,
        )
        total_targets += result.total_targets
    seconds = time.perf_counter() - t0
    return {
        "metric": "seconds",
        "value": seconds,
        "ops": total_targets,
        "seconds": seconds,
    }


def run_suite(
    scale: float = 1.0,
    repeats: int = 3,
    end_to_end: bool = True,
    end_to_end_nodes: int = 1024,
    end_to_end_batch: int = 32,
) -> Dict:
    """Run the whole suite; returns a schema-tagged report document."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    results: Dict[str, Dict] = {}
    for name, build in MICROBENCHES.items():
        n = max(16, int(_BASE_N[name] * scale))
        results[name] = _time_kernel(build, n, repeats)
    if end_to_end:
        results["fig14_small"] = _run_end_to_end(end_to_end_nodes, end_to_end_batch)
    return {"schema": BENCH_SCHEMA_VERSION, "results": results}


# -- report I/O and comparison ------------------------------------------------


def format_report(report: Dict) -> str:
    width = max([14] + [len(name) for name in report["results"]])
    lines = [f"{'benchmark':{width}s} {'ops':>10s} {'seconds':>9s} {'rate':>14s}"]
    for name, row in report["results"].items():
        if row["metric"] == "ops_per_sec":
            rate = f"{row['value']:,.0f} op/s"
        elif row["metric"] == "ratio":
            rate = f"{row['value']:.2f}x"
        else:
            rate = f"{row['value']:.2f} s"
        lines.append(
            f"{name:{width}s} {row['ops']:>10,d} {row['seconds']:>9.3f} {rate:>14s}"
        )
    return "\n".join(lines)


def write_report(report: Dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Union[str, Path]) -> Dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(f"unsupported bench schema in {path}")
    return report


def merge_before_after(before: Dict, after: Dict) -> Dict:
    """The before/after comparison document checked in as BENCH_kernel.json.

    ``speedup`` is always oriented so >1.0 means the *after* kernel is
    faster (ops/sec went up, or seconds went down).
    """
    benchmarks: Dict[str, Dict] = {}
    for name, row in after["results"].items():
        entry = {"metric": row["metric"], "after": row["value"]}
        prior = before["results"].get(name)
        if prior is not None:
            entry["before"] = prior["value"]
            if row["metric"] in ("ops_per_sec", "ratio"):
                entry["speedup"] = row["value"] / prior["value"] if prior["value"] else 0.0
            else:
                entry["speedup"] = prior["value"] / row["value"] if row["value"] else 0.0
            entry["speedup"] = round(entry["speedup"], 3)
        benchmarks[name] = entry
    return {"schema": BENCH_SCHEMA_VERSION, "benchmarks": benchmarks}


def _baseline_value(doc: Dict, name: str) -> Optional[Tuple[str, float]]:
    """Baseline (metric, value) for one benchmark from either doc shape."""
    if "benchmarks" in doc:  # merged before/after shape
        row = doc["benchmarks"].get(name)
        if row is None:
            return None
        return row["metric"], row["after"]
    row = doc.get("results", {}).get(name)
    if row is None:
        return None
    return row["metric"], row["value"]


def check_against_baseline(
    report: Dict, baseline: Dict, max_regress: float = 0.30
) -> List[str]:
    """CI gate: list of failure strings (empty = no regression).

    A benchmark fails when its measured rate is more than ``max_regress``
    worse than the committed baseline — ops/sec (or a ``ratio`` such as
    the cache suite's warm-cache speedup, where higher is likewise better)
    below ``(1 - r) * base``, or wall seconds above ``base / (1 - r)``.
    """
    if not 0 < max_regress < 1:
        raise ValueError("max_regress must be in (0, 1)")
    failures = []
    for name, row in report["results"].items():
        base = _baseline_value(baseline, name)
        if base is None:
            continue
        metric, base_value = base
        if metric != row["metric"] or base_value <= 0:
            continue
        if metric == "ops_per_sec":
            floor = (1.0 - max_regress) * base_value
            if row["value"] < floor:
                failures.append(
                    f"{name}: {row['value']:,.0f} op/s < floor {floor:,.0f} "
                    f"(baseline {base_value:,.0f})"
                )
        elif metric == "ratio":
            floor = (1.0 - max_regress) * base_value
            if row["value"] < floor:
                failures.append(
                    f"{name}: {row['value']:.2f}x < floor {floor:.2f}x "
                    f"(baseline {base_value:.2f}x)"
                )
        else:
            ceiling = base_value / (1.0 - max_regress)
            if row["value"] > ceiling:
                failures.append(
                    f"{name}: {row['value']:.2f} s > ceiling {ceiling:.2f} "
                    f"(baseline {base_value:.2f})"
                )
    return failures
