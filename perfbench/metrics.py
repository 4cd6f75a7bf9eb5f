"""Workload names and metric declarations: unit, host or simulated, direction.

``BENCHMARK.json`` declares the same end-to-end and per-layer names and
units; the self-tests hold the two in step. This module imports nothing
from the package, so the parent process can read it without ``src/``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

# The benchmark's workloads (perfbench.workloads defines them).
WORKLOADS = ("fig14-grid", "serving-sweep", "cache-ablation")
TABLE3_WORKLOADS = ("reddit", "amazon", "movielens", "ogbn", "ppi")


class Metric(NamedTuple):
    unit: str
    kind: str  # "host" (simulator cost) or "simulated" (modelled SSD)
    better: str  # "lower", "higher" or "exact"


# Declared with a regression bound; every untraced run reports them.
END_TO_END: Dict[str, Metric] = {
    # cold-pass wall time over the reference loop's (perfbench.run)
    "wall_ref": Metric("x", "host", "lower"),
    # set-up wall time scaled to the reference loop's nominal speed
    "setup_s": Metric("s", "host", "lower"),
    "peak_rss_mb": Metric("MB", "host", "lower"),
}

# Printed in the report but not declared. wall_s is the cold pass and
# setup_raw_s the set-up in plain seconds: the shared host's drift moved
# their run medians by up to a quarter between sets of runs, while the
# declared, reference-scaled forms held. A warm render takes 0.5-200 ms,
# too short to time steadily, and cache-ablation's is a single document
# read.
PRINTED: Dict[str, Metric] = {
    "wall_s": Metric("s", "host", "lower"),
    "setup_raw_s": Metric("s", "host", "lower"),
    "warm_s": Metric("s", "host", "lower"),
}

# Simulated headline of each workload: printed in the report and pinned
# exactly by the output check. Each exists on one workload only, so none
# is a declared end-to-end metric.
SIMULATED: Dict[str, Metric] = {
    "sim_bg2_over_cc_x": Metric("ratio", "simulated", "exact"),  # fig14-grid
    "sim_knee_qps": Metric("QPS", "simulated", "exact"),  # serving-sweep
    "sim_cache_speedup_x": Metric("ratio", "simulated", "exact"),  # cache-ablation
}

_S = Metric("s", "host", "lower")
_MS = Metric("ms", "host", "lower")
_US = Metric("us", "host", "lower")
_MB = Metric("MB", "host", "lower")

# Reported by traced runs; a layer a workload never enters reports 0.
PER_LAYER: Dict[str, Metric] = {
    "prepare.build_s": _S,
    "prepare.images_built": Metric("count", "host", "lower"),
    "prepare.image_mb": _MB,
    "platforms.setup_ms_per_cell": _MS,
    "platforms.finalize_s": _S,
    "platforms.cells": Metric("count", "host", "lower"),
    "sim.step_s": _S,
    "sim.events": Metric("count", "host", "lower"),
    "sim.us_per_event": _US,
    **{f"sim.us_per_event.{w}": _US for w in TABLE3_WORKLOADS},
    "sim.us_per_event.cached": _US,
    "sim.us_per_event.uncached": _US,
    "pagecache.hits": Metric("count", "simulated", "higher"),
    "pagecache.misses": Metric("count", "simulated", "lower"),
    "replay.run_s": _S,
    "serialize.encode_s": _S,
    "serialize.decode_s": _S,
    "serialize.payload_mb": _MB,
    "resultcache.put_s": _S,
    "resultcache.get_s": _S,
    "resultcache.hits": Metric("count", "host", "higher"),
    "resultcache.misses": Metric("count", "host", "lower"),
    "orchestrate.key_ms_per_cell": _MS,
    "orchestrate.glue_s": _S,
    "serving.loop_s": _S,
    "serving.batches_simulated": Metric("count", "host", "lower"),
    "serving.memo_hit_ratio": Metric("ratio", "host", "higher"),
    "trace.overhead_pct": Metric("%", "host", "lower"),
}
