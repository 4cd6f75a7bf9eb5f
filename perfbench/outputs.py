"""Output check: simulated quantities only, pinned per operation.

Each operation's output is projected onto the *simulated* quantities a
user reads through public attributes, and the projection's digest is
compared with a reference pinned on the baseline commit
(``perfbench/references.json``, written by ``perfbench/capture.py``).
Payload bytes, host times, cache flags and paths never enter a
projection, so a refactor that only changes formats, caching or speed
cannot break the check, while any change to a simulated number does.

Each profile has a fixed number of pinned inputs, numbered from 0; a
benchmark seed selects input ``seed mod count`` (:func:`input_of`), so
every seed is measured against a pinned reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REFERENCES = Path(__file__).with_name("references.json")

# Inputs pinned per profile; the last one is held out of tuning runs.
PINNED_INPUTS = {"full": 32, "tiny": 2}

# Cache counters a RunResult reports when a page cache is configured.
_CACHE_COUNTERS = ("policy", "capacity_pages", "hits", "misses", "evictions", "hit_rate")


def project_run(result) -> Dict:
    """A :class:`RunResult` as simulated time, timings, meters and energy."""
    return {
        "platform": result.platform,
        "workload": result.workload,
        "total_seconds": float(result.total_seconds),
        "batches": [
            [
                int(b.batch_index),
                float(b.prep_start),
                float(b.prep_end),
                float(b.compute_start),
                float(b.compute_end),
            ]
            for b in result.batches
        ],
        "meters": {k: float(v) for k, v in result.meters.as_dict().items()},
        "energy": {k: float(v) for k, v in result.energy_breakdown.items()},
        "targets": int(result.total_targets),
        "cache": (
            None
            if result.cache is None
            else {k: result.cache[k] for k in _CACHE_COUNTERS}
        ),
    }


def project_probe(probe) -> Dict:
    """A :class:`QueryLatencyResult`: the closed-loop query latencies."""
    return {
        "platform": probe.platform,
        "latencies_s": [float(v) for v in probe.latencies_s],
    }


def project_serving(result) -> Dict:
    """A :class:`ServingResult`: latencies, waits, shedding and batching."""
    return {
        "platform": result.platform,
        "offered_qps": float(result.offered_qps),
        "latencies_s": [float(v) for v in result.latencies_s],
        "queue_waits_s": [float(v) for v in result.queue_waits_s],
        "shed": int(result.shed),
        "batch_sizes": [int(v) for v in result.batch_sizes],
        "makespan_s": float(result.makespan_s),
        "last_arrival_s": float(result.last_arrival_s),
    }


def project_sweep(sweep) -> Dict:
    """A :class:`CacheSweep`: every point plus the Belady bound."""
    return {
        "platform": sweep.platform,
        "workload": sweep.workload,
        "baseline_seconds": float(sweep.baseline_seconds),
        "trace_accesses": int(sweep.trace_accesses),
        "unique_pages": int(sweep.unique_pages),
        "belady_hit_rates": [float(v) for v in sweep.belady_hit_rates],
        "points": [
            [
                p.policy,
                float(p.capacity_mb),
                int(p.capacity_pages),
                int(p.hits),
                int(p.misses),
                int(p.evictions),
                float(p.hit_rate),
                float(p.replay_hit_rate),
                float(p.total_seconds),
            ]
            for p in sweep.points
        ],
    }


def digest(projection: Dict) -> str:
    """Short, stable digest of one projection (floats in exact repr)."""
    text = json.dumps(
        projection, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(projections: Dict[str, Dict]) -> Dict[str, str]:
    return {op: digest(p) for op, p in projections.items()}


class MissingReference(LookupError):
    """No pinned reference exists for the requested input."""


def load_references() -> Dict:
    return json.loads(REFERENCES.read_text())


def input_of(profile: str, seed: int) -> int:
    """The pinned input a benchmark seed selects: ``seed mod count``."""
    return seed % PINNED_INPUTS[profile]


def expected(references: Dict, profile: str, workload: str, index: int) -> Dict[str, str]:
    """The pinned digest of every operation of one workload on one input.

    An input :mod:`perfbench.capture` did not pin raises
    :class:`MissingReference`.
    """
    try:
        return references["profiles"][profile]["workloads"][workload][str(index)]
    except KeyError:
        raise MissingReference(
            f"no reference digests for {workload} input {index} "
            f"(profile {profile}); capture them with perfbench/capture.py"
        ) from None


def check(
    reference: Dict[str, str], renders: Iterable[Optional[Dict[str, str]]]
) -> Tuple[int, List[str]]:
    """Compare each render's digests with the reference, op by op.

    ``renders`` holds the cold output's digests first, then one entry per
    warm render; ``None`` stands for a render that raised. An operation
    fails when any render lacks it or differs from its reference.
    Returns (operations attempted, failed operation names).
    """
    renders = list(renders)
    failed = [
        op
        for op, want in reference.items()
        if any(r is None or r.get(op) != want for r in renders)
    ]
    return len(reference), failed
