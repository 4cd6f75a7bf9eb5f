"""Export run results to JSON/CSV for external plotting.

``result_to_dict`` flattens a :class:`~repro.platforms.result.RunResult`
into plain JSON-serializable data; ``write_json`` / ``write_series_csv``
persist results and utilization time-series so the paper's figures can be
re-plotted with any tool.

``write_results`` / ``read_results`` persist *full-fidelity* results
(the lossless :mod:`repro.orchestrate` payload form), and
:func:`load_cached` reloads a finished sweep straight from the
orchestration result cache without re-simulating anything.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from ..orchestrate.grid import CELL_DOC
from ..platforms.result import RunResult

# re-exported here so analysis code has one import for "load results"
from ..orchestrate.grid import load_cached  # noqa: F401

__all__ = [
    "result_to_dict",
    "write_json",
    "write_series_csv",
    "write_results",
    "read_results",
    "load_cached",
]


def result_to_dict(result: RunResult, series_bins: int = 40) -> Dict:
    """Flatten one run into JSON-serializable primitives."""
    die_x, die_y = result.die_utilization_series(bins=series_bins)
    ch_x, ch_y = result.channel_utilization_series(bins=series_bins)
    return {
        "platform": result.platform,
        "workload": result.workload,
        "batch_size": result.batch_size,
        "num_batches": result.num_batches,
        "total_seconds": result.total_seconds,
        "throughput_targets_per_sec": result.throughput_targets_per_sec,
        "mean_prep_seconds": result.mean_prep_seconds,
        "mean_compute_seconds": result.mean_compute_seconds,
        "batches": [
            {
                "index": b.batch_index,
                "prep_start": b.prep_start,
                "prep_end": b.prep_end,
                "compute_start": b.compute_start,
                "compute_end": b.compute_end,
            }
            for b in result.batches
        ],
        "latency_breakdown": result.latency_breakdown(),
        "command_breakdown": result.command_breakdown(),
        "hop_spans": {
            str(step): list(span)
            for step, span in result.hop_timeline.spans().items()
        },
        "hop_overlap_fraction": result.hop_timeline.overlap_fraction(),
        "energy_breakdown": dict(result.energy_breakdown),
        "meters": result.meters.as_dict(),
        "utilization": {
            "die_time": die_x,
            "die_active": die_y,
            "channel_time": ch_x,
            "channel_active": ch_y,
        },
    }


def write_json(
    results: Union[RunResult, Iterable[RunResult]],
    path: Union[str, Path],
    series_bins: int = 40,
) -> Path:
    """Write one or many results as a JSON document; returns the path."""
    if isinstance(results, RunResult):
        payload = result_to_dict(results, series_bins)
    else:
        payload = [result_to_dict(r, series_bins) for r in results]
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def write_results(
    results: Union[RunResult, Iterable[RunResult]],
    path: Union[str, Path],
) -> Path:
    """Persist results losslessly; inverse of :func:`read_results`.

    Unlike :func:`write_json` (a flattened view for plotting tools), the
    written payloads reconstruct real :class:`RunResult` objects that
    answer every derived query identically to the originals.
    """
    if isinstance(results, RunResult):
        results = [results]
    payloads = [CELL_DOC.to_payload(r) for r in results]
    path = Path(path)
    path.write_text(json.dumps(payloads, indent=2, sort_keys=True))
    return path


def read_results(path: Union[str, Path]) -> List[RunResult]:
    """Reload results written by :func:`write_results`."""
    payloads = json.loads(Path(path).read_text())
    return [CELL_DOC.from_payload(p) for p in payloads]


def write_series_csv(
    result: RunResult, path: Union[str, Path], bins: int = 40
) -> Path:
    """Utilization time-series (Figure 15a-e data) as CSV."""
    die_x, die_y = result.die_utilization_series(bins=bins)
    _ch_x, ch_y = result.channel_utilization_series(bins=bins)
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "active_dies", "active_channels"])
        for t, dies, channels in zip(die_x, die_y, ch_y):
            writer.writerow([f"{t:.9f}", f"{dies:.4f}", f"{channels:.4f}"])
    return path
