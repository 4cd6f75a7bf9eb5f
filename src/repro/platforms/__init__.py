"""Evaluated platforms (CC, GLIST, SmartSage, GIDS, BG-1 ... BG-2)."""

from .compute import ComputeEngine
from .datapath import DataPrepEngine, PrepCommand
from .features import ComputeSite, PlatformFeatures, SamplingSite
from .gids import coalesce_warps, coalesced_pages
from .pipeline import PipelineRunner
from .query import QueryLatencyResult, measure_query_latency
from .registry import (
    BG_ORDER,
    PLATFORMS,
    ordered_platforms,
    platform_by_name,
    platform_names,
)
from .result import BatchTiming, RunResult
from .runner import (
    DEFAULT_SCALED_NODES,
    PlatformRun,
    PreparedWorkload,
    run_platform,
)
from .scaleout import (
    P2pLink,
    ScaleOutOutcome,
    ScaleOutResult,
    partition_nodes,
    run_scaleout,
    scaleout_outcome,
    shard_batch_sizes,
)

__all__ = [
    "PLATFORMS",
    "BG_ORDER",
    "platform_by_name",
    "platform_names",
    "ordered_platforms",
    "coalesce_warps",
    "coalesced_pages",
    "PlatformFeatures",
    "SamplingSite",
    "ComputeSite",
    "DataPrepEngine",
    "PrepCommand",
    "ComputeEngine",
    "PipelineRunner",
    "RunResult",
    "BatchTiming",
    "run_platform",
    "PlatformRun",
    "PreparedWorkload",
    "DEFAULT_SCALED_NODES",
    "run_scaleout",
    "scaleout_outcome",
    "ScaleOutResult",
    "ScaleOutOutcome",
    "P2pLink",
    "partition_nodes",
    "shard_batch_sizes",
    "measure_query_latency",
    "QueryLatencyResult",
]
