"""Parallel experiment orchestration with content-addressed result caching.

The fan-out layer over ``repro.platforms.run_platform``: build a grid of
:class:`GridCell`\\ s, hand it to :func:`run_grid`, and get bit-identical
results whether the grid runs in this process (``executor="serial"``)
or on a local process pool (``"process"``), cold or from the on-disk
:class:`ResultCache`.
"""

from .batched import auto_chunk_size, available_cpus, execute_batch
from .cache import CacheStats, ResultCache, default_cache_dir, stable_hash
from .executors import (
    DEFAULT_EXECUTOR,
    GridExecutor,
    ProcessExecutor,
    SerialExecutor,
    executor_by_name,
    executor_names,
    resolve_executor,
)
from .grid import (
    CELL_DOC,
    GridCell,
    GridOutcome,
    adopt_prepared,
    cell_cache_key,
    derive_cell_seed,
    load_cached,
    run_grid,
)

__all__ = [
    "CELL_DOC",
    "GridCell",
    "GridOutcome",
    "run_grid",
    "load_cached",
    "adopt_prepared",
    "derive_cell_seed",
    "cell_cache_key",
    "execute_batch",
    "auto_chunk_size",
    "available_cpus",
    "GridExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "DEFAULT_EXECUTOR",
    "executor_names",
    "executor_by_name",
    "resolve_executor",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "stable_hash",
]
