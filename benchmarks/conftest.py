"""Shared fixtures for the benchmark harness.

Platform runs go through :func:`repro.orchestrate.run_grid` with one
shared content-addressed result cache per session, so Figures 14-17 and
19 (which all analyze the same sweep) simulate each (platform, workload)
pair exactly once — and grid-shaped benchmarks (Fig 14/18) fan their
cells across worker processes when ``REPRO_BENCH_JOBS`` > 1.

Scale knobs (environment variables):

* ``REPRO_BENCH_NODES``     — scaled node count per workload (default 4096)
* ``REPRO_BENCH_BATCH``     — mini-batch size (default 64)
* ``REPRO_BENCH_NBATCH``    — pipelined batches per run (default 2)
* ``REPRO_BENCH_JOBS``      — worker processes per grid (default 1;
  ``auto`` or ``0`` sizes the pool from the CPU affinity mask)
* ``REPRO_BENCH_CACHE_DIR`` — persistent result cache (default: per-session
  temporary directory, so benchmark runs stay self-contained)

Render-only mode: ``pytest benchmarks/ --from-cache`` (or
``REPRO_BENCH_FROM_CACHE=1``) serves every grid purely from the result
cache — zero simulations, zero image builds — and fails fast with the
missing cells listed if the cache was not populated by a prior run at
the same scale knobs. DirectGraph images are shared through the
content-addressed image cache under ``<cache-dir>/images``, so the five
workloads are built once per cache lifetime, not once per figure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

from repro.directgraph import ImageCache
from repro.orchestrate import GridCell, ResultCache, outcome_from_cache, run_grid
from repro.platforms import (
    PreparedWorkload,
    measure_query_latency,
    scaleout_outcome,
)
from repro.ssd import SSDConfig
from repro.workloads import workload_by_name


def _jobs_env(value: str) -> Optional[int]:
    """``auto``/``0`` -> None (run_grid auto-detects from CPU affinity)."""
    if value.strip().lower() == "auto":
        return None
    jobs = int(value)
    return None if jobs == 0 else jobs


def pytest_addoption(parser):
    parser.addoption(
        "--from-cache",
        action="store_true",
        default=False,
        help="render benchmarks purely from cached results; error on any miss",
    )


@dataclass(frozen=True)
class BenchEnv:
    nodes: int
    batch: int
    nbatch: int
    jobs: Optional[int]  # None = auto-detect from CPU affinity


@pytest.fixture(scope="session")
def bench_env() -> BenchEnv:
    return BenchEnv(
        nodes=int(os.environ.get("REPRO_BENCH_NODES", "4096")),
        batch=int(os.environ.get("REPRO_BENCH_BATCH", "64")),
        nbatch=int(os.environ.get("REPRO_BENCH_NBATCH", "2")),
        jobs=_jobs_env(os.environ.get("REPRO_BENCH_JOBS", "1")),
    )


@pytest.fixture(scope="session")
def grid_cache(tmp_path_factory) -> ResultCache:
    root = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if not root:
        root = tmp_path_factory.mktemp("result-cache")
    return ResultCache(root)


@pytest.fixture(scope="session")
def image_cache(grid_cache) -> ImageCache:
    return ImageCache(Path(grid_cache.root) / "images")


@pytest.fixture(scope="session")
def bench_from_cache(request) -> bool:
    if request.config.getoption("--from-cache"):
        return True
    return os.environ.get("REPRO_BENCH_FROM_CACHE", "") not in ("", "0")


@pytest.fixture(scope="session")
def prepared_cache(bench_env, image_cache):
    cache: Dict[Tuple[str, int, str], PreparedWorkload] = {}

    def get(
        workload: str, page_size: int = 4096, layout: str = "node-order"
    ) -> PreparedWorkload:
        key = (workload, page_size, layout)
        if key not in cache:
            spec = workload_by_name(workload).scaled(bench_env.nodes)
            cache[key] = PreparedWorkload.prepare(
                spec, page_size=page_size, image_cache=image_cache, layout=layout
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def make_cell(bench_env):
    """Build a GridCell with the session's scale defaults applied."""

    def make(
        platform: str,
        workload: str,
        ssd_config: SSDConfig = None,
        **kwargs,
    ) -> GridCell:
        params = dict(
            batch_size=bench_env.batch,
            num_batches=bench_env.nbatch,
            scaled_nodes=bench_env.nodes,
            seed=0,
        )
        params.update(kwargs)
        return GridCell(
            platform=platform, workload=workload, ssd_config=ssd_config, **params
        )

    return make


@pytest.fixture(scope="session")
def grid_runner(bench_env, grid_cache, image_cache, bench_from_cache):
    def run(cells):
        if bench_from_cache:
            return outcome_from_cache(cells, grid_cache)
        return run_grid(
            cells,
            jobs=bench_env.jobs,
            cache=grid_cache,
            image_cache=image_cache,
        )

    return run


@pytest.fixture(scope="session")
def scaleout_runner(bench_env, grid_cache, image_cache, bench_from_cache):
    """Cached scale-out arrays: warm re-runs come off the result cache,
    and ``--from-cache`` raises instead of simulating."""

    def run(num_devices, platform, workload, **kwargs):
        return scaleout_outcome(
            num_devices,
            platform,
            workload,
            jobs=bench_env.jobs,
            cache=grid_cache,
            image_cache=image_cache,
            require_cached=bench_from_cache,
            **kwargs,
        ).result

    return run


@pytest.fixture(scope="session")
def query_runner(bench_env, grid_cache, image_cache, bench_from_cache):
    """Cached query-latency sweeps (one grid cell per query)."""

    def run(platform, workload, **kwargs):
        return measure_query_latency(
            platform,
            workload,
            jobs=bench_env.jobs,
            cache=grid_cache,
            image_cache=image_cache,
            require_cached=bench_from_cache,
            **kwargs,
        )

    return run


@pytest.fixture(scope="session")
def serving_runner(bench_env, grid_cache, image_cache, bench_from_cache):
    """Cached open-loop serving sweeps (latency vs offered QPS).

    All sweeps in the session share one :class:`BatchService`, so a
    batch simulated for one platform/rate is a memo hit everywhere else
    it recurs; ``--from-cache`` renders whole sweep points from cached
    serving documents (or their cells) and raises on any miss.
    """
    from repro.serving import BatchService, sweep_serving

    service = BatchService(
        jobs=bench_env.jobs,
        cache=grid_cache,
        image_cache=image_cache,
        require_cached=bench_from_cache,
    )

    def run(platform, workload, qps_grid, **kwargs):
        return sweep_serving(
            platform,
            workload,
            qps_grid,
            cache=grid_cache,
            service=service,
            **kwargs,
        )

    return run


@pytest.fixture(scope="session")
def run_cache(grid_runner, make_cell):
    """One platform run; cached by content, shared across all benchmarks.

    ``config_key`` is accepted for backwards compatibility but ignored —
    cache keys are content hashes of the actual configuration now.
    """

    def get(
        platform: str,
        workload: str,
        ssd_config: SSDConfig = None,
        config_key: str = "default",
        **kwargs,
    ):
        del config_key
        cell = make_cell(platform, workload, ssd_config=ssd_config, **kwargs)
        return grid_runner([cell]).results[0]

    return get
