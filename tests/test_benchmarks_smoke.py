"""Smoke-run every benchmark entry point at minimum scale.

The figure benchmarks only execute at figure-generation time, so an API
drift that breaks one used to be discovered hours later. This suite
imports every ``benchmarks/bench_*.py`` and calls each ``test_*`` entry
point with miniature fixtures (256-node workloads, batch 8, one batch).

Paper-shape ``assert``s are *tolerated* at this scale — the qualitative
claims are pinned at a meaningful scale by ``test_paper_shapes.py`` —
but any import error, missing fixture, or crash inside a benchmark fails
here, in tier-1.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.directgraph import ImageCache
from repro.orchestrate import GridCell, ResultCache, run_grid
from repro.platforms import (
    PreparedWorkload,
    measure_query_latency,
    scaleout_outcome,
)
from repro.workloads import workload_by_name

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))

SMOKE_NODES = 256
SMOKE_BATCH = 8
SMOKE_NBATCH = 1


class _SmokeBenchmark:
    """Stands in for pytest-benchmark: run the function once, return it."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def smoke_fixtures(tmp_path_factory):
    """Miniature stand-ins for everything benchmarks/conftest.py provides."""
    env = SimpleNamespace(
        nodes=SMOKE_NODES,
        batch=SMOKE_BATCH,
        nbatch=SMOKE_NBATCH,
        jobs=1,
    )
    cache = ResultCache(tmp_path_factory.mktemp("bench-smoke-cache"))
    icache = ImageCache(tmp_path_factory.mktemp("bench-smoke-images"))
    prepared = {}

    def prepared_cache(workload, page_size=4096):
        key = (workload, page_size)
        if key not in prepared:
            spec = workload_by_name(workload).scaled(env.nodes)
            prepared[key] = PreparedWorkload.prepare(spec, page_size=page_size)
        return prepared[key]

    def make_cell(platform, workload, ssd_config=None, **kwargs):
        params = dict(
            batch_size=env.batch,
            num_batches=env.nbatch,
            scaled_nodes=env.nodes,
            seed=0,
        )
        params.update(kwargs)
        return GridCell(
            platform=platform, workload=workload, ssd_config=ssd_config, **params
        )

    def grid_runner(cells):
        return run_grid(cells, jobs=env.jobs, cache=cache)

    def run_cache(platform, workload, ssd_config=None, config_key="default", **kwargs):
        del config_key
        cell = make_cell(platform, workload, ssd_config=ssd_config, **kwargs)
        return grid_runner([cell]).results[0]

    def scaleout_runner(num_devices, platform, workload, **kwargs):
        return scaleout_outcome(
            num_devices, platform, workload, jobs=env.jobs, cache=cache, **kwargs
        ).result

    def query_runner(platform, workload, **kwargs):
        return measure_query_latency(
            platform, workload, jobs=env.jobs, cache=cache, **kwargs
        )

    def serving_runner(platform, workload, qps_grid, **kwargs):
        from repro.serving import sweep_serving

        return sweep_serving(
            platform, workload, qps_grid, jobs=env.jobs, cache=cache, **kwargs
        )

    return {
        "benchmark": _SmokeBenchmark(),
        "bench_env": env,
        "prepared_cache": prepared_cache,
        "make_cell": make_cell,
        "grid_runner": grid_runner,
        "run_cache": run_cache,
        "scaleout_runner": scaleout_runner,
        "query_runner": query_runner,
        "serving_runner": serving_runner,
        "grid_cache": cache,
        "image_cache": icache,
        "bench_from_cache": False,
    }


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_smoke_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_files_discovered():
    assert len(BENCH_FILES) >= 17, "benchmark suite shrank unexpectedly"


@pytest.mark.parametrize("bench_file", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_smoke(bench_file, smoke_fixtures, capsys, monkeypatch):
    # benchmarks that scale via env read it at import time; shrink before load
    monkeypatch.setenv("REPRO_BENCH_INFLATION_NODES", "5000")
    monkeypatch.setenv("REPRO_BENCH_KERNEL_SCALE", "0.02")
    monkeypatch.setenv("REPRO_BENCH_KERNEL_REPEAT", "1")
    module = _load_module(bench_file)
    entry_points = [
        (name, fn)
        for name, fn in sorted(vars(module).items())
        if name.startswith("test_") and inspect.isfunction(fn)
    ]
    assert entry_points, f"{bench_file.name} defines no test entry points"

    for name, fn in entry_points:
        kwargs = {}
        for param in inspect.signature(fn).parameters:
            assert param in smoke_fixtures, (
                f"{bench_file.name}::{name} requests unknown fixture {param!r}"
            )
            kwargs[param] = smoke_fixtures[param]
        try:
            fn(**kwargs)
        except AssertionError:
            # paper-shape claims are not expected to hold at smoke scale;
            # they are pinned at regression scale in test_paper_shapes.py
            pass
        finally:
            capsys.readouterr()  # swallow the benchmark's table printing
