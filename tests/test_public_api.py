"""The public API surface stays importable and coherent."""

import pytest


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_headline_exports(self):
        from repro import PLATFORMS, WORKLOADS, run_platform, workload_by_name

        assert len(PLATFORMS) == 9
        assert len(WORKLOADS) == 5
        assert callable(run_platform)
        assert workload_by_name("amazon").name == "amazon"

    def test_readme_quickstart_snippet(self):
        """The exact snippet from README.md works."""
        from repro import run_platform, workload_by_name

        result = run_platform(
            "bg2",
            workload_by_name("amazon").scaled(512),
            batch_size=8,
            num_batches=1,
        )
        assert result.throughput_targets_per_sec > 0


class TestSubpackageAll:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.sim",
            "repro.gnn",
            "repro.workloads",
            "repro.directgraph",
            "repro.isc",
            "repro.accel",
            "repro.ssd",
            "repro.host",
            "repro.platforms",
            "repro.energy",
            "repro.bench",
            "repro.orchestrate",
            "repro.serving",
            "repro.cache",
            "repro.quantile",
        ],
    )
    def test_all_names_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"


class TestOneExecutionPath:
    def test_no_sweep_entry_point_takes_chunk(self):
        """Pool chunks are always auto-sized; no caller picks a size."""
        import inspect

        from repro.cache import sweep_cache
        from repro.orchestrate import GridExecutor, run_grid
        from repro.platforms import (
            measure_query_latency,
            run_scaleout,
            scaleout_outcome,
        )
        from repro.serving import BatchService, serve, sweep_serving

        for fn in (
            run_grid,
            GridExecutor.run,
            run_scaleout,
            scaleout_outcome,
            measure_query_latency,
            serve,
            BatchService,
            sweep_serving,
            sweep_cache,
        ):
            assert "chunk" not in inspect.signature(fn).parameters, fn
