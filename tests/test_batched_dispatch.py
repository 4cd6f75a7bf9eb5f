"""Differential suite: batched dispatch is bit-identical.

Every executor backend simulates through the cooperative in-process
executor (:func:`repro.orchestrate.execute_batch`), shipping auto-sized
chunks of cells to pool workers. These tests pin the contract that rests
on: ``execute_batch`` payloads equal one-shot
:func:`repro.platforms.run_platform` runs (the untouched
``Simulator.run()`` loop, an independent per-cell reference), the
process pool at every ``jobs`` equals ``serial``, and ``execute_batch``
itself reproduces the golden fixtures in ``tests/data/``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.orchestrate import (
    CELL_DOC,
    GridCell,
    auto_chunk_size,
    available_cpus,
    batched,
    execute_batch,
    executors,
    run_grid,
)
from repro.orchestrate.cache import json_default
from repro.platforms import platform_names, run_platform

GOLDEN = Path(__file__).parent / "data" / "golden_runresult_sha256.json"

TINY = dict(
    batch_size=8,
    num_batches=1,
    num_hops=2,
    fanout=2,
    hidden_dim=32,
    scaled_nodes=256,
)


def _digest(payload) -> str:
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _one_shot(job):
    """Per-cell reference: one ``run_platform`` call, its own workload."""
    cell, seed, _root = job
    result = run_platform(
        cell.resolved_platform(),
        cell.resolved_workload(),
        ssd_config=cell.resolved_config(),
        **cell.run_params(seed),
    )
    return CELL_DOC.to_payload(result)


def tiny_cells(n=6, seed0=0):
    platforms = ["bg1", "bg2", "cc", "glist", "smartsage", "bg_dg"]
    return [
        GridCell(
            platform=platforms[i % len(platforms)],
            workload="ogbn",
            seed=seed0 + i,
            **TINY,
        )
        for i in range(n)
    ]


class TestExecuteBatch:
    def test_payloads_match_per_cell_execution(self):
        cells = tiny_cells(4)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        per_cell = [_digest(_one_shot(job)) for job in jobs_args]
        got = [_digest(p) for p in execute_batch(jobs_args)]
        assert got == per_cell

    @pytest.mark.parametrize("name", platform_names())
    def test_every_platform_matches_one_shot(self, name):
        # Two seeds of one platform, interleaved in one batch.
        cell = GridCell(platform=name, workload="ogbn", seed=0, **TINY)
        jobs_args = [(cell, seed, None) for seed in (3, 4)]
        expected = [_digest(_one_shot(job)) for job in jobs_args]
        got = [_digest(p) for p in execute_batch(jobs_args, max_live=2)]
        assert got == expected

    @pytest.mark.parametrize("max_live", [1, 2, 8])
    def test_max_live_does_not_change_results(self, max_live):
        cells = tiny_cells(4)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        expected = [_digest(_one_shot(job)) for job in jobs_args]
        got = [_digest(p) for p in execute_batch(jobs_args, max_live=max_live)]
        assert got == expected

    def test_small_slices_do_not_change_results(self):
        cells = tiny_cells(3)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        expected = [_digest(_one_shot(job)) for job in jobs_args]
        got = [
            _digest(p)
            for p in execute_batch(jobs_args, max_live=2, slice_events=97)
        ]
        assert got == expected

    def test_reproduces_golden_fixture(self):
        """The cooperative executor hits the repo-wide golden digests."""
        golden = json.loads(GOLDEN.read_text())
        cells = [
            GridCell(
                platform=name,
                workload="ogbn",
                batch_size=8,
                num_batches=2,
                num_hops=2,
                fanout=2,
                seed=0,
                scaled_nodes=256,
            )
            for name in sorted(golden)
        ]
        jobs_args = [(cell, 0, None) for cell in cells]
        digests = [_digest(p) for p in execute_batch(jobs_args, max_live=3)]
        assert digests == [golden[name] for name in sorted(golden)]

    def test_heartbeat_reports_progress(self):
        cells = tiny_cells(3)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        beats = []
        execute_batch(jobs_args, max_live=2, heartbeat=beats.append)
        assert beats, "heartbeat never fired"
        assert beats[-1]["completed"] == 3
        assert beats[-1]["live"] == 0
        assert beats[-1]["total"] == 3
        assert beats[-1]["events"] > 0
        assert all(
            b["completed"] <= a["completed"]
            for b, a in zip(beats, beats[1:])
        )

    def test_rejects_bad_max_live(self):
        with pytest.raises(ValueError):
            execute_batch([], max_live=0)

    def test_empty_batch(self):
        assert execute_batch([]) == []


class TestChunkedRunGrid:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_differential_vs_serial(self, jobs):
        cells = tiny_cells(6)
        baseline = run_grid(cells, executor="serial")
        expected = [_digest(CELL_DOC.to_payload(r)) for r in baseline.results]
        outcome = run_grid(cells, jobs=jobs, executor="process")
        got = [_digest(CELL_DOC.to_payload(r)) for r in outcome.results]
        assert got == expected
        assert outcome.executed == len(cells)

    def test_chunk_all_single_task(self, monkeypatch):
        """``jobs=1``: the whole grid is one chunk, run in-process."""

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a pool")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", no_pool)
        cells = tiny_cells(5)
        assert auto_chunk_size(len(cells), 1) == len(cells)
        baseline = run_grid(cells, executor="serial")
        outcome = run_grid(cells, jobs=1, executor="process")
        assert [
            _digest(CELL_DOC.to_payload(r)) for r in outcome.results
        ] == [_digest(CELL_DOC.to_payload(r)) for r in baseline.results]

    def test_pool_chunks_are_auto_sized(self, monkeypatch):
        seen = {}

        class InlinePool:
            """Records the pool's shape and maps chunks in this process."""

            def __init__(self, max_workers, mp_context=None):
                seen["workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                seen["chunks"] = [[job[1] for job in c] for c in chunks]
                return map(fn, chunks)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(batched, "available_cpus", lambda: 4)
        cells = tiny_cells(9)
        baseline = run_grid(cells, executor="serial")
        outcome = run_grid(cells, jobs=2, executor="process")
        # auto_chunk_size(9, 2) == 2: four full chunks and a remainder,
        # in grid order, over min(jobs, cpus, chunks) workers.
        assert seen == {
            "workers": 2,
            "chunks": [[0, 1], [2, 3], [4, 5], [6, 7], [8]],
        }
        assert [
            _digest(CELL_DOC.to_payload(r)) for r in outcome.results
        ] == [_digest(CELL_DOC.to_payload(r)) for r in baseline.results]

    def test_chunked_results_flow_through_cache(self, tmp_path):
        from repro.orchestrate import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cells = tiny_cells(4)
        cold = run_grid(cells, jobs=2, executor="process", cache=cache)
        assert cold.executed == 4
        warm = run_grid(cells, jobs=2, executor="process", cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 4
        assert [
            _digest(CELL_DOC.to_payload(r)) for r in warm.results
        ] == [_digest(CELL_DOC.to_payload(r)) for r in cold.results]


class TestSizingHelpers:
    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_available_cpus_respects_affinity(self):
        import os

        from repro.orchestrate.batched import _cgroup_cpu_quota

        if hasattr(os, "sched_getaffinity"):
            # The cgroup CPU quota caps the count too (covered on its own
            # by test_available_cpus_respects_quota).
            quota = _cgroup_cpu_quota()
            affinity = len(os.sched_getaffinity(0))
            expected = affinity if quota is None else min(affinity, quota)
            assert available_cpus() == expected

    def test_auto_chunk_single_job_is_one_chunk(self):
        assert auto_chunk_size(32, 1) == 32
        assert auto_chunk_size(1, 1) == 1

    def test_auto_chunk_targets_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 4) == 2  # 16 chunks for 4 workers
        assert auto_chunk_size(100, 4) == 7
        assert auto_chunk_size(3, 8) == 1

    def test_auto_chunk_degenerate(self):
        assert auto_chunk_size(0, 4) == 1
