"""The benchmark's three workloads, driven only through the public API.

* ``fig14-grid`` — the paper's headline sweep: all nine platforms on the
  five Table III workloads through ``run_grid``. Its cells are large, so
  the kernel and datapath (``PlatformRun.step``) dominate host time.
* ``serving-sweep`` — Poisson serving of ``cc`` and ``bg2`` on ``ogbn``
  at 0.25x-4x each platform's zero-load capacity, with dynamic batching.
  About two hundred tiny cells, so per-cell set-up, serialization and
  result-cache writes take a large share.
* ``cache-ablation`` — ``sweep_cache`` for ``bg2`` on ``amazon`` with
  page caches from below to above the sampled working set, so the
  datapath's hit path runs beside its miss path.

A workload object owns one fresh temporary directory holding its result
and image caches. :meth:`Workload.setup` prepares the DirectGraph images
cold and adopts them into the in-process memo, :meth:`Workload.cold`
runs the sweep against the empty result cache, and :meth:`Workload.warm`
re-renders the same outputs from the filled cache, raising if anything
was simulated. :meth:`Workload.operations` maps an output onto its
operations, each projected by :mod:`perfbench.outputs`.

The input number (a benchmark seed selects one through
:func:`perfbench.outputs.input_of`) picks the grid base seed, the batch
targets, the per-query seeds and the arrival draws. Graph shapes are the
fixed Table III inputs.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro import GridCell, ResultCache, run_grid, workload_by_name
from repro.bench import geomean
from repro.cache import (
    CacheConfig,
    belady_replay,
    page_trace_from_result,
    replay_trace,
    sweep_cache,
)
from repro.directgraph import ImageCache
from repro.orchestrate import adopt_prepared, cell_cache_key, derive_cell_seed
from repro.platforms import (
    PreparedWorkload,
    measure_query_latency,
    ordered_platforms,
    platform_by_name,
)
from repro.serving import sweep_serving
from repro.ssd import ull_ssd
from repro.workloads import workload_names

from . import outputs

# Serial and in-process: the fastest existing path, and the one every
# executor backend must reproduce bit for bit.
JOBS = 1
EXECUTOR = "serial"

FIG14_PLATFORMS = (
    "cc",
    "glist",
    "smartsage",
    "gids",
    "bg1",
    "bg_dg",
    "bg_sp",
    "bg_dgsp",
    "bg2",
)
SERVING_PLATFORMS = ("cc", "bg2")
LOAD_MULTIPLES = (0.25, 0.5, 1.0, 2.0, 4.0)
CACHE_POLICIES = ("lru", "lfu", "clock")

# Input sizes per profile. ``full`` is what the benchmark measures;
# ``tiny`` keeps the self-tests to seconds.
PROFILES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "fig14-grid": {"nodes": 2048, "batch": 4, "batches": 1},
        "serving-sweep": {"nodes": 2048, "queries": 32, "max_batch": 8},
        # the sampled working set is about 0.8 MB
        "cache-ablation": {
            "nodes": 2048,
            "batch": 8,
            "batches": 1,
            "capacities_mb": (0.25, 0.5, 1.0),
        },
    },
    "tiny": {
        "fig14-grid": {"nodes": 256, "batch": 2, "batches": 1},
        "serving-sweep": {"nodes": 256, "queries": 8, "max_batch": 4},
        "cache-ablation": {
            "nodes": 256,
            "batch": 2,
            "batches": 1,
            "capacities_mb": (0.0625, 0.25),
        },
    },
}

@dataclass
class Extras:
    """What the benchmark measures itself, beside the traced layers."""

    key_seconds: float = 0.0
    keys: int = 0
    replay_seconds: float = 0.0
    pagecache_hits: int = 0
    pagecache_misses: int = 0
    batches_simulated: int = 0


class Workload:
    """One workload at one profile and seed, in its own directory."""

    name = "abstract"

    def __init__(self, profile: str, seed: int, root: Path, tracer=None):
        self.params = PROFILES[profile][self.name]
        self.seed = seed
        self.root = Path(root)
        self.cache = ResultCache(self.root / "results")
        # run_grid derives the same location from the result cache.
        self.image_cache = ImageCache(self.root / "results" / "images")
        self.tracer = tracer
        self.page_size = ull_ssd().flash.page_size
        self.extras = Extras()

    def span(self, name: str):
        """A root span around one public entry point (traced runs only)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def prepare(self, workload: str) -> PreparedWorkload:
        spec = workload_by_name(workload).scaled(self.params["nodes"])
        prepared = PreparedWorkload.prepare(
            spec, page_size=self.page_size, image_cache=self.image_cache
        )
        adopt_prepared(prepared)
        return prepared

    def setup(self) -> None:
        raise NotImplementedError

    def cold(self):
        raise NotImplementedError

    def warm(self):
        raise NotImplementedError

    def operations(self, output) -> Dict[str, Dict]:
        raise NotImplementedError

    def sim_metrics(self, output) -> Dict[str, float]:
        raise NotImplementedError

    def measure_extras(self, output) -> None:
        """Benchmark-side measurements made after the cold pass."""

    def time_keys(self, cells_and_seeds: List[Tuple[GridCell, int]]) -> None:
        start = time.perf_counter()
        for cell, seed in cells_and_seeds:
            cell_cache_key(cell, seed)
        self.extras.key_seconds += time.perf_counter() - start
        self.extras.keys += len(cells_and_seeds)


class Fig14Grid(Workload):
    """All nine platforms x five Table III workloads, one ``run_grid`` call."""

    name = "fig14-grid"

    def setup(self) -> None:
        for workload in workload_names():
            self.prepare(workload)
        p = self.params
        self.cells = [
            GridCell(
                platform,
                workload,
                batch_size=p["batch"],
                num_batches=p["batches"],
                scaled_nodes=p["nodes"],
            )
            for workload in workload_names()
            for platform in ordered_platforms(FIG14_PLATFORMS)
        ]

    def _run(self):
        return run_grid(
            self.cells,
            jobs=JOBS,
            cache=self.cache,
            base_seed=self.seed,
            executor=EXECUTOR,
        )

    def cold(self):
        with self.span("run_grid"):
            return self._run()

    def warm(self):
        with self.span("run_grid"):
            outcome = self._run()
        if outcome.executed or not all(outcome.from_cache):
            raise RuntimeError(
                f"warm fig14-grid simulated {outcome.executed} cells"
            )
        return outcome

    def operations(self, outcome) -> Dict[str, Dict]:
        return {
            f"{r.platform}/{r.workload}": outputs.project_run(r)
            for r in outcome.results
        }

    def sim_metrics(self, outcome) -> Dict[str, float]:
        by = {(r.platform, r.workload): r for r in outcome.results}
        ratios = [
            by["bg2", w].throughput_targets_per_sec
            / by["cc", w].throughput_targets_per_sec
            for w in workload_names()
        ]
        return {"sim_bg2_over_cc_x": geomean(ratios)}

    def measure_extras(self, outcome) -> None:
        self.time_keys([(c, derive_cell_seed(self.seed, c)) for c in self.cells])


class ServingSweep(Workload):
    """Zero-load probes, then a Poisson load sweep, for ``cc`` and ``bg2``."""

    name = "serving-sweep"

    def setup(self) -> None:
        self.prepared = self.prepare("ogbn")
        # Query q runs on counter stream 1000 * seed + q, so seeds never
        # share a query.
        self.query_seed = 1000 * self.seed

    def _probe(self, platform: str, require_cached: bool):
        with self.span("measure_query_latency"):
            return measure_query_latency(
                platform,
                self.prepared,
                num_queries=self.params["queries"],
                batch_size=1,
                seed=self.query_seed,
                jobs=JOBS,
                cache=self.cache,
                require_cached=require_cached,
            )

    def _sweep(self, platform: str, capacity_qps: float, require_cached: bool):
        queries = self.params["queries"]
        with self.span("sweep_serving"):
            return sweep_serving(
                platform,
                self.prepared,
                [capacity_qps * m for m in LOAD_MULTIPLES],
                arrival_kind="poisson",
                num_queries=queries,
                max_batch=self.params["max_batch"],
                queue_depth=4 * queries,
                seed=self.query_seed,
                jobs=JOBS,
                cache=self.cache,
                require_cached=require_cached,
                executor=EXECUTOR,
            )

    def _run(self, require_cached: bool):
        out = {}
        for platform in SERVING_PLATFORMS:
            probe = self._probe(platform, require_cached)
            sweep = self._sweep(platform, 1.0 / probe.mean_s, require_cached)
            out[platform] = (probe, sweep)
        return out

    def cold(self):
        return self._run(require_cached=False)

    def warm(self):
        out = self._run(require_cached=True)
        for _probe, sweep in out.values():
            if sweep.cells_executed or sweep.points_from_cache != len(
                sweep.outcomes
            ):
                raise RuntimeError("warm serving-sweep simulated cells")
        return out

    def operations(self, out) -> Dict[str, Dict]:
        ops = {}
        for platform, (probe, sweep) in out.items():
            ops[f"probe/{platform}"] = outputs.project_probe(probe)
            for multiple, outcome in zip(LOAD_MULTIPLES, sweep.outcomes):
                ops[f"serve/{platform}/{multiple:g}x"] = outputs.project_serving(
                    outcome.result
                )
        return ops

    def sim_metrics(self, out) -> Dict[str, float]:
        return {"sim_knee_qps": out["bg2"][1].knee_qps or 0.0}

    def measure_extras(self, out) -> None:
        # The cells measure_query_latency runs for each probe query.
        spec = self.prepared.spec
        self.time_keys(
            [
                (
                    GridCell(
                        platform,
                        spec,
                        batch_size=1,
                        num_batches=1,
                        seed=self.query_seed + q,
                        scaled_nodes=spec.num_nodes,
                    ),
                    self.query_seed + q,
                )
                for platform in SERVING_PLATFORMS
                for q in range(self.params["queries"])
            ]
        )
        self.extras.batches_simulated = sum(
            sweep.cells_executed for _probe, sweep in out.values()
        )


class CacheAblation(Workload):
    """``sweep_cache`` over capacity x policy, re-priced offline here too."""

    name = "cache-ablation"
    platform = "bg2"

    def setup(self) -> None:
        self.prepared = self.prepare("amazon")

    def _run(self, require_cached: bool):
        p = self.params
        with self.span("sweep_cache"):
            return sweep_cache(
                self.platform,
                self.prepared,
                capacities_mb=p["capacities_mb"],
                policies=CACHE_POLICIES,
                batch_size=p["batch"],
                num_batches=p["batches"],
                seed=self.seed,
                jobs=JOBS,
                cache=self.cache,
                require_cached=require_cached,
                executor=EXECUTOR,
            )

    def cold(self):
        return self._run(require_cached=False)

    def warm(self):
        outcome = self._run(require_cached=True)
        if not outcome.from_cache:
            raise RuntimeError("warm cache-ablation was not served from cache")
        return outcome

    def operations(self, outcome) -> Dict[str, Dict]:
        sweep = outcome.sweep
        return {f"sweep/{sweep.platform}/{sweep.workload}": outputs.project_sweep(sweep)}

    def sim_metrics(self, outcome) -> Dict[str, float]:
        sweep = outcome.sweep
        return {"sim_cache_speedup_x": max(sweep.speedup(p) for p in sweep.points)}

    def _cells(self) -> List[GridCell]:
        """The cells ``sweep_cache`` runs: traced baseline, then the grid."""
        p = self.params
        base = dict(
            platform=platform_by_name(self.platform),
            workload=self.prepared.spec,
            batch_size=p["batch"],
            num_batches=p["batches"],
            seed=self.seed,
            scaled_nodes=self.prepared.spec.num_nodes,
        )
        return [GridCell(sample_trace=True, **base)] + [
            GridCell(
                page_cache=CacheConfig(capacity_mb=float(c), policy=policy),
                **base,
            )
            for c in p["capacities_mb"]
            for policy in CACHE_POLICIES
        ]

    def measure_extras(self, outcome) -> None:
        """Price the baseline trace offline and check the sweep agrees.

        The replay calls are the ones ``sweep_cache`` makes, on the same
        trace, so their time stands for the sweep's replay layer.
        """
        sweep = outcome.sweep
        cells = self._cells()
        self.time_keys([(c, c.seed) for c in cells])
        baseline = run_grid(
            cells[:1], jobs=JOBS, cache=self.cache, executor=EXECUTOR
        ).results[0]
        pages = page_trace_from_result(
            baseline, self.prepared.image, cells[0].resolved_platform(), 3
        )
        start = time.perf_counter()
        replayed = [
            replay_trace(pages, p.policy, p.capacity_pages).hit_rate
            for p in sweep.points
        ]
        capacity_pages = {p.capacity_mb: p.capacity_pages for p in sweep.points}
        belady = [
            belady_replay(pages, capacity_pages[c]).hit_rate
            for c in sweep.capacities_mb
        ]
        self.extras.replay_seconds += time.perf_counter() - start
        if (
            replayed != [p.replay_hit_rate for p in sweep.points]
            or belady != list(sweep.belady_hit_rates)
            or len(pages) != sweep.trace_accesses
        ):
            raise RuntimeError("offline replay disagrees with sweep_cache")
        self.extras.pagecache_hits = sum(p.hits for p in sweep.points)
        self.extras.pagecache_misses = sum(p.misses for p in sweep.points)


REGISTRY: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (Fig14Grid, ServingSweep, CacheAblation)
}


def make_workload(
    name: str, profile: str, seed: int, root: Path, tracer=None
) -> Workload:
    return REGISTRY[name](profile, seed, root, tracer)
