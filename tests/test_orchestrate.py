"""Tests for the parallel orchestration layer and its result cache."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench import read_results, result_to_dict, write_results
from repro.orchestrate import (
    CELL_DOC,
    GridCell,
    ResultCache,
    batched,
    cell_cache_key,
    derive_cell_seed,
    load_cached,
    run_grid,
    stable_hash,
)
from repro.platforms import (
    PlatformRun,
    PreparedWorkload,
    platform_by_name,
    run_platform,
)
from repro.ssd import ull_ssd
from repro.workloads import workload_by_name

TINY = dict(batch_size=8, num_batches=1, scaled_nodes=256)


def tiny_cells(platforms=("bg2", "cc"), workloads=("ogbn",), **overrides):
    params = dict(TINY)
    params.update(overrides)
    return [
        GridCell(platform=p, workload=w, **params)
        for w in workloads
        for p in platforms
    ]


@pytest.fixture(scope="module")
def tiny_result():
    spec = workload_by_name("ogbn").scaled(256)
    return run_platform("bg2", spec, batch_size=8, num_batches=1)


class TestStableHash:
    def test_dict_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_dataclasses_hash_by_value(self):
        assert stable_hash(ull_ssd()) == stable_hash(ull_ssd())
        assert stable_hash(ull_ssd()) != stable_hash(
            ull_ssd().with_flash(num_channels=8)
        )

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())


# Prints one key of every kind for fixed inputs: cell, scale-out,
# serving, cache-ablation and DirectGraph image.
PRINT_KEYS = """
import sys
from repro.cache import cache_ablation_key
from repro.directgraph import FormatSpec, ImageCache
from repro.orchestrate import GridCell, cell_cache_key
from repro.platforms import platform_by_name
from repro.platforms.scaleout import P2pLink, scaleout_cache_key
from repro.serving import serving_cache_key
from repro.ssd import ull_ssd
from repro.workloads import workload_by_name

bg2, ssd = platform_by_name("bg2"), ull_ssd()
spec = workload_by_name("ogbn").scaled(256)
run = dict(num_hops=2, fanout=2, seed=0)
print(cell_cache_key(GridCell("bg2", "ogbn", scaled_nodes=256), 0))
print(scaleout_cache_key(
    2, bg2, spec, ssd, batch_size=8, num_batches=1,
    cross_partition_fraction=None, link=P2pLink(), **run,
))
print(serving_cache_key(
    bg2, spec, ssd, {"kind": "poisson", "rate_qps": 300.0, "seed": 0},
    num_queries=4, query_batch_size=1, max_batch=1, batch_timeout_s=0.0,
    queue_depth=64, max_live=1, scaled_nodes=256, **run,
))
print(cache_ablation_key(
    bg2, spec, ssd, capacities_mb=[0.25], policies=["lru"],
    hit_latency_s=3.5e-7, batch_size=8, num_batches=1, scaled_nodes=256, **run,
))
fmt = FormatSpec(feature_dim=spec.feature_dim)
print(ImageCache(sys.argv[1]).key_for(spec, 4096, fmt))
"""


class TestCacheKeys:
    def test_name_and_object_forms_agree(self):
        by_name = GridCell(platform="bg2", workload="ogbn", **TINY)
        by_object = GridCell(
            platform=platform_by_name("bg2"),
            workload=workload_by_name("ogbn"),
            **TINY,
        )
        assert cell_cache_key(by_name, 0) == cell_cache_key(by_object, 0)

    def test_seed_and_config_distinguish(self):
        cell = GridCell(platform="bg2", workload="ogbn", **TINY)
        assert cell_cache_key(cell, 0) != cell_cache_key(cell, 1)
        other = GridCell(
            platform="bg2",
            workload="ogbn",
            ssd_config=ull_ssd().with_firmware(num_cores=2),
            **TINY,
        )
        assert cell_cache_key(cell, 0) != cell_cache_key(other, 0)

    def test_derived_seeds_stable_and_distinct(self):
        a, b = tiny_cells(platforms=("bg2", "cc"))
        assert derive_cell_seed(0, a) == derive_cell_seed(0, a)
        assert derive_cell_seed(0, a) != derive_cell_seed(0, b)
        assert derive_cell_seed(0, a) != derive_cell_seed(1, a)

    def test_memoized_keys_equal_uncached_canonicalization(self):
        """Sharing canonical config forms leaves every key string as it was."""
        import dataclasses
        import hashlib
        import numbers

        from repro.cache import CacheConfig
        from repro.cacheutil import code_fingerprint
        from repro.orchestrate.grid import _cell_identity
        from repro.platforms import platform_names
        from repro.platforms.background import BackgroundIoConfig

        def canonical(obj):  # the canonicalization, recomputed every call
            if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                return {
                    f.name: canonical(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                }
            if isinstance(obj, dict):
                return {str(k): canonical(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [canonical(v) for v in obj]
            if isinstance(obj, (str, bool)) or obj is None:
                return obj
            if isinstance(obj, numbers.Integral):
                return int(obj)
            return float(obj)

        def uncached_hash(obj):
            encoded = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(encoded.encode()).hexdigest()[:40]

        def uncached_key(cell, seed):
            return uncached_hash(
                {
                    "kind": CELL_DOC.kind,
                    "schema": CELL_DOC.schema,
                    "code_version": code_fingerprint(),
                    **_cell_identity(cell),
                    "seed": seed,
                }
            )

        def make(platform, workload, **extra):
            return GridCell(platform=platform, workload=workload, **extra, **TINY)

        cells = [make(p, "ogbn") for p in platform_names()]
        cells += [
            make("bg2", "amazon", page_cache=CacheConfig(capacity_mb=1)),
            # equal to the one above, yet canonicalized (and keyed) apart
            make("bg2", "amazon", page_cache=CacheConfig(capacity_mb=1.0)),
            make("bg2", "amazon", page_cache=CacheConfig(0.5, policy="clock")),
            make("bg2", "ppi", sample_trace=True),
            make("bg2", "ppi", background_io=BackgroundIoConfig(5e4)),
            make("bg2", "ppi", background_io=BackgroundIoConfig(5e4, deferred=False)),
            make("cc", "reddit", ssd_config=ull_ssd().with_firmware(num_cores=2)),
            # equal, yet -0.0 canonicalizes apart from 0.0
            make("bg2", "reddit", page_cache=CacheConfig(2, hit_latency_s=0.0)),
            make("bg2", "reddit", page_cache=CacheConfig(2, hit_latency_s=-0.0)),
        ]
        for _ in range(2):  # the second pass reads the shared forms
            keys = [cell_cache_key(cell, 7) for cell in cells]
            assert keys == [uncached_key(cell, 7) for cell in cells]
            # derive_cell_seed hashes the identity alone
            for cell in cells:
                identity = _cell_identity(cell)
                assert stable_hash(identity) == uncached_hash(identity)
        assert len(set(keys)) == len(cells)

    def test_every_key_kind_tracks_the_source(self, tmp_path):
        """An edit no config covers still changes every kind of key."""
        package = Path(repro.__file__).resolve().parent
        copies = {}
        for name in ("unedited", "edited"):
            copies[name] = tmp_path / name
            shutil.copytree(
                package,
                copies[name] / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        coefficients = copies["edited"] / "repro" / "energy" / "coefficients.py"
        source = coefficients.read_text()
        line = "flash_read_uj_per_page: float = 0.6"
        assert line in source
        coefficients.write_text(source.replace(line, line + "01"))

        def keys(root: Path) -> list:
            env = {**os.environ, "PYTHONPATH": str(root)}
            out = subprocess.run(
                [sys.executable, "-c", PRINT_KEYS, str(tmp_path / "images")],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.split()

        tree = keys(package.parent)
        assert len(tree) == 5
        assert keys(copies["unedited"]) == tree
        edited = keys(copies["edited"])
        assert all(a != b for a, b in zip(edited, tree)), (edited, tree)


class TestResultSerialization:
    def test_payload_roundtrip_is_lossless(self, tiny_result):
        payload = CELL_DOC.to_payload(tiny_result)
        restored = CELL_DOC.from_payload(payload)
        assert CELL_DOC.to_payload(restored) == payload
        # restored results answer every derived query identically
        assert restored.summary() == tiny_result.summary()
        assert result_to_dict(restored) == result_to_dict(tiny_result)
        assert restored.latency_breakdown() == tiny_result.latency_breakdown()
        assert restored.command_breakdown() == tiny_result.command_breakdown()

    def test_payload_is_plain_json(self, tiny_result):
        payload = CELL_DOC.to_payload(tiny_result)
        assert json.loads(json.dumps(payload)) == payload

    def test_schema_mismatch_rejected(self, tiny_result):
        payload = CELL_DOC.to_payload(tiny_result)
        payload["schema"] = 999
        with pytest.raises(ValueError):
            CELL_DOC.from_payload(payload)

    def test_write_read_results_roundtrip(self, tiny_result, tmp_path):
        path = write_results([tiny_result], tmp_path / "results.json")
        (restored,) = read_results(path)
        assert restored.to_dict() == tiny_result.to_dict()


class TestResultCache:
    def test_put_get_contains_stats_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("abc") is None
        cache.put("abc", {"payload": {"x": 1}})
        assert "abc" in cache
        assert cache.get("abc") == {"payload": {"x": 1}}
        stats = cache.stats()
        assert stats.entries == 1 and stats.total_bytes > 0
        assert cache.clear() == 1
        assert cache.get("abc") is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"payload": {}})
        cache.path_for("abc").write_text("{truncated")
        assert cache.get("abc") is None

    def test_same_pid_writers_never_share_a_tmp_file(self, tmp_path, monkeypatch):
        import os

        cache = ResultCache(tmp_path)
        # Containers on a shared filesystem often reuse low pids.
        monkeypatch.setattr(os, "getpid", lambda: 42)
        real_replace = os.replace
        tmps = []

        def replace(src, dst):
            tmps.append(str(src))
            if len(tmps) == 1:
                # A second writer of the same key lands between our
                # write and our rename.
                cache.put("abc", {"payload": {"writer": 2}})
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        cache.put("abc", {"payload": {"writer": 1}})
        assert len(tmps) == 2 and tmps[0] != tmps[1]
        assert cache.get("abc") == {"payload": {"writer": 1}}
        assert [p.name for p in tmp_path.iterdir()] == ["abc.json"]

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        import os

        cache = ResultCache(tmp_path)

        def replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename failed"):
            cache.put("abc", {"payload": {}})
        assert list(tmp_path.iterdir()) == []

    def test_entries_keep_the_default_file_mode(self, tmp_path):
        # Shared caches need entries other users can read: no 0600 tmp.
        cache = ResultCache(tmp_path / "cache")
        reference = tmp_path / "reference"
        reference.write_text("")
        path = cache.put("abc", {"payload": {}})
        assert path.stat().st_mode == reference.stat().st_mode

    def test_prune_by_age(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put("old", {"payload": {}})
        cache.put("new", {"payload": {}})
        now = 1_000_000.0
        os.utime(cache.path_for("old"), times=(now - 10 * 86400, now - 10 * 86400))
        os.utime(cache.path_for("new"), times=(now - 86400, now - 86400))
        assert cache.prune(keep_days=7, _now=now) == 1
        assert "old" not in cache and "new" in cache

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        blob = {"payload": {"pad": "x" * 4000}}  # ~4 KB per entry
        for i in range(5):
            cache.put(f"k{i}", blob)
            path = cache.path_for(f"k{i}")
            os.utime(path, times=(1000.0 + i, 1000.0 + i))
        removed = cache.prune(max_mb=0.01, _now=2000.0)  # 10 KB budget
        assert removed == 3
        assert "k0" not in cache and "k1" not in cache and "k2" not in cache
        assert "k3" in cache and "k4" in cache

    def test_prune_size_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"payload": {}})
        cache.put("b", {"payload": {}})
        assert cache.prune(max_mb=0) == 2
        assert cache.stats().entries == 0

    def test_prune_requires_a_policy(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(keep_days=-1)
        with pytest.raises(ValueError):
            cache.prune(max_mb=-1)

    def test_prune_noop_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"payload": {}})
        assert cache.prune(keep_days=365, max_mb=100) == 0
        assert "a" in cache


def killed_writer_orphan(path: Path) -> Path:
    """The tmp file a writer of ``path`` leaves when killed mid-write."""
    from repro.cacheutil import atomic_write

    def write_then_die(handle):
        handle.write(b"half an entry")
        handle.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    pid = os.fork()
    if pid == 0:  # the writer
        try:
            atomic_write(path, write_then_die)
        finally:
            os._exit(1)  # never reached: SIGKILL runs no cleanup
    _pid, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert not path.exists()
    (orphan,) = path.parent.glob(f"{path.stem}.tmp.*")
    return orphan


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestOrphanedTmpFiles:
    """A writer killed inside ``atomic_write`` leaves its tmp file; once
    older than ``ORPHAN_AGE_S`` it is counted apart from the entries and
    swept by ``prune`` and ``clear``, while a fresh one is left alone."""

    @pytest.mark.parametrize("kind", ["results", "images"])
    def test_old_orphans_are_counted_and_swept(self, tmp_path, kind):
        from repro.cacheutil import ORPHAN_AGE_S
        from repro.directgraph import ImageCache

        cache = ResultCache(tmp_path) if kind == "results" else ImageCache(tmp_path)
        suffix = cache.path_for("k").suffix
        stale = time.time() - ORPHAN_AGE_S - 60

        def orphan(stem, aged):
            path = killed_writer_orphan(tmp_path / f"{stem}{suffix}")
            if aged:
                os.utime(path, times=(stale, stale))
            return path

        fresh = orphan("fresh", aged=False)
        old = orphan("old", aged=True)
        stats = cache.stats()
        assert (stats.entries, stats.total_bytes, stats.orphans) == (0, 0, 1)
        assert cache.prune(keep_days=0) == 1
        assert fresh.exists() and not old.exists()

        old = orphan("old", aged=True)
        assert cache.clear() == 1
        assert fresh.exists() and not old.exists()
        assert cache.stats().orphans == 0


# Child of TestTwoProcessesOneDirectory: imports, says ready, waits for
# the go file, then fills the cache directory argv[1] ("grid" runs the
# two tiny cells into a ResultCache, "prepare" prepares one image).
FILL_CACHE = """
import sys, time
from pathlib import Path
from repro.orchestrate import GridCell, ResultCache, run_grid
from repro.platforms import PreparedWorkload
from repro.workloads import workload_by_name

root, go, what = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
print("ready", flush=True)
deadline = time.monotonic() + 60
while not go.exists():
    if time.monotonic() > deadline:
        sys.exit("no go file")
    time.sleep(0.002)
if what == "grid":
    cells = [
        GridCell(platform=p, workload="ogbn", batch_size=8, num_batches=1,
                 scaled_nodes=256)
        for p in ("bg2", "cc")
    ]
    print(run_grid(cells, cache=ResultCache(root)).executed)
else:
    PreparedWorkload.prepare(
        workload_by_name("amazon").scaled(512), image_cache=root
    )
    print("prepared")
"""


class TestTwoProcessesOneDirectory:
    """Two processes fill one cache directory at the same time: both
    succeed, the entries are what one process alone writes, and no tmp
    file is left."""

    @staticmethod
    def fill_together(root: Path, what: str) -> list:
        go = root.parent / f"go-{what}"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parent.parent),
        }
        children = [
            subprocess.Popen(
                [sys.executable, "-c", FILL_CACHE, str(root), str(go), what],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        try:
            for child in children:
                assert child.stdout.readline().strip() == "ready"
            go.touch()
            outputs = [child.communicate(timeout=120) for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait(timeout=10)
        for child, (out, err) in zip(children, outputs):
            assert child.returncode == 0, err
        assert list(root.rglob("*.tmp.*")) == []
        return [out.split() for out, _ in outputs]

    def test_result_cache(self, tmp_path):
        root = tmp_path / "shared"
        printed = self.fill_together(root, "grid")
        # each child found the directory empty or finished: 0-2 simulated
        assert all(len(lines) == 1 and int(lines[0]) <= 2 for lines in printed)
        serial = tmp_path / "serial"
        run_grid(tiny_cells(), cache=ResultCache(serial))
        entries = sorted(path.name for path in serial.glob("*.json"))
        assert len(entries) == 2
        assert sorted(path.name for path in root.glob("*.json")) == entries
        for name in entries:
            assert (root / name).read_bytes() == (serial / name).read_bytes()

    def test_image_cache(self, tmp_path):
        from repro.directgraph import ImageCache
        from repro.directgraph.builder import IMAGE_ARRAYS

        root = tmp_path / "images"
        assert self.fill_together(root, "prepare") == [["prepared"]] * 2
        (entry,) = root.glob("*.npz")
        cached = ImageCache(root).get(entry.stem)
        assert cached is not None
        built = PreparedWorkload.prepare(
            workload_by_name("amazon").scaled(512), image_cache=None
        )
        assert cached.image.pages == built.image.pages
        for name in IMAGE_ARRAYS:
            got, want = getattr(cached.image, name), getattr(built.image, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestRunGrid:
    def test_serial_and_parallel_bit_identical(self):
        """The determinism contract: --jobs N never changes any result."""
        cells = tiny_cells(platforms=("bg2", "cc"), workloads=("ogbn", "ppi"))
        serial = run_grid(cells, jobs=1)
        parallel = run_grid(cells, jobs=4)
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in parallel.results
        ]

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells()
        cold = run_grid(cells, jobs=2, cache=cache)
        assert cold.executed == len(cells) and cold.cache_hits == 0
        warm = run_grid(cells, jobs=2, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == len(cells)
        assert [r.to_dict() for r in warm.results] == [
            r.to_dict() for r in cold.results
        ]

    def test_derived_seeds_independent_of_grid_order(self):
        cells = tiny_cells(platforms=("bg2", "cc"))
        forward = run_grid(cells, jobs=1)
        backward = run_grid(list(reversed(cells)), jobs=1)
        by_key_fwd = dict(zip(forward.keys, (r.to_dict() for r in forward.results)))
        by_key_bwd = dict(zip(backward.keys, (r.to_dict() for r in backward.results)))
        assert by_key_fwd == by_key_bwd

    def test_explicit_seed_changes_the_result(self):
        (with_a,) = run_grid(tiny_cells(platforms=("bg2",), seed=1), jobs=1).results
        (with_b,) = run_grid(tiny_cells(platforms=("bg2",), seed=2), jobs=1).results
        assert with_a.to_dict() != with_b.to_dict()

    def test_load_cached_returns_none_for_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, miss = tiny_cells(platforms=("bg2", "cc"))
        run_grid([hit], jobs=1, cache=cache)
        loaded = load_cached([hit, miss], cache)
        assert loaded[0] is not None and loaded[1] is None
        assert loaded[0].platform == "bg2"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_grid([], jobs=-1)

    def test_jobs_auto_detect(self):
        # 0 and None both mean "detect from CPU affinity"
        assert run_grid([], jobs=0).results == []
        assert run_grid([], jobs=None).results == []


class TestImageSharing:
    def test_repeated_grids_build_zero_images(self, tmp_path):
        """Across grid runs, each distinct workload image is built once."""
        from repro.directgraph import BUILD_COUNTER
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        _PREPARED_MEMO.clear()
        cold = run_grid(tiny_cells(platforms=("bg2", "cc")), jobs=1, cache=cache)
        # 2 cells, 1 distinct (workload, page_size) -> exactly one build
        assert cold.images_built == 1
        # evict the in-memory memo so only the disk image cache can serve
        _PREPARED_MEMO.clear()
        BUILD_COUNTER.reset()
        resimulated = run_grid(
            tiny_cells(platforms=("bg2", "cc"), seed=123), jobs=1, cache=cache
        )
        assert resimulated.executed == 2  # new seed -> result-cache misses
        assert BUILD_COUNTER.count == 0  # ...but zero DirectGraph builds
        assert resimulated.images_built == 0
        assert resimulated.image_hits >= 1

    def test_adopted_image_is_backfilled_once_per_grid(self, tmp_path, monkeypatch):
        """The disk back-fill of a memoized image runs in the pre-warm,
        once per distinct workload, not again in every cell's start."""
        from repro.directgraph import ImageCache
        from repro.orchestrate import adopt_prepared

        spec = workload_by_name("ogbn").scaled(TINY["scaled_nodes"])
        adopt_prepared(
            PreparedWorkload.prepare(spec, page_size=ull_ssd().flash.page_size)
        )
        calls = []
        key_for = ImageCache.key_for
        monkeypatch.setattr(
            ImageCache,
            "key_for",
            lambda self, *a, **k: calls.append(1) or key_for(self, *a, **k),
        )
        cache = ResultCache(tmp_path)
        outcome = run_grid(tiny_cells(platforms=("bg2", "cc")), jobs=1, cache=cache)
        assert outcome.executed == 2 and outcome.images_built == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "images").glob("*.npz"))) == 1

    def test_warm_result_cache_touches_no_images(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells()
        run_grid(cells, jobs=1, cache=cache)
        warm = run_grid(cells, jobs=1, cache=cache)
        assert warm.executed == 0
        assert warm.images_built == 0 and warm.image_hits == 0

    def test_image_cache_derives_from_result_cache(self, tmp_path):
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        _PREPARED_MEMO.clear()  # a memo hit would skip the disk store
        run_grid(tiny_cells(platforms=("bg2",)), jobs=1, cache=cache)
        assert list((tmp_path / "images").glob("*.npz"))

    def test_image_cache_opt_out(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(
            tiny_cells(platforms=("bg2",)), jobs=1, cache=cache, image_cache=False
        )
        assert not (tmp_path / "images").exists()

    def test_prepared_memo_is_bounded(self):
        from repro.orchestrate.grid import (
            _PREPARED_MEMO,
            _PREPARED_MEMO_MAX,
            _prepared_for,
        )

        _PREPARED_MEMO.clear()
        base = workload_by_name("ogbn")
        for nodes in range(64, 64 + _PREPARED_MEMO_MAX + 4):
            _prepared_for(base.scaled(nodes), 4096)
        assert len(_PREPARED_MEMO) == _PREPARED_MEMO_MAX


class TestRequireCached:
    def test_renders_a_finished_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells(platforms=("bg2", "cc"))
        cold = run_grid(cells, jobs=1, cache=cache)
        rendered = run_grid(cells, cache=cache, require_cached=True)
        assert rendered.executed == 0
        assert rendered.cache_hits == len(cells)
        assert rendered.images_built == 0 and rendered.image_hits == 0
        assert all(rendered.from_cache)
        assert [r.to_dict() for r in rendered.results] == [
            r.to_dict() for r in cold.results
        ]

    def test_miss_raises_naming_the_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyError, match=r"bg2/ogbn"):
            run_grid(
                tiny_cells(platforms=("bg2",)), cache=cache, require_cached=True
            )

    def test_partial_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, miss = tiny_cells(platforms=("bg2", "cc"))
        run_grid([hit], jobs=1, cache=cache)
        with pytest.raises(KeyError, match=r"1 of 2 cells"):
            run_grid([hit, miss], cache=cache, require_cached=True)

    def test_needs_a_cache(self):
        with pytest.raises(ValueError, match="require_cached needs a result cache"):
            run_grid(tiny_cells(platforms=("bg2",)), require_cached=True)

    def test_miss_prepares_and_dispatches_nothing(self, tmp_path, monkeypatch):
        from repro.orchestrate import grid

        class NeverRun:
            name = "never"

            def run(self, jobs_args, *, jobs=1):
                raise AssertionError("require_cached dispatched a cell")

        def no_image(*args, **kwargs):
            raise AssertionError("require_cached prepared an image")

        cache = ResultCache(tmp_path)
        hit, miss = tiny_cells(platforms=("bg2", "cc"))
        run_grid([hit], jobs=1, cache=cache)
        monkeypatch.setattr(grid, "_prepared_for", no_image)
        with pytest.raises(KeyError, match="cc/ogbn"):
            run_grid(
                [hit, miss], cache=cache, executor=NeverRun(), require_cached=True
            )
        assert cache.stats().entries == 1

    def test_long_miss_list_names_the_first_eight(self, tmp_path):
        cells = tiny_cells(
            platforms=("bg1", "bg2", "cc", "glist", "smartsage"),
            workloads=("ogbn", "reddit"),
        )
        with pytest.raises(KeyError) as missed:
            run_grid(cells, cache=ResultCache(tmp_path), require_cached=True)
        message = missed.value.args[0]
        assert message.startswith("10 of 10 cells not in result cache")
        named = message.split(": ", 1)[1].split("...")[0].split(", ")
        assert named == [
            f"{cell.platform}/{cell.workload}" for cell in cells[:8]
        ]
        assert message.endswith("... — run the sweep without --from-cache first")


def failed_cell_prefix(cell: GridCell, base_seed: int = 0) -> str:
    """How a failure of ``cell`` in a grid of ``base_seed`` begins."""
    seed = derive_cell_seed(base_seed, cell)
    return (
        f"grid cell {cell.platform}/{cell.workload} seed {seed} "
        f"(key {cell_cache_key(cell, seed)}) failed: "
    )


class TestStoreAsYouGo:
    """A failing cell costs only itself: every cell that finished before
    it is already in the cache, so a rerun simulates only what is left.
    The error names the cell, then gives the original type and message."""

    @pytest.mark.parametrize(
        "executor,jobs", [("serial", 1), ("process", 2)], ids=["serial", "process"]
    )
    def test_failing_cell_keeps_the_finished_ones(
        self, tmp_path, monkeypatch, executor, jobs
    ):
        cache = ResultCache(tmp_path)
        cells = tiny_cells(platforms=("bg2", "cc", "glist"))
        finalize = PlatformRun.finalize

        def failing(run):
            if run._platform.name == "glist":
                raise RuntimeError("injected failure in glist")
            return finalize(run)

        # Forked pool workers inherit the patched method; two CPUs make
        # the process case fork (three one-cell chunks, two workers)
        # even on a one-CPU host.
        monkeypatch.setattr(PlatformRun, "finalize", failing)
        monkeypatch.setattr(batched, "available_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="injected failure in glist") as error:
            run_grid(cells, jobs=jobs, cache=cache, executor=executor)
        assert type(error.value) is RuntimeError
        assert str(error.value) == failed_cell_prefix(cells[2]) + (
            "RuntimeError: injected failure in glist"
        )
        if executor == "serial":  # a pool worker's cause is its traceback
            assert str(error.value.__cause__) == "injected failure in glist"
        assert cache.stats().entries == 2

        monkeypatch.setattr(PlatformRun, "finalize", finalize)
        again = run_grid(cells, jobs=1, cache=cache, executor="serial")
        assert again.executed == 1 and again.cache_hits == 2
        assert again.from_cache == [True, True, False]

    def test_stalled_pipeline_fails_loudly_after_storing_the_cell_before(
        self, tmp_path, monkeypatch
    ):
        from repro.platforms.pipeline import PipelineRunner

        cache = ResultCache(tmp_path)
        cells = tiny_cells(platforms=("bg2", "cc"))
        start = PipelineRunner.run

        def deadlocked(runner, batches):
            if runner.prep.platform.name != "cc":
                return start(runner, batches)

            def wait_forever():
                yield runner.sim.event()  # nobody ever triggers it

            return runner.sim.process(wait_forever(), name="pipeline")

        monkeypatch.setattr(PipelineRunner, "run", deadlocked)
        with pytest.raises(RuntimeError, match="pipeline did not finish") as error:
            run_grid(cells, jobs=1, cache=cache, executor="serial")
        assert str(error.value) == failed_cell_prefix(cells[1]) + (
            "RuntimeError: pipeline did not finish (simulation stalled)"
        )
        assert isinstance(error.value.__cause__, RuntimeError)
        assert load_cached(cells, cache)[0] is not None
        assert load_cached(cells, cache)[1] is None


# Entries that parse as JSON but are not a document of this schema.
WRONG_SHAPES = [
    "{}",
    "[]",
    '"x"',
    '{"payload": null}',
    '{"payload": {}}',
    '{"payload": {"schema": 0}}',
    json.dumps({"payload": {"schema": CELL_DOC.schema}}),  # list schema, no body
    json.dumps({"payload": {"schema": CELL_DOC.column_schema}}),  # no result
]


def _edited(change):
    """Damage that rewrites an entry with ``change`` applied to its payload."""

    def damage(path):
        entry = json.loads(path.read_text())
        change(entry["payload"])
        path.write_text(json.dumps(entry))

    return damage


def _cut(field, column, digits):
    """Cut the last ``digits`` hex digits off one column of a stored cell."""

    def change(payload):
        block = payload["result"][field]
        assert len(block[column]) > digits, "nothing to damage"
        block[column] = block[column][:-digits]

    return _edited(change)


def _as_list_form(payload):
    """The same cell in the list form, which the cache never reads."""
    listed = CELL_DOC.to_payload(CELL_DOC.from_stored(payload))
    payload.clear()
    payload.update(listed)


# Damage to a stored ``bg2`` cell that keeps it valid JSON. The columns
# are 40-byte timestamp rows and 16-byte span rows.
DAMAGED_CELLS = {
    "list-form": _edited(_as_list_form),
    "missing-field": _edited(lambda payload: payload["result"].pop("stage_agg")),
    "odd-length-hex": _cut("stage_agg", "times", 1),
    "partial-value": _cut("stage_agg", "times", 2),
    "partial-row": _cut("stage_agg", "times", 16),
    "offsets-vs-names": _edited(
        lambda payload: payload["result"]["die_trackers"]["names"].pop()
    ),
    "offsets-vs-spans": _cut("die_trackers", "spans", 32),
}

# A required field of each document kind, taken out of its stored entry
# (each kind keeps its result under its own name).
REQUIRED_FIELDS = {
    "scaleout": "per_device",
    "serving": "platform",
    "cache_ablation": "points",
}


def _scaleout_document(cache):
    from repro.platforms import scaleout_outcome

    spec = workload_by_name("ogbn").scaled(256)
    out = scaleout_outcome(2, "bg2", spec, cache=cache, batch_size=8, num_batches=1)
    return out, out.result, out.shards_executed, out.shard_cache_hits


def _serving_document(cache):
    from repro.serving import PoissonArrivals, serve

    out = serve(
        "bg2",
        workload_by_name("ogbn").scaled(256),
        PoissonArrivals(rate_qps=300.0),
        num_queries=4,
        cache=cache,
    )
    return out, out.result, out.cells_executed, out.cell_cache_hits


def _ablation_document(cache):
    from repro.cache import sweep_cache

    out = sweep_cache(
        "bg2",
        "ogbn",
        capacities_mb=(0.25,),
        policies=("lru",),
        batch_size=8,
        num_batches=1,
        scaled_nodes=256,
        cache=cache,
    )
    return out, out.sweep, out.cells_executed, out.cell_cache_hits


# Each returns (outcome, result, cells simulated, cells from cache).
DOCUMENT_RUNS = {
    "scaleout": _scaleout_document,
    "serving": _serving_document,
    "cache_ablation": _ablation_document,
}


@pytest.fixture(scope="module")
def cold_documents(tmp_path_factory):
    """One cold run of each document kind, with the cache it filled."""
    runs = {}
    for kind, run in DOCUMENT_RUNS.items():
        root = tmp_path_factory.mktemp(kind)
        runs[kind] = (root, run(ResultCache(root)))
    return runs


class TestWrongShapeEntries:
    """A cache entry that parses but has the wrong shape is a miss."""

    # The last three parse to a payload object; the schema check rejects them.
    @pytest.mark.parametrize("content", WRONG_SHAPES[:4])
    def test_get_returns_none(self, tmp_path, content):
        cache = ResultCache(tmp_path)
        cache.path_for("abc").write_text(content)
        assert cache.get("abc") is None

    @staticmethod
    def assert_cell_miss(tmp_path, index, damage):
        """Cell ``index`` of a two-cell grid, damaged, is a miss and comes back."""
        cache = ResultCache(tmp_path)
        cells = tiny_cells(platforms=("bg2", "cc"))
        cold = run_grid(cells, jobs=1, cache=cache, executor="serial")
        path = cache.path_for(cold.keys[index])
        entry = path.read_bytes()
        damage(path)

        assert load_cached(cells, cache)[index] is None
        name = f"{cells[index].platform}/{cells[index].workload}"
        with pytest.raises(KeyError, match=rf"1 of 2 cells .*{name}"):
            run_grid(cells, cache=cache, require_cached=True)

        again = run_grid(cells, jobs=1, cache=cache, executor="serial")
        assert again.executed == 1
        assert again.from_cache == [i != index for i in range(len(cells))]
        assert path.read_bytes() == entry  # rewritten, byte for byte
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in cold.results
        ]

    @pytest.mark.parametrize("content", WRONG_SHAPES)
    def test_cell_entry_is_a_miss(self, tmp_path, content):
        self.assert_cell_miss(tmp_path, 1, lambda path: path.write_text(content))

    @pytest.mark.parametrize("damage", sorted(DAMAGED_CELLS))
    def test_damaged_cell_entry_is_a_miss(self, tmp_path, damage):
        self.assert_cell_miss(tmp_path, 0, DAMAGED_CELLS[damage])

    @staticmethod
    def assert_document_miss(tmp_path, cold_documents, kind, damage):
        """A damaged ``kind`` document re-renders from its cached cells."""
        root, (cold, cold_result, simulated, _hits) = cold_documents[kind]
        cache = ResultCache(shutil.copytree(root, tmp_path / "cache"))
        path = cache.path_for(cold.key)
        entry = path.read_bytes()
        damage(path)

        again, result, executed, hits = DOCUMENT_RUNS[kind](cache)
        # re-rendered from the cached cells, nothing simulated
        assert not again.from_cache
        assert executed == 0 and hits == simulated > 0
        assert path.read_bytes() == entry  # rewritten, byte for byte
        assert result.to_dict() == cold_result.to_dict()

    @pytest.mark.parametrize("content", WRONG_SHAPES)
    @pytest.mark.parametrize("kind", sorted(DOCUMENT_RUNS))
    def test_document_entry_is_a_miss(self, tmp_path, cold_documents, kind, content):
        self.assert_document_miss(
            tmp_path, cold_documents, kind, lambda path: path.write_text(content)
        )

    @pytest.mark.parametrize("kind", sorted(DOCUMENT_RUNS))
    def test_document_missing_a_field_is_a_miss(self, tmp_path, cold_documents, kind):
        damage = _edited(lambda payload: payload[kind].pop(REQUIRED_FIELDS[kind]))
        self.assert_document_miss(tmp_path, cold_documents, kind, damage)


class TestScaleOutCache:
    """ScaleOutResult documents in the content-addressed result cache."""

    PARAMS = dict(batch_size=8, num_batches=1)

    def outcome(self, cache, **overrides):
        from repro.platforms import scaleout_outcome

        spec = workload_by_name("ogbn").scaled(256)
        params = {**self.PARAMS, **overrides}
        return scaleout_outcome(2, "bg2", spec, cache=cache, **params)

    def test_store_load_lossless_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        warm = self.outcome(cache)
        assert not cold.from_cache and warm.from_cache
        assert warm.result.to_dict() == cold.result.to_dict()
        # per-shard instruments survive, traces included
        assert all(
            w.to_dict() == c.to_dict()
            for w, c in zip(warm.result.per_device, cold.result.per_device)
        )

    def test_cache_hit_skips_simulation_and_builds(self, tmp_path):
        from repro.directgraph import BUILD_COUNTER
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        assert cold.shards_executed == 2
        _PREPARED_MEMO.clear()
        BUILD_COUNTER.reset()
        warm = self.outcome(cache)
        assert warm.shards_executed == 0 and warm.shard_cache_hits == 0
        assert BUILD_COUNTER.count == 0  # hit loads the document, not images

    def test_stats_count_array_and_shard_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats().entries == 0
        self.outcome(cache)
        # one document per shard cell plus the array document itself
        assert cache.stats().entries == 3

    def test_shard_cache_serves_when_array_document_lost(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        # evict only the array-level document; the per-shard cells remain
        cache.path_for(cold.key).unlink()
        rebuilt = self.outcome(cache)
        assert not rebuilt.from_cache
        assert rebuilt.shards_executed == 0
        assert rebuilt.shard_cache_hits == 2
        assert rebuilt.result.to_dict() == cold.result.to_dict()

    def test_require_cached_raises_on_miss(self, tmp_path):
        from repro.platforms import scaleout_outcome

        cache = ResultCache(tmp_path)
        spec = workload_by_name("ogbn").scaled(256)
        with pytest.raises(KeyError, match="not in result cache"):
            scaleout_outcome(
                2, "bg2", spec, cache=cache, require_cached=True, **self.PARAMS
            )

    @pytest.mark.parametrize("partitioner", ("hash", "label-prop"))
    def test_require_cached_renders_from_shard_cells(self, tmp_path, partitioner):
        """A lost array document re-renders from its cells, nothing simulated."""
        from repro.directgraph import BUILD_COUNTER
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        cold = self.outcome(cache, partitioner=partitioner)
        document = cache.path_for(cold.key)
        written = document.read_bytes()
        document.unlink()
        _PREPARED_MEMO.clear()
        BUILD_COUNTER.reset()
        warm = self.outcome(cache, partitioner=partitioner, require_cached=True)
        assert not warm.from_cache
        assert warm.shards_executed == 0 and warm.shard_cache_hits == 2
        assert BUILD_COUNTER.count == 0
        assert warm.result.to_dict() == cold.result.to_dict()
        assert document.read_bytes() == written  # the document is rewritten
        again = self.outcome(cache, partitioner=partitioner, require_cached=True)
        assert again.from_cache

    def test_require_cached_raises_when_a_shard_cell_is_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        cache.path_for(cold.key).unlink()
        shard_keys = [
            path.stem for path in tmp_path.glob("*.json") if path.stem != cold.key
        ]
        assert len(shard_keys) == 2
        cache.path_for(shard_keys[0]).unlink()
        with pytest.raises(KeyError, match="1 of 2 cells not in result cache"):
            self.outcome(cache, require_cached=True)
        assert not cache.path_for(cold.key).exists()

    def test_require_cached_needs_a_cache(self):
        from repro.platforms import scaleout_outcome

        spec = workload_by_name("ogbn").scaled(256)
        with pytest.raises(ValueError, match="require_cached needs a result cache"):
            scaleout_outcome(
                2, "bg2", spec, cache=None, require_cached=True, **self.PARAMS
            )

    def test_scaleout_schema_mismatch_rejected(self, tmp_path):
        from repro.platforms.scaleout import SCALEOUT_DOC

        cache = ResultCache(tmp_path)
        payload = SCALEOUT_DOC.to_payload(self.outcome(cache).result)
        assert json.loads(json.dumps(payload)) == payload  # plain JSON
        payload["schema"] = 999
        with pytest.raises(ValueError):
            SCALEOUT_DOC.from_payload(payload)
