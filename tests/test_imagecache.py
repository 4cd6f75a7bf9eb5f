"""Tests for the content-addressed DirectGraph image cache."""

import io
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.directgraph import (
    BUILD_COUNTER,
    AddressCodec,
    FormatSpec,
    ImageCache,
    build_directgraph,
    default_image_cache_dir,
)
from repro.directgraph.builder import IMAGE_ARRAYS
from repro.directgraph.imagecache import COUNTERS
from repro.platforms import PreparedWorkload
from repro.workloads import workload_by_name


@pytest.fixture()
def spec():
    return workload_by_name("amazon").scaled(128)


@pytest.fixture()
def cache(tmp_path):
    return ImageCache(tmp_path / "images")


def prepare(spec, cache=None, page_size=4096):
    return PreparedWorkload.prepare(spec, page_size=page_size, image_cache=cache)


def fmt_for(spec, page_size=4096):
    return FormatSpec(
        page_size=page_size,
        feature_dim=spec.feature_dim,
        codec=AddressCodec.for_geometry(1 << 40, page_size),
    )


class TestRoundtrip:
    def test_entry_reconstructs_graph_and_image(self, spec, cache):
        cold = prepare(spec, cache)
        key = cache.key_for(spec, 4096, fmt_for(spec))
        assert key in cache
        entry = cache.get(key)
        assert entry is not None
        np.testing.assert_array_equal(entry.graph.indptr, cold.graph.indptr)
        np.testing.assert_array_equal(entry.graph.indices, cold.graph.indices)
        assert entry.image.stats == cold.image.stats
        assert entry.image.node_plans == cold.image.node_plans
        assert entry.image.page_plans == cold.image.page_plans
        assert entry.image.pages == cold.image.pages

    def test_warm_prepare_equals_cold_prepare(self, spec, cache):
        cold = prepare(spec, cache)
        warm = prepare(spec, cache)
        assert warm.image.pages == cold.image.pages
        assert warm.image.node_plans == cold.image.node_plans
        np.testing.assert_array_equal(
            warm.features.vector(0), cold.features.vector(0)
        )

    def test_entry_members_equal_savez(self, spec, cache):
        """``put`` streams the page bytes, yet every member of the entry
        holds what ``np.savez`` writes for the same arrays."""
        from repro.directgraph import imagecache

        prepared = prepare(spec, page_size=512)
        image = prepared.image
        # pages_blob takes a full write and a partial one
        assert image.num_pages > imagecache._PAGES_PER_WRITE
        cache.put("somekey", prepared.graph, image)
        blob = b"".join(image.pages[i] for i in range(image.num_pages))
        reference = io.BytesIO()
        np.savez(
            reference,
            **imagecache._image_to_arrays(prepared.graph, image),
            pages_blob=np.frombuffer(blob, dtype=np.uint8),
        )
        with zipfile.ZipFile(cache.path_for("somekey")) as got:
            with zipfile.ZipFile(reference) as want:
                assert got.namelist() == want.namelist()
                for name in want.namelist():
                    assert got.read(name) == want.read(name), name

    def test_plan_only_image_rejected(self, spec, cache):
        graph = spec.build_graph()
        image = build_directgraph(graph, None, fmt_for(spec), serialize=False)
        with pytest.raises(ValueError, match="serialized"):
            cache.put("somekey", graph, image)


class TestStreamedLoad:
    """``get`` reads ``pages_blob`` a chunk at a time, as ``put`` wrote it."""

    @pytest.fixture()
    def stored(self, cache):
        # several MB of pages: more than one chunk, and enough that holding
        # the blob beside its pages would show in the traced peak
        spec = workload_by_name("reddit").scaled(2048)
        prepared = prepare(spec)
        key = "streamed"
        cache.put(key, prepared.graph, prepared.image)
        return key, prepared

    def test_entry_equals_fresh_build(self, cache, stored):
        key, prepared = stored
        entry = cache.get(key)
        assert entry is not None
        fresh = prepared.image
        assert entry.image.pages == fresh.pages
        for name in IMAGE_ARRAYS:
            got, want = getattr(entry.image, name), getattr(fresh, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(entry.graph.indices, prepared.graph.indices)

    @pytest.mark.parametrize("cut", [-1, -4096, 1])
    def test_pages_member_of_wrong_length_is_a_miss(self, cache, stored, cut):
        """A member cut short (or running long) under its own header."""
        key, _prepared = stored
        path = cache.path_for(key)
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        blob = members["pages_blob.npy"]
        members["pages_blob.npy"] = blob[:cut] if cut < 0 else blob + b"\0" * cut
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        cache.counters.reset()
        assert cache.get(key) is None
        assert cache.counters.misses == 1

    def test_truncated_file_is_a_miss(self, cache, stored):
        key, _prepared = stored
        path = cache.path_for(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get(key) is None

    def test_peak_holds_one_chunk_beside_the_pages(self, cache, stored):
        key, prepared = stored
        pages_bytes = prepared.image.num_pages * prepared.image.spec.page_size
        assert pages_bytes > 4 << 20
        tracemalloc.start()
        try:
            entry = cache.get(key)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entry is not None
        assert kept > pages_bytes
        assert peak < kept + (2 << 20)


class TestKeys:
    def test_key_sensitive_to_page_size(self, spec, cache):
        a = cache.key_for(spec, 4096, fmt_for(spec, 4096))
        b = cache.key_for(spec, 8192, fmt_for(spec, 8192))
        assert a != b

    def test_key_sensitive_to_workload(self, cache):
        a_spec = workload_by_name("amazon").scaled(128)
        b_spec = workload_by_name("reddit").scaled(128)
        assert cache.key_for(a_spec, 4096, fmt_for(a_spec)) != cache.key_for(
            b_spec, 4096, fmt_for(b_spec)
        )

    def test_key_stable_across_instances(self, spec, tmp_path):
        a = ImageCache(tmp_path / "a").key_for(spec, 4096, fmt_for(spec))
        b = ImageCache(tmp_path / "b").key_for(spec, 4096, fmt_for(spec))
        assert a == b


class TestCounters:
    def test_miss_store_hit_sequence(self, spec, cache):
        cache.counters.reset()
        COUNTERS.reset()
        prepare(spec, cache)  # miss + store
        prepare(spec, cache)  # hit
        assert cache.counters.as_dict() == {"hits": 1, "misses": 1, "stores": 1}
        assert COUNTERS.hits == 1 and COUNTERS.misses == 1 and COUNTERS.stores == 1

    def test_cache_hit_skips_builder(self, spec, cache):
        prepare(spec, cache)
        BUILD_COUNTER.reset()
        prepare(spec, cache)
        assert BUILD_COUNTER.count == 0

    def test_no_cache_always_builds(self, spec):
        BUILD_COUNTER.reset()
        prepare(spec, None)
        prepare(spec, None)
        assert BUILD_COUNTER.count == 2


class TestRobustness:
    def test_corrupt_entry_is_a_miss_and_rebuilds(self, spec, cache):
        prepare(spec, cache)
        key = cache.key_for(spec, 4096, fmt_for(spec))
        cache.path_for(key).write_bytes(b"not an npz file")
        cache.counters.reset()
        warm = prepare(spec, cache)  # miss -> rebuild -> store
        assert warm.image.pages is not None
        assert cache.counters.misses == 1
        assert cache.counters.stores == 1
        assert cache.get(key) is not None  # repaired on the way through

    def test_absent_key_is_none(self, cache):
        assert cache.get("deadbeef") is None
        assert "deadbeef" not in cache

    def test_failed_write_leaves_no_tmp_file(self, spec, cache, monkeypatch):
        from repro.directgraph import imagecache

        prepared = prepare(spec)
        key = cache.key_for(spec, 4096, fmt_for(spec))

        def write_entry(handle, arrays, image):
            handle.write(b"half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(imagecache, "_write_entry", write_entry)
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, prepared.graph, prepared.image)
        assert list(cache.root.iterdir()) == []
        assert cache.get(key) is None


class TestMaintenance:
    def test_stats_clear(self, spec, cache):
        prepare(spec, cache)
        stats = cache.stats()
        assert stats.entries == 1 and stats.total_bytes > 0
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_prune_age_and_size(self, spec, cache):
        prepare(spec, cache)
        assert cache.prune(keep_days=30) == 0  # fresh entry survives
        assert cache.prune(max_mb=0) == 1  # zero budget evicts
        assert cache.stats().entries == 0


class TestCoerce:
    def test_coerce_semantics(self, tmp_path):
        assert ImageCache.coerce(None) is None
        assert ImageCache.coerce(False) is None
        made = ImageCache.coerce(tmp_path / "x")
        assert isinstance(made, ImageCache)
        assert ImageCache.coerce(made) is made
        default = ImageCache.coerce(True)
        assert default.root == default_image_cache_dir()
