"""Result payloads are plain JSON values by construction.

Every :class:`~repro.cacheutil.CachedDocument` hands its stored payload
(``to_stored``) as built to the result cache, and a cell payload to the
process pool; no JSON round trip normalizes it first. A cell has two
payload forms: the stored column form, whose record arrays are hex text
(``RunResult.to_columns``), and the list form the golden digests hash
(``to_payload``, ``RunResult.to_dict``). The other document kinds store
their list form. These tests pin what a JSON round trip would guarantee:

* every payload of either form equals its own
  ``json.loads(json.dumps(...))`` type for type (``1`` against ``1.0``,
  a tuple against a list or a numpy scalar against a float all fail)
  and key order for key order, on every platform and with every
  optional result block, and for each kind of scale-out, serving and
  ablation document;
* decoding a payload and encoding it again gives the payload back, type
  for type and key for key, once integer meters are floats (decoding
  normalizes them, so a decoded document is a fixpoint) — for cell
  results and for a scale-out document, whose per-device results are
  decoded ones; a decoded stored payload encodes to the same list form
  as the decoded list payload;
* the hand-built ``to_dict`` of each dataclass instrument emits every
  field, in declaration order, with the values ``dataclasses.asdict``
  gives;
* fresh and cached grid results are type-exactly equal under both local
  backends on every platform and optional block, and so are fresh and
  cached documents (key order aside: cache entries are written with
  sorted keys).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cache import CacheConfig, sweep_cache
from repro.orchestrate import CELL_DOC, GridCell, ResultCache, run_grid
from repro.platforms import PreparedWorkload, platform_names, run_platform
from repro.platforms.background import BackgroundIoConfig
from repro.platforms.result import BatchTiming, RunResult
from repro.platforms.scaleout import ScaleOutResult, run_scaleout, scaleout_outcome
from repro.serving import OnOffArrivals, PoissonArrivals, TraceArrivals, serve
from repro.sim.stats import StageRecord
from repro.workloads import workload_by_name

NODES = 256
PARAMS = dict(batch_size=8, num_batches=2, num_hops=2, fanout=2, seed=0)
VARIANTS = {
    "default": {},
    "page_cache": {"page_cache": CacheConfig(capacity_mb=0.25, record_trace=True)},
    "sample_trace": {"sample_trace": True},
    "background_io_deferred": {
        "background_io": BackgroundIoConfig(rate_per_s=200_000, deferred=True)
    },
    "background_io_direct": {
        "background_io": BackgroundIoConfig(rate_per_s=200_000, deferred=False)
    },
    "ragged_targets": {"targets": [[1, 2, 3], []]},
}
SMALL = dict(num_hops=2, fanout=2)
# Each document kind, fresh or cached, in the shapes its options give.
DOCUMENTS = {
    "scaleout-hash": lambda w, cache: scaleout_outcome(
        2, "bg2", w, batch_size=8, num_batches=1, cache=cache, **SMALL
    ),
    "scaleout-label-prop": lambda w, cache: scaleout_outcome(
        2, "bg2", w, batch_size=8, num_batches=1, cache=cache,
        partitioner="label-prop", **SMALL,
    ),
    "scaleout-analytic": lambda w, cache: scaleout_outcome(
        2, "bg2", w, batch_size=8, num_batches=1, cache=cache,
        cross_partition_fraction=0.25, **SMALL,
    ),
    "serving-poisson": lambda w, cache: serve(
        "bg2", w, PoissonArrivals(rate_qps=300.0), num_queries=4, cache=cache,
        **SMALL,
    ),
    "serving-onoff": lambda w, cache: serve(
        "bg2", w, OnOffArrivals.for_average(300.0, on_s=0.002, off_s=0.008),
        num_queries=4, max_batch=2, batch_timeout_s=1e-4, cache=cache, **SMALL,
    ),
    "serving-trace": lambda w, cache: serve(
        "bg2", w, TraceArrivals(times_s=(0.0, 1e-5, 2e-3)), num_queries=3,
        cache=cache, **SMALL,
    ),
    "cache-ablation": lambda w, cache: sweep_cache(
        "bg2", w, capacities_mb=(0.25, 1.0), policies=("lru",), batch_size=8,
        num_batches=1, cache=cache, **SMALL,
    ),
}


def assert_type_exact(a, b, path="payload", ordered=True):
    """Equal values of identical types; ``ordered`` also compares key order."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        keys_a, keys_b = (list(a), list(b)) if ordered else (sorted(a), sorted(b))
        assert keys_a == keys_b, f"{path}: keys {keys_a} vs {keys_b}"
        for key in a:
            assert_type_exact(a[key], b[key], f"{path}.{key}", ordered)
    elif isinstance(a, list):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_type_exact(x, y, f"{path}[{i}]", ordered)
    else:
        assert a == b or (a != a and b != b), f"{path}: {a!r} vs {b!r}"


@pytest.fixture(scope="module")
def prepared():
    return PreparedWorkload.prepare(workload_by_name("ogbn").scaled(NODES))


def test_type_exact_compare_rejects_what_json_would_change():
    for plain, changed in (
        ({"a": 1}, {"a": 1.0}),
        ({"a": [1, 2]}, {"a": (1, 2)}),
        ({"1": 0.5}, {1: 0.5}),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
    ):
        with pytest.raises(AssertionError):
            assert_type_exact(plain, changed)
    with pytest.raises(AssertionError):
        assert_type_exact({"a": 0.5}, {"a": np.float64(0.5)})


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("platform", platform_names())
def test_payload_survives_json_unchanged(prepared, platform, variant):
    result = run_platform(platform, prepared, **PARAMS, **VARIANTS[variant])
    payload = CELL_DOC.to_payload(result)
    assert_type_exact(payload, json.loads(json.dumps(payload)))
    # decoding normalizes integer meters to floats, and nothing else
    decoded = RunResult.from_dict(payload["result"]).to_dict()
    meters = {k: float(v) for k, v in payload["result"]["meters"].items()}
    assert_type_exact(decoded, {**payload["result"], "meters": meters})
    assert_type_exact(RunResult.from_dict(decoded).to_dict(), decoded)
    # the stored column form survives JSON too and decodes to the same
    stored = CELL_DOC.to_stored(result)
    assert stored["schema"] == CELL_DOC.column_schema != payload["schema"]
    assert_type_exact(stored, json.loads(json.dumps(stored)))
    assert_type_exact(CELL_DOC.from_stored(stored).to_dict(), decoded)
    # every optional block is really present in its variant
    block = {
        "page_cache": "cache",
        "sample_trace": "sample_trace",
        "ragged_targets": "served_targets",
    }.get(variant, "background_io" if variant.startswith("background") else None)
    if block is not None:
        assert payload["result"][block] is not None


def test_decoded_scaleout_document_re_encodes_unchanged(prepared):
    result = run_scaleout(
        2, "bg2", prepared, batch_size=8, num_batches=1, num_hops=2, fanout=2
    )
    doc = json.loads(json.dumps(result.to_dict()))
    decoded = ScaleOutResult.from_dict(doc)
    assert all(isinstance(r, RunResult) for r in decoded.per_device)
    assert_type_exact(decoded.to_dict(), doc)


def test_stage_records_emit_every_field_in_order(prepared):
    result = run_platform("bg2", prepared, **PARAMS)
    names = [f.name for f in dataclasses.fields(StageRecord)]
    records = result.stage_agg.to_dict()["records"]
    assert len(records) == len(result.stage_agg.records) > 0
    for record, source in zip(records, result.stage_agg.records):
        assert list(record) == names
        assert record == dataclasses.asdict(source)


def test_batch_timing_emits_every_field_in_order():
    timing = BatchTiming(
        batch_index=1, prep_start=0.5, prep_end=1.0, compute_start=1.0, compute_end=2.5
    )
    data = timing.to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(BatchTiming)]
    assert data == dataclasses.asdict(timing)
    assert BatchTiming.from_dict(data) == timing


def grid_variant(variant):
    """``VARIANTS[variant]`` as ``GridCell`` fields."""
    options = dict(VARIANTS[variant])
    if "targets" in options:
        options["targets"] = tuple(map(tuple, options["targets"]))
    return options


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_fresh_and_cached_results_are_type_exact(tmp_path, executor):
    cells = [
        GridCell(
            platform=platform,
            workload="ogbn",
            scaled_nodes=NODES,
            **PARAMS,
            **grid_variant(variant),
        )
        for platform in platform_names()
        for variant in sorted(VARIANTS)
    ]
    cache = ResultCache(tmp_path)
    cold = run_grid(cells, jobs=2, cache=cache, executor=executor)
    warm = run_grid(cells, jobs=2, cache=cache, executor=executor)
    assert cold.executed == len(cells) and warm.cache_hits == len(cells)
    for fresh, cached in zip(cold.results, warm.results):
        # Cache entries are written with sorted keys, so only a fresh
        # result keeps the simulation's key order.
        assert_type_exact(fresh.to_dict(), cached.to_dict(), ordered=False)


class RecordingCache(ResultCache):
    """A result cache that also keeps each document as it was handed over."""

    def __init__(self, root):
        super().__init__(root)
        self.written = {}

    def put(self, key, document):
        self.written[key] = document
        return super().put(key, document)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_payload_survives_json_unchanged(prepared, tmp_path, name):
    cache = RecordingCache(tmp_path)
    fresh = DOCUMENTS[name](prepared, cache)
    cached = DOCUMENTS[name](prepared, cache)
    assert not fresh.from_cache and cached.from_cache
    payload = cache.written[fresh.key]["payload"]
    assert_type_exact(payload, json.loads(json.dumps(payload)))
    # an ablation outcome holds its result as .sweep, the others as .result
    fresh, cached = (getattr(o, "result", None) or o.sweep for o in (fresh, cached))
    assert_type_exact(fresh.to_dict(), cached.to_dict(), ordered=False)
