"""Locality-aware partitioning and page layout: property and measured tests.

``repro.partition`` promises complete, balanced, deterministic ownership
maps from every registered policy, and the locality-aware policies must
*earn* their keep on the community workload: a lower structural edge cut
than hash, and — through routed array targets — a measured >= 25% drop in
cross-device feature vectors at four SSDs. The ``locality`` page layout
must keep the sampled trees bit-identical (draws are keyed by node, not
by page position) while strictly reducing measured flash page reads and
page-cache miss rate at a fixed cache size.
"""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.directgraph import (
    AddressCodec,
    FormatSpec,
    build_directgraph,
    layout_order,
    locality_order,
)
from repro.directgraph._reference import build_directgraph_reference
from repro.gnn import DenseFeatureTable, community_graph
from repro.partition import (
    DEFAULT_PARTITIONER,
    PARTITIONERS,
    edge_cut_fraction,
    partition_capacities,
    partition_graph,
)
from repro.platforms import (
    PreparedWorkload,
    RunResult,
    run_platform,
    run_scaleout,
)
from repro.platforms.scaleout import SCALEOUT_DOC, scaleout_cache_key
from repro.workloads import workload_by_name

DEVICES = 4


@pytest.fixture(scope="module")
def graph():
    return community_graph(768, 6.0, seed=3)


@pytest.fixture(scope="module")
def prepared():
    spec = workload_by_name("community").scaled(1024)
    return PreparedWorkload.prepare(spec, page_size=4096)


def off_diagonal(link_vectors):
    return sum(
        v for i, row in enumerate(link_vectors) for j, v in enumerate(row) if i != j
    )


class TestPartitioners:
    @pytest.mark.parametrize("name", PARTITIONERS)
    def test_complete_int32_ownership(self, graph, name):
        owner = partition_graph(
            graph.num_nodes, DEVICES, seed=0, partitioner=name, graph=graph
        )
        assert isinstance(owner, np.ndarray)
        assert owner.dtype == np.int32
        assert owner.shape == (graph.num_nodes,)
        assert owner.min() >= 0 and owner.max() < DEVICES

    @pytest.mark.parametrize("name", ("greedy-edgecut", "label-prop"))
    def test_locality_policies_balanced(self, graph, name):
        owner = partition_graph(
            graph.num_nodes, DEVICES, seed=0, partitioner=name, graph=graph
        )
        counts = np.bincount(owner, minlength=DEVICES)
        assert counts.sum() == graph.num_nodes
        assert counts.max() - counts.min() <= 1
        caps = partition_capacities(graph.num_nodes, DEVICES)
        assert (counts <= caps).all()

    @pytest.mark.parametrize("name", PARTITIONERS)
    def test_deterministic(self, graph, name):
        a = partition_graph(
            graph.num_nodes, DEVICES, seed=7, partitioner=name, graph=graph
        )
        b = partition_graph(
            graph.num_nodes, DEVICES, seed=7, partitioner=name, graph=graph
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ("greedy-edgecut", "label-prop"))
    def test_cuts_fewer_edges_than_hash(self, graph, name):
        hash_owner = partition_graph(graph.num_nodes, DEVICES, seed=0)
        loc_owner = partition_graph(
            graph.num_nodes, DEVICES, seed=0, partitioner=name, graph=graph
        )
        assert edge_cut_fraction(graph, loc_owner) < edge_cut_fraction(
            graph, hash_owner
        )

    def test_validation(self, graph):
        with pytest.raises(ValueError, match="unknown partitioner"):
            partition_graph(graph.num_nodes, DEVICES, 0, partitioner="metis")
        with pytest.raises(ValueError, match="requires the graph"):
            partition_graph(
                graph.num_nodes, DEVICES, 0, partitioner="label-prop"
            )
        with pytest.raises(ValueError, match="expected"):
            partition_graph(
                graph.num_nodes + 1,
                DEVICES,
                0,
                partitioner="label-prop",
                graph=graph,
            )


class TestLocalityLayout:
    def test_locality_order_is_permutation(self, graph):
        order = locality_order(graph)
        assert order.shape == (graph.num_nodes,)
        assert np.array_equal(np.sort(order), np.arange(graph.num_nodes))
        assert np.array_equal(order, locality_order(graph))

    def test_layout_order_dispatch(self, graph):
        assert layout_order(graph, "node-order") is None
        assert layout_order(graph, "locality") is not None
        with pytest.raises(ValueError, match="unknown layout"):
            layout_order(graph, "zigzag")

    def test_reordered_image_round_trips(self, graph):
        fmt = FormatSpec(page_size=1024, feature_dim=4, codec=AddressCodec())
        features = DenseFeatureTable.random(graph.num_nodes, 4, seed=0)
        order = locality_order(graph)
        image = build_directgraph(graph, features, fmt, order=order)
        for node in range(graph.num_nodes):
            assert image.node_at(image.address_of(node)) == node

    def test_reordered_build_matches_reference(self, graph):
        fmt = FormatSpec(page_size=1024, feature_dim=4, codec=AddressCodec())
        features = DenseFeatureTable.random(graph.num_nodes, 4, seed=0)
        order = locality_order(graph)
        vec = build_directgraph(graph, features, fmt, order=order)
        ref = build_directgraph_reference(graph, features, fmt, order=order)
        assert vec.node_plans == ref.node_plans
        assert vec.page_plans == ref.page_plans
        assert vec.pages == ref.pages

    def test_layouts_sample_identical_trees(self, prepared):
        spec = prepared.spec
        loc = PreparedWorkload.prepare(spec, page_size=4096, layout="locality")
        kwargs = dict(
            batch_size=16, num_batches=2, num_hops=2, fanout=3, seed=0,
            sample_trace=True,
        )
        base = run_platform("bg2", prepared, **kwargs)
        reordered = run_platform("bg2", loc, layout="locality", **kwargs)
        assert len(base.sample_trace) == len(reordered.sample_trace)
        for a, b in zip(base.sample_trace, reordered.sample_trace):
            assert np.array_equal(a, b)

    def test_locality_layout_reduces_measured_page_traffic(self, prepared):
        spec = prepared.spec
        loc = PreparedWorkload.prepare(spec, page_size=4096, layout="locality")
        kwargs = dict(
            batch_size=32, num_batches=2, num_hops=3, fanout=3, seed=0,
            page_cache=CacheConfig(capacity_mb=0.25, policy="lru"),
        )
        base = run_platform("bg2", prepared, **kwargs)
        reordered = run_platform("bg2", loc, layout="locality", **kwargs)
        assert reordered.meters.get("flash_reads") < base.meters.get("flash_reads")

        def miss_rate(result):
            accesses = result.cache["hits"] + result.cache["misses"]
            return result.cache["misses"] / accesses

        assert miss_rate(reordered) < miss_rate(base)


class TestExplicitTargets:
    def test_ragged_batches_and_served_targets(self, prepared):
        result = run_platform(
            "bg2",
            prepared,
            batch_size=8,
            num_batches=2,
            num_hops=2,
            fanout=2,
            seed=0,
            targets=[[1, 2, 3], []],
        )
        assert result.served_targets == 3
        assert result.total_targets == 3
        restored = RunResult.from_dict(result.to_dict())
        assert restored.served_targets == 3
        assert restored.total_targets == 3

    def test_default_payload_has_no_served_key(self, prepared):
        result = run_platform(
            "bg2", prepared, batch_size=8, num_batches=1, num_hops=2,
            fanout=2, seed=0,
        )
        assert result.served_targets is None
        assert "served_targets" not in result.to_dict()
        assert result.total_targets == 8

    def test_target_count_must_match_batches(self, prepared):
        with pytest.raises(ValueError):
            run_platform(
                "bg2", prepared, batch_size=8, num_batches=2, num_hops=2,
                fanout=2, seed=0, targets=[[1, 2]],
            )


class TestRoutedScaleOut:
    @pytest.fixture(scope="class")
    def arrays(self, prepared):
        def run(partitioner):
            return run_scaleout(
                DEVICES,
                "bg2",
                prepared,
                batch_size=32,
                num_batches=2,
                num_hops=3,
                fanout=3,
                seed=0,
                partitioner=partitioner,
            )

        return {name: run(name) for name in ("hash", "label-prop")}

    def test_labelprop_cuts_measured_traffic_25pct(self, arrays):
        hash_off = off_diagonal(arrays["hash"].link_vectors)
        lp_off = off_diagonal(arrays["label-prop"].link_vectors)
        assert hash_off > 0
        assert lp_off <= 0.75 * hash_off

    def test_partitioner_round_trips_in_payload(self, arrays):
        routed = arrays["label-prop"]
        assert routed.partitioner == "label-prop"
        restored = SCALEOUT_DOC.from_payload(SCALEOUT_DOC.to_payload(routed))
        assert restored.partitioner == "label-prop"
        assert restored.link_vectors == routed.link_vectors

    def test_hash_payload_stays_schema_identical(self, arrays):
        payload = SCALEOUT_DOC.to_payload(arrays["hash"])
        assert "partitioner" not in payload["scaleout"]
        assert SCALEOUT_DOC.from_payload(payload).partitioner is None

    def test_cache_key_conditional_on_new_knobs(self, prepared):
        from repro.platforms import platform_by_name
        from repro.ssd import ull_ssd

        features = platform_by_name("bg2")
        config = ull_ssd()
        kwargs = dict(
            batch_size=32, num_batches=2, num_hops=3, fanout=3,
            cross_partition_fraction=None, link=None, seed=0,
        )
        base = scaleout_cache_key(
            DEVICES, features, prepared.spec, config, **kwargs
        )
        explicit_default = scaleout_cache_key(
            DEVICES, features, prepared.spec, config,
            partitioner=DEFAULT_PARTITIONER, layout="node-order", **kwargs
        )
        routed = scaleout_cache_key(
            DEVICES, features, prepared.spec, config,
            partitioner="label-prop", **kwargs
        )
        reordered = scaleout_cache_key(
            DEVICES, features, prepared.spec, config, layout="locality",
            **kwargs
        )
        assert base == explicit_default
        assert len({base, routed, reordered}) == 3
