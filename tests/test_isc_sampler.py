"""Tests for the die-level sampler: the core equivalence results.

The headline property: an out-of-order, fully in-storage execution over
DirectGraph produces *exactly* the subgraphs of the in-order reference
GraphSage sampler (EXACT_INDEX policy).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directgraph import FormatSpec, build_directgraph
from repro.gnn import (
    DenseFeatureTable,
    Graph,
    power_law_graph,
    sample_minibatch,
)
from repro.isc import (
    CommandKind,
    DieSampler,
    GnnTaskConfig,
    SamplerFault,
    SamplerPolicy,
    SamplingCommand,
    run_in_storage_sampling,
)


def build_image(graph, dim=8, page_size=1024, seed=0):
    features = DenseFeatureTable.random(graph.num_nodes, dim, seed=seed)
    spec = FormatSpec(page_size=page_size, feature_dim=dim)
    return build_directgraph(graph, features, spec), features


def overflow_graph(num_tail=30):
    """Node 0 has 400 neighbors -> guaranteed secondary sections at 1 KB."""
    lists = [[(j % num_tail) + 1 for j in range(400)]]
    lists += [[0, (i % num_tail) + 1] for i in range(num_tail)]
    return Graph.from_neighbor_lists(lists)


class TestEquivalenceWithReference:
    def test_matches_reference_fifo(self):
        g = power_law_graph(300, 15.0, seed=3)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=3, fanout=3, feature_dim=8, seed=7)
        targets = [5, 17, 99]
        run = run_in_storage_sampling(image, config, targets)
        reference = sample_minibatch(g, targets, config.fanouts, seed=7)
        for ref in reference:
            assert run.subgraphs[ref.target].canonical() == ref.canonical()

    def test_matches_reference_lifo(self):
        """Out-of-order (depth-first) execution gives identical subgraphs."""
        g = power_law_graph(300, 15.0, seed=3)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=3, fanout=3, feature_dim=8, seed=7)
        targets = [5, 17, 99]
        fifo = run_in_storage_sampling(image, config, targets, lifo=False)
        lifo = run_in_storage_sampling(image, config, targets, lifo=True)
        for t in targets:
            assert fifo.subgraphs[t].canonical() == lifo.subgraphs[t].canonical()

    def test_matches_reference_with_secondary_sections(self):
        g = overflow_graph()
        image, _ = build_image(g)
        assert image.node_plans[0].n_secondary >= 1
        config = GnnTaskConfig(num_hops=2, fanout=3, feature_dim=8, seed=1)
        run = run_in_storage_sampling(image, config, [0])
        ref = sample_minibatch(g, [0], config.fanouts, seed=1)[0]
        assert run.subgraphs[0].canonical() == ref.canonical()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equivalence_property(self, seed):
        g = power_law_graph(120, 10.0, seed=5)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=8, seed=seed)
        run = run_in_storage_sampling(image, config, [3, 60])
        for ref in sample_minibatch(g, [3, 60], config.fanouts, seed=seed):
            assert run.subgraphs[ref.target].canonical() == ref.canonical()


class TestResamplePolicy:
    def test_resample_edges_are_valid(self):
        g = overflow_graph()
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=2, fanout=3, feature_dim=8, seed=2)
        run = run_in_storage_sampling(
            image, config, [0], policy=SamplerPolicy.RESAMPLE_IN_SECTION
        )
        run.subgraphs[0].validate_against(g)

    def test_resample_may_differ_from_exact(self):
        g = overflow_graph()
        image, _ = build_image(g)
        # Use many targets/seeds so at least one draw lands in a secondary
        config = GnnTaskConfig(num_hops=2, fanout=3, feature_dim=8, seed=2)
        exact = run_in_storage_sampling(image, config, [0])
        resample = run_in_storage_sampling(
            image, config, [0], policy=SamplerPolicy.RESAMPLE_IN_SECTION
        )
        # Both are full trees of the same size regardless of policy
        assert (
            exact.subgraphs[0].num_positions
            == resample.subgraphs[0].num_positions
        )


class TestCommandAccounting:
    def test_command_counts_paper_shape(self):
        """3 hops, fanout 3, no secondaries: per target 13 SAMPLE_PRIMARY
        (depths 0-2) + 27 FETCH_FEATURE (depth 3)."""
        g = power_law_graph(200, 12.0, seed=9)
        image, _ = build_image(g, page_size=4096)
        if any(p.n_secondary for p in image.node_plans):
            pytest.skip("graph unexpectedly produced secondary sections")
        config = GnnTaskConfig(num_hops=3, fanout=3, feature_dim=8, seed=4)
        run = run_in_storage_sampling(image, config, [1, 2])
        assert run.commands_by_kind[CommandKind.SAMPLE_PRIMARY] == 2 * 13
        assert run.commands_by_kind[CommandKind.FETCH_FEATURE] == 2 * 27
        assert run.commands_executed == 2 * 40

    def test_secondary_commands_coalesce(self):
        """Multiple draws into one secondary section -> a single command."""
        g = overflow_graph()
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=1, fanout=16, feature_dim=8, seed=0)
        run = run_in_storage_sampling(image, config, [0])
        n_secondary_cmds = run.commands_by_kind.get(CommandKind.SAMPLE_SECONDARY, 0)
        n_secondary_sections = image.node_plans[0].n_secondary
        assert n_secondary_cmds <= n_secondary_sections

    def test_channel_saving_is_large(self):
        """The die returns a small result stream instead of whole pages."""
        g = power_law_graph(200, 12.0, seed=9)
        image, _ = build_image(g, page_size=4096)
        config = GnnTaskConfig(num_hops=3, fanout=3, feature_dim=8, seed=4)
        run = run_in_storage_sampling(image, config, [1])
        assert run.channel_traffic_saving > 0.9

    def test_duplicate_targets_deduplicated(self):
        g = power_law_graph(100, 10.0, seed=1)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=8, seed=0)
        run = run_in_storage_sampling(image, config, [5, 5, 5])
        assert len(run.subgraphs) == 1


class TestSamplerFaults:
    def test_wrong_section_type_faults(self):
        g = overflow_graph()
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        # aim a primary command at a secondary section
        sec_addr = image.node_plans[0].secondary_addrs[0]
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=sec_addr,
            target=0,
            hop=0,
            position=0,
        )
        with pytest.raises(SamplerFault):
            sampler.execute(image.page_bytes(sec_addr.page), cmd)

    def test_node_id_mismatch_faults(self):
        g = power_law_graph(50, 8.0, seed=2)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        addr = image.address_of(3)
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY,
            address=addr,
            target=3,
            hop=0,
            position=0,
            node_id=999,  # wrong expectation
        )
        with pytest.raises(SamplerFault):
            sampler.execute(image.page_bytes(addr.page), cmd)

    def test_missing_section_faults(self):
        from repro.directgraph import SectionAddress

        g = power_law_graph(50, 8.0, seed=2)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        # find a page with spare section-index space and aim past its count
        page_index, n_sections = next(
            (p.page_index, p.n_sections)
            for p in image.page_plans
            if p.n_sections < image.spec.max_sections_per_page
        )
        bad = SectionAddress(page_index, n_sections)
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY, address=bad, target=3, hop=0, position=0
        )
        with pytest.raises(SamplerFault):
            sampler.execute(image.page_bytes(page_index), cmd)

    def test_secondary_without_draws_faults(self):
        g = overflow_graph()
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        sec_addr = image.node_plans[0].secondary_addrs[0]
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_SECONDARY,
            address=sec_addr,
            target=0,
            hop=0,
            position=0,
        )
        with pytest.raises(SamplerFault):
            sampler.execute(image.page_bytes(sec_addr.page), cmd)

    @staticmethod
    def _run_secondary(hop, draws):
        g = overflow_graph()
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=2, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        sec_addr = image.node_plans[0].secondary_addrs[0]
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_SECONDARY,
            address=sec_addr,
            target=0,
            hop=hop,
            position=0,
            draws=draws,
        )
        return sampler.execute(image.page_bytes(sec_addr.page), cmd)

    def test_secondary_well_formed_command_runs(self):
        result = self._run_secondary(hop=0, draws=((1, 0),))
        assert len(result.children) == 1

    def test_secondary_sample_index_past_fanout_faults(self):
        # a draw list survives encode/decode with any u16 sample index
        with pytest.raises(SamplerFault, match="sample index 7 out of fanout 2"):
            self._run_secondary(hop=0, draws=((7, 0),))

    def test_secondary_hop_past_task_faults(self):
        with pytest.raises(SamplerFault, match="hop 2"):
            self._run_secondary(hop=2, draws=((0, 0),))

    def test_config_spec_mismatch_rejected(self):
        g = power_law_graph(20, 4.0, seed=0)
        image, _ = build_image(g, dim=8)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=16, seed=0)
        with pytest.raises(ValueError):
            DieSampler(image.spec, config)


class TestFeatureRetrieval:
    def test_primary_reads_return_feature_bytes(self):
        g = power_law_graph(60, 8.0, seed=3)
        image, features = build_image(g, dim=8)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        addr = image.address_of(7)
        cmd = SamplingCommand(
            kind=CommandKind.SAMPLE_PRIMARY, address=addr, target=7, hop=0, position=0
        )
        result = sampler.execute(image.page_bytes(addr.page), cmd)
        import numpy as np

        got = np.frombuffer(result.feature_bytes, dtype=np.float16)
        assert np.array_equal(got, features.vector(7))

    def test_fetch_feature_generates_no_children(self):
        g = power_law_graph(60, 8.0, seed=3)
        image, _ = build_image(g)
        config = GnnTaskConfig(num_hops=1, fanout=2, feature_dim=8, seed=0)
        sampler = DieSampler(image.spec, config)
        addr = image.address_of(7)
        cmd = SamplingCommand(
            kind=CommandKind.FETCH_FEATURE, address=addr, target=7, hop=1, position=1
        )
        result = sampler.execute(image.page_bytes(addr.page), cmd)
        assert result.children == []
        assert result.feature_bytes is not None
