"""Edge-case coverage across modules: the paths integration runs skip."""

import numpy as np
import pytest

from repro.directgraph import (
    DirectGraphFormatError,
    DirectGraphReader,
    FormatSpec,
    SectionAddress,
    build_directgraph,
)
from repro.gnn import (
    DenseFeatureTable,
    Graph,
    power_law_graph,
)
from repro.gnn.sampling import (
    child_position,
    depth_offsets,
    parent_position,
    position_depth,
    tree_capacity,
)


class TestHeapPositionInverses:
    def test_parent_of_root(self):
        assert parent_position((3, 3), 0) == -1

    def test_parent_inverts_child(self):
        fanouts = (3, 2, 4)
        for depth in (1, 2, 3):
            offsets = depth_offsets(fanouts)
            parent_lo = offsets[depth - 1]
            parent_hi = offsets[depth] if depth < len(offsets) else parent_lo + 1
            for parent in range(parent_lo, parent_hi):
                for j in range(fanouts[depth - 1]):
                    child = child_position(fanouts, parent, depth, j)
                    assert parent_position(fanouts, child) == parent
                    assert position_depth(fanouts, child) == depth

    def test_position_depth_bounds(self):
        with pytest.raises(ValueError):
            position_depth((2, 2), tree_capacity((2, 2)))
        with pytest.raises(ValueError):
            position_depth((2, 2), -1)

    def test_depth_zero(self):
        assert position_depth((5,), 0) == 0


class TestReaderEdgeCases:
    def _image(self):
        g = power_law_graph(40, 6.0, seed=1)
        feats = DenseFeatureTable.random(40, 4, seed=0)
        return g, build_directgraph(g, feats, FormatSpec(page_size=512, feature_dim=4))

    def test_reader_requires_serialized_image(self):
        g = power_law_graph(10, 3.0, seed=0)
        image = build_directgraph(
            g, None, FormatSpec(page_size=512, feature_dim=4), serialize=False
        )
        with pytest.raises(ValueError):
            DirectGraphReader(image)

    def test_primary_section_on_secondary_address_raises(self):
        lists = [[(j % 10) + 1 for j in range(300)]] + [[0]] * 10
        g = Graph.from_neighbor_lists(lists)
        feats = DenseFeatureTable.random(g.num_nodes, 4, seed=0)
        image = build_directgraph(g, feats, FormatSpec(page_size=512, feature_dim=4))
        reader = DirectGraphReader(image)
        sec_addr = image.node_plans[0].secondary_addrs[0]
        view = reader.section_at(sec_addr)
        assert view.type == 2
        # asking for a *primary* view at that address must fail cleanly
        image.prim_page[0] = sec_addr.page
        image.prim_sec[0] = sec_addr.section
        with pytest.raises(DirectGraphFormatError):
            reader.primary_section(0)

    def test_section_at_invalid_index(self):
        _g, image = self._image()
        reader = DirectGraphReader(image)
        with pytest.raises(DirectGraphFormatError):
            reader.section_at(SectionAddress(0, 15))


class TestGraphEdgeCases:
    def test_single_node_self_loop(self):
        g = Graph.from_neighbor_lists([[0]])
        assert g.degree(0) == 1
        assert list(g.neighbors(0)) == [0]

    def test_empty_graph_from_lists(self):
        g = Graph.from_neighbor_lists([])
        assert g.num_nodes == 0
        assert g.average_degree == 0.0

    def test_from_edges_bounds_checked(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(5, 0)])


class TestBuilderEdgeCases:
    def test_single_tiny_node(self):
        g = Graph.from_neighbor_lists([[0]])
        feats = DenseFeatureTable.random(1, 4, seed=0)
        image = build_directgraph(g, feats, FormatSpec(page_size=512, feature_dim=4))
        assert image.num_pages == 1
        reader = DirectGraphReader(image)
        assert reader.neighbors(0) == [0]

    def test_feature_table_too_small_rejected(self):
        g = power_law_graph(10, 3.0, seed=0)
        feats = DenseFeatureTable.random(5, 4, seed=0)
        with pytest.raises(ValueError):
            build_directgraph(g, feats, FormatSpec(page_size=512, feature_dim=4))

    def test_zero_degree_node_serializes(self):
        g = Graph.from_neighbor_lists([[1], [], [0, 1]])
        feats = DenseFeatureTable.random(3, 4, seed=0)
        image = build_directgraph(g, feats, FormatSpec(page_size=512, feature_dim=4))
        reader = DirectGraphReader(image)
        assert reader.neighbors(1) == []
        assert np.array_equal(reader.feature(1), feats.vector(1))


class TestStatsEdges:
    def test_active_count_partial_bin_overlap(self):
        from repro.sim.stats import BusyTracker, active_count_series

        t = BusyTracker()
        t.add_interval(0.5, 1.5)  # spans two 1s bins
        _centers, counts = active_count_series([t], 0.0, 2.0, bins=2)
        assert counts[0] == pytest.approx(0.5)
        assert counts[1] == pytest.approx(0.5)

    def test_bins_validation(self):
        from repro.sim.stats import active_count_series

        with pytest.raises(ValueError):
            active_count_series([], 0.0, 1.0, bins=0)


class TestHostProtocolEdges:
    def test_double_deploy_reserves_fresh_blocks(self):
        from repro.directgraph import FormatSpec as FS
        from repro.gnn import DenseFeatureTable as DF
        from repro.host import BeaconHost, NvmeDriver
        from repro.ssd import FlashConfig
        from repro.ssd.firmware_runtime import FirmwareRuntime
        from repro.ssd.nvme import QueuePair

        queue = QueuePair(depth=16)
        firmware = FirmwareRuntime(
            queue,
            flash=FlashConfig(page_size=512, pages_per_block=8),
            total_blocks=512,
            format_spec=FS(page_size=512, feature_dim=4),
        )
        host = BeaconHost(NvmeDriver(queue, firmware))
        g = power_law_graph(30, 4.0, seed=2)
        feats = DF.random(30, 4, seed=0)
        first = host.deploy(g, feats)
        second = host.deploy(g, feats)
        assert set(first.blocks).isdisjoint(set(second.blocks))
