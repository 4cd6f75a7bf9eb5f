"""Unit and property tests for the CSR graph and generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import (
    Graph,
    community_graph,
    power_law_graph,
    ring_of_cliques,
    uniform_random_graph,
)
from repro.workloads import workload_by_name


class TestGraph:
    def test_from_neighbor_lists_roundtrip(self):
        lists = [[1, 2], [0], [0, 1, 1]]
        g = Graph.from_neighbor_lists(lists)
        assert g.num_nodes == 3
        assert g.num_edges == 6
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [0]
        assert list(g.neighbors(2)) == [0, 1, 1]

    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (3, 0), (0, 3)])
        assert list(g.neighbors(0)) == [1, 2, 3]
        assert g.degree(3) == 1
        assert g.degree(1) == 0

    def test_degrees_vector(self):
        g = Graph.from_neighbor_lists([[1], [0, 2, 0], []])
        assert list(g.degrees()) == [1, 3, 0]
        assert g.average_degree == pytest.approx(4 / 3)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0]))
        with pytest.raises(ValueError):
            Graph(np.array([0, 2]), np.array([0]))  # mismatched end
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1]), np.array([0, 0]))  # decreasing

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_neighbor_lists([[5]])

    def test_node_bounds_checked(self):
        g = Graph.from_neighbor_lists([[0]])
        with pytest.raises(IndexError):
            g.neighbors(1)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_empty_neighbor_lists(self):
        g = Graph.from_neighbor_lists([[], [], []])
        assert g.num_edges == 0
        assert g.degree(1) == 0


class TestGenerators:
    def test_uniform_graph_shape(self):
        g = uniform_random_graph(1000, 8.0, seed=3)
        assert g.num_nodes == 1000
        assert 6.0 < g.average_degree < 10.0
        assert g.degrees().min() >= 1

    def test_power_law_graph_shape(self):
        g = power_law_graph(2000, 20.0, seed=5)
        assert g.num_nodes == 2000
        assert 14.0 < g.average_degree < 26.0
        # heavy tail: max degree well above the mean
        assert g.degrees().max() > 3 * g.average_degree

    def test_power_law_determinism(self):
        a = power_law_graph(500, 10.0, seed=9)
        b = power_law_graph(500, 10.0, seed=9)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_power_law_different_seeds_differ(self):
        a = power_law_graph(500, 10.0, seed=1)
        b = power_law_graph(500, 10.0, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_ring_of_cliques_structure(self):
        g = ring_of_cliques(3, 4)
        assert g.num_nodes == 12
        # node 1 (inside clique 0) sees the rest of its clique
        assert set(int(x) for x in g.neighbors(1)) == {0, 2, 3}
        # node 0 bridges to clique 1's head
        assert 4 in set(int(x) for x in g.neighbors(0))

    def test_generator_input_validation(self):
        with pytest.raises(ValueError):
            uniform_random_graph(0, 4.0)
        with pytest.raises(ValueError):
            power_law_graph(10, 0.5)
        with pytest.raises(ValueError):
            power_law_graph(10, 4.0, exponent=0.9)
        with pytest.raises(ValueError):
            ring_of_cliques(0, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        deg=st.floats(min_value=1.0, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_power_law_always_valid_csr(self, n, deg, seed):
        g = power_law_graph(n, deg, seed=seed)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert g.degrees().min() >= 1
        if g.num_edges:
            assert 0 <= g.indices.min() and g.indices.max() < n


def graph_digest(g):
    """sha256 prefix of the dtype and bytes of indptr, then indices."""
    h = hashlib.sha256()
    for array in (g.indptr, g.indices):
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


class TestPreferentialEndpoints:
    """Stub owners come from the owner array, not a binary search."""

    @settings(max_examples=60, deadline=None)
    @given(
        degrees=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=80
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_owner_array_equals_searchsorted(self, degrees, seed):
        degrees = np.array(degrees, dtype=np.int64)
        indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        num_edges = int(indptr[-1])
        positions = np.random.default_rng(seed).integers(
            0, max(num_edges, 1), size=num_edges, dtype=np.int64
        )
        owners = np.repeat(np.arange(len(degrees)), degrees)[positions]
        searched = np.searchsorted(indptr[1:], positions, side="right")
        np.testing.assert_array_equal(owners, searched)
        assert owners.dtype == searched.dtype

    # sha256 prefixes (dtype and bytes of indptr, then indices) of graphs
    # drawn by the earlier searchsorted form of both generators.
    PINNED = {
        ("power_law", 0): "f14e88bc76eeca3b",
        ("power_law", 1): "3b8bcdae080d4d0a",
        ("power_law", 2): "ef5bec2eac6e96f9",
        ("power_law", 3): "ad3453270773aa2b",
        ("power_law", 4): "8f910ed8bf64fce2",
        ("community", 0): "d90c8e095f12d3dc",
        ("community", 1): "93cb850994e98873",
        ("community", 2): "cf2918c30dc92339",
        ("community", 3): "58e73703723d074e",
        ("community", 4): "6fb058a3095d7a88",
    }

    @pytest.mark.parametrize("family,seed", sorted(PINNED))
    def test_generators_draw_the_same_graphs(self, family, seed):
        make = power_law_graph if family == "power_law" else community_graph
        assert graph_digest(make(3000, 9.0, seed=seed)) == self.PINNED[(family, seed)]

    # The same digests of the five Table III graphs at two scales, drawn
    # when power_law_graph gathered endpoints from an int64 owner array
    # and cast them to int32 afterwards.
    TABLE_III = {
        ("reddit", 256): "da30b8f0ffecf9fe",
        ("reddit", 2048): "cd121e129b9867f5",
        ("amazon", 256): "853991a0d93b0337",
        ("amazon", 2048): "c6c75d165712b9b4",
        ("movielens", 256): "78f9e95957934a6a",
        ("movielens", 2048): "798aee235c8cf2a1",
        ("ogbn", 256): "1ad7cf4b1f83c22f",
        ("ogbn", 2048): "ec7426c706757a41",
        ("ppi", 256): "ff551194c983ecb4",
        ("ppi", 2048): "3d329b34a7bbedeb",
    }

    @pytest.mark.parametrize("name,nodes", sorted(TABLE_III))
    def test_table_iii_graphs_are_unchanged(self, name, nodes):
        g = workload_by_name(name).scaled(nodes).build_graph()
        assert graph_digest(g) == self.TABLE_III[(name, nodes)]
