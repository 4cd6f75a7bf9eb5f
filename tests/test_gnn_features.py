"""Tests for dense and procedural feature tables."""

import numpy as np
import pytest

from repro.gnn import DenseFeatureTable, ProceduralFeatureTable
from repro.gnn.features import GATHER_BLOCK
from repro.rng import SPLITMIX64_GAMMA, counter_draw, splitmix64

TABLE_III_NODES = 370_500_000


def scalar_vector(seed, node, dim):
    """The documented draw, in Python integers: no NumPy in the loop."""
    start = counter_draw(seed)
    values = []
    for j in range(dim):
        draw = splitmix64((start + (node * dim + j) * SPLITMIX64_GAMMA) % 2**64)
        values.append(((draw >> 53) - 1024) / 1024)
    return np.array(values, dtype=np.float16)


def bits(array):
    return array.view(np.uint16)


class TestDenseFeatureTable:
    def test_shape_and_dtype(self):
        table = DenseFeatureTable.random(10, 6, seed=0)
        assert table.num_nodes == 10
        assert table.dim == 6
        vec = table.vector(3)
        assert vec.shape == (6,)
        assert vec.dtype == np.float16

    def test_bytes_per_vector(self):
        table = DenseFeatureTable.random(4, 128, seed=0)
        assert table.bytes_per_vector == 256

    def test_gather(self):
        table = DenseFeatureTable.random(10, 4, seed=0)
        out = table.gather([1, 1, 2])
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], out[1])

    def test_gather_empty(self):
        table = DenseFeatureTable.random(10, 4, seed=0)
        assert table.gather([]).shape == (0, 4)

    def test_bounds(self):
        table = DenseFeatureTable.random(5, 2, seed=0)
        with pytest.raises(IndexError):
            table.vector(5)
        with pytest.raises(IndexError):
            table.vector(-1)
        for bad in (-1, 5):
            with pytest.raises(IndexError):
                table.gather([0, bad])

    def test_gather_is_matrix_rows(self):
        table = DenseFeatureTable.random(50, 7, seed=3)
        nodes = [49, 0, 7, 7, 21, 0]
        out = table.gather(nodes)
        assert out.dtype == np.float16
        assert np.array_equal(bits(out), bits(table.matrix[nodes]))
        assert np.array_equal(bits(table.vector(21)), bits(table.matrix[21]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DenseFeatureTable(np.zeros(5, dtype=np.float16))


class TestProceduralFeatureTable:
    def test_deterministic_per_node(self):
        table = ProceduralFeatureTable(1000, 16, seed=7)
        assert np.array_equal(table.vector(42), table.vector(42))

    def test_distinct_nodes_differ(self):
        table = ProceduralFeatureTable(1000, 16, seed=7)
        assert not np.array_equal(table.vector(1), table.vector(2))

    def test_seed_changes_features(self):
        a = ProceduralFeatureTable(10, 8, seed=1)
        b = ProceduralFeatureTable(10, 8, seed=2)
        assert not np.array_equal(a.vector(0), b.vector(0))

    def test_huge_table_costs_no_memory(self):
        # Table III scale: hundreds of millions of nodes
        table = ProceduralFeatureTable(370_500_000, 200, seed=0)
        vec = table.vector(370_500_000 - 1)
        assert vec.shape == (200,)

    def test_bounds(self):
        table = ProceduralFeatureTable(5, 2, seed=0)
        with pytest.raises(IndexError):
            table.vector(5)
        with pytest.raises(IndexError):
            table.vector(-1)
        for bad in (-1, 5):
            with pytest.raises(IndexError, match=f"node {bad} out of range"):
                table.gather([0, 4, bad, 1])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProceduralFeatureTable(0, 4)
        with pytest.raises(ValueError):
            ProceduralFeatureTable(4, 0)


class TestProceduralBatchForm:
    """``gather`` rows equal ``vector`` row by row, in float16 bits."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 602])
    def test_gather_rows_equal_vector(self, dim):
        table = ProceduralFeatureTable(5_000, dim, seed=11)
        rows = max(1, GATHER_BLOCK // dim)
        rng = np.random.default_rng(dim)
        # unsorted, with repeats, crossing the block size twice
        nodes = rng.integers(0, 5_000, size=2 * rows + 3)
        out = table.gather(nodes)
        assert out.shape == (len(nodes), dim) and out.dtype == np.float16
        unique, where = np.unique(nodes, return_inverse=True)
        expected = np.stack([table.vector(int(v)) for v in unique])
        assert np.array_equal(bits(out), bits(expected[where]))

    def test_ids_near_table_iii_scale(self):
        table = ProceduralFeatureTable(TABLE_III_NODES, 602, seed=0)
        nodes = [TABLE_III_NODES - 1, 370_000_000, TABLE_III_NODES - 1, 5]
        out = table.gather(nodes)
        for row, node in zip(out, nodes):
            assert np.array_equal(bits(row), bits(table.vector(node)))
            assert np.array_equal(bits(row), bits(scalar_vector(0, node, 602)))

    @pytest.mark.parametrize("dim", [1, 16, 200])
    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_vector_is_the_documented_draw(self, dim, seed):
        table = ProceduralFeatureTable(1_000, dim, seed=seed)
        for node in (0, 1, 999):
            assert np.array_equal(
                bits(table.vector(node)), bits(scalar_vector(seed, node, dim))
            )

    def test_values_are_finite_in_unit_interval(self):
        table = ProceduralFeatureTable(3_000, 40, seed=5)
        out = table.gather(np.arange(3_000)).astype(np.float64)
        assert np.isfinite(out).all()
        assert out.min() >= -1.0 and out.max() < 1.0
        # every 11-bit value is reachable, so both ends show up
        assert out.min() == -1.0 and out.max() == 1023 / 1024

    def test_empty_gather(self):
        table = ProceduralFeatureTable(10, 4, seed=0)
        out = table.gather([])
        assert out.shape == (0, 4) and out.dtype == np.float16
