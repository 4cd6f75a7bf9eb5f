"""Node feature tables.

Two implementations share one interface: ``gather(nodes)`` returns a
block of rows and ``vector(node)`` is ``gather([node])[0]``.

* :class:`DenseFeatureTable` — a materialized ``float16`` numpy array, used
  for functional GNN computation at test scale.
* :class:`ProceduralFeatureTable` — computes every element from the node id
  and its position with a counter-based hash, so multi-hundred-GB feature
  tables (Table III scale) can be "stored" without materializing them. A
  node's row has the same bytes whether it is read alone or inside any
  block, in any order, which is all DirectGraph round-trip tests need.
"""

from __future__ import annotations

import numpy as np

from ..rng import SPLITMIX64_GAMMA, counter_draw, splitmix64_array

__all__ = [
    "FeatureTable",
    "DenseFeatureTable",
    "ProceduralFeatureTable",
    "GATHER_BLOCK",
]

#: Elements :meth:`ProceduralFeatureTable.gather` computes per step; its
#: uint64 temporaries (8 bytes an element) stay this size however many
#: rows a caller asks for.
GATHER_BLOCK = 1 << 15

# A draw's top 11 bits k index the value (k - 1024) / 1024, exact in float16.
_TOP_BITS = np.array(64 - 11, dtype=np.uint64)
_HALVES = ((np.arange(2048) - 1024) / 1024).astype(np.float16)


class FeatureTable:
    """Interface: per-node fixed-dimension FP16 feature vectors."""

    num_nodes: int
    dim: int
    dtype = np.float16

    @property
    def bytes_per_vector(self) -> int:
        return self.dim * np.dtype(self.dtype).itemsize

    def gather(self, nodes) -> np.ndarray:
        """The ``(len(nodes), dim)`` rows of ``nodes``, in the order given."""
        raise NotImplementedError

    def vector(self, node: int) -> np.ndarray:
        """One node's row: ``gather([node])[0]``."""
        return self.gather([node])[0]

    def _node_ids(self, nodes) -> np.ndarray:
        """``nodes`` as int64; IndexError for an id outside [0, num_nodes)."""
        ids = np.asarray(nodes, dtype=np.int64)
        # Viewed as uint64 a negative id lands past num_nodes: one max().
        if len(ids) and ids.view(np.uint64).max() >= self.num_nodes:
            bad = ids[(ids < 0) | (ids >= self.num_nodes)][0]
            raise IndexError(f"node {bad} out of range [0, {self.num_nodes})")
        return ids


class DenseFeatureTable(FeatureTable):
    """Materialized feature matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float16)
        if matrix.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        self._matrix = matrix
        self.num_nodes, self.dim = matrix.shape

    @classmethod
    def random(cls, num_nodes: int, dim: int, seed: int = 0) -> "DenseFeatureTable":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((num_nodes, dim)).astype(np.float16))

    def gather(self, nodes) -> np.ndarray:
        return self._matrix[self._node_ids(nodes)]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix


class ProceduralFeatureTable(FeatureTable):
    """Deterministic on-demand features: ``vector(v)`` is a pure function.

    The table is one SplitMix64 stream (:mod:`repro.rng`) seeded with
    ``splitmix64(seed)``: element ``j`` of node ``v`` is its draw number
    ``v * dim + j``, one ``splitmix64`` mix of
    ``splitmix64(seed) + (v * dim + j) * GAMMA`` (mod 2**64), so any
    element costs O(1). The draw's top 11 bits ``k`` give the value
    ``(k - 1024) / 1024`` in [-1, 1), which float16 holds exactly, so
    the bytes depend on no float rounding and no NumPy release (NumPy's
    ``Generator`` streams carry no such promise). :meth:`gather` computes
    rows :data:`GATHER_BLOCK` elements at a time, so a table of any size
    and a request of any length cost bounded memory.
    """

    def __init__(self, num_nodes: int, dim: int, seed: int = 0) -> None:
        if num_nodes <= 0 or dim <= 0:
            raise ValueError("num_nodes and dim must be positive")
        self.num_nodes = num_nodes
        self.dim = dim
        self.seed = seed
        # The stream position of (v, j) is v * _row_stride + _offsets[j].
        self._row_stride = np.array(
            dim * SPLITMIX64_GAMMA % (1 << 64), dtype=np.uint64
        )
        self._offsets = np.arange(dim, dtype=np.uint64) * np.uint64(
            SPLITMIX64_GAMMA
        ) + np.uint64(counter_draw(seed))

    def gather(self, nodes) -> np.ndarray:
        ids = self._node_ids(nodes).view(np.uint64)
        out = np.empty((len(ids), self.dim), dtype=np.float16)
        rows = max(1, GATHER_BLOCK // self.dim)
        for lo in range(0, len(ids), rows):
            draws = splitmix64_array(
                ids[lo : lo + rows, None] * self._row_stride + self._offsets
            )
            draws >>= _TOP_BITS
            out[lo : lo + rows] = _HALVES[draws.view(np.int64)]
        return out
