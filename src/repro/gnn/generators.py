"""Synthetic graph generators.

The paper evaluates on PyG datasets scaled to hundreds of GBs (Table III,
following SmartSage's methodology). Those scaled datasets are not
redistributable, so we synthesize graphs with matching *shape*: node count,
average degree, and a heavy-tailed degree distribution (real large-scale
graphs follow the densification law the paper cites). The simulator's
behaviour depends only on these shape parameters.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "uniform_random_graph",
    "power_law_graph",
    "community_graph",
    "ring_of_cliques",
]


def uniform_random_graph(
    num_nodes: int, avg_degree: float, seed: int = 0
) -> Graph:
    """Erdős–Rényi-style multigraph with the requested average out-degree."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if avg_degree < 0:
        raise ValueError("avg_degree must be non-negative")
    rng = np.random.default_rng(seed)
    degrees = rng.poisson(avg_degree, size=num_nodes).astype(np.int64)
    # Every node keeps at least one neighbor so sampling never dead-ends.
    np.maximum(degrees, 1, out=degrees)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, num_nodes, size=indptr[-1], dtype=np.int32)
    return Graph(indptr, indices)


def power_law_graph(
    num_nodes: int,
    avg_degree: float,
    exponent: float = 2.1,
    max_degree: int | None = None,
    seed: int = 0,
) -> Graph:
    """Heavy-tailed degree graph via a configuration-model construction.

    Out-degrees follow a truncated Pareto with the given ``exponent``,
    rescaled so the mean matches ``avg_degree``. Neighbor endpoints are drawn
    preferentially (probability proportional to degree), which yields the
    hub structure typical of social/e-commerce graphs.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if avg_degree < 1:
        raise ValueError("avg_degree must be >= 1")
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    rng = np.random.default_rng(seed)
    if max_degree is None:
        max_degree = max(int(avg_degree * 50), 16)
    raw = (rng.pareto(exponent - 1.0, size=num_nodes) + 1.0)
    raw = np.minimum(raw, max_degree / max(avg_degree, 1.0))
    degrees = raw * (avg_degree / raw.mean())
    degrees = np.maximum(degrees.astype(np.int64), 1)
    degrees = np.minimum(degrees, max_degree)

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    num_edges = int(indptr[-1])

    # Preferential endpoint selection: sample positions in the stub array,
    # whose owner array (node v repeated degree(v) times) maps each to its
    # node in O(E). The owners are int32 from the start, so the gather
    # writes the endpoints directly, with no int64 copy to cast.
    stub_positions = rng.integers(0, num_edges, size=num_edges, dtype=np.int64)
    endpoints = np.repeat(np.arange(num_nodes, dtype=np.int32), degrees)[
        stub_positions
    ]
    return Graph(indptr, endpoints)


def community_graph(
    num_nodes: int,
    avg_degree: float,
    exponent: float = 2.1,
    communities: int | None = None,
    intra_fraction: float = 0.8,
    max_degree: int | None = None,
    seed: int = 0,
) -> Graph:
    """Heavy-tailed graph with planted community structure.

    Out-degrees follow the same truncated Pareto as
    :func:`power_law_graph`, but nodes are assigned to ``communities``
    near-equal random groups and each edge endpoint lands inside the
    source's own community with probability ``intra_fraction`` (uniform
    over members); the remainder are global preferential stubs. The
    result keeps the hub structure of the power-law family while giving
    partitioners and layout policies real locality to exploit — random
    configuration-model graphs are expanders, where no balanced partition
    can meaningfully beat a hash.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if avg_degree < 1:
        raise ValueError("avg_degree must be >= 1")
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError("intra_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    if communities is None:
        communities = max(2, num_nodes // 64)
    if communities < 1 or communities > num_nodes:
        raise ValueError("communities must be in [1, num_nodes]")
    if max_degree is None:
        max_degree = max(int(avg_degree * 50), 16)
    raw = (rng.pareto(exponent - 1.0, size=num_nodes) + 1.0)
    raw = np.minimum(raw, max_degree / max(avg_degree, 1.0))
    degrees = raw * (avg_degree / raw.mean())
    degrees = np.maximum(degrees.astype(np.int64), 1)
    degrees = np.minimum(degrees, max_degree)

    # Random community membership, near-equal sizes.
    base, rem = divmod(num_nodes, communities)
    sizes = np.full(communities, base, dtype=np.int64)
    sizes[:rem] += 1
    labels = np.repeat(np.arange(communities), sizes)
    member = rng.permutation(num_nodes)  # member[i] = node at slot i
    comm = np.empty(num_nodes, dtype=np.int64)
    comm[member] = labels
    # Members grouped by community so intra-draws are uniform per group.
    order = np.argsort(comm, kind="stable")
    comm_start = np.zeros(communities + 1, dtype=np.int64)
    np.cumsum(np.bincount(comm, minlength=communities), out=comm_start[1:])

    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    num_edges = int(indptr[-1])
    src = np.repeat(np.arange(num_nodes), degrees)
    intra = rng.random(num_edges) < intra_fraction
    # Inter-community endpoints: global preferential stub positions; src
    # is the stub array's owner array.
    stub_positions = rng.integers(0, num_edges, size=num_edges, dtype=np.int64)
    global_ep = src[stub_positions]
    # Intra-community endpoints: uniform over the source's community.
    c = comm[src]
    csize = comm_start[c + 1] - comm_start[c]
    intra_pick = comm_start[c] + (rng.random(num_edges) * csize).astype(np.int64)
    intra_ep = order[intra_pick]
    endpoints = np.where(intra, intra_ep, global_ep).astype(np.int32)
    return Graph(indptr, endpoints)


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Deterministic test graph: cliques joined in a ring.

    Every node's neighborhood is fully known, which makes sampling
    correctness easy to assert in tests.
    """
    if num_cliques < 1 or clique_size < 2:
        raise ValueError("need at least one clique of size >= 2")
    n = num_cliques * clique_size
    lists = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            node = base + i
            nl = [base + j for j in range(clique_size) if j != i]
            if i == 0:  # bridge to the next clique
                nl.append(((c + 1) % num_cliques) * clique_size)
            lists.append(nl)
    assert len(lists) == n
    return Graph.from_neighbor_lists(lists)
