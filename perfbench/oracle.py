"""The benchmark's own arithmetic on a generated catalog.

Everything here is computed from ``Catalog.casts`` with scipy, independently
of castnet: the expected co-appearance graph, Σ C(k,2) over titles, the
two-hop link-prediction candidate count, and networkx reference scores.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

ROW_BLOCK = 2048


def incidence(casts: list, n_persons: int) -> sp.csr_matrix:
    """Title x person 0/1 matrix."""
    lengths = np.array([len(c) for c in casts], dtype=np.int64)
    rows = np.repeat(np.arange(len(casts)), lengths)
    cols = np.concatenate(casts) if len(casts) else np.empty(0, np.int64)
    data = np.ones(len(cols), dtype=np.int64)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(casts), n_persons))


def cograph(casts: list, n_persons: int) -> sp.csr_matrix:
    """Weighted actor co-appearance matrix BᵀB without its diagonal."""
    b = incidence(casts, n_persons)
    w = (b.T @ b).tocsr()
    w.setdiag(0)
    w.eliminate_zeros()
    w.sort_indices()
    return w


def projected_pairs(casts: list) -> int:
    """Σ C(k,2) over titles: the (u, v, title) triples the projection visits."""
    k = np.array([len(c) for c in casts], dtype=np.int64)
    return int((k * (k - 1) // 2).sum())


def two_hop_candidates(adj: sp.csr_matrix) -> int:
    """Unordered non-adjacent pairs with at least one common neighbor."""
    a = (adj > 0).astype(np.int32).tocsr()
    total = 0
    for lo in range(0, a.shape[0], ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, a.shape[0])
        reach = (a[lo:hi] @ a).tocoo()
        keep = reach.col > reach.row + lo
        rows, cols = reach.row[keep] + lo, reach.col[keep]
        if len(rows):
            adjacent = np.asarray(a[rows, cols]).ravel() > 0
            total += int((~adjacent).sum())
    return total


def traversed_edges(adj: sp.csr_matrix) -> int:
    """Σ over sources of the directed edges in the source's component.

    One all-source BFS or Brandes sweep visits this many adjacency entries.
    """
    _, comp = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(comp)
    entries = np.bincount(comp, weights=np.diff(adj.indptr))
    return int((sizes * entries).sum())


def distance(adj: sp.csr_matrix, u: int, v: int) -> int:
    """Hop count from ``u`` to ``v``, -1 when unreachable."""
    d = csgraph.shortest_path(adj, unweighted=True, directed=False, indices=[u])[0, v]
    return -1 if np.isinf(d) else int(d)


def networkx_reference(adj: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Betweenness and closeness under castnet's normalizations, by networkx.

    castnet divides ordered-pair betweenness by (n-1)(n-2), which is networkx's
    normalized value, and scales closeness by component (networkx's
    Wasserman-Faust form).
    """
    import networkx as nx

    g = nx.from_scipy_sparse_array((adj > 0).astype(np.int8))
    n = adj.shape[0]
    bc = nx.betweenness_centrality(g, normalized=True)
    cc = nx.closeness_centrality(g, wf_improved=True)
    return (
        np.array([bc[i] for i in range(n)]),
        np.array([cc[i] for i in range(n)]),
    )
