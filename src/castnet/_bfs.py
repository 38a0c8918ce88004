"""Breadth-first search over the CSR adjacency, as array code.

All-source traversals advance a block of sources together: the n x B
frontier matrix is multiplied by the binary adjacency, so one sparse-times-
dense product per BFS level replaces B queue-based searches. This is the
level-synchronous form of BFS and Brandes given by Kepner & Gilbert, *Graph
Algorithms in the Language of Linear Algebra* (2011).

scipy is imported inside the functions that need it, never at module level:
``import scipy.sparse`` costs about 0.2 s of CPU and 19 MB per process (on a
2-vCPU Xeon VM), which commands that never traverse all sources should not
pay.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Iterator, TypeVar

import numpy as np

from .graph import CoGraph

# Sources per block, for every all-source traversal. Fixed, never derived
# from the thread count, so per-block float partials are always summed in
# the same order. Each block holds a few n x BLOCK float64 arrays (7 MB each
# at 14k nodes); larger blocks measured no faster, since the sparse
# products dominate and their cost is linear in the block width.
BLOCK = 64

T = TypeVar("T")


def adjacency(g: CoGraph):
    """Binary float64 adjacency of ``g`` as a ``scipy.sparse.csr_matrix``."""
    from scipy.sparse import csr_matrix

    data = np.ones(len(g.indices), np.float64)
    return csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def levels(adj, sources: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Breadth-first levels from a block of sources, one column per source.

    Yields ``(level, new, sigma)`` for level = 1, 2, ...: ``new[v, j]`` marks
    the nodes first reached at that level from ``sources[j]``, and ``sigma``
    holds their shortest-path counts (zero elsewhere). The counts are the
    frontier values at first discovery: summing the predecessors' counts is
    exactly what the product with the adjacency does.
    """
    n = adj.shape[0]
    cols = np.arange(len(sources))
    frontier = np.zeros((n, len(sources)), np.float64)
    frontier[sources, cols] = 1.0
    seen = frontier != 0.0
    level = 0
    while True:
        reach = adj @ frontier
        new = reach != 0.0
        new &= ~seen
        if not new.any():
            return
        seen |= new
        level += 1
        np.copyto(reach, 0.0, where=~new)  # in place: one fewer n x B array
        frontier = reach
        yield level, new, frontier


def reach_counts(adj, sources: np.ndarray) -> np.ndarray:
    """``counts[d, j]``: number of nodes at distance d >= 1 from ``sources[j]``
    (row 0 is all zero), as exact int64."""
    rows = [np.zeros(len(sources), np.int64)]
    for _, new, _ in levels(adj, sources):
        rows.append(np.count_nonzero(new, axis=0).astype(np.int64))
    return np.stack(rows)


def map_blocks(
    g: CoGraph, fn: Callable[[object, np.ndarray], T], sources: np.ndarray, threads: int
) -> Iterator[T]:
    """``fn(adjacency(g), block)`` for consecutive blocks of ``BLOCK`` sources,
    yielded in block order.

    The partition never depends on ``threads``, and callers reduce the
    results in the order they arrive, so output is the same for every
    thread count. The sparse products and array operations release the
    interpreter lock, so threads overlap real work.
    """
    adj = adjacency(g)
    blocks = [sources[lo : lo + BLOCK] for lo in range(0, len(sources), BLOCK)]
    workers = min(threads, len(blocks))
    if workers <= 1:
        for block in blocks:
            yield fn(adj, block)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(partial(fn, adj), blocks)


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``rows``, in row then CSR order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths  # where each row's run begins in the output
    offsets = np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))
    return indices[offsets]
