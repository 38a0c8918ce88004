"""Breadth-first search over the CSR adjacency, as numpy array code.

All-source traversals advance a block of sources together, one BFS level
per step. ``reach_counts`` (closeness) keeps one bit per source: a block of
up to 64 sources is one ``uint64`` word per node, and a level is a gather of
the frontier words over the CSR plus an OR-reduction per row. This is the
multi-source BFS of Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal" (PVLDB 2014). The thread pool's module is
imported only when a traversal asks for a second thread and its graph is
large enough to use one. That choice is a function of the graph's size, so a
command decides it the same way on every run.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, TypeVar

import numpy as np

# Sources per block, for every all-source traversal. Fixed, never derived
# from the thread count, so per-block float partials are always summed in
# the same order. A Brandes block holds a few n x BLOCK float64 arrays (7 MB
# each at 14k nodes); larger blocks measured no faster, since the sparse
# products dominate and their cost is linear in the block width. A
# ``reach_counts`` block is one bit per source in a word per node.
BLOCK = 64

# The word of ``reach_counts``: little-endian, so its bytes read in
# ``np.unpackbits(..., bitorder="little")`` order put bit j at column j.
_WORD = np.dtype("<u8")

# Graphs of at most this many nodes give Brandes a dense float64 adjacency,
# larger ones a scipy CSR matrix. The choice reads ``n`` alone, so a graph
# always takes the same path and gets the same bits. On a 2-vCPU VM with one
# BLAS thread, Brandes over all sources took 31-42 ms dense against 16-24 ms
# CSR at 360-384 actors, 97 against 34-57 ms at 541-543 and 269-289 against
# 65-108 ms at 693-743; ``import scipy.sparse`` adds 0.15-0.28 s of CPU per
# process to the CSR path, so dense breaks even near 700 actors.
DENSE_MAX_NODES = 640

# The least work per BFS level, in matrix entries a block's gather or product
# reads, at which a kernel's blocks go to a thread pool; a lighter traversal
# runs every block on the calling thread. Measured on the same VM as the
# wall-time ratio of two threads to one over all blocks:
# - closeness reads ``nnz + n`` entries: 0.3-0.8x at 7-14k, 1.1-1.3x (and
#   +45 % CPU) at 47k, 1.2-1.4x at 70-93k, 1.6x at 124k;
# - CSR Brandes reads ``nnz + n``: 0.5x at 2k, 1.0-1.1x at 3-5k, 1.2-2.0x at
#   6-7k, 1.3-2.0x at 10-14k and more (a first block of about 6 ms);
# - dense Brandes reads ``n * n``, each product one dgemm that releases the
#   interpreter lock for its whole length: 0.7x at 127 actors, 0.8x at 201,
#   1.5-1.8x at 275-384.
CLOSENESS_POOL_MIN_ENTRIES = 65_536
BRANDES_POOL_MIN_ENTRIES = 10_000
DENSE_BRANDES_POOL_MIN_ENTRIES = 256 * 256

T = TypeVar("T")


def reach_counts(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """``counts[d, j]``: number of nodes at distance d >= 1 from ``sources[j]``
    (row 0 is all zero), as exact int64, for at most ``BLOCK`` distinct
    sources of the CSR graph ``indptr``, ``indices``.

    Bit j of ``seen[v]`` says ``sources[j]`` has reached v. A node is
    reached at the next level from every source that reached one of its
    neighbours at this one, so a level ORs the frontier words of each row's
    neighbours; the bits not seen before are that level's new nodes.
    """
    if len(sources) > BLOCK:
        raise ValueError(f"at most {BLOCK} sources per call")
    n = len(indptr) - 1
    indices = indices.astype(np.intp, copy=False)  # int32 indices are recast on every gather
    frontier = np.zeros(n, _WORD)
    frontier[sources] = np.left_shift(1, np.arange(len(sources), dtype=_WORD))
    seen = frontier.copy()
    reach = np.zeros(n, _WORD)  # rows without neighbours stay 0
    nonempty = np.flatnonzero(np.diff(indptr))
    starts = indptr[nonempty]
    counts = [np.zeros(len(sources), np.int64)]
    while len(starts):
        reach[nonempty] = np.bitwise_or.reduceat(frontier[indices], starts)
        new = reach & ~seen
        hit = new[new != 0]
        if not len(hit):
            break
        seen |= new
        octets = hit.astype(_WORD, copy=False).view(np.uint8)
        bits = np.unpackbits(octets, bitorder="little").reshape(len(hit), 64)
        counts.append(bits.sum(axis=0, dtype=np.int64)[: len(sources)])
        frontier = new
    return np.stack(counts)


def map_blocks(
    fn: Callable[[object, np.ndarray], T],
    operand: object,
    sources: np.ndarray,
    threads: int,
) -> Iterator[T]:
    """``fn(operand, block)`` for consecutive blocks of ``BLOCK`` sources,
    yielded in block order, on a pool of up to ``threads`` threads when
    there are two blocks or more for it and on the calling thread otherwise.

    Callers pass 1 for a traversal too light to gain from a pool. The
    partition never depends on ``threads``, and callers reduce the results
    in the order they arrive, so output is the same for every thread count.
    Array gathers, reductions and matrix products release the interpreter
    lock, so threads overlap real work.
    """
    blocks = [sources[lo : lo + BLOCK] for lo in range(0, len(sources), BLOCK)]
    run = partial(fn, operand)
    workers = min(threads, len(blocks))
    if workers <= 1:
        yield from map(run, blocks)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, blocks)


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``rows``, in row then CSR order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths  # where each row's run begins in the output
    offsets = np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))
    return indices[offsets]
