"""Breadth-first search over the CSR adjacency, as numpy array code.

All-source traversals advance a block of sources together, one BFS level
per step. ``reach_counts`` (closeness) keeps one bit per source: a block of
up to 64 sources is one ``uint64`` word per node, and a level is a gather of
the frontier words over the CSR plus an OR-reduction per row. This is the
multi-source BFS of Then et al., "The More the Merrier: Efficient
Multi-Source Graph Traversal" (PVLDB 2014). The thread pool's module is
imported only when a traversal asks for a second thread and its blocks are
heavy enough to use one.
"""

from __future__ import annotations

import time
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

# Each kernel's break-even first-block wall time, in seconds, for starting a
# thread pool: a traversal whose first block is faster runs the rest on the
# calling thread too. On a 2-vCPU VM, closeness blocks of 0.2-0.5 ms ran
# 1.1-2x slower at two threads and blocks of 1.5 ms and more ran 1.3-1.9x
# faster. Brandes blocks of 2.4-5.6 ms ran at 0.95-1.06x, of 6 ms at
# 1.04-1.70x and of 10 ms and more at 1.6-2.2x.
CLOSENESS_POOL_MIN_S = 0.001
BRANDES_POOL_MIN_S = 0.006

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
    pool_min_s: float,
) -> Iterator[T]:
    """``fn(operand, block)`` for consecutive blocks of ``BLOCK`` sources,
    yielded in block order.

    The first block runs on the calling thread. The others go to a pool of
    up to ``threads`` threads only if it took at least ``pool_min_s`` seconds,
    the kernel's break-even block time.
    The partition never depends on ``threads``, and callers reduce the
    results in the order they arrive, so output is the same for every
    thread count. Array gathers, reductions and sparse products release
    the interpreter lock, so threads overlap real work.
    """
    blocks = [sources[lo : lo + BLOCK] for lo in range(0, len(sources), BLOCK)]
    if not blocks:
        return
    start = time.perf_counter()
    first = fn(operand, blocks[0])
    light = time.perf_counter() - start < pool_min_s
    yield first
    workers = min(threads, len(blocks) - 1)
    if light or workers <= 1:
        for block in blocks[1:]:
            yield fn(operand, block)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(partial(fn, operand), blocks[1:])


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``rows``, in row then CSR order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    first = np.cumsum(lengths) - lengths  # where each row's run begins in the output
    offsets = np.repeat(starts - first, lengths) + np.arange(int(lengths.sum()))
    return indices[offsets]
