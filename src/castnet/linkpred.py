"""Link-prediction indices over non-adjacent actor pairs.

All five indices are set/count based on binary adjacency. Scores are raw
index values, explicitly not probabilities; only the Jaccard coefficient is
bounded to [0, 1]. :func:`predict_top` is the one scorer: it scores the
candidate pairs of a block of rows together, with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from . import _bfs
from ._options import Method
from .errors import CandidateExplosionError
from .graph import CoGraph, name_ranks, top_pairs

# Two-hop entries (u, w, v) expanded per row block, counted before the v > u
# filter: a row's work is the sum of its neighbors' degrees. A block holds a
# few int64 arrays of this length, a few MB. Fixed, so blocks never depend on
# the thread count or any option.
BLOCK_WORK = 1 << 18


@dataclass(frozen=True)
class PairScore:
    """Scored candidate pair, canonically ordered u < v by name."""

    u: str
    v: str
    score: float


def predict_top(
    g: CoGraph,
    method: Method | str,
    k: int,
    min_common: int = 1,
    *,
    cap: int | None = None,
) -> list[PairScore]:
    """Top-k non-adjacent pairs by the chosen index, a ``Method`` or its
    value; any other value raises ValueError.

    Candidates are non-adjacent pairs with at least ``min_common`` common
    neighbors, enumerated over 2-hop neighborhoods rather than all pairs.
    ``min_common=0`` enumerates every non-adjacent pair, and is accepted
    only for preferential attachment, the one index that does not vanish
    without common neighbors. ``cap`` defaults to None, no limit; given a number,
    CandidateExplosionError is raised once more candidates than that are
    found. Ties break lexicographically on the name pair.

    Rows are taken in blocks of about ``BLOCK_WORK`` two-hop entries, and each
    block's candidates are merged into the running top k, so memory does not
    grow with the candidate count.
    """
    method = Method(method)
    if k < 1:
        raise ValueError("k must be >= 1")
    degrees = g.degrees()
    if min_common < 1:
        if method is not Method.PREFERENTIAL_ATTACHMENT:
            raise ValueError("min_common=0 requires the preferential_attachment method")
        total = g.n * (g.n - 1) // 2 - g.edge_count
        if cap is not None and total > cap:
            raise CandidateExplosionError(total, cap)
        block_pairs = _all_pairs
        work = np.arange(g.n - 1, -1, -1)  # every column after the row
    else:
        block_pairs = partial(_two_hop_pairs, method=method, min_common=min_common)
        reach = np.concatenate(([0], np.cumsum(degrees[g.indices])))
        work = reach[g.indptr[1:]] - reach[g.indptr[:-1]]  # sum of the neighbors' degrees

    rank, names = name_ranks(g.labels)
    score = np.zeros(0)
    a = b = np.zeros(0, np.int64)
    found = 0
    for lo, hi in _row_blocks(work):
        u, v, block_score = block_pairs(g, degrees, lo, hi)
        found += len(u)
        if cap is not None and found > cap:
            raise CandidateExplosionError(found, cap)
        score = np.concatenate((score, block_score))
        a = np.concatenate((a, np.minimum(rank[u], rank[v])))
        b = np.concatenate((b, np.maximum(rank[u], rank[v])))
        keep = top_pairs(score, a, b, k)
        score, a, b = score[keep], a[keep], b[keep]
    return [
        PairScore(names[x], names[y], s)
        for x, y, s in zip(a.tolist(), b.tolist(), score.tolist())
    ]


def _row_blocks(work: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[lo, hi)`` of at most ``BLOCK_WORK`` total work,
    or one row where that row alone exceeds it."""
    bounds = np.concatenate(([0], np.cumsum(work)))
    lo, n = 0, len(work)
    while lo < n:
        hi = int(np.searchsorted(bounds, bounds[lo] + BLOCK_WORK, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _non_adjacent(g: CoGraph, lo: int, hi: int, keys: np.ndarray) -> np.ndarray:
    """Mask of the sorted pair keys ``u * n + v`` (u in ``[lo, hi)``) that are
    not edges."""
    span = slice(g.indptr[lo], g.indptr[hi])
    edges = g.rows[span] * g.n + g.indices[span]  # sorted, as ``keys`` is
    edges = np.append(edges, g.n * g.n)  # above every key, so each key has a slot
    return edges[np.searchsorted(edges, keys)] != keys


def _two_hop_pairs(
    g: CoGraph, degrees: np.ndarray, lo: int, hi: int, *, method: Method, min_common: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, score)`` of the qualifying pairs u < v with u in ``[lo, hi)``.

    Every path u - w - v is expanded, in u, then w, then v order. ``np.unique``
    on ``u * n + v`` counts the common neighbors; RA and AA sum each pair's
    terms with ``bincount``, which adds them in array order, so in
    increasing w.
    """
    n = g.n
    span = slice(g.indptr[lo], g.indptr[hi])
    u, mid = g.rows[span], g.indices[span]
    v = _bfs.gather_neighbors(g.indptr, g.indices, mid)
    u, mid = np.repeat(u, degrees[mid]), np.repeat(mid, degrees[mid])
    after = v > u
    u, mid, v = u[after], mid[after], v[after]
    keys, inverse, common = np.unique(u * n + v, return_inverse=True, return_counts=True)
    ok = (common >= min_common) & _non_adjacent(g, lo, hi, keys)
    pu, pv = np.divmod(keys[ok], n)
    common = common[ok]
    if method is Method.COMMON_NEIGHBORS:
        score = common.astype(np.float64)
    elif method is Method.JACCARD:
        score = common / (degrees[pu] + degrees[pv] - common)
    elif method is Method.PREFERENTIAL_ATTACHMENT:
        score = degrees[pu].astype(np.float64) * degrees[pv]
    else:
        # a common neighbor has both ends as neighbors, so its degree is >= 2
        d = degrees[mid]
        term = 1.0 / d if method is Method.RESOURCE_ALLOCATION else 1.0 / np.log(d)
        score = np.bincount(inverse, weights=term, minlength=len(keys))[ok]
    return pu, pv, score


def _all_pairs(
    g: CoGraph, degrees: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, preferential attachment)`` of every non-adjacent pair u < v
    with u in ``[lo, hi)``."""
    rows = np.arange(lo, hi)
    count = g.n - 1 - rows
    u = np.repeat(rows, count)
    v = np.arange(len(u)) - np.repeat(np.cumsum(count) - count - rows - 1, count)
    keep = _non_adjacent(g, lo, hi, u * g.n + v)
    u, v = u[keep], v[keep]
    return u, v, degrees[u].astype(np.float64) * degrees[v]
