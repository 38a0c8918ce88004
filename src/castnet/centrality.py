"""The four actor-influence measures on the co-appearance graph.

All measures use binary adjacency (co-appearance counts do not boost
influence scores). Betweenness counts ordered pairs and divides by
(g-1)(g-2); closeness is component-scaled so disconnected graphs get finite
scores that reduce to (g-1)/sum(d) on connected ones; eigenvector scores come
from power iteration run to a tolerance, with the dominant-eigenvalue
estimate recorded in ``params``.

Betweenness is Brandes' algorithm in the level-synchronous form of Kepner &
Gilbert (*Graph Algorithms in the Language of Linear Algebra*, 2011): one
product of the adjacency with an n x B frontier per level serves a block of
B sources. The adjacency is a dense array on graphs of at most
``_bfs.DENSE_MAX_NODES`` nodes and a scipy CSR matrix above, so betweenness
on a larger graph is the only computation that loads scipy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _bfs
from ._write import write_csv, write_json
from .errors import EmptyGraphError, TooFewNodesError
from .graph import CoGraph, name_ranks


@dataclass
class Scores:
    """Per-node scores, finite and non-negative, ranked for output, plus the
    solver settings that produced them."""

    scores: np.ndarray  # float64, dense by node index
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise ValueError("scores must be finite and non-negative")

    def ranked(self, labels: Sequence[str]) -> list[tuple[str, float]]:
        """(name, score) sorted by descending score, ties by ascending name."""
        rank, _ = name_ranks(labels)
        order = np.lexsort((rank, -self.scores)).tolist()
        return [(labels[i], float(self.scores[i])) for i in order]


def degree_centrality(g: CoGraph) -> Scores:
    """Connection count scaled by the g-1 possible partners."""
    if g.n < 2:
        raise TooFewNodesError("degree centrality needs at least 2 nodes")
    scores = g.degrees().astype(np.float64) / (g.n - 1)
    return Scores(scores)


def betweenness_centrality(g: CoGraph, threads: int = 1) -> Scores:
    """Normalized count of shortest paths between other pairs through a node.

    Pairs in different components contribute nothing; the raw ordered-pair
    sum is divided by (g-1)(g-2).
    """
    if g.n < 3:
        raise TooFewNodesError("betweenness centrality needs at least 3 nodes")
    if g.n <= _bfs.DENSE_MAX_NODES:
        adj = np.zeros((g.n, g.n))
        adj[g.rows, g.indices] = 1.0
        adj.flags.writeable = False
        entries, pool_min = g.n * g.n, _bfs.DENSE_BRANDES_POOL_MIN_ENTRIES
    else:
        # Imported here: scipy.sparse costs 0.15-0.28 s of CPU per process.
        from scipy.sparse import csr_matrix

        adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n))
        entries, pool_min = g.n + len(g.indices), _bfs.BRANDES_POOL_MIN_ENTRIES
    raw = np.zeros(g.n, np.float64)
    workers = threads if entries >= pool_min else 1
    for part in _bfs.map_blocks(_brandes_block, adj, np.arange(g.n), workers):
        raw += part
    scores = raw / float((g.n - 1) * (g.n - 2))
    return Scores(scores, {"algorithm": "brandes", "pairs": "ordered"})


def _brandes_block(adj, sources: np.ndarray) -> np.ndarray:
    """Summed dependencies of every node on the given sources, one column per
    source, over ``adj``, the binary adjacency as a dense array or a scipy
    sparse matrix. A level multiplies the frontier, the path counts of the nodes
    first reached at the last level, by the adjacency; a node is reached
    once its count ``sigma`` is nonzero, since path counts are positive."""
    n = adj.shape[0]
    sigma = np.zeros((n, len(sources)), np.float64)
    sigma[sources, np.arange(len(sources))] = 1.0
    dist = np.zeros(sigma.shape, np.int32)
    frontier = sigma
    depth = 0
    while True:
        reach = adj @ frontier
        new = reach != 0.0
        new &= sigma == 0.0
        if not new.any():
            break
        depth += 1
        np.copyto(reach, 0.0, where=~new)  # in place: one fewer n x B array
        sigma += reach
        dist[new] = depth
        frontier = reach
    # dist stays 0 at the sources and at unreached nodes. Dependencies flow
    # from level d to its predecessors at level d-1 and are never pushed to
    # level 0, so neither ever gets a dependency.
    delta = np.zeros(sigma.shape, np.float64)
    for d in range(depth, 1, -1):
        with np.errstate(divide="ignore"):  # sigma is 0 where unreached
            coeff = np.where(dist == d, (1.0 + delta) / sigma, 0.0)
        delta += np.where(dist == d - 1, sigma * (adj @ coeff), 0.0)
    return delta.sum(axis=1)


def closeness_centrality(g: CoGraph, threads: int = 1) -> Scores:
    """Inverse average BFS distance to reachable nodes, component-scaled.

    score(s) = (r / (g-1)) * (r / S) with r the nodes reachable from s and
    S the sum of their distances; 0 when nothing is reachable.
    """
    if g.n < 2:
        raise TooFewNodesError("closeness centrality needs at least 2 nodes")
    heavy = g.n + len(g.indices) >= _bfs.CLOSENESS_POOL_MIN_ENTRIES
    blocks = _bfs.map_blocks(_closeness_block, g, np.arange(g.n), threads if heavy else 1)
    scores = np.concatenate(list(blocks))
    return Scores(scores, {"scaling": "component"})


def _closeness_block(g: CoGraph, sources: np.ndarray) -> np.ndarray:
    counts = _bfs.reach_counts(g.indptr, g.indices, sources)
    reached = counts.sum(axis=0)
    total = np.arange(len(counts)) @ counts
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (reached / (g.n - 1.0)) * (reached / total)
    return np.where(reached > 0, scores, 0.0)


def eigenvector_centrality(
    g: CoGraph, tol: float = 1e-10, max_iter: int = 1000
) -> Scores:
    """Dominant-eigenvector scores on the binary adjacency.

    Power iteration from the uniform positive vector, L2-normalized each
    step. Iterating A+I instead of bare A keeps the same eigenvectors while
    guaranteeing convergence on bipartite-like graphs whose extreme
    eigenvalues tie in magnitude. Stops when successive iterates are within
    ``tol`` in L2; if ``max_iter`` is hit the last iterate is returned with
    ``params["converged"] = False``.
    """
    if g.n < 2:
        raise TooFewNodesError("eigenvector centrality needs at least 2 nodes")
    if g.edge_count == 0:
        raise EmptyGraphError("eigenvector centrality needs at least one edge")
    cols = g.indices.astype(np.intp, copy=False)  # int32 indices are recast on every gather

    def shifted(x: np.ndarray) -> np.ndarray:
        """(A + I) x on the binary adjacency."""
        return x + np.bincount(g.rows, weights=x[cols], minlength=g.n)

    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = shifted(x)
        y /= _l2(y)
        converged = _l2(y - x) < tol
        x = y
        if converged:
            break
    # Rayleigh quotient of the unshifted adjacency at the final iterate.
    lam = float(np.sum(x * shifted(x))) - 1.0
    return Scores(
        x,
        {
            "tol": tol,
            "max_iter": max_iter,
            "iterations": iterations,
            "converged": converged,
            "lambda": lam,
        },
    )


def _l2(x: np.ndarray) -> float:
    """L2 norm by numpy's pairwise sum. BLAS (``np.linalg.norm``, ``@``) splits
    long dot products across its threads, which changes the last bits with
    the machine's thread count."""
    return float(np.sqrt(np.sum(x * x)))


def write_scores_csv(path: str | os.PathLike, ranked: list[tuple[str, float]]) -> None:
    """``ranked``: the (name, score) rows of :meth:`Scores.ranked`."""
    write_csv(path, ["name", "score"], ranked)


def write_scores_json(path: str | os.PathLike, measure: str, params: dict) -> None:
    """The measure and its solver settings; the scores are in the CSV."""
    write_json(path, {"measure": measure, "params": params})
