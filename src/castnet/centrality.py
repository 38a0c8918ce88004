"""The four actor-influence measures on the co-appearance graph.

All measures use binary adjacency (co-appearance counts do not boost
influence scores). Betweenness counts ordered pairs and divides by
(g-1)(g-2); closeness is component-scaled so disconnected graphs get finite
scores that reduce to (g-1)/sum(d) on connected ones; eigenvector scores come
from power iteration run to a tolerance, with the dominant-eigenvalue
estimate recorded in ``params``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import _bfs
from .errors import EmptyGraphError, TooFewNodesError
from .graph import CoGraph


class Measure(str, Enum):
    DEGREE = "degree"
    BETWEENNESS = "betweenness"
    CLOSENESS = "closeness"
    EIGENVECTOR = "eigenvector"
    PARTICIPATION = "participation"  # crossover scores share this table type


@dataclass
class ScoreTable:
    """Per-node scores for one measure plus the solver settings used."""

    scores: np.ndarray  # float64, dense by node index
    measure: Measure
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise ValueError(f"{self.measure.value} scores must be finite and non-negative")

    def ranked(self, labels: Sequence[str]) -> list[tuple[str, float]]:
        """(name, score) sorted by descending score, ties by ascending name."""
        order = sorted(range(len(labels)), key=lambda i: (-self.scores[i], labels[i]))
        return [(labels[i], float(self.scores[i])) for i in order]

    def top(self, labels: Sequence[str], k: int) -> list[tuple[str, float]]:
        return self.ranked(labels)[:k]


def degree_centrality(g: CoGraph) -> ScoreTable:
    """Connection count scaled by the g-1 possible partners."""
    if g.n < 2:
        raise TooFewNodesError("degree centrality needs at least 2 nodes")
    scores = g.degrees().astype(np.float64) / (g.n - 1)
    return ScoreTable(scores, Measure.DEGREE)


def betweenness_centrality(g: CoGraph, threads: int = 1) -> ScoreTable:
    """Normalized count of shortest paths between other pairs through a node.

    Brandes accumulation on the unweighted graph, run level-synchronously
    for a block of sources at a time; pairs in different components
    contribute nothing. The raw ordered-pair sum is divided by (g-1)(g-2).
    """
    if g.n < 3:
        raise TooFewNodesError("betweenness centrality needs at least 3 nodes")
    raw = np.zeros(g.n, np.float64)
    for part in _bfs.map_blocks(g, _brandes_block, np.arange(g.n), threads):
        raw += part
    scores = raw / float((g.n - 1) * (g.n - 2))
    return ScoreTable(scores, Measure.BETWEENNESS, {"algorithm": "brandes", "pairs": "ordered"})


def _brandes_block(adj, sources: np.ndarray) -> np.ndarray:
    """Summed dependencies of every node on the given sources."""
    n = adj.shape[0]
    sigma = np.zeros((n, len(sources)), np.float64)
    sigma[sources, np.arange(len(sources))] = 1.0
    dist = np.zeros(sigma.shape, np.int32)
    depth = 0
    for depth, new, counts in _bfs.levels(adj, sources):
        sigma += counts
        dist[new] = depth
    # dist stays 0 at the sources and at unreached nodes. Dependencies flow
    # from level d to its predecessors at level d-1 and are never pushed to
    # level 0, so neither ever gets a dependency.
    delta = np.zeros(sigma.shape, np.float64)
    for d in range(depth, 1, -1):
        with np.errstate(divide="ignore"):  # sigma is 0 where unreached
            coeff = np.where(dist == d, (1.0 + delta) / sigma, 0.0)
        delta += np.where(dist == d - 1, sigma * (adj @ coeff), 0.0)
    return delta.sum(axis=1)


def closeness_centrality(g: CoGraph, threads: int = 1) -> ScoreTable:
    """Inverse average BFS distance to reachable nodes, component-scaled.

    score(s) = (r / (g-1)) * (r / S) with r the nodes reachable from s and
    S the sum of their distances; 0 when nothing is reachable.
    """
    if g.n < 2:
        raise TooFewNodesError("closeness centrality needs at least 2 nodes")
    blocks = _bfs.map_blocks(g, _closeness_block, np.arange(g.n), threads)
    scores = np.concatenate(list(blocks))
    return ScoreTable(scores, Measure.CLOSENESS, {"scaling": "component"})


def _closeness_block(adj, sources: np.ndarray) -> np.ndarray:
    counts = _bfs.reach_counts(adj, sources)
    reached = counts.sum(axis=0)
    total = np.arange(len(counts)) @ counts
    n = adj.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (reached / (n - 1.0)) * (reached / total)
    return np.where(reached > 0, scores, 0.0)


def eigenvector_centrality(
    g: CoGraph, tol: float = 1e-10, max_iter: int = 1000
) -> ScoreTable:
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
    rows = np.repeat(np.arange(g.n), g.degrees())

    def shifted(x: np.ndarray) -> np.ndarray:
        """(A + I) x on the binary adjacency."""
        return x + np.bincount(rows, weights=x[g.indices], minlength=g.n)

    x = np.full(g.n, 1.0 / np.sqrt(g.n))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = shifted(x)
        y /= float(np.linalg.norm(y))
        converged = float(np.linalg.norm(y - x)) < tol
        x = y
        if converged:
            break
    # Rayleigh quotient of the unshifted adjacency at the final iterate.
    lam = float(x @ shifted(x)) - 1.0
    return ScoreTable(
        x,
        Measure.EIGENVECTOR,
        {
            "tol": tol,
            "max_iter": max_iter,
            "iterations": iterations,
            "converged": converged,
            "lambda": lam,
        },
    )


def fmt_score(x: float) -> str:
    """Floats rendered with 6 significant digits for stable output files."""
    return f"{x:.6g}"


def write_scores_csv(path: str | os.PathLike, g: CoGraph, table: ScoreTable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "score"])
        for name, score in table.ranked(g.labels):
            writer.writerow([name, fmt_score(score)])


def write_scores_json(path: str | os.PathLike, g: CoGraph, table: ScoreTable) -> None:
    payload = {
        "measure": table.measure.value,
        "params": _round_params(table.params),
        "scores": [
            {"name": name, "score": float(fmt_score(score))}
            for name, score in table.ranked(g.labels)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _round_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, float):
            out[key] = float(fmt_score(value))
        else:
            out[key] = value
    return out
