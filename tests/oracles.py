"""Independent brute-force oracles used to check the fast implementations.

Everything here deliberately avoids the production code paths: distances
come from Floyd-Warshall or a queue BFS, betweenness from explicit path
counting over the distance matrix (not Brandes accumulation), closeness
straight from the distance matrix, eigenvector from a dense power method,
link indices from Python set arithmetic, and modularity from exact rational
arithmetic.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

INF = float("inf")


def adj_sets(n: int, edges) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = e[0], e[1]
        out[u].add(v)
        out[v].add(u)
    return out


def floyd_warshall(n: int, edges) -> np.ndarray:
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for e in edges:
        u, v = e[0], e[1]
        dist[u, v] = 1.0
        dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def bfs_distances(n: int, edges, source: int) -> np.ndarray:
    """Hop counts from ``source`` (-1 = unreachable) by a plain queue BFS."""
    neigh = adj_sets(n, edges)
    dist = np.full(n, -1, np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neigh[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def path_counts(n: int, edges, dist: np.ndarray) -> np.ndarray:
    """sigma[s, v] = number of shortest s-v paths, by breadth-level DP."""
    neigh = adj_sets(n, edges)
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        reachable = [v for v in range(n) if dist[s, v] < INF]
        for v in sorted(reachable, key=lambda x: dist[s, x]):
            if v == s:
                continue
            sigma[s, v] = sum(
                sigma[s, u] for u in neigh[v] if dist[s, u] == dist[s, v] - 1
            )
    return sigma


def betweenness(n: int, edges) -> np.ndarray:
    """Ordered-pair betweenness / ((n-1)(n-2)) via sigma counting."""
    dist = floyd_warshall(n, edges)
    sigma = path_counts(n, edges, dist)
    scores = np.zeros(n)
    for i in range(n):
        on_path = (dist[:, i, None] + dist[None, i, :]) == dist
        valid = np.isfinite(dist) & on_path
        valid[i, :] = False
        valid[:, i] = False
        np.fill_diagonal(valid, False)
        with np.errstate(invalid="ignore", divide="ignore"):
            contrib = np.where(valid, np.outer(sigma[:, i], sigma[i, :]) / sigma, 0.0)
        scores[i] = contrib.sum()
    return scores / ((n - 1) * (n - 2))


def closeness(n: int, edges) -> np.ndarray:
    dist = floyd_warshall(n, edges)
    scores = np.zeros(n)
    for u in range(n):
        finite = np.isfinite(dist[u])
        reachable = int(finite.sum()) - 1
        if reachable <= 0:
            continue
        total = dist[u][finite].sum()
        scores[u] = (reachable / (n - 1)) * (reachable / total)
    return scores


def eigenvector_power_dense(n: int, edges, iterations: int) -> np.ndarray:
    """Fixed-iteration dense power method on (A + I), uniform start."""
    mat = np.eye(n)
    for e in edges:
        u, v = e[0], e[1]
        mat[u, v] = 1.0
        mat[v, u] = 1.0
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        x = mat @ x
        x /= np.linalg.norm(x)
    return x


def common_neighbors(neigh, u, v) -> int:
    return len(neigh[u] & neigh[v])


def jaccard(neigh, u, v) -> float:
    union = neigh[u] | neigh[v]
    if not union:
        return 0.0
    return len(neigh[u] & neigh[v]) / len(union)


def resource_allocation(neigh, u, v) -> float:
    return sum(1.0 / len(neigh[z]) for z in sorted(neigh[u] & neigh[v]))


def adamic_adar(neigh, u, v) -> float:
    return sum(1.0 / np.log(len(neigh[z])) for z in sorted(neigh[u] & neigh[v]))


def preferential_attachment(neigh, u, v) -> float:
    return float(len(neigh[u]) * len(neigh[v]))


def modularity_exact(n: int, weighted_edges, assignment) -> Fraction:
    """Q as an exact rational from integer edge weights."""
    m = sum(w for _, _, w in weighted_edges)
    intra: dict[int, int] = {}
    strength: dict[int, int] = {}
    for u, v, w in weighted_edges:
        strength[assignment[u]] = strength.get(assignment[u], 0) + w
        strength[assignment[v]] = strength.get(assignment[v], 0) + w
        if assignment[u] == assignment[v]:
            intra[assignment[u]] = intra.get(assignment[u], 0) + w
    total = Fraction(0)
    for c in set(assignment):
        e_c = intra.get(c, 0)
        d_c = strength.get(c, 0)
        total += Fraction(e_c, m) - Fraction(d_c, 2 * m) ** 2
    return total


def set_partitions(items: list[int]):
    """All partitions of ``items`` (Bell-number enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1 :]
        yield [[first]] + smaller


def best_partition_exact(n: int, weighted_edges) -> tuple[Fraction, list[Fraction]]:
    """(max Q, all Q values) over every possible partition of n nodes."""
    values = []
    for blocks in set_partitions(list(range(n))):
        assignment = [0] * n
        for cid, block in enumerate(blocks):
            for node in block:
                assignment[node] = cid
        values.append(modularity_exact(n, weighted_edges, assignment))
    return max(values), values


def random_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    if not edges:
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v)))
    return edges


def projection_weights(casts: list[list[int]]) -> dict[tuple[int, int], int]:
    """Brute-force double loop over title casts."""
    out: dict[tuple[int, int], int] = {}
    for cast in casts:
        for i in range(len(cast)):
            for j in range(len(cast)):
                if cast[i] < cast[j]:
                    key = (cast[i], cast[j])
                    out[key] = out.get(key, 0) + 1
    return out
