"""Shortest collaboration paths and top partnerships."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _bfs
from .graph import CoGraph, name_ranks, top_pairs


@dataclass(frozen=True)
class Hop:
    """One edge of a path, annotated with the titles connecting the pair."""

    a: str
    b: str
    titles: tuple[str, ...]


@dataclass(frozen=True)
class AnnotatedPath:
    hops: tuple[Hop, ...]

    @property
    def length(self) -> int:
        return len(self.hops)

    def nodes(self) -> list[str]:
        if not self.hops:
            return []
        return [self.hops[0].a] + [hop.b for hop in self.hops]


@dataclass(frozen=True)
class Unreachable:
    """First-class 'no path exists' result (not an error)."""

    source: str
    target: str


PathResult = Union[AnnotatedPath, Unreachable]


def shortest_path(g: CoGraph, a: str, b: str) -> PathResult:
    """BFS shortest path from ``a`` to ``b`` by actor name.

    Among equal-length paths the lexicographically smallest node-name
    sequence is returned; hop titles are sorted by title name. ``a == b``
    yields a zero-length path.
    """
    src = g.node(a)
    dst = g.node(b)
    if src == dst:
        return AnnotatedPath(())
    dist = _distances_until(g, dst, src)
    if dist[src] < 0:
        return Unreachable(a, b)
    hops: list[Hop] = []
    cur = src
    while cur != dst:
        want = dist[cur] - 1
        best = -1
        for v in g.neighbors(cur):
            v = int(v)
            if dist[v] == want and (best < 0 or g.labels[v] < g.labels[best]):
                best = v
        hops.append(Hop(g.labels[cur], g.labels[best], g.titles_for_edge(cur, best)))
        cur = best
    return AnnotatedPath(tuple(hops))


def _distances_until(g: CoGraph, source: int, target: int) -> np.ndarray:
    """Hop counts from ``source`` (-1 = not reached), by frontier BFS.

    Stops after the level that reaches ``target``, so every node closer to
    ``source`` than ``target`` has its distance set.
    """
    dist = np.full(g.n, -1, np.int64)
    dist[source] = 0
    frontier = np.array([source])
    level = 0
    while len(frontier) and dist[target] < 0:
        level += 1
        reached = _bfs.gather_neighbors(g.indptr, g.indices, frontier)
        dist[reached[dist[reached] < 0]] = level
        # np.unique would do, but it imports numpy.ma
        frontier = np.flatnonzero(dist == level)
    return dist


def render_path(result: PathResult) -> str:
    """`A —[Title1; Title2]→ B —[Title3]→ C`, or a not-connected line."""
    if isinstance(result, Unreachable):
        return f"{result.source} and {result.target} are not connected"
    if not result.hops:
        return "(zero-length path)"
    parts = [result.hops[0].a]
    for hop in result.hops:
        parts.append(f"—[{'; '.join(hop.titles)}]→ {hop.b}")
    return " ".join(parts)


def path_to_dict(result: PathResult) -> dict:
    if isinstance(result, Unreachable):
        return {"reachable": False, "source": result.source, "target": result.target}
    return {
        "reachable": True,
        "length": result.length,
        "hops": [
            {"from": hop.a, "to": hop.b, "titles": list(hop.titles)} for hop in result.hops
        ],
    }


def top_partnerships(g: CoGraph, k: int) -> list[tuple[str, str, int]]:
    """Top-k co-acting pairs by shared-title count, ties lexicographic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u, v, w = g.edge_arrays()
    rank, names = name_ranks(g.labels)
    a, b = np.minimum(rank[u], rank[v]), np.maximum(rank[u], rank[v])
    best = top_pairs(w, a, b, k)
    return [
        (names[x], names[y], z)
        for x, y, z in zip(a[best].tolist(), b[best].tolist(), w[best].tolist())
    ]
