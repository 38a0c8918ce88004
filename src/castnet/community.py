"""Louvain communities, modularity, cluster meta-graphs and evolution.

Louvain here is the two-phase scheme of Blondel et al. (2008), with the
fast local moving of Traag, Waltman & van Eck (2019): each level visits its
nodes from a queue filled in one seeded Fisher-Yates order, and a node that
moves puts back on the queue only the neighbours it may have made worth
moving. A level ends when the queue is empty; aggregation follows, until a
level moves nothing. At the default resolution all gain comparisons are
done in exact integer arithmetic (weights are counts), so a fixed seed gives
bit-identical partitions and the recorded quality trace is non-decreasing by
construction, not by luck. Weight sums go through float64 ``bincount``; they
stay exact because every total is an integer far below 2**53.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import EmptyGraphError, EmptyInputError
from .graph import CoGraph, plurality_countries

if TYPE_CHECKING:
    from .centrality import Scores


@dataclass
class Partition:
    """Community assignment per node (dense contiguous ids) plus quality."""

    assignment: tuple[int, ...]
    q: float
    q_history: tuple[float, ...] = ()  # quality after each pass

    @property
    def passes(self) -> int:
        return len(self.q_history)

    @property
    def n_communities(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_communities)]
        for node, cid in enumerate(self.assignment):
            out[cid].append(node)
        return out


def modularity(g: CoGraph, assignment: Sequence[int]) -> float:
    """Weighted modularity: sum over communities of e_c/m - (d_c/2m)^2."""
    if len(assignment) != g.n:
        raise ValueError(f"assignment covers {len(assignment)} of {g.n} nodes")
    m = g.total_edge_weight
    if m == 0:
        raise EmptyGraphError("modularity is undefined on an edgeless graph")
    comm = np.asarray(assignment, dtype=np.int64)
    n_comm = int(comm.max()) + 1
    cu = comm[g.rows]
    cv = comm[g.indices]
    w = g.weights.astype(np.float64)
    # Each undirected edge appears twice in CSR, so intra sums halve.
    intra = np.bincount(cu[cu == cv], weights=w[cu == cv], minlength=n_comm) / 2.0
    strength = np.bincount(cu, weights=w, minlength=n_comm)
    return float(np.sum(intra / m - (strength / (2.0 * m)) ** 2))


class _Level:
    """One Louvain level: edges ``rows -> cols`` of weight ``w`` (each once
    per direction, sorted by row), internal weight ``selfw`` per node, the
    per-node dicts ``_sweep`` reads and running community sums."""

    __slots__ = ("n", "rows", "cols", "w", "adj", "selfw", "k", "comm", "sigma", "intra")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, w: np.ndarray, selfw: np.ndarray):
        self.n = n = len(selfw)
        self.rows, self.cols, self.w = rows, cols, w
        pairs = zip(cols.tolist(), w.tolist())  # one iterator, consumed row by row
        self.adj = [dict(islice(pairs, d)) for d in np.bincount(rows, minlength=n).tolist()]
        self.selfw = selfw.tolist()
        self.k = (2 * selfw + np.bincount(rows, weights=w, minlength=n).astype(np.int64)).tolist()
        self.comm = list(range(n))
        self.sigma = list(self.k)  # total degree per community
        self.intra = list(self.selfw)  # intra-community edge weight per community

    def quality_numerator(self, m: int, resolution: float):
        """Modularity numerator over denominator 4m^2 (exact int at res=1)."""
        r = 1 if resolution == 1.0 else resolution
        return sum(4 * m * e - r * s * s for e, s in zip(self.intra, self.sigma) if s or e)


def louvain(g: CoGraph, seed: int, resolution: float = 1.0) -> Partition:
    """Two-phase Louvain on the weighted co-appearance graph.

    Each level runs one round of local moving (:func:`_sweep`): a node moves
    to the neighbor community with the largest quality gain, strictly
    positive gains only. Aggregation repeats until a level moves nothing.
    ``passes`` counts the rounds, one per level, and ``q_history`` holds the
    quality after each. ``q`` is the weighted modularity of the final
    assignment on the original graph.
    """
    if g.edge_count == 0:
        raise EmptyGraphError("louvain needs at least one edge")
    rng = random.Random(seed)
    m = g.total_edge_weight
    m2 = 2 * m

    level = _Level(g.rows, g.indices.astype(np.int64), g.weights, np.zeros(g.n, np.int64))
    node_map = np.arange(g.n)

    q_num_history: list = []
    while True:
        moved = _sweep(level, m2, resolution, rng)
        q_num_history.append(level.quality_numerator(m, resolution))
        if moved == 0:
            break
        prev_n = level.n
        level, new_id = _aggregate(level)
        node_map = new_id[node_map]
        if level.n >= prev_n or level.n <= 1:
            break  # no compression left (every accepted move shrinks live communities)

    # Flatten to original nodes and number communities by their first node.
    raw = np.asarray(level.comm)[node_map]
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    assignment = tuple(np.argsort(np.argsort(first))[inverse].tolist())

    denom = 4.0 * m * m
    q_history = tuple(float(num) / denom for num in q_num_history)
    return Partition(assignment=assignment, q=modularity(g, assignment), q_history=q_history)


def _sweep(level: _Level, m2: int, resolution: float, rng: random.Random) -> int:
    """One round of local moving from a node queue; returns the number of
    moves made.

    The queue starts with every node in one shuffled order. A popped node
    counts its edge weight into each community from its edges; the best
    candidate is the largest gain, the home community wins ties, then the
    smallest id. A node linked to no community but its own has no candidate
    and is skipped. When a node moves, each neighbour outside its new
    community that is not queued goes to the back of the queue, in adjacency
    order (Traag, Waltman & van Eck 2019). A node is queued again only after
    a neighbour moved, so a popped node always counts afresh, and no node
    whose neighbourhood is unchanged is scored again.
    """
    n = level.n
    order = list(range(n))
    rng.shuffle(order)
    queue = deque(order)
    queued = [True] * n
    comm, k, sigma, intra, selfw, adj = (
        level.comm, level.k, level.sigma, level.intra, level.selfw, level.adj
    )
    pop, push = queue.popleft, queue.append
    moved = 0
    r = 1 if resolution == 1.0 else resolution  # an int 1 keeps the gains exact
    while queue:
        v = pop()
        queued[v] = False
        home = comm[v]
        edges = adj[v]
        to_comm: dict[int, int] = {}  # weight into each community
        for w, weight in edges.items():
            c = comm[w]
            to_comm[c] = to_comm.get(c, 0) + weight
        if len(to_comm) - (home in to_comm) == 0:
            continue
        kv = k[v]
        # Remove v from its community, then compare insertion scores.
        sigma[home] -= kv
        kin_home = to_comm.get(home, 0)
        best_score = m2 * kin_home - r * sigma[home] * kv
        best = home
        for c, kin in to_comm.items():
            if c == home:
                continue
            score = m2 * kin - r * sigma[c] * kv
            if score > best_score or (score == best_score and best != home and c < best):
                best_score = score
                best = c
        sigma[best] += kv
        if best != home:
            comm[v] = best
            intra[home] -= kin_home + selfw[v]
            intra[best] += to_comm[best] + selfw[v]
            for w in edges:
                if not queued[w] and comm[w] != best:
                    queued[w] = True
                    push(w)
            moved += 1
    return moved


def _aggregate(level: _Level) -> tuple[_Level, np.ndarray]:
    """Collapse communities into nodes of the next level, in community order.

    Also returns each node's index in the next level. A link between two
    communities weighs the sum of the edges between them (Blondel et al.
    2008).
    """
    live, new_id = np.unique(level.comm, return_inverse=True)
    c = len(live)
    cu, cv = new_id[level.rows], new_id[level.cols]
    cross = cu != cv
    keys, slot = np.unique(cu[cross] * c + cv[cross], return_inverse=True)
    w = np.bincount(slot, weights=level.w[cross], minlength=len(keys)).astype(np.int64)
    rows, cols = np.divmod(keys, c)
    return _Level(rows, cols, w, np.asarray(level.intra, np.int64)[live]), new_id


# ---------------------------------------------------------------------------
# Cluster meta-graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterInfo:
    label: str
    size: int
    volume: int  # total incident edge weight of members


@dataclass(frozen=True)
class ClusterLink:
    weight: int
    frequency: float  # weight / min(volume_a, volume_b)


@dataclass
class ClusterGraph:
    clusters: dict[int, ClusterInfo]
    links: dict[tuple[int, int], ClusterLink] = field(default_factory=dict)


def build_cluster_graph(
    g: CoGraph, partition: Partition, overrides: Mapping[int, str] | None = None
) -> ClusterGraph:
    """Community-level meta-graph with interaction frequencies.

    Frequency between two clusters is the inter-cluster edge weight divided
    by the smaller cluster volume. A cluster is labelled by ``overrides``,
    else by the plurality country of its member actors, else
    ``cluster-<id>``.
    """
    if len(partition.assignment) != g.n:
        raise ValueError("partition does not cover the graph")
    comm = np.asarray(partition.assignment, np.int64)
    n_comm = partition.n_communities
    cu = comm[g.rows]
    cv = comm[g.indices]
    volumes = np.bincount(cu, weights=g.weights, minlength=n_comm).astype(np.int64)
    up = cu < cv  # each inter-cluster edge once
    keys, slot = np.unique(cu[up] * n_comm + cv[up], return_inverse=True)
    inter = np.bincount(slot, weights=g.weights[up], minlength=len(keys)).astype(np.int64)
    a, b = np.divmod(keys, n_comm)
    frequency = inter / np.minimum(volumes[a], volumes[b])

    country = plurality_countries(g.node_country, np.arange(g.n), comm, n_comm)
    sizes = np.bincount(comm, minlength=n_comm)
    clusters = {
        cid: ClusterInfo((overrides or {}).get(cid, country[cid] or f"cluster-{cid}"), size, vol)
        for cid, (size, vol) in enumerate(zip(sizes.tolist(), volumes.tolist()))
    }
    links = {
        (x, y): ClusterLink(weight=wt, frequency=f)
        for x, y, wt, f in zip(a.tolist(), b.tolist(), inter.tolist(), frequency.tolist())
    }
    return ClusterGraph(clusters=clusters, links=links)


def filter_interactions(cg: ClusterGraph, tau: float) -> ClusterGraph:
    """Retain links with frequency >= tau; clusters are always retained."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    return ClusterGraph(
        clusters=dict(cg.clusters),
        links={key: link for key, link in cg.links.items() if link.frequency >= tau},
    )


def crossover_scores(g: CoGraph, partition: Partition) -> Scores:
    """Participation coefficient: 1 - sum((edges into c / degree)^2).

    Measures how evenly an actor's collaborations spread across communities
    (Guimerà & Amaral 2005); 0 for degree-0 nodes and for actors confined to
    one community. Each score is ``(deg^2 - sum count^2) / deg^2`` from exact
    integers, so it is the correctly rounded value and equal participations
    give equal scores.
    """
    from .centrality import Scores

    if len(partition.assignment) != g.n:
        raise ValueError("partition does not cover the graph")
    comm = np.asarray(partition.assignment, np.int64)
    n_comm = partition.n_communities
    keys, counts = np.unique(g.rows * n_comm + comm[g.indices], return_counts=True)
    squares = np.bincount(keys // n_comm, weights=counts * counts, minlength=g.n)
    deg2 = g.degrees() ** 2
    scores = np.zeros(g.n, np.float64)
    np.divide(deg2 - squares, deg2, out=scores, where=deg2 > 0)
    return Scores(scores)


# ---------------------------------------------------------------------------
# Temporal community evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommunityMatch:
    new_cid: int
    overlap: float  # Jaccard of member sets


@dataclass
class EvolutionWindow:
    years: tuple[int, int]
    actors: tuple[int, ...]  # the window's actors by global node id, ascending
    partition: Partition | None  # None for windows with no titles or no edges


@dataclass
class EvolutionTimeline:
    windows: list[EvolutionWindow]
    matches: list[dict[int, CommunityMatch]]  # one map per consecutive pair


def community_evolution(
    graph: CoGraph, window_years: int, step_years: int, seed: int
) -> EvolutionTimeline:
    """Windowed Louvain over release years with best-overlap matching.

    Windows of ``window_years`` advance by ``step_years`` from the earliest
    year of a title of ``graph`` to the latest. A window's graph projects
    the titles released inside it, its actors numbered in ascending global
    id (so each cast stays sorted): partition node ``i`` is ``actors[i]``.
    A window without co-appearances has no partition. Consecutive windows
    are matched community-by-community via maximum Jaccard overlap of
    member sets, ties to the smallest new community id.
    """
    if step_years < 1 or window_years < step_years:
        raise ValueError("need window_years >= step_years >= 1")
    years = graph.title_year
    if not np.any(years >= 0):
        raise EmptyInputError("no titles carry release years")
    lo, hi = int(years[years >= 0].min()), int(years.max())
    sizes = np.diff(graph.title_ptr)

    windows: list[EvolutionWindow] = []
    for start in range(lo, hi + 1, step_years):
        span = (start, start + window_years - 1)
        titles = (years >= start) & (years <= span[1])
        actors, members = np.unique(graph.title_members[np.repeat(titles, sizes)],
                                    return_inverse=True)
        window = CoGraph(
            labels=[graph.labels[a] for a in actors.tolist()],
            node_country=[None] * len(actors),
            title_names=[graph.title_names[t] for t in np.flatnonzero(titles).tolist()],
            title_ptr=np.concatenate([[0], np.cumsum(sizes[titles])]),
            title_members=members.astype(np.int32),
            title_year=years[titles],
        )
        partition = louvain(window, seed=seed) if window.edge_count else None
        windows.append(EvolutionWindow(span, tuple(actors.tolist()), partition))

    matches = [_match_windows(prev, cur) for prev, cur in zip(windows, windows[1:])]
    return EvolutionTimeline(windows=windows, matches=matches)


def _match_windows(prev: EvolutionWindow, cur: EvolutionWindow) -> dict[int, CommunityMatch]:
    """Each old community's best new one by Jaccard overlap of members, ties
    to the smallest new id; id 0 at overlap 0.0 when it shares no member.

    One count of (old, new) community pairs over the actors both windows
    hold gives every intersection, and a union is ``|old| + |new| - shared``.
    """
    if prev.partition is None or cur.partition is None:
        return {}
    old = np.asarray(prev.partition.assignment, np.int64)
    new = np.asarray(cur.partition.assignment, np.int64)
    n_new = cur.partition.n_communities
    _, i_old, i_new = np.intersect1d(
        prev.actors, cur.actors, assume_unique=True, return_indices=True
    )
    keys, shared = np.unique(old[i_old] * n_new + new[i_new], return_counts=True)
    a, b = np.divmod(keys, n_new)
    overlap = shared / (np.bincount(old)[a] + np.bincount(new)[b] - shared)
    order = np.lexsort((b, -overlap, a))  # by old id, then best overlap, then new id
    heads, first = np.unique(a[order], return_index=True)
    out = {cid: CommunityMatch(0, 0.0) for cid in range(prev.partition.n_communities)}
    for cid, j in zip(heads.tolist(), order[first].tolist()):
        out[cid] = CommunityMatch(int(b[j]), float(overlap[j]))
    return out
