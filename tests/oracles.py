"""Independent brute-force oracles used to check the fast implementations.

Everything here deliberately avoids the production code paths: distances
come from Floyd-Warshall or a queue BFS, betweenness from explicit path
counting over the distance matrix (not Brandes accumulation), closeness
straight from the distance matrix, eigenvector from a dense power method,
link indices from Python set arithmetic, modularity and participation from
exact rational arithmetic, cluster sizes, volumes and links from one loop
over the edges, window matches from Python set intersection and union,
evolution windows from one graph rebuilt from the records per window,
Louvain's local moving from a full recount of every node's community
weights, and community connectivity from a queue BFS inside each community.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

from castnet._options import DEFAULT_MAX_CAST

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


def dependencies(n: int, edges) -> np.ndarray:
    """delta[s, v]: over the targets t outside {s, v}, the summed share of
    shortest s-t paths that pass through v (Brandes' dependency of s on v)."""
    dist = floyd_warshall(n, edges)
    sigma = path_counts(n, edges, dist)
    delta = np.zeros((n, n))
    for i in range(n):
        on_path = (dist[:, i, None] + dist[None, i, :]) == dist
        valid = np.isfinite(dist) & on_path
        valid[i, :] = False
        valid[:, i] = False
        np.fill_diagonal(valid, False)
        with np.errstate(invalid="ignore", divide="ignore"):
            contrib = np.where(valid, np.outer(sigma[:, i], sigma[i, :]) / sigma, 0.0)
        delta[:, i] = contrib.sum(axis=1)
    return delta


def betweenness(n: int, edges) -> np.ndarray:
    """Ordered-pair betweenness / ((n-1)(n-2)): every source's dependencies."""
    return dependencies(n, edges).sum(axis=0) / ((n - 1) * (n - 2))


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


def shared_titles(casts: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    """Every (u, v) with u < v mapped to the titles whose cast holds both."""
    out: dict[tuple[int, int], list[int]] = {}
    for title, cast in enumerate(casts):
        for u in cast:
            for v in cast:
                if u < v:
                    out.setdefault((u, v), []).append(title)
    return out


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


def weighted_edges_csr(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` of the undirected weighted edge list
    ``(u, v, w)`` on ``n`` nodes: repeated edges merged by ``np.unique`` and
    ``np.add.at``, then each edge mirrored and the entries sorted by row and
    column. It builds edges, where ``CoGraph.from_weighted_edges`` projects
    titles."""
    u, v, w = np.array(list(edges), dtype=np.int64).reshape(-1, 3).T
    keys, inverse = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    merged = np.zeros(len(keys), np.int64)
    np.add.at(merged, inverse, w)
    lo, hi = np.divmod(keys, n)
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order].astype(np.int32), np.concatenate([merged, merged])[order]


def plurality_countries(pairs, item_country, n: int) -> list[str | None]:
    """Each of ``n`` owners' most frequent ``item_country[item]`` over its
    ``(owner, item)`` pairs, ties to the smaller string; ``None`` and ``""``
    are no country."""
    counts: list[dict[str, int]] = [{} for _ in range(n)]
    for owner, item in pairs:
        country = item_country[item]
        if country:
            counts[owner][country] = counts[owner].get(country, 0) + 1
    return [min(c, key=lambda k: (-c[k], k)) if c else None for c in counts]


def participation_exact(n: int, edges, assignment) -> list[Fraction]:
    """Participation coefficient per node, 1 - sum((k_c / k)^2), as exact
    rationals over the binary adjacency; 0 for degree-0 nodes."""
    out = []
    for neigh in adj_sets(n, edges):
        counts: dict[int, int] = {}
        for v in neigh:
            counts[assignment[v]] = counts.get(assignment[v], 0) + 1
        squares = sum(Fraction(c, len(neigh)) ** 2 for c in counts.values())
        out.append(1 - squares if neigh else Fraction(0))
    return out


def cluster_counts(weighted_edges, assignment, n_comm: int):
    """``(sizes, volumes, links)`` of a partition by one pass over the edges:
    ``links`` maps ``(a, b)``, a < b, to the summed weight between clusters."""
    sizes = [0] * n_comm
    for cid in assignment:
        sizes[cid] += 1
    volumes = [0] * n_comm
    links: dict[tuple[int, int], int] = {}
    for u, v, w in weighted_edges:
        a, b = assignment[u], assignment[v]
        volumes[a] += w
        volumes[b] += w
        if a != b:
            key = (min(a, b), max(a, b))
            links[key] = links.get(key, 0) + w
    return sizes, volumes, links


def window_matches(old_names, old_assignment, new_names, new_assignment) -> dict:
    """Old community id -> (new id, Jaccard overlap of member-name sets), from
    set intersection and union over every pair; ties to the smaller new id,
    and ``{}`` when either window has no communities."""
    def member_sets(names, assignment):
        sets = [set() for _ in range(max(assignment, default=-1) + 1)]
        for name, cid in zip(names, assignment):
            sets[cid].add(name)
        return sets

    old_sets = member_sets(old_names, old_assignment)
    new_sets = member_sets(new_names, new_assignment)
    out = {}
    if not old_sets or not new_sets:
        return out
    for old_cid, old_members in enumerate(old_sets):
        best_cid = 0
        best_overlap = -1.0
        for new_cid, new_members in enumerate(new_sets):
            inter = len(old_members & new_members)
            union = len(old_members | new_members)
            overlap = inter / union if union else 0.0
            if overlap > best_overlap:
                best_overlap = overlap
                best_cid = new_cid
        out[old_cid] = (best_cid, best_overlap)
    return out


def evolution_windows(records, window_years: int, step_years: int, names=None,
                      max_cast: int = DEFAULT_MAX_CAST) -> list:
    """Each window's ``(years, titles, labels)``, with the graph of each window
    rebuilt from the records released in it, as ``project(build_bipartite(
    records, year_min=first, year_max=last, ...))``, and each person labelled
    as in the whole catalog's graph. A window that keeps no
    title has 0 titles and no labels. Windows run from the earliest to the
    latest year of a title within ``max_cast``; title ids must be unique."""
    from castnet.errors import EmptyInputError
    from castnet.graph import build_bipartite, project
    from castnet.ingest import _display_labels

    kept = [rec for rec in records if len(set(rec.cast)) <= max_cast]
    keys = list(dict.fromkeys(key for rec in kept for key in rec.cast))
    labels = dict(zip(keys, _display_labels(keys, names)))
    years = [rec.release_year for rec in kept if rec.release_year is not None]
    out = []
    for start in range(min(years), max(years) + 1, step_years):
        span = (start, start + window_years - 1)
        try:
            g = project(build_bipartite(records, year_min=span[0], year_max=span[1],
                                        max_cast=max_cast, names=labels)[0])
        except EmptyInputError:
            out.append((span, 0, set()))
            continue
        out.append((span, len(g.title_names), set(g.labels)))
    return out


def louvain_sweep_full_recount(level, m2: int, resolution: float, rng: random.Random) -> int:
    """One round of Louvain local moving from a node queue over a
    ``community._Level``: every popped node recounts its community weights
    from all of its edges and scans the candidates in ascending id order;
    returns the number of moves made.

    Same queue, re-queueing and gains as ``community._sweep``, so
    substituting it must leave every partition and quality trace unchanged.
    """
    order = list(range(level.n))
    rng.shuffle(order)
    queue = deque(order)
    queued = set(order)
    moved = 0
    exact = resolution == 1.0
    while queue:
        v = queue.popleft()
        queued.discard(v)
        home = level.comm[v]
        kv = level.k[v]
        to_comm: dict[int, int] = {}
        for w, weight in level.adj[v].items():
            c = level.comm[w]
            to_comm[c] = to_comm.get(c, 0) + weight
        level.sigma[home] -= kv
        kin_home = to_comm.get(home, 0)
        if exact:
            best_score = m2 * kin_home - level.sigma[home] * kv
        else:
            best_score = m2 * kin_home - resolution * level.sigma[home] * kv
        best = home
        for c in sorted(to_comm):
            if c == home:
                continue
            if exact:
                score = m2 * to_comm[c] - level.sigma[c] * kv
            else:
                score = m2 * to_comm[c] - resolution * level.sigma[c] * kv
            if score > best_score:
                best_score = score
                best = c
        level.sigma[best] += kv
        if best != home:
            level.comm[v] = best
            level.intra[home] -= kin_home + level.selfw[v]
            level.intra[best] += to_comm.get(best, 0) + level.selfw[v]
            for w in level.adj[v]:
                if w not in queued and level.comm[w] != best:
                    queued.add(w)
                    queue.append(w)
            moved += 1
    return moved


def disconnected_communities(n: int, edges, assignment) -> int:
    """Number of communities whose induced subgraph is disconnected, by a
    queue BFS from one member that may cross only edges inside the community."""
    neigh = adj_sets(n, edges)
    members: dict[int, list[int]] = {}
    for node, cid in enumerate(assignment):
        members.setdefault(cid, []).append(node)
    count = 0
    for cid, nodes in members.items():
        seen = {nodes[0]}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for w in neigh[u]:
                if w not in seen and assignment[w] == cid:
                    seen.add(w)
                    queue.append(w)
        count += len(seen) < len(nodes)
    return count
