"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The real-catalog reproduction checks need the Kaggle 2021
``netflix_titles.csv``; point CASTNET_DATA_DIR at its directory (or drop it
in ``tests/data/``). Without it those checks skip; with it but with a
different snapshot hash than the pinned one they downgrade to warnings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
from castnet import _bfs, cli
from castnet.centrality import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from castnet.community import build_cluster_graph, filter_interactions, louvain
from castnet.graph import CoGraph, build_bipartite, project
from castnet.ingest import parse_netflix
from castnet.linkpred import (
    Method,
    adamic_adar,
    common_neighbors,
    jaccard,
    predict_top,
    preferential_attachment,
    resource_allocation,
)
from castnet.stats import summarize
from conftest import make_graph

# SHA-256 of the frozen Kaggle 2021 snapshot this suite reproduces. Unset
# (None) until a maintainer with the canonical file records it; while unset,
# or when the local file hashes differently, the catalog checks warn instead
# of failing (dataset drift).
PINNED_NETFLIX_SHA256: str | None = None

TAUS = (0.05, 0.02, 0.005, 0.0025)


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence on 200 seeded random graphs, < 30 s
# ---------------------------------------------------------------------------


def _linkpred_oracle_matrices(adj: np.ndarray):
    deg = adj.sum(axis=1)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    inv_log = np.zeros_like(deg)
    multi = deg > 1
    inv_log[multi] = 1.0 / np.log(deg[multi])
    common = adj @ adj
    ra = (adj * inv_deg) @ adj  # sum over z of A[u,z]/deg(z) * A[z,v]
    aa = (adj * inv_log) @ adj
    return deg, common, ra, aa


def test_oracle_equivalence_200_random_graphs():
    with criterion("oracle equivalence: 200 random graphs, g <= 50, < 30 s"):
        rng = random.Random(20250809)
        started = time.perf_counter()
        for _ in range(200):
            n = rng.randint(4, 50)
            edges = oracles.random_graph(rng, n, rng.uniform(0.04, 0.5))
            g = make_graph(n, edges)
            adj = np.zeros((n, n))
            for u, v in edges:
                adj[u, v] = adj[v, u] = 1.0

            # pairwise distances: level-synchronous BFS from every source at
            # once vs Floyd-Warshall and a queue BFS
            fw = oracles.floyd_warshall(n, edges)
            expected = np.where(np.isinf(fw), -1, fw).astype(np.int64)
            dist = np.full((n, n), -1, np.int64)
            np.fill_diagonal(dist, 0)
            for level, new, _ in _bfs.levels(_bfs.adjacency(g), np.arange(n)):
                dist[new.T] = level
            assert np.array_equal(dist, expected)
            for s in range(n):
                assert np.array_equal(oracles.bfs_distances(n, edges, s), expected[s])

            # four centralities
            assert np.allclose(
                degree_centrality(g).scores, adj.sum(axis=1) / (n - 1), atol=1e-12
            )
            assert np.allclose(
                betweenness_centrality(g).scores, oracles.betweenness(n, edges), atol=1e-9
            )
            assert np.allclose(
                closeness_centrality(g).scores, oracles.closeness(n, edges), atol=1e-9
            )
            mine = eigenvector_centrality(g, tol=0.0, max_iter=300).scores
            ref = oracles.eigenvector_power_dense(n, edges, iterations=300)
            assert np.allclose(mine, ref, atol=1e-9)

            # five link-prediction indices over every non-adjacent pair
            deg, common, ra, aa = _linkpred_oracle_matrices(adj)
            for u in range(n):
                for v in range(u + 1, n):
                    if adj[u, v]:
                        continue
                    cn = common_neighbors(g, u, v)
                    assert cn == int(common[u, v])
                    union = deg[u] + deg[v] - common[u, v]
                    expect_j = common[u, v] / union if union else 0.0
                    assert abs(jaccard(g, u, v) - expect_j) < 1e-12
                    assert abs(resource_allocation(g, u, v) - ra[u, v]) < 1e-12
                    assert abs(adamic_adar(g, u, v) - aa[u, v]) < 1e-12
                    assert preferential_attachment(g, u, v) == deg[u] * deg[v]
        elapsed = time.perf_counter() - started
        print(f"\n  200 graphs checked in {elapsed:.1f}s")
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s (budget 30s)"


# ---------------------------------------------------------------------------
# 2. Analytic fixtures
# ---------------------------------------------------------------------------


def test_analytic_fixtures(p3, k3, star4):
    with criterion("analytic fixtures: P3/K3/star exact values"):
        assert list(degree_centrality(k3).scores) == [1.0, 1.0, 1.0]
        assert list(degree_centrality(p3).scores) == [0.5, 1.0, 0.5]

        bp3 = betweenness_centrality(p3).scores
        assert bp3[1] == 1.0 and bp3[0] == 0.0 and bp3[2] == 0.0
        assert np.all(betweenness_centrality(k3).scores == 0.0)

        cp3 = closeness_centrality(p3).scores
        assert cp3[1] == 1.0
        assert cp3[0] == 2 / 3 and cp3[2] == 2 / 3

        ek3 = eigenvector_centrality(k3, tol=1e-12)
        assert np.allclose(ek3.scores, 1 / math.sqrt(3), atol=1e-10)
        estar = eigenvector_centrality(star4, tol=1e-12).scores
        assert abs(estar[0] / estar[1] - math.sqrt(3)) < 1e-8
        ep3 = eigenvector_centrality(p3, tol=1e-12).scores
        assert abs(ep3[1] / ep3[0] - math.sqrt(2)) < 1e-8


# ---------------------------------------------------------------------------
# 3. Louvain: exact optimum, monotone quality, bit-determinism
# ---------------------------------------------------------------------------


def test_louvain_quality_and_determinism(two_triangles):
    with criterion("louvain: exact optimum on two triangles, monotone q, 10-run determinism"):
        part = louvain(two_triangles, seed=42)
        assert part.q == pytest.approx(0.5, abs=1e-15)
        assert len(set(part.assignment)) == 2

        for seed in range(20):
            rng = random.Random(seed * 13 + 1)
            n = rng.randint(6, 70)
            g = make_graph(n, oracles.random_graph(rng, n, 0.1))
            run = louvain(g, seed=seed)
            for earlier, later in zip(run.q_history, run.q_history[1:]):
                assert later >= earlier, "quality decreased across a pass"

        rng = random.Random(77)
        g = make_graph(90, oracles.random_graph(rng, 90, 0.07))
        runs = [louvain(g, seed=42) for _ in range(10)]
        for other in runs[1:]:
            assert other.assignment == runs[0].assignment
            assert other.q == runs[0].q
            assert other.q_history == runs[0].q_history


# ---------------------------------------------------------------------------
# 4 (+5 on the real graph). Netflix snapshot reproduction
# ---------------------------------------------------------------------------


def _find_netflix_csv() -> Path | None:
    candidates = []
    env = os.environ.get(cli.DATA_DIR_ENV)
    if env:
        candidates.append(Path(env) / "netflix_titles.csv")
    here = Path(__file__).parent
    candidates.append(here / "data" / "netflix_titles.csv")
    candidates.append(here.parent / "data" / "netflix_titles.csv")
    for path in candidates:
        if path.exists():
            return path
    return None


KNOWN_BETWEENNESS_LEADERS = {"Anupam Kher", "Takahiro Sakurai", "Yuichi Nakamura", "Fred Tatasciore"}
KNOWN_CLOSENESS_LEADERS = {"Fred Tatasciore", "Fred Armisen", "Anupam Kher", "Yuichi Nakamura"}


def test_netflix_snapshot_reproduction():
    path = _find_netflix_csv()
    if path is None:
        pytest.skip(
            "netflix_titles.csv not found (set CASTNET_DATA_DIR or put it in tests/data/)"
        )
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = PINNED_NETFLIX_SHA256 is not None and digest == PINNED_NETFLIX_SHA256
    drift: list[str] = []

    def check(condition: bool, message: str) -> None:
        if condition:
            return
        if pinned:
            raise AssertionError(message)
        drift.append(message)
        warnings.warn(f"dataset drift: {message}", stacklevel=2)

    with criterion("catalog snapshot reproduction (< 60 s)"):
        if not pinned:
            print(f"\n  snapshot hash {digest} not pinned; drift checks warn only")
        started = time.perf_counter()
        result = parse_netflix(path)
        records = result.records
        check(len(records) == 8807, f"expected 8807 records, parsed {len(records)}")

        threads = os.cpu_count() or 1
        g = project(build_bipartite(records))
        betw = betweenness_centrality(g, threads=threads)
        ranked_b = betw.ranked(g.labels)
        top_name, top_score = ranked_b[0]
        check(top_name == "Anupam Kher", f"top betweenness is {top_name}")
        check(
            abs(top_score - 0.00750) <= 0.30 * 0.00750,
            f"top betweenness score {top_score:.6f} outside +/-30% of 0.00750",
        )
        top4_b = {name for name, _ in ranked_b[:4]}
        check(
            len(top4_b & KNOWN_BETWEENNESS_LEADERS) >= 3,
            f"betweenness top-4 {sorted(top4_b)} shares <3 names with the known snapshot leaders",
        )

        close = closeness_centrality(g, threads=threads)
        top4_c = {name for name, _ in close.ranked(g.labels)[:4]}
        check(
            len(top4_c & KNOWN_CLOSENESS_LEADERS) >= 3,
            f"closeness top-4 {sorted(top4_c)} shares <3 names with the known snapshot leaders",
        )

        part = louvain(g, seed=42)
        check(part.q >= 0.85, f"modularity {part.q:.4f} below 0.85 at seed 42")

        summary = summarize(records, top_k=5)
        actor_names = {name for name, _ in summary.top_actors}
        check("Anupam Kher" in actor_names, f"top-5 actors {sorted(actor_names)}")
        check("Om Puri" in actor_names, f"top-5 actors {sorted(actor_names)}")
        director_names = {name for name, _ in summary.top_directors}
        check("Rajiv Chilaka" in director_names, f"top-5 directors {sorted(director_names)}")

        # cluster meta-graph thresholds on the real graph
        cg = build_cluster_graph(g, part)
        kept = [set(filter_interactions(cg, tau).links) for tau in TAUS]
        for narrower, wider in zip(kept, kept[1:]):
            assert narrower <= wider, "link sets not nested over decreasing tau"
        check(
            len(kept[-1]) >= len(kept[0]),
            f"links at tau=0.0025 ({len(kept[-1])}) < links at tau=0.05 ({len(kept[0])})",
        )

        elapsed = time.perf_counter() - started
        print(f"\n  full catalog pipeline in {elapsed:.1f}s")
        assert elapsed < 60.0, f"catalog pipeline took {elapsed:.1f}s (budget 60s)"
        if drift:
            print(f"  {len(drift)} drift warning(s): " + " | ".join(drift))


# Opportunistic landmark checks on the full IMDb movie graph. Not part of
# the release gate; they run only when the three dumps sit next to the
# catalog data, and they take a while (tens of millions of rows).


def _find_imdb_dumps() -> dict[str, Path] | None:
    roots = []
    env = os.environ.get(cli.DATA_DIR_ENV)
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).parent / "data")
    names = {
        "basics": "title.basics.tsv",
        "principals": "title.principals.tsv",
        "names": "name.basics.tsv",
    }
    for root in roots:
        found = {}
        for key, base in names.items():
            for candidate in (root / base, root / f"{base}.gz"):
                if candidate.exists():
                    found[key] = candidate
                    break
        if len(found) == 3:
            return found
    return None


def _resolve_label(g, name: str) -> str:
    """Exact label, or the highest-degree node among '[key]'-suffixed ones."""
    if g.has_node(name):
        return name
    prefix = f"{name} ["
    candidates = [(g.degree(i), lbl) for i, lbl in enumerate(g.labels) if lbl.startswith(prefix)]
    if not candidates:
        raise AssertionError(f"no node labeled {name!r}")
    return max(candidates)[1]


def test_imdb_movie_graph_landmarks():
    dumps = _find_imdb_dumps()
    if dumps is None:
        pytest.skip("IMDb dumps not found (set CASTNET_DATA_DIR or use tests/data/)")
    from castnet.ingest import TitleKind, parse_imdb, person_name_map
    from castnet.paths import shortest_path, top_partnerships

    result = parse_imdb(
        dumps["basics"], dumps["principals"], dumps["names"], {TitleKind.MOVIE}
    )
    g = project(
        build_bipartite(result.titles, names=person_name_map(result.persons)),
        keep_titles=True,
    )
    pairs = {(a.split(" [")[0], b.split(" [")[0]): w for a, b, w in top_partnerships(g, 10)}
    flat = {name for pair in pairs for name in pair}
    assert "Adoor Bhasi" in flat and "Bahadur" in flat
    assert any(w >= 140 for w in pairs.values())

    from castnet.paths import AnnotatedPath

    williams = _resolve_label(g, "Robin Williams")
    jolie = _resolve_label(g, "Angelina Jolie")
    path = shortest_path(g, williams, jolie)
    assert isinstance(path, AnnotatedPath)
    assert path.length == 2
    titles = {t for hop in path.hops for t in hop.titles}
    assert "Dead Poets Society" in titles or "Taking Lives" in titles


# ---------------------------------------------------------------------------
# 5. Cluster meta-graph monotonicity (synthetic structured graph)
# ---------------------------------------------------------------------------


def _structured_graph() -> CoGraph:
    """Six planted communities with inter-links spanning the tau range."""
    rng = random.Random(515151)
    groups = 6
    size = 10
    n = groups * size
    edges: list[tuple[int, int, int]] = []
    for c in range(groups):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.7:
                    edges.append((base + i, base + j, 5))
    for a in range(groups):
        for b in range(a + 1, groups):
            for _ in range(rng.randint(1, 3)):
                u = a * size + rng.randrange(size)
                v = b * size + rng.randrange(size)
                edges.append((u, v, 1))
    return CoGraph.from_weighted_edges([f"actor{i:03d}" for i in range(n)], edges)


def test_cluster_metagraph_threshold_monotonicity():
    with criterion("cluster meta-graph: nested link sets over the four thresholds"):
        g = _structured_graph()
        part = louvain(g, seed=42)
        cg = build_cluster_graph(g, part)
        assert cg.links, "structured fixture lost all inter-cluster links"
        kept = [set(filter_interactions(cg, tau).links) for tau in TAUS]
        for narrower, wider in zip(kept, kept[1:]):
            assert narrower <= wider
        assert len(kept[-1]) >= len(kept[0])
        # the spread is real: at least one link sits strictly between the extremes
        frequencies = sorted(link.frequency for link in cg.links.values())
        assert any(TAUS[-1] <= f < TAUS[0] for f in frequencies)


# ---------------------------------------------------------------------------
# 6. Link prediction: structural guarantees (scores are indices, not
#    probabilities, so there is no published number to pin; the contract is
#    symmetry, monotonicity, and a candidate set free of existing edges)
# ---------------------------------------------------------------------------


def test_linkpred_substituted_properties():
    with criterion("link prediction: symmetry, monotonicity, no adjacent candidates"):
        rng = random.Random(424242)
        for trial in range(10):
            n = rng.randint(8, 40)
            edge_pairs = oracles.random_graph(rng, n, 0.18)
            g = make_graph(n, edge_pairs)
            # symmetry of every index
            for _ in range(20):
                u, v = rng.sample(range(n), 2)
                for fn in (common_neighbors, jaccard, resource_allocation,
                           adamic_adar, preferential_attachment):
                    assert fn(g, u, v) == fn(g, v, u)
            # the candidate set provably excludes all adjacent pairs
            edge_names = {
                tuple(sorted((g.labels[u], g.labels[v]))) for u, v in edge_pairs
            }
            for method in Method:
                for ps in predict_top(g, method, 10_000):
                    assert (ps.u, ps.v) not in edge_names

            # monotone under a supporting edge: (u,z), z in N(v) never lowers
            # common-neighbors / resource-allocation / adamic-adar for (u,v)
            adj = oracles.adj_sets(n, edge_pairs)
            found = None
            for u in range(n):
                for v in range(n):
                    if u == v or v in adj[u]:
                        continue
                    for z in sorted(adj[v]):
                        if z != u and z not in adj[u]:
                            found = (u, v, z)
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                continue
            u, v, z = found
            before = (
                common_neighbors(g, u, v),
                resource_allocation(g, u, v),
                adamic_adar(g, u, v),
            )
            g2 = make_graph(n, sorted(set(edge_pairs) | {(min(u, z), max(u, z))}))
            assert common_neighbors(g2, u, v) >= before[0]
            assert resource_allocation(g2, u, v) >= before[1] - 1e-12
            assert adamic_adar(g2, u, v) >= before[2] - 1e-12


# ---------------------------------------------------------------------------
# 7. End-to-end determinism: byte-identical output trees
# ---------------------------------------------------------------------------


def _run_pipeline(catalog: Path, out: Path) -> None:
    def run(*argv: str) -> None:
        assert cli.main(list(argv)) == 0

    run("ingest", "--source", "netflix", "--input", str(catalog), "--out", str(out))
    run("build", "--records", str(out / "records.jsonl"), "--out", str(out))
    run("stats", "--records", str(out / "records.jsonl"), "--out", str(out))
    for measure in ("degree", "betweenness", "closeness", "eigenvector"):
        run("centrality", measure, "--graph", str(out / "graph.bin"), "--out", str(out))
    run("partners", "--top", "10", "--graph", str(out / "graph.bin"), "--out", str(out))
    run("predict", "jaccard", "--top", "10", "--graph", str(out / "graph.bin"),
        "--out", str(out))
    run("communities", "--graph", str(out / "graph.bin"), "--out", str(out))
    run("clusters", "--tau", "0.02", "--graph", str(out / "graph.bin"), "--out", str(out))
    run("crossover", "--graph", str(out / "graph.bin"), "--out", str(out))
    run("evolve", "--window", "4", "--step", "2",
        "--records", str(out / "records.jsonl"), "--out", str(out))
    run("export", "--format", "graphml", "--graph", str(out / "graph.bin"), "--out", str(out))
    run("export", "--format", "dot", "--graph", str(out / "graph.bin"), "--out", str(out))


def test_pipeline_determinism(tmp_path, catalog_csv):
    with criterion("determinism: two identical pipeline runs, byte-identical trees"):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        _run_pipeline(catalog_csv, first)
        _run_pipeline(catalog_csv, second)
        names_first = sorted(p.name for p in first.iterdir())
        names_second = sorted(p.name for p in second.iterdir())
        assert names_first == names_second
        for name in names_first:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{name} differs between identical runs"
            )
        report = json.loads((first / "run_report.json").read_text())
        assert "command" in report
