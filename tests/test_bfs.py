"""The level-synchronous traversal primitive and its thread-count contract."""

import os
import random
import subprocess
import sys

import numpy as np

import castnet
import oracles
from castnet import _bfs
from castnet.centrality import betweenness_centrality, closeness_centrality
from castnet.paths import distance_histogram
from conftest import make_graph


def _all_source_levels(g):
    """(dist, sigma) as n x n matrices, row = source, from one block."""
    n = g.n
    dist = np.full((n, n), -1, np.int64)
    sigma = np.eye(n)
    np.fill_diagonal(dist, 0)
    for level, new, counts in _bfs.levels(_bfs.adjacency(g), np.arange(n)):
        dist[new.T] = level
        sigma += counts.T
    return dist, sigma


def test_levels_match_distance_and_path_count_oracles():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(3, 40)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.4))
        g = make_graph(n, edges)
        dist, sigma = _all_source_levels(g)
        fw = oracles.floyd_warshall(n, edges)
        assert np.array_equal(dist, np.where(np.isinf(fw), -1, fw))
        assert np.array_equal(sigma, oracles.path_counts(n, edges, fw))


def test_reach_counts_are_per_source_distance_histograms():
    rng = random.Random(7)
    n = 45
    edges = oracles.random_graph(rng, n, 0.06)
    g = make_graph(n, edges)
    sources = np.array([0, 3, 17, 44])
    counts = _bfs.reach_counts(_bfs.adjacency(g), sources)
    assert counts.dtype == np.int64
    assert not counts[0].any()
    for j, s in enumerate(sources):
        dist = oracles.bfs_distances(n, edges, int(s))
        expected = np.bincount(dist[dist > 0], minlength=len(counts))
        assert np.array_equal(counts[:, j], expected)


def test_levels_of_edgeless_graph_yield_nothing():
    g = make_graph(3, [])
    assert list(_bfs.levels(_bfs.adjacency(g), np.arange(3))) == []


def test_map_blocks_partition_is_fixed_and_ordered():
    g = make_graph(150, [(0, 1)])
    for threads in (1, 2, 5):
        blocks = list(_bfs.map_blocks(g, lambda adj, b: b, np.arange(150), threads))
        assert [(b[0], b[-1]) for b in blocks] == [(0, 63), (64, 127), (128, 149)]
    assert list(_bfs.map_blocks(g, lambda adj, b: b, np.arange(0), 2)) == []


def test_gather_neighbors_concatenates_rows_in_order():
    g = make_graph(6, [(0, 3), (3, 5), (1, 4), (0, 5)])
    rows = np.array([5, 0, 2, 3])
    expected = np.concatenate([g.neighbors(int(r)) for r in rows])
    assert np.array_equal(_bfs.gather_neighbors(g.indptr, g.indices, rows), expected)
    assert len(_bfs.gather_neighbors(g.indptr, g.indices, np.array([2]))) == 0


def test_thread_counts_bit_identical_across_blocks():
    """Betweenness, closeness and the distance histogram give the same bytes
    at 1, 2 and 3 threads, on a graph spanning a dozen source blocks (with
    isolated nodes and small components)."""
    n = 12 * _bfs.BLOCK + 40
    g = make_graph(n, oracles.random_graph(random.Random(99), n, 2.5 / n))
    results = []
    for threads in (1, 2, 3):
        hist = distance_histogram(g, sample_sources=n, seed=5, threads=threads)
        results.append((
            betweenness_centrality(g, threads=threads).scores.tobytes(),
            closeness_centrality(g, threads=threads).scores.tobytes(),
            sorted(hist.counts.items()),
            hist.unreachable_pairs,
        ))
    assert results[0] == results[1] == results[2]
    assert results[0][3] > 0  # the graph really is disconnected


def test_importing_the_cli_does_not_load_scipy():
    """scipy costs ~0.2 s per process; only all-source traversals import it."""
    code = "import sys, castnet.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(castnet.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
