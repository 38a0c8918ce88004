"""The traversal kernels (bit-parallel reach counts, the level-synchronous
Brandes block) and their thread-count contract."""

import concurrent.futures
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import castnet
import oracles
from castnet import _bfs
from castnet.centrality import _brandes_block, betweenness_centrality, closeness_centrality
from conftest import make_graph


def test_brandes_block_matches_dependency_oracle():
    """Each block's summed dependencies, for sources in any order and blocks
    of any width, over a sparse or a dense adjacency, equal the brute-force
    path-counting sums."""
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(3, 40)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.4))
        g = make_graph(n, edges)
        adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(n, n))
        delta = oracles.dependencies(n, edges)
        sources = np.array(rng.sample(range(n), rng.randint(1, n)))
        for operand in (adj, adj.toarray()):
            got = _brandes_block(operand, sources)
            assert np.allclose(got, delta[sources].sum(axis=0), atol=1e-9)


def _distance_histograms(n, edges, sources):
    """``counts[d, j]`` for ``sources[j]`` from queue-BFS distances, with as
    many rows as the farthest source needs."""
    dists = [oracles.bfs_distances(n, edges, int(s)) for s in sources]
    depth = max([int(d.max()) for d in dists] + [0])
    return np.stack([np.bincount(d[d > 0], minlength=depth + 1) for d in dists], axis=1)


def test_reach_counts_are_per_source_distance_histograms():
    rng = random.Random(7)
    n = 45
    edges = oracles.random_graph(rng, n, 0.06)
    g = make_graph(n, edges)
    sources = np.array([0, 3, 17, 44])
    counts = _bfs.reach_counts(g.indptr, g.indices, sources)
    assert counts.dtype == np.int64
    assert not counts[0].any()
    for j, s in enumerate(sources):
        dist = oracles.bfs_distances(n, edges, int(s))
        expected = np.bincount(dist[dist > 0], minlength=len(counts))
        assert np.array_equal(counts[:, j], expected)


def test_bit_parallel_reach_counts_match_bfs_oracle():
    """Every block of a shuffled source order, the last one shorter than 64
    unless n is a multiple of it, on sparse and dense random graphs."""
    rng = random.Random(64)
    for n in (1, 2, 63, 64, 65, 130):
        for p in (1.5 / n, 4.0 / n, 0.3):
            edges = oracles.random_graph(rng, n, min(p, 1.0)) if n > 1 else []
            g = make_graph(n, edges)
            order = list(range(n))
            rng.shuffle(order)
            for lo in range(0, n, _bfs.BLOCK):
                sources = np.array(order[lo : lo + _bfs.BLOCK])
                counts = _bfs.reach_counts(g.indptr, g.indices, sources)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, _distance_histograms(n, edges, sources)), (n, p, lo)


def test_reach_counts_skip_isolated_nodes():
    n = 70
    edges = [(0, 1), (1, 2), (2, 3), (10, 11), (40, 69)]  # the other 62 nodes are isolated
    g = make_graph(n, edges)
    sources = np.array([69, 5, 3, 0, 11, 68, 40, 2])
    counts = _bfs.reach_counts(g.indptr, g.indices, sources)
    assert np.array_equal(counts, _distance_histograms(n, edges, sources))
    assert counts.tolist() == [[0] * 8, [1, 0, 1, 1, 1, 0, 1, 2], [0, 0, 1, 1, 0, 0, 0, 1],
                               [0, 0, 1, 1, 0, 0, 0, 0]]


def test_reach_counts_of_edgeless_graph_are_one_zero_row():
    g = make_graph(5, [])
    counts = _bfs.reach_counts(g.indptr, g.indices, np.array([4, 0, 2]))
    assert counts.dtype == np.int64
    assert counts.tolist() == [[0, 0, 0]]


def test_reach_counts_take_at_most_one_block():
    n = _bfs.BLOCK + 1
    g = make_graph(n, [(0, 1)])
    with pytest.raises(ValueError):
        _bfs.reach_counts(g.indptr, g.indices, np.arange(n))


@pytest.mark.parametrize("threads", [1, 2])
def test_betweenness_of_edgeless_graph_is_exactly_zero(threads):
    g = make_graph(_bfs.BLOCK + 3, [])  # two source blocks
    assert betweenness_centrality(g, threads=threads).scores.tolist() == [0.0] * g.n


def test_map_blocks_partition_is_fixed_and_ordered():
    g = make_graph(150, [(0, 1)])
    for threads in (1, 2, 5):
        results = list(_bfs.map_blocks(lambda op, b: (op, b), g, np.arange(150), threads))
        assert all(op is g for op, _ in results)  # the caller's operand, passed through
        blocks = [b for _, b in results]
        assert [(b[0], b[-1]) for b in blocks] == [(0, 63), (64, 127), (128, 149)]
    assert list(_bfs.map_blocks(lambda op, b: b, g, np.arange(0), 2)) == []


def _recorded_pools(monkeypatch) -> list:
    """The keyword arguments of every thread pool started from now on."""
    pools = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return pools


def test_traversals_start_a_pool_only_on_a_large_graph(monkeypatch):
    """Each kernel pools its blocks when the entries it reads per level reach
    its constant: ``n * n`` for a dense Brandes adjacency and ``nnz + n`` for
    a CSR one and for closeness. A pool never starts for one block or one
    thread, and the decision is the same on every run."""
    pools = _recorded_pools(monkeypatch)
    path = make_graph(150, [(i, i + 1) for i in range(149)])  # 150 nodes, 298 entries
    cases = [
        # (kernel, DENSE_MAX_NODES, constant, the least value that pools)
        (betweenness_centrality, 150, "DENSE_BRANDES_POOL_MIN_ENTRIES", 150 * 150),
        (betweenness_centrality, 149, "BRANDES_POOL_MIN_ENTRIES", 150 + 298),
        (closeness_centrality, 150, "CLOSENESS_POOL_MIN_ENTRIES", 150 + 298),
    ]
    for kernel, dense_max, constant, least in cases:
        monkeypatch.setattr(_bfs, "DENSE_MAX_NODES", dense_max)
        for min_entries, threads, pooled in [
            (least + 1, 2, False), (least, 1, False), (least, 2, True), (least, 3, True)
        ]:
            monkeypatch.setattr(_bfs, constant, min_entries)
            for _ in range(2):
                del pools[:]
                kernel(path, threads=threads)
                assert pools == ([{"max_workers": threads}] if pooled else []), (
                    kernel.__name__, constant, min_entries, threads)
        monkeypatch.setattr(_bfs, constant, 0)
        del pools[:]
        kernel(make_graph(_bfs.BLOCK, [(0, 1), (1, 2)]), threads=2)  # one block
        assert pools == []


def test_pool_decision_never_reads_the_clock(monkeypatch):
    """Whether a traversal pools depends on the graph and ``threads`` alone,
    so a clock that cannot be read changes nothing."""
    pools = _recorded_pools(monkeypatch)
    g = make_graph(150, [(i, i + 1) for i in range(149)])
    expected = {}
    for kernel in (betweenness_centrality, closeness_centrality):
        expected[kernel] = kernel(g, threads=2).scores.tobytes()

    def refused():
        raise AssertionError("a traversal read the clock")

    monkeypatch.setattr(time, "perf_counter", refused)
    monkeypatch.setattr(time, "monotonic", refused)
    for zero_threshold in (False, True):
        if zero_threshold:
            for name in ("DENSE_BRANDES_POOL_MIN_ENTRIES", "CLOSENESS_POOL_MIN_ENTRIES"):
                monkeypatch.setattr(_bfs, name, 0)
        del pools[:]
        for kernel in (betweenness_centrality, closeness_centrality):
            assert kernel(g, threads=2).scores.tobytes() == expected[kernel]
        assert len(pools) == (2 if zero_threshold else 0)


def test_gather_neighbors_concatenates_rows_in_order():
    g = make_graph(6, [(0, 3), (3, 5), (1, 4), (0, 5)])
    rows = np.array([5, 0, 2, 3])
    expected = np.concatenate([g.neighbors(int(r)) for r in rows])
    assert np.array_equal(_bfs.gather_neighbors(g.indptr, g.indices, rows), expected)
    assert len(_bfs.gather_neighbors(g.indptr, g.indices, np.array([2]))) == 0


def test_thread_counts_bit_identical_across_blocks(monkeypatch):
    """Betweenness and closeness give the same bytes at 1, 2 and 3 threads,
    on a graph spanning a dozen source blocks (with isolated nodes and small
    components), with the pool started however light the blocks are."""
    for name in ("DENSE_BRANDES_POOL_MIN_ENTRIES", "BRANDES_POOL_MIN_ENTRIES",
                 "CLOSENESS_POOL_MIN_ENTRIES"):
        monkeypatch.setattr(_bfs, name, 0)
    n = 12 * _bfs.BLOCK + 40
    g = make_graph(n, oracles.random_graph(random.Random(99), n, 2.5 / n))
    results = []
    for threads in (1, 2, 3):
        results.append((
            betweenness_centrality(g, threads=threads).scores.tobytes(),
            closeness_centrality(g, threads=threads).scores.tobytes(),
        ))
    assert results[0] == results[1] == results[2]
    reached = sum(
        _bfs.reach_counts(g.indptr, g.indices, np.arange(n)[lo : lo + _bfs.BLOCK]).sum()
        for lo in range(0, n, _bfs.BLOCK)
    )
    assert reached < n * (n - 1)  # the graph really is disconnected


def test_importing_the_cli_does_not_load_scipy():
    """scipy costs ~0.2 s per process; only betweenness above
    ``_bfs.DENSE_MAX_NODES`` nodes imports it."""
    code = "import sys, castnet.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(castnet.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
