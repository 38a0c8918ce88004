import math
import os
import random
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import castnet
from castnet.centrality import (
    Scores,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from castnet.errors import EmptyGraphError, TooFewNodesError
from castnet.graph import CoGraph
from conftest import make_graph


@st.composite
def clique_graphs(draw) -> tuple[int, set]:
    """A few cliques and random edges among 3-12 actors, relabelled into a
    larger set of isolated actors, sometimes past one 64-source block."""
    core = draw(st.integers(3, 12))
    edges = set()
    for clique in draw(st.lists(st.lists(st.integers(0, core - 1), min_size=2, max_size=5,
                                         unique=True), max_size=3)):
        edges.update(combinations(sorted(clique), 2))
    for u, v in draw(st.lists(st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)),
                              max_size=10)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    n = core + draw(st.integers(0, 80))
    place = draw(st.permutations(range(n)))
    return n, {(min(place[u], place[v]), max(place[u], place[v])) for u, v in edges}


class TestDegree:
    def test_k3_all_one(self, k3):
        assert list(degree_centrality(k3).scores) == [1.0, 1.0, 1.0]

    def test_p3_endpoint_half(self, p3):
        scores = degree_centrality(p3).scores
        assert scores[0] == 0.5 and scores[2] == 0.5 and scores[1] == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewNodesError):
            degree_centrality(CoGraph.from_weighted_edges(["a"], []))


class TestBetweenness:
    def test_p3_center_exactly_one(self, p3):
        scores = betweenness_centrality(p3).scores
        assert scores[1] == 1.0
        assert scores[0] == 0.0 and scores[2] == 0.0

    def test_k3_all_zero(self, k3):
        assert np.all(betweenness_centrality(k3).scores == 0.0)

    def test_too_few(self, p3):
        with pytest.raises(TooFewNodesError):
            betweenness_centrality(CoGraph.from_weighted_edges(["a", "b"], [(0, 1, 1)]))

    def test_thread_count_is_bit_identical(self):
        rng = random.Random(5)
        edges = oracles.random_graph(rng, 300, 0.03)
        g = make_graph(300, edges)
        one = betweenness_centrality(g, threads=1).scores
        four = betweenness_centrality(g, threads=4).scores
        assert np.array_equal(one, four)

    def test_disconnected_pairs_contribute_zero(self, two_triangles):
        assert np.all(betweenness_centrality(two_triangles).scores == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(clique_graphs())
    def test_exactly_zero_when_and_only_when_neighbours_form_a_clique(self, graph):
        """A simplicial actor lies inside no shortest path, so it must score
        exactly 0.0, at every thread count; every other actor scores above 0."""
        n, edges = graph
        neighbours = [set() for _ in range(n)]
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        simplicial = [all(b in neighbours[a] for a, b in combinations(sorted(nb), 2))
                      for nb in neighbours]
        g = make_graph(n, sorted(edges))
        for threads in (1, 2):
            scores = betweenness_centrality(g, threads=threads).scores
            assert [s == 0.0 for s in scores.tolist()] == simplicial
            assert np.all(scores >= 0.0)


class TestCloseness:
    def test_p3(self, p3):
        scores = closeness_centrality(p3).scores
        assert scores[1] == 1.0
        assert scores[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_isolated_node_zero(self):
        g = CoGraph.from_weighted_edges(["a", "b", "c"], [(0, 1, 1)])
        assert closeness_centrality(g).scores[2] == 0.0

    def test_component_scaling_reduces_on_connected(self, k3):
        # connected graph: (g-1)/sum(d) exactly
        assert np.allclose(closeness_centrality(k3).scores, 1.0)

    def test_two_components_scaled(self, two_triangles):
        # r=2 of g-1=5 possible, distances sum 2: (2/5)*(2/2) = 0.4
        assert np.allclose(closeness_centrality(two_triangles).scores, 0.4)


class TestEigenvector:
    def test_k3_uniform(self, k3):
        table = eigenvector_centrality(k3)
        assert np.allclose(table.scores, 1 / math.sqrt(3), atol=1e-10)
        assert table.params["converged"] is True
        assert table.params["lambda"] == pytest.approx(2.0, abs=1e-9)

    def test_star_ratio_sqrt3(self, star4):
        table = eigenvector_centrality(star4, tol=1e-12)
        ratio = table.scores[0] / table.scores[1]
        assert ratio == pytest.approx(math.sqrt(3), abs=1e-8)
        assert table.params["lambda"] == pytest.approx(math.sqrt(3), abs=1e-8)
        # dense eigensolver oracle on the 4x4 adjacency
        mat = np.zeros((4, 4))
        for u, v, _ in star4.edges():
            mat[u, v] = mat[v, u] = 1.0
        vals, vecs = np.linalg.eigh(mat)
        dominant = np.abs(vecs[:, np.argmax(vals)])
        assert np.allclose(table.scores, dominant, atol=1e-8)

    def test_p3_ratio_sqrt2(self, p3):
        table = eigenvector_centrality(p3, tol=1e-12)
        assert table.scores[1] / table.scores[0] == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_no_edges_raises(self):
        with pytest.raises(EmptyGraphError):
            eigenvector_centrality(CoGraph.from_weighted_edges(["a", "b"], []))

    def test_non_convergence_flagged_not_raised(self, star4):
        table = eigenvector_centrality(star4, tol=0.0, max_iter=5)
        assert table.params["converged"] is False
        assert table.params["iterations"] == 5
        assert np.all(np.isfinite(table.scores))

    def test_strictly_positive_on_connected(self):
        rng = random.Random(9)
        for seed in range(5):
            n = rng.randint(3, 20)
            edges = {(i, i + 1) for i in range(n - 1)}  # spine keeps it connected
            edges |= set(oracles.random_graph(random.Random(seed), n, 0.2))
            g = make_graph(n, sorted(edges))
            scores = eigenvector_centrality(g).scores
            assert np.all(scores > 0)

    def test_bytes_independent_of_blas_threads(self):
        """OpenBLAS splits long dot products across its threads; on this
        12k-node graph that changed the last bits of the scores and of lambda."""
        code = (
            "import hashlib, numpy as np\n"
            "from castnet.centrality import eigenvector_centrality\n"
            "from castnet.graph import CoGraph\n"
            "n = 12_000\n"
            "u, v = np.random.default_rng(7).integers(0, n, (2, 120_000))\n"
            "keep = u < v\n"
            "edges = zip(u[keep].tolist(), v[keep].tolist(), [1] * int(keep.sum()))\n"
            "g = CoGraph.from_weighted_edges([str(i) for i in range(n)], edges)\n"
            "table = eigenvector_centrality(g)\n"
            "print(hashlib.sha256(table.scores.tobytes()).hexdigest(), repr(table.params['lambda']))"
        )
        outputs = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(castnet.__file__)),
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_measures_match_bruteforce(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(4, 50)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.5))
        g = make_graph(n, edges)

        assert np.allclose(
            degree_centrality(g).scores,
            [len(a) / (n - 1) for a in oracles.adj_sets(n, edges)],
            atol=1e-12,
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


class TestProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds(self, seed):
        rng = random.Random(50 + seed)
        n = rng.randint(4, 40)
        g = make_graph(n, oracles.random_graph(rng, n, 0.3))
        for table in (degree_centrality(g), closeness_centrality(g), betweenness_centrality(g)):
            assert np.all(table.scores >= 0.0)
            assert np.all(table.scores <= 1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_relabeling_equivariance(self, seed):
        rng = random.Random(99 + seed)
        n = rng.randint(4, 30)
        edges = oracles.random_graph(rng, n, 0.25)
        g = make_graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)  # perm[i] = new index of old node i
        permuted_edges = [(perm[u], perm[v], 1) for u, v in edges]
        g2 = CoGraph.from_weighted_edges([f"actor{i:03d}" for i in range(n)], permuted_edges)
        for fn in (degree_centrality, betweenness_centrality, closeness_centrality):
            base = fn(g).scores
            moved = fn(g2).scores
            assert np.allclose([moved[perm[i]] for i in range(n)], base, atol=1e-12)

    def test_ranked_tie_break_lexicographic(self, two_triangles):
        ranked = degree_centrality(two_triangles).ranked(two_triangles.labels)
        assert [name for name, _ in ranked] == sorted(two_triangles.labels)

    @pytest.mark.parametrize("seed", range(20))
    def test_ranked_matches_sort_by_score_then_name(self, seed):
        """Equal scores and repeated labels keep the order of the key
        ``(-score, label)`` under a stable sort."""
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        labels = [rng.choice("abcdef") * rng.randint(1, 2) for _ in range(n)]
        scores = np.array([rng.choice([0.0, 0.25, 0.5, 1.0, 1 / 3]) for _ in range(n)])
        order = sorted(range(n), key=lambda i: (-scores[i], labels[i]))
        expected = [(labels[i], float(scores[i])) for i in order]
        assert Scores(scores).ranked(labels) == expected
