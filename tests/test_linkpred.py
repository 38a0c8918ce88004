import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import castnet
import oracles
from castnet import linkpred
from castnet.errors import CandidateExplosionError
from castnet.graph import CoGraph
from castnet.linkpred import Method, predict_top
from conftest import make_graph


@pytest.fixture
def hand_fixture():
    """N(u)={a,b,c}, N(v)={b,c,d} with u=0, v=1, a..d = 2..5."""
    edges = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)]
    return make_graph(6, edges)


def _scores(g: CoGraph, method: Method, min_common: int = 1) -> dict[tuple[str, str], float]:
    """Every pair ``predict_top`` lists, by sorted name pair."""
    got = predict_top(g, method, g.n * g.n, min_common)
    return {(ps.u, ps.v): ps.score for ps in got}


def _score(g: CoGraph, method: Method, u: int, v: int) -> float:
    """The listed score of the pair (u, v); a pair absent from the list scores 0."""
    return _scores(g, method).get(tuple(sorted((g.labels[u], g.labels[v]))), 0.0)


class TestIndices:
    def test_k3_common_neighbor(self, k3):
        """Each K3 pair has a common neighbor, but is adjacent: no candidate."""
        assert predict_top(k3, Method.COMMON_NEIGHBORS, 9) == []

    def test_cross_component_zero(self, two_triangles):
        assert _score(two_triangles, Method.COMMON_NEIGHBORS, 0, 3) == 0
        assert _score(two_triangles, Method.JACCARD, 0, 3) == 0.0

    def test_hand_fixture_common(self, hand_fixture):
        assert _score(hand_fixture, Method.COMMON_NEIGHBORS, 0, 1) == 2

    def test_hand_fixture_jaccard(self, hand_fixture):
        assert _score(hand_fixture, Method.JACCARD, 0, 1) == 0.5

    def test_jaccard_identical_neighborhoods(self):
        g = make_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert _score(g, Method.JACCARD, 0, 1) == 1.0

    def test_jaccard_both_empty(self):
        g = CoGraph.from_weighted_edges(["a", "b", "c", "d"], [(2, 3, 1)])
        assert _score(g, Method.JACCARD, 0, 1) == 0.0  # both neighborhoods empty

    def test_ra_examples(self):
        g = make_graph(4, [(0, 2), (1, 2), (2, 3)])  # z=2 has degree 3
        assert _score(g, Method.RESOURCE_ALLOCATION, 0, 1) == pytest.approx(1 / 3)
        g2 = make_graph(4, [(0, 2), (1, 2)])  # z degree 2
        assert _score(g2, Method.RESOURCE_ALLOCATION, 0, 1) == 0.5

    def test_ra_two_common(self):
        # common z-degrees {2, 4} -> 1/2 + 1/4
        edges = [(0, 2), (1, 2), (0, 3), (1, 3), (3, 4), (3, 5)]
        g = make_graph(6, edges)
        assert _score(g, Method.RESOURCE_ALLOCATION, 0, 1) == pytest.approx(0.75)

    def test_ra_no_common(self, two_triangles):
        assert _score(two_triangles, Method.RESOURCE_ALLOCATION, 0, 3) == 0.0

    def test_aa_single(self):
        g = make_graph(4, [(0, 2), (1, 2)])
        assert _score(g, Method.ADAMIC_ADAR, 0, 1) == pytest.approx(1 / math.log(2), abs=1e-12)

    def test_aa_two_common(self):
        edges = [(0, 2), (1, 2), (0, 3), (1, 3), (3, 4), (3, 5)]
        g = make_graph(6, edges)
        expected = 1 / math.log(2) + 1 / math.log(4)
        assert _score(g, Method.ADAMIC_ADAR, 0, 1) == pytest.approx(expected, abs=1e-12)

    def test_pa(self, p3):
        assert _score(p3, Method.PREFERENTIAL_ATTACHMENT, 0, 2) == 1.0
        g = make_graph(7, [(0, 1), (0, 2), (0, 3), (6, 1), (6, 2), (6, 3)])
        assert _score(g, Method.PREFERENTIAL_ATTACHMENT, 0, 6) == 9.0

    def test_pa_isolated_zero(self):
        g = CoGraph.from_weighted_edges(["a", "b", "c"], [(0, 1, 1)])
        assert _scores(g, Method.PREFERENTIAL_ATTACHMENT, min_common=0)[("a", "c")] == 0.0


ORACLES = {
    Method.COMMON_NEIGHBORS: oracles.common_neighbors,
    Method.JACCARD: oracles.jaccard,
    Method.RESOURCE_ALLOCATION: oracles.resource_allocation,
    Method.ADAMIC_ADAR: oracles.adamic_adar,
    Method.PREFERENTIAL_ATTACHMENT: oracles.preferential_attachment,
}


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_indices_match_set_oracle(self, seed):
        """Every non-adjacent pair: listed with the oracle's score, or absent
        and scored 0. Preferential attachment is asked for every pair."""
        rng = random.Random(700 + seed)
        n = rng.randint(4, 50)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.5))
        g = make_graph(n, edges)
        neigh = oracles.adj_sets(n, edges)
        for method, oracle in ORACLES.items():
            zero_common = method is Method.PREFERENTIAL_ATTACHMENT
            scores = _scores(g, method, min_common=0 if zero_common else 1)
            for u in range(n):
                for v in range(u + 1, n):
                    if v in neigh[u]:
                        continue
                    pair = (g.labels[u], g.labels[v])
                    got = scores[pair] if zero_common else scores.get(pair, 0.0)
                    assert got == pytest.approx(oracle(neigh, u, v), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry(self, seed):
        """Numbering the nodes in reverse swaps which end of each pair comes
        first, and lists the same pairs with the same scores."""
        rng = random.Random(900 + seed)
        n = rng.randint(4, 30)
        edges = oracles.random_graph(rng, n, 0.2)
        g = make_graph(n, edges)
        flipped = CoGraph.from_weighted_edges(
            g.labels[::-1], [(n - 1 - u, n - 1 - v, 1) for u, v in edges]
        )
        for method in Method:
            scores = _scores(g, method)
            assert _scores(flipped, method) == pytest.approx(scores, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_under_supporting_edge(self, seed):
        """Adding (u, z) with z in N(v) never decreases CN / RA / AA for (u, v)."""
        rng = random.Random(1100 + seed)
        n = rng.randint(5, 30)
        edges = set(oracles.random_graph(rng, n, 0.2))
        g = make_graph(n, sorted(edges))
        found = None
        for u in range(n):
            for v in range(n):
                if u == v or v in set(map(int, g.neighbors(u))):
                    continue
                for z in map(int, g.neighbors(v)):
                    if z != u and z not in set(map(int, g.neighbors(u))):
                        found = (u, v, z)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            pytest.skip("fixture has no augmentable pair")
        u, v, z = found
        g2 = make_graph(n, sorted(edges | {(min(u, z), max(u, z))}))
        methods = (Method.COMMON_NEIGHBORS, Method.RESOURCE_ALLOCATION, Method.ADAMIC_ADAR)
        before = [_score(g, method, u, v) for method in methods]
        after = [_score(g2, method, u, v) for method in methods]
        assert after[0] >= before[0]
        assert after[1] >= before[1] - 1e-12
        assert after[2] >= before[2] - 1e-12


class TestPredictTop:
    def test_two_disjoint_triangles_empty(self, two_triangles):
        assert predict_top(two_triangles, Method.JACCARD, 5) == []

    @pytest.mark.parametrize("method", list(Method), ids=lambda method: method.value)
    def test_method_value_means_its_method(self, method):
        """A method's string value gives the same pairs and scores as the
        member, at every ``min_common`` the method accepts."""
        rng = random.Random(5)
        g = make_graph(30, oracles.random_graph(rng, 30, 0.15))
        for min_common in (0, 1, 2) if method is Method.PREFERENTIAL_ATTACHMENT else (1, 2):
            expected = predict_top(g, method, 10, min_common)
            assert expected
            assert predict_top(g, method.value, 10, min_common) == expected

    def test_unknown_method_raises(self, two_triangles):
        with pytest.raises(ValueError, match="nonsense"):
            predict_top(two_triangles, "nonsense", 5)

    def test_five_cycle_common_neighbors(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        scores = predict_top(g, Method.COMMON_NEIGHBORS, 10)
        assert len(scores) == 5
        assert all(ps.score == 1.0 for ps in scores)

    def test_candidates_exclude_adjacent_pairs(self):
        rng = random.Random(42)
        n = 30
        edges = oracles.random_graph(rng, n, 0.2)
        g = make_graph(n, edges)
        edge_names = {
            tuple(sorted((g.labels[u], g.labels[v]))) for u, v in edges
        }
        for method in Method:
            for ps in predict_top(g, method, 1000):
                assert (ps.u, ps.v) not in edge_names
                assert ps.u < ps.v

    def test_ordering_score_then_names(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        scores = predict_top(g, Method.COMMON_NEIGHBORS, 10)
        keys = [(-ps.score, ps.u, ps.v) for ps in scores]
        assert keys == sorted(keys)

    def test_min_common_filter(self, hand_fixture):
        got = predict_top(hand_fixture, Method.COMMON_NEIGHBORS, 10, min_common=2)
        # (u,v) share {b,c}; (b,c) themselves share {u,v}
        assert [(ps.u, ps.v) for ps in got] == [
            ("actor000", "actor001"),
            ("actor003", "actor004"),
        ]
        stricter = predict_top(hand_fixture, Method.COMMON_NEIGHBORS, 10, min_common=3)
        assert stricter == []

    def test_candidate_explosion(self):
        g = make_graph(20, [(0, i) for i in range(1, 20)])  # star: many 2-hop pairs
        with pytest.raises(CandidateExplosionError):
            predict_top(g, Method.COMMON_NEIGHBORS, 5, cap=10)

    def test_zero_common_requires_preferential_attachment(self, two_triangles):
        with pytest.raises(ValueError):
            predict_top(two_triangles, Method.JACCARD, 3, min_common=0)
        got = predict_top(two_triangles, Method.PREFERENTIAL_ATTACHMENT, 100, min_common=0)
        assert len(got) == 9  # 3x3 cross-component pairs
        assert all(ps.score == 4.0 for ps in got)

    def test_invalid_k(self, k3):
        with pytest.raises(ValueError):
            predict_top(k3, Method.JACCARD, 0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_jaccard_always_in_unit_interval(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 25)
    edges = oracles.random_graph(rng, n, rng.uniform(0.0, 0.6))
    g = make_graph(n, edges)
    assert all(0.0 < ps.score <= 1.0 for ps in predict_top(g, Method.JACCARD, n * n))


def _oracle_top(g: CoGraph, method: Method, k: int, min_common: int) -> list[tuple]:
    """Every qualifying non-adjacent pair scored from dense matrices, sorted by
    (-score, a, b). RA and AA add z's terms in increasing z, one rank-one
    update at a time, which is the order ``predict_top`` adds them in."""
    n = g.n
    adj = np.zeros((n, n))
    for u, v, _ in g.edges():
        adj[u, v] = adj[v, u] = 1.0
    deg = adj.sum(axis=1).astype(np.int64)
    common = (adj @ adj).astype(np.int64)
    ra, aa = np.zeros((n, n)), np.zeros((n, n))
    for z in range(n):
        if deg[z] > 1:
            both = np.outer(adj[:, z], adj[z])
            ra += both * (1.0 / deg[z])
            aa += both * (1.0 / np.log(deg[z]))
    keyed = []
    for u in range(n):
        for v in range(u + 1, n):
            cn = int(common[u, v])
            if adj[u, v] or cn < min_common:
                continue
            score = {
                Method.COMMON_NEIGHBORS: float(cn),
                Method.JACCARD: cn / (int(deg[u]) + int(deg[v]) - cn) if cn else 0.0,
                Method.RESOURCE_ALLOCATION: float(ra[u, v]),
                Method.ADAMIC_ADAR: float(aa[u, v]),
                Method.PREFERENTIAL_ATTACHMENT: float(deg[u]) * float(deg[v]),
            }[method]
            keyed.append((-score, *sorted((g.labels[u], g.labels[v]))))
    keyed.sort()
    return [(a, b, -neg) for neg, a, b in keyed[:k]]


@st.composite
def tied_graphs(draw) -> CoGraph:
    """Disjoint copies of one small random graph, under shuffled labels: the
    copies tie on every index, so the names decide most of the order."""
    size = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    base = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    copies = draw(st.integers(1, 3))
    n = size * copies
    labels = draw(
        st.lists(st.text("aAb_é", min_size=1, max_size=4), min_size=n, max_size=n, unique=True)
    )
    edges = [(u + c * size, v + c * size, 1) for c in range(copies) for u, v in base]
    return CoGraph.from_weighted_edges(labels, edges)


@pytest.mark.parametrize("block_work", [linkpred.BLOCK_WORK, 1])
@settings(max_examples=60, deadline=None)
@given(
    g=tied_graphs(),
    method=st.sampled_from(list(Method)),
    min_common=st.sampled_from([0, 1, 2, 3]),
)
def test_predict_top_matches_dense_oracle(block_work, g, method, min_common):
    if min_common == 0 and method is not Method.PREFERENTIAL_ATTACHMENT:
        method = Method.PREFERENTIAL_ATTACHMENT  # the only index defined without common neighbors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linkpred, "BLOCK_WORK", block_work)
        for k in (1, 5, g.n * g.n):
            got = predict_top(g, method, k, min_common)
            assert [(ps.u, ps.v, ps.score) for ps in got] == _oracle_top(g, method, k, min_common)


@pytest.mark.parametrize("min_common", [0, 1, 2])
def test_one_row_per_block_gives_the_same_list(monkeypatch, min_common):
    """A graph large enough for many terms per RA / AA sum, split into blocks
    of one row each as well as whole."""
    rng = random.Random(31)
    n = 150
    labels = [f"p{rng.randrange(10**6):06d}-{i}" for i in range(n)]
    edges = [(u, v, 1) for u, v in oracles.random_graph(rng, n, 0.08)]
    g = CoGraph.from_weighted_edges(labels, edges)
    methods = [Method.PREFERENTIAL_ATTACHMENT] if min_common == 0 else list(Method)
    for method in methods:
        expected = _oracle_top(g, method, n * n, min_common)
        for block_work in (linkpred.BLOCK_WORK, 1):
            monkeypatch.setattr(linkpred, "BLOCK_WORK", block_work)
            for k in (1, 20, n * n):
                got = predict_top(g, method, k, min_common)
                assert [(ps.u, ps.v, ps.score) for ps in got] == expected[:k]


def test_default_has_no_candidate_cap():
    g = make_graph(20, [(0, i) for i in range(1, 20)])  # star: 171 two-hop pairs
    assert len(predict_top(g, Method.COMMON_NEIGHBORS, 1000)) == 171
    assert len(predict_top(g, Method.COMMON_NEIGHBORS, 1000, cap=171)) == 171


def test_predict_does_not_load_scipy(tmp_path):
    """scipy costs ~0.2 s per process, which ``predict`` does not need."""
    from castnet.graphio import save_cache

    graph = tmp_path / "graph.bin"
    save_cache(graph, make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))
    code = (
        "import sys, castnet.cli\n"
        f"code = castnet.cli.main(['predict', 'adamic_adar', '--top', '3',"
        f" '--graph', {str(graph)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if 'scipy' in m))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(castnet.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
