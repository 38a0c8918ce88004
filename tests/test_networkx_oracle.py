"""networkx as a second, independent oracle on mid-size graphs.

The brute-force oracles in ``oracles.py`` only scale to a few dozen nodes;
these graphs span several traversal blocks. Skipped without networkx.
"""

import numpy as np
import pytest

from castnet import linkpred
from castnet.centrality import (
    betweenness_centrality,
    closeness_centrality,
    eigenvector_centrality,
)
from castnet.community import louvain, modularity
from castnet.graph import CoGraph
from castnet.linkpred import Method, predict_top

nx = pytest.importorskip("networkx")

TOL = 1e-9


def _pair(nxg) -> CoGraph:
    """The castnet graph of a networkx graph whose nodes are 0..n-1."""
    n = nxg.number_of_nodes()
    return CoGraph.from_weighted_edges(
        [f"v{i:04d}" for i in range(n)], [(u, v, 1) for u, v in nxg.edges()]
    )


def _connected(n: int, p: float, seed: int):
    """A G(n, p) graph made connected by a Hamiltonian path."""
    nxg = nx.gnp_random_graph(n, p, seed=seed)
    nxg.add_edges_from((i, i + 1) for i in range(n - 1))
    return nxg


GRAPHS = {
    "connected-300": lambda: _connected(300, 0.025, seed=11),
    "disconnected-800": lambda: nx.gnp_random_graph(800, 3.0 / 800, seed=12),
}


def _as_array(scores: dict, n: int) -> np.ndarray:
    return np.array([scores[i] for i in range(n)])


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_betweenness_and_closeness_match_networkx(name):
    nxg = GRAPHS[name]()
    g = _pair(nxg)
    n = g.n
    if name.startswith("disconnected"):
        assert nx.number_connected_components(nxg) > 1
    betw = _as_array(nx.betweenness_centrality(nxg, normalized=True), n)
    close = _as_array(nx.closeness_centrality(nxg, wf_improved=True), n)
    assert np.abs(betweenness_centrality(g, threads=2).scores - betw).max() < TOL
    assert np.abs(closeness_centrality(g, threads=2).scores - close).max() < TOL


def test_closeness_matches_networkx_at_2000_nodes():
    nxg = nx.gnp_random_graph(2000, 3.0 / 2000, seed=13)  # many components
    close = _as_array(nx.closeness_centrality(nxg, wf_improved=True), 2000)
    assert np.abs(closeness_centrality(_pair(nxg)).scores - close).max() < TOL


@pytest.mark.parametrize("n, p, seed", [(300, 0.025, 14), (2000, 0.003, 15)])
def test_eigenvector_matches_networkx(n, p, seed):
    nxg = _connected(n, p, seed)
    ref = _as_array(nx.eigenvector_centrality_numpy(nxg), n)
    table = eigenvector_centrality(_pair(nxg))  # default tolerance
    assert table.params["converged"]
    assert np.abs(table.scores - ref).max() < TOL


@pytest.mark.parametrize(
    "nxg",
    [
        pytest.param(_connected(300, 0.025, seed=16), id="connected-300"),
        pytest.param(nx.gnp_random_graph(2000, 3.0 / 2000, seed=17), id="disconnected-2000"),
    ],
)
def test_modularity_of_louvain_matches_networkx(nxg):
    rng = np.random.default_rng(18)
    for u, v in nxg.edges():
        nxg[u][v]["weight"] = int(rng.integers(1, 5))
    g = CoGraph.from_weighted_edges(
        [f"v{i:04d}" for i in range(nxg.number_of_nodes())],
        [(u, v, w) for u, v, w in nxg.edges(data="weight")],
    )
    part = louvain(g, seed=19)
    groups = [set(members) for members in part.members()]
    ref = nx.community.modularity(nxg, groups, weight="weight")
    assert abs(modularity(g, part.assignment) - ref) < TOL


def test_link_prediction_matches_networkx(monkeypatch):
    """Every index over the non-edges with a common neighbor, with rows split
    into several blocks."""
    nxg = GRAPHS["connected-300"]()
    g = _pair(nxg)
    monkeypatch.setattr(linkpred, "BLOCK_WORK", 1 << 10)
    common = {(u, v): len(set(nx.common_neighbors(nxg, u, v))) for u, v in nx.non_edges(nxg)}
    pairs = [pair for pair, count in common.items() if count]
    reference = {
        Method.COMMON_NEIGHBORS: ((u, v, common[u, v]) for u, v in pairs),
        Method.JACCARD: nx.jaccard_coefficient(nxg, pairs),
        Method.RESOURCE_ALLOCATION: nx.resource_allocation_index(nxg, pairs),
        Method.ADAMIC_ADAR: nx.adamic_adar_index(nxg, pairs),
        Method.PREFERENTIAL_ATTACHMENT: nx.preferential_attachment(nxg, pairs),
    }
    for method, triples in reference.items():
        ref = {tuple(sorted((g.labels[u], g.labels[v]))): s for u, v, s in triples}
        got = {(ps.u, ps.v): ps.score for ps in predict_top(g, method, g.n * g.n)}
        assert got.keys() == ref.keys()
        assert max(abs(got[pair] - ref[pair]) for pair in ref) < TOL
