import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from castnet.errors import UnknownActorError
from castnet.graph import CoGraph
from castnet.ingest import TitleKind, TitleRecord
from castnet.paths import (
    AnnotatedPath,
    Unreachable,
    render_path,
    shortest_path,
    top_partnerships,
)
from conftest import graph_of, make_graph


def annotated_graph():
    records = [
        TitleRecord("t1", "First Film", TitleKind.MOVIE, 2000, (), ("Ann", "Bob")),
        TitleRecord("t2", "Second Film", TitleKind.MOVIE, 2001, (), ("Ann", "Bob")),
        TitleRecord("t3", "Third Film", TitleKind.MOVIE, 2002, (), ("Bob", "Cat")),
        TitleRecord("t4", "Fourth Film", TitleKind.MOVIE, 2003, (), ("Dee",)),
    ]
    return graph_of(records)


class TestShortestPath:
    def test_same_actor_zero_length(self):
        g = annotated_graph()
        result = shortest_path(g, "Ann", "Ann")
        assert isinstance(result, AnnotatedPath)
        assert result.length == 0

    def test_direct_costars_lists_shared_titles(self):
        g = annotated_graph()
        result = shortest_path(g, "Ann", "Bob")
        assert result.length == 1
        assert result.hops[0].titles == ("First Film", "Second Film")

    def test_two_hops(self):
        g = annotated_graph()
        result = shortest_path(g, "Ann", "Cat")
        assert result.nodes() == ["Ann", "Bob", "Cat"]
        assert result.hops[1].titles == ("Third Film",)

    def test_unreachable_is_a_value(self):
        g = annotated_graph()
        result = shortest_path(g, "Ann", "Dee")
        assert isinstance(result, Unreachable)

    def test_unknown_actor_raises(self):
        g = annotated_graph()
        with pytest.raises(UnknownActorError):
            shortest_path(g, "Ann", "Nobody")

    def test_lexicographic_tie_break(self):
        # two equal-length routes 0-1-3 and 0-2-3; names make "b1" < "b2"
        g = CoGraph.from_weighted_edges(
            ["a", "b2", "b1", "z"], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
        )
        result = shortest_path(g, "a", "z")
        assert result.nodes() == ["a", "b1", "z"]

    def test_render(self):
        g = annotated_graph()
        text = render_path(shortest_path(g, "Ann", "Cat"))
        assert text == "Ann —[First Film; Second Film]→ Bob —[Third Film]→ Cat"
        assert "not connected" in render_path(shortest_path(g, "Ann", "Dee"))

    @pytest.mark.parametrize("seed", range(8))
    def test_length_matches_floyd_warshall(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(4, 50)
        edges = oracles.random_graph(rng, n, rng.uniform(0.05, 0.3))
        g = make_graph(n, edges)
        dist = oracles.floyd_warshall(n, edges)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(25)]
        adj = oracles.adj_sets(n, edges)
        for u, v in pairs:
            result = shortest_path(g, g.labels[u], g.labels[v])
            if np.isinf(dist[u, v]):
                assert isinstance(result, Unreachable)
            else:
                assert result.length == dist[u, v]
                # the lexicographically smallest shortest path, picked
                # greedily on Floyd-Warshall distances
                expected = [u]
                while expected[-1] != v:
                    cur = expected[-1]
                    closer = [w for w in adj[cur] if dist[w, v] == dist[cur, v] - 1]
                    expected.append(min(closer, key=g.labels.__getitem__))
                if u != v:  # a zero-length path lists no nodes
                    assert [g.node(name) for name in result.nodes()] == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_of_distance(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(4, 30)
        edges = oracles.random_graph(rng, n, 0.15)
        g = make_graph(n, edges)
        for _ in range(10):
            u, v = rng.randrange(n), rng.randrange(n)
            fwd = shortest_path(g, g.labels[u], g.labels[v])
            rev = shortest_path(g, g.labels[v], g.labels[u])
            if isinstance(fwd, Unreachable):
                assert isinstance(rev, Unreachable)
            else:
                assert fwd.length == rev.length


class TestTopPartnerships:
    def test_weight_winner(self):
        g = CoGraph.from_weighted_edges(
            ["a", "b", "c", "d"], [(0, 1, 3), (1, 2, 1), (2, 3, 1)]
        )
        assert top_partnerships(g, 1) == [("a", "b", 3)]

    def test_tie_break_lexicographic(self):
        g = CoGraph.from_weighted_edges(
            ["d", "c", "b", "a"], [(0, 1, 2), (2, 3, 2)]
        )
        assert top_partnerships(g, 2) == [("a", "b", 2), ("c", "d", 2)]

    def test_k_larger_than_edges(self, p3):
        assert len(top_partnerships(p3, 10)) == 2

    def test_invalid_k(self, p3):
        with pytest.raises(ValueError):
            top_partnerships(p3, 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_top_partnerships_matches_sort_under_ties(data):
    """Weights 1-2 tie almost every pair, so the names decide the order."""
    n = data.draw(st.integers(2, 14))
    labels = data.draw(
        st.lists(st.text("aAb_é", min_size=1, max_size=3), min_size=n, max_size=n, unique=True)
    )
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=40,
        )
    )
    k = data.draw(st.integers(1, 50))
    weight: dict[tuple[str, str], int] = {}
    for u, v, w in edges:
        pair = tuple(sorted((labels[u], labels[v])))
        weight[pair] = weight.get(pair, 0) + w
    expected = sorted((-w, a, b) for (a, b), w in weight.items())[:k]
    got = top_partnerships(CoGraph.from_weighted_edges(labels, edges), k)
    assert got == [(a, b, -neg) for neg, a, b in expected]
