from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from castnet.graph import CoGraph, build_bipartite


def graph_of(records, **filters) -> CoGraph:
    """The co-appearance graph of ``records``, built with ``build_bipartite``'s ``filters``."""
    return build_bipartite(records, **filters)[0]


def make_graph(n: int, edges, weights=None) -> CoGraph:
    labels = [f"actor{i:03d}" for i in range(n)]
    if weights is None:
        weighted = [(u, v, 1) for u, v in edges]
    else:
        weighted = [(u, v, w) for (u, v), w in zip(edges, weights)]
    return CoGraph.from_weighted_edges(labels, weighted)


@pytest.fixture
def p3() -> CoGraph:
    return CoGraph.from_weighted_edges(["a", "b", "c"], [(0, 1, 1), (1, 2, 1)])


@pytest.fixture
def k3() -> CoGraph:
    return CoGraph.from_weighted_edges(["a", "b", "c"], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def star4() -> CoGraph:
    """Center node 0 with three leaves."""
    return CoGraph.from_weighted_edges(
        ["hub", "leaf1", "leaf2", "leaf3"], [(0, 1, 1), (0, 2, 1), (0, 3, 1)]
    )


@pytest.fixture
def two_triangles() -> CoGraph:
    return CoGraph.from_weighted_edges(
        list("abcdef"),
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)],
    )


NETFLIX_HEADER = (
    "show_id,type,title,director,cast,country,date_added,release_year,rating,duration"
)


def synthetic_catalog_csv() -> str:
    """A deterministic ~40-title catalog with two country clusters and a bridge."""
    rng = random.Random(20240803)
    us_actors = [f"Us Actor{chr(65 + i)}" for i in range(10)]
    in_actors = [f"In Actor{chr(65 + i)}" for i in range(10)]
    bridge = "Bridge Actor"
    rows = [NETFLIX_HEADER]
    sid = 0

    def add(kind, title, director, cast, country, year, rating):
        nonlocal sid
        sid += 1
        cast_cell = ", ".join(cast)
        rows.append(
            f's{sid},{kind},{title},{director},"{cast_cell}",{country},'
            f'"January {1 + sid % 27}, 2021",{year},{rating},90 min'
        )

    for i in range(16):
        cast = rng.sample(us_actors, rng.randint(2, 4))
        add("Movie", f"Us Film {i}", "Dir West", cast, "United States", 2008 + i % 10, "PG")
    for i in range(16):
        cast = rng.sample(in_actors, rng.randint(2, 4))
        add("Movie", f"In Film {i}", "Dir East", cast, "India", 2008 + i % 10, "TV-MA")
    add("Movie", "Crossover 1", "Dir West", [bridge, us_actors[0], us_actors[1]],
        "United States", 2015, "PG")
    add("Movie", "Crossover 2", "Dir East", [bridge, in_actors[0], in_actors[1]],
        "India", 2016, "PG")
    for i in range(4):
        cast = rng.sample(us_actors + in_actors, 2)
        add("TV Show", f"Show {i}", "", cast, "France", 2012 + i, "TV-14")
    add("Movie", "Solo Feature", "Dir Solo", ["Lone Star"], "Japan", 2018, "G")
    return "\n".join(rows) + "\n"


@pytest.fixture(scope="session")
def catalog_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("catalog") / "catalog.csv"
    path.write_text(synthetic_catalog_csv(), encoding="utf-8")
    return path
