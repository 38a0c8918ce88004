import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from castnet._options import YEAR_MAX, YEAR_MIN
from castnet.errors import EmptyInputError, NodeOutOfRangeError, UnknownActorError
from castnet.graph import CoGraph, build_bipartite, project
from castnet.graphio import load_cache, save_cache
from castnet.ingest import TitleKind, TitleRecord, _display_labels
from conftest import graph_of


def rec(tid, cast, kind=TitleKind.MOVIE, year=2000, country=None, title=None):
    return TitleRecord(
        title_id=tid,
        title=title or tid,
        kind=kind,
        release_year=year,
        directors=(),
        cast=tuple(cast),
        country=country,
    )


def titles(graph):
    """Each title's name and sorted cast labels, in title order."""
    ptr, members = graph.title_ptr.tolist(), graph.title_members.tolist()
    return [
        (name, [graph.labels[p] for p in members[ptr[t] : ptr[t + 1]]])
        for t, name in enumerate(graph.title_names)
    ]


@st.composite
def bipartite_graphs(draw) -> CoGraph:
    """Projected ``build_bipartite`` graphs of up to 20 titles over 13 people,
    with repeated cast entries, solo casts and countries."""
    casts = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, 12), min_size=1, max_size=6),
            st.sampled_from([None, "India", "US"]),
        ),
        min_size=1,
        max_size=20,
    ))
    return graph_of([
        rec(f"t{i}", [f"P{p}" for p in cast], country=country, title=f"Title {i % 4}")
        for i, (cast, country) in enumerate(casts)
    ])


@st.composite
def weighted_edge_lists(draw) -> tuple[int, list[tuple[int, int, int]]]:
    """``(n, edges)``: edges of weight 1 to 3 over the first nodes of ``n``,
    each edge possibly repeated in either orientation, and up to three
    isolated nodes after them."""
    linked = draw(st.integers(0, 10))
    n = linked + draw(st.integers(0, 3))
    if linked < 2:
        return n, []
    ends = st.integers(0, linked - 1)
    edges = draw(st.lists(
        st.tuples(ends, ends, st.integers(1, 3)).filter(lambda e: e[0] != e[1]), max_size=25
    ))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, edges + [(v, u, w) for u, v, w in repeats]


def weighted_graph(case) -> CoGraph:
    n, edges = case
    return CoGraph.from_weighted_edges([f"n{i}" for i in range(n)], edges)


class TestBuildBipartite:
    def test_basic_interning(self):
        g, oversize = build_bipartite([rec("t1", ["A", "B", "C"])])
        assert (g.n, g.edge_count, oversize) == (3, 0, 0)
        assert g.indptr.tolist() == [0, 0, 0, 0]
        assert titles(g) == [("t1", ["A", "B", "C"])]
        assert g.title_members.dtype == np.int32 and g.title_ptr.dtype == np.int64

    def test_kind_filter(self):
        records = [
            rec("t1", ["A"], kind=TitleKind.MOVIE),
            rec("t2", ["B"], kind=TitleKind.TV_SHOW),
        ]
        g, _ = build_bipartite(records, kind=TitleKind.MOVIE)
        assert titles(g) == [("t1", ["A"])]

    def test_year_range_filter(self):
        records = [rec("t1", ["A"], year=1999), rec("t2", ["B"], year=2005)]
        g, _ = build_bipartite(records, year_min=2000, year_max=2010)
        assert g.title_names == ["t2"]

    def test_one_year_bound_drops_titles_without_a_year(self):
        records = [rec("t1", ["A"], year=None), rec("t2", ["B"], year=2005)]
        assert build_bipartite(records)[0].title_names == ["t1", "t2"]
        for bound in ({"year_min": 1870}, {"year_max": 2100}):
            assert build_bipartite(records, **bound)[0].title_names == ["t2"]

    def test_min_cast_filter(self):
        records = [rec("t1", ["A"]), rec("t2", ["B", "C"])]
        g, _ = build_bipartite(records, min_cast=2)
        assert g.title_names == ["t2"]

    def test_oversize_cast_rejected(self):
        big = [f"P{i}" for i in range(11)]
        records = [rec("t1", big), rec("t2", ["A", "B"])]
        g, oversize = build_bipartite(records, max_cast=10)
        assert (titles(g), oversize) == ([("t2", ["A", "B"])], 1)

    def test_cast_filters_count_distinct_keys(self):
        records = [rec("t1", ["x", "x"]), rec("t2", ["y", "z"])]
        g, _ = build_bipartite(records, min_cast=2)
        assert g.title_ptr.tolist() == [0, 2] and g.title_members.tolist() == [0, 1]
        g, oversize = build_bipartite(records, max_cast=1)
        assert (titles(g), oversize) == ([("t1", ["x"])], 1)

    def test_duplicate_title_id_kept_once(self):
        records = [rec("t1", ["A"], title="First"), rec("t1", ["B"], title="Second")]
        g, _ = build_bipartite(records)
        assert titles(g) == [("First", ["A"])]

    @pytest.mark.parametrize("year", [1000, YEAR_MIN - 1, YEAR_MAX + 1, 10**30])
    def test_year_outside_range_rejected(self, year):
        """A library caller's year is checked as ``read_records_jsonl`` checks it,
        so every graph built saves a cache that loads."""
        records = [rec("t1", ["A", "B"]), rec("t9", ["B"], year=year)]
        with pytest.raises(ValueError, match=f"'t9': year {year} outside {YEAR_MIN}..{YEAR_MAX}"):
            build_bipartite(records)

    def test_empty_input_error(self):
        with pytest.raises(EmptyInputError):
            build_bipartite([rec("t1", ["A"], kind=TitleKind.MOVIE)], kind=TitleKind.TV_SHOW)

    def test_first_seen_order(self):
        g, _ = build_bipartite([rec("t1", ["B", "A"]), rec("t2", ["C", "A"])])
        assert g.labels == ["B", "A", "C"]
        assert g.title_members.tolist() == [0, 1, 1, 2]  # sorted within each title

    def test_display_name_collision_disambiguated(self):
        g, _ = build_bipartite(
            [rec("t1", ["nm1", "nm2"])], names={"nm1": "Same Name", "nm2": "Same Name"}
        )
        assert g.labels == ["Same Name [nm1]", "Same Name [nm2]"]

    def test_name_equal_to_a_suffixed_label_is_suffixed(self):
        names = {"nm1": "John", "nm2": "John", "nm3": "John [nm1]"}
        assert _display_labels(["nm1", "nm2", "nm3"], names) == [
            "John [nm1]", "John [nm2]", "John [nm1] [nm3]"
        ]


class TestProjection:
    def test_single_title_triangle(self):
        g = graph_of([rec("t1", ["A", "B", "C"])])
        assert g.edge_count == 3
        assert all(w == 1 for _, _, w in g.edges())

    def test_repeat_collaboration_weight(self):
        g = graph_of([rec("t1", ["A", "B"]), rec("t2", ["A", "B"])])
        assert list(g.edges()) == [(0, 1, 2)]

    def test_solo_cast_isolated_node(self):
        g = graph_of([rec("t1", ["A", "B"]), rec("t2", ["C"])])
        assert g.n == 3
        assert g.degrees().tolist() == [1, 1, 0]

    def test_weight_zero_for_nonadjacent(self):
        g = graph_of([rec("t1", ["A", "B"]), rec("t2", ["C", "D"])])
        assert list(g.edges()) == [(0, 1, 1), (2, 3, 1)]  # no (0, 2) edge

    def test_large_shared_count(self):
        records = [rec(f"t{i}", ["A", "B"]) for i in range(187)]
        g = graph_of(records)
        assert g.edge_arrays()[2].tolist() == [187]

    def test_edge_titles_kept_and_sorted(self):
        records = [
            rec("t1", ["A", "B"], title="Zeta"),
            rec("t2", ["A", "B"], title="Alpha"),
        ]
        g = graph_of(records)
        assert g.titles_for_edge(0, 1) == ("Alpha", "Zeta")
        assert g.titles_for_edge(1, 0) == ("Alpha", "Zeta")

    def test_handshake(self):
        rng = random.Random(7)
        casts = [[f"P{rng.randrange(30)}" for _ in range(rng.randint(1, 6))] for _ in range(20)]
        records = [rec(f"t{i}", sorted(set(c))) for i, c in enumerate(casts)]
        g = graph_of(records)
        assert int(g.degrees().sum()) == 2 * g.edge_count

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n_persons = rng.randint(2, 30)
        n_titles = rng.randint(1, 20)
        casts = []
        for _ in range(n_titles):
            size = rng.randint(1, min(6, n_persons))
            casts.append(sorted(rng.sample(range(n_persons), size)))
        records = [rec(f"t{i}", [f"P{p:02d}" for p in cast]) for i, cast in enumerate(casts)]
        g = graph_of(records)
        # Map interned indices back to the raw person numbers used by the oracle
        raw_of = [int(key[1:]) for key in g.labels]
        got = {
            tuple(sorted((raw_of[u], raw_of[v]))): w for u, v, w in g.edges()
        }
        assert got == oracles.projection_weights(casts)

    def test_weight_sum_equals_pair_counts(self):
        rng = random.Random(3)
        records = []
        for i in range(15):
            cast = rng.sample([f"P{j}" for j in range(25)], rng.randint(1, 6))
            records.append(rec(f"t{i}", cast))
        g = graph_of(records)
        total = sum(w for _, _, w in g.edges())
        expected = sum(
            len(c) * (len(c) - 1) // 2 for c in (r.cast for r in records)
        )
        assert total == expected == g.total_edge_weight

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True),
            min_size=1,
            max_size=25,
        )
    )
    def test_csr_and_edge_titles_match_bruteforce(self, casts):
        records = [
            rec(f"t{i}", [f"P{p:02d}" for p in cast], title=f"Title {i:02d}")
            for i, cast in enumerate(casts)
        ]
        g = graph_of(records)
        # Interned person ids follow first appearance; map the oracle onto them.
        ids = {int(key[1:]): i for i, key in enumerate(g.labels)}
        interned = [[ids[p] for p in cast] for cast in casts]
        rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for (u, v), w in oracles.projection_weights(interned).items():
            rows[u].append((v, w))
            rows[v].append((u, w))
        rows = [sorted(row) for row in rows]
        assert g.indptr.tolist() == np.cumsum([0] + [len(row) for row in rows]).tolist()
        assert g.indices.tolist() == [v for row in rows for v, _ in row]
        assert g.weights.tolist() == [w for row in rows for _, w in row]
        shared = oracles.shared_titles(interned)
        for u, v, w in g.edges():
            expected = tuple(sorted(f"Title {t:02d}" for t in shared[u, v]))
            assert g.titles_for_edge(u, v) == g.titles_for_edge(v, u) == expected
            assert len(expected) == w

    def test_duplicate_cast_entry_adds_no_self_loop(self):
        g = graph_of([rec("t1", ["A", "B", "A"])])
        assert g.edge_count == 1 and list(g.edges()) == [(0, 1, 1)]
        assert g.title_members.tolist() == [0, 1]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(bipartite_graphs(), weighted_edge_lists().map(weighted_graph)))
    def test_projecting_a_projected_or_loaded_graph_changes_nothing(self, tmp_path_factory, g):
        """Every graph, from records or from an edge list, is the projection
        of its incidence, and the cache, which stores only the incidence,
        loads it back with every array read-only."""
        assert project(g) == g
        path = tmp_path_factory.mktemp("cache") / "graph.bin"
        save_cache(path, g)
        loaded = load_cache(path)
        assert project(loaded) == loaded == g
        for f in dataclasses.fields(loaded):
            array = getattr(loaded, f.name)
            if isinstance(array, np.ndarray):
                assert array.dtype == getattr(g, f.name).dtype and not array.flags.writeable

    def test_plurality_country(self):
        records = [
            rec("t1", ["A"], country="India"),
            rec("t2", ["A"], country="India"),
            rec("t3", ["A"], country="France"),
            rec("t4", ["B"], country=None),
        ]
        g = graph_of(records)
        assert g.node_country == ["India", None]

    def test_plurality_tie_lexicographic(self):
        records = [rec("t1", ["A"], country="India"), rec("t2", ["A"], country="France")]
        g = graph_of(records)
        assert g.node_country == ["France"]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True),
                st.sampled_from([None, "", "India", "France", "US", "india", "Ça"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_plurality_matches_bruteforce(self, titles):
        records = [
            rec(f"t{i}", [f"P{p}" for p in cast], country=country)
            for i, (cast, country) in enumerate(titles)
        ]
        g = graph_of(records)
        expected = oracles.plurality_countries(
            ((g.node(p), t) for t, rec in enumerate(records) for p in rec.cast),
            [rec.country for rec in records],
            g.n,
        )
        assert g.node_country == expected
        assert build_bipartite(records)[0].node_country == expected


class TestAccessors:
    def test_k3_degree(self, k3):
        assert k3.degrees().tolist() == [2, 2, 2]

    def test_neighbors_sorted(self, two_triangles):
        assert list(two_triangles.neighbors(1)) == [0, 2]

    def test_out_of_range(self, k3):
        with pytest.raises(NodeOutOfRangeError):
            k3.neighbors(3)
        with pytest.raises(NodeOutOfRangeError):
            k3.neighbors(-1)

    def test_node_lookup(self, k3):
        assert k3.node("b") == 1

    def test_name_index_built_on_first_lookup(self, k3):
        assert "_label_index" not in vars(k3)
        assert k3.node("c") == 2
        assert vars(k3)["_label_index"] == {"a": 0, "b": 1, "c": 2}

    def test_replace_rebuilds_the_name_index(self, k3):
        g = dataclasses.replace(k3, labels=["x", "y", "z"])
        assert [g.node(name) for name in ("x", "y", "z")] == [0, 1, 2]
        with pytest.raises(UnknownActorError):
            g.node("a")
        assert k3.node("a") == 0

    def test_equality_compares_every_field(self):
        g = graph_of([rec("t1", ["A", "B"], country="US"), rec("t2", ["B", "C"], year=None)])
        assert g == dataclasses.replace(g)
        for f in dataclasses.fields(g):
            value = getattr(g, f.name)
            changed = value + 1 if isinstance(value, np.ndarray) else [*value[:-1], "other"]
            assert g != dataclasses.replace(g, **{f.name: changed}), f.name

    def test_from_weighted_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CoGraph.from_weighted_edges(["a", "b"], [(0, 0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(1, 5)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    def test_from_weighted_edges_sums_duplicates(self, edges):
        g = CoGraph.from_weighted_edges([f"n{i}" for i in range(10)], edges)
        expected: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            expected[key] = expected.get(key, 0) + w
        assert list(g.edges()) == [(u, v, w) for (u, v), w in sorted(expected.items())]
        assert g.total_edge_weight == sum(w for _, _, w in edges)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr)).tolist()
        both = {**expected, **{(v, u): w for (u, v), w in expected.items()}}
        assert dict(zip(zip(rows, g.indices.tolist()), g.weights.tolist())) == both

    @settings(max_examples=100, deadline=None)
    @given(weighted_edge_lists())
    def test_from_weighted_edges_matches_the_merge_oracle(self, case):
        """Projecting one two-actor title per unit of weight gives the same
        CSR arrays, dtypes included, as merging and mirroring the edges."""
        g = weighted_graph(case)
        for got, want in zip((g.indptr, g.indices, g.weights), oracles.weighted_edges_csr(*case)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert g.title_names == [""] * g.total_edge_weight
        assert g.title_year.tolist() == [-1] * g.total_edge_weight

    def test_from_weighted_edges_rejects_repeated_label(self):
        with pytest.raises(ValueError, match="unique"):
            CoGraph.from_weighted_edges(["a", "a", "b"], [(0, 2, 1)])

    def test_from_weighted_edges_rejects_bad_edges(self):
        with pytest.raises(NodeOutOfRangeError):
            CoGraph.from_weighted_edges(["a", "b"], [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(ValueError):
            CoGraph.from_weighted_edges(["a", "b"], [(0, 1, 0)])

    def test_csr_rows_sorted(self):
        rng = random.Random(11)
        edges = oracles.random_graph(rng, 40, 0.2)
        g = CoGraph.from_weighted_edges([f"n{i}" for i in range(40)], [(u, v, 1) for u, v in edges])
        for u in range(g.n):
            row = list(g.neighbors(u))
            assert row == sorted(row)
            assert u not in row
        assert np.all(g.weights >= 1)
