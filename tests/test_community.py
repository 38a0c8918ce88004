import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from castnet import community
from castnet._options import DEFAULT_MAX_CAST
from castnet.community import (
    CommunityMatch,
    build_cluster_graph,
    community_evolution,
    crossover_scores,
    filter_interactions,
    louvain,
    modularity,
    Partition,
)
from castnet.errors import EmptyGraphError
from castnet.graph import CoGraph, build_bipartite, project
from castnet.ingest import TitleKind, TitleRecord
from conftest import make_graph

TRIANGLES_EDGES = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]


def weighted(edges):
    return [(u, v, 1) for u, v in edges]


@st.composite
def partitioned_graphs(draw):
    """Up to 10 nodes, some isolated, repeated edges allowed, and each node's
    cluster among up to 4 (some may be empty)."""
    n = draw(st.integers(1, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5))
    edges = [(u, v, w) for u, v, w in draw(st.lists(pair, max_size=25)) if u != v]
    assignment = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, edges, assignment


def graph_and_partition(n, edges, assignment):
    g = CoGraph.from_weighted_edges([f"n{i}" for i in range(n)], edges)
    return g, Partition(assignment=tuple(assignment), q=0.0)


class TestModularity:
    def test_single_community_zero(self, k3):
        assert modularity(k3, [0, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_half(self, two_triangles):
        assert modularity(two_triangles, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_two_triangles_singletons(self, two_triangles):
        assert modularity(two_triangles, list(range(6))) == pytest.approx(-1 / 6, abs=1e-12)

    def test_weighted_edges_respected(self):
        g = CoGraph.from_weighted_edges(["a", "b", "c", "d"], [(0, 1, 3), (2, 3, 1)])
        exact = oracles.modularity_exact(4, [(0, 1, 3), (2, 3, 1)], [0, 0, 1, 1])
        assert modularity(g, [0, 0, 1, 1]) == pytest.approx(float(exact), abs=1e-12)

    def test_coverage_validated(self, k3):
        with pytest.raises(ValueError):
            modularity(k3, [0, 0])

    def test_edgeless_rejected(self):
        g = CoGraph.from_weighted_edges(["a", "b"], [])
        with pytest.raises(EmptyGraphError):
            modularity(g, [0, 1])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exact_rational_oracle(self, seed):
        rng = random.Random(2500 + seed)
        n = rng.randint(3, 20)
        edges = [(u, v, rng.randint(1, 4)) for u, v in oracles.random_graph(rng, n, 0.3)]
        g = CoGraph.from_weighted_edges([f"n{i}" for i in range(n)], edges)
        assignment = [rng.randrange(3) for _ in range(n)]
        exact = oracles.modularity_exact(n, edges, assignment)
        assert modularity(g, assignment) == pytest.approx(float(exact), abs=1e-12)


class TestLouvain:
    def test_two_triangles_exact_optimum(self, two_triangles):
        part = louvain(two_triangles, seed=42)
        assert part.q == pytest.approx(0.5, abs=1e-15)
        assert part.assignment[0] == part.assignment[1] == part.assignment[2]
        assert part.assignment[3] == part.assignment[4] == part.assignment[5]
        assert part.assignment[0] != part.assignment[3]
        best, _ = oracles.best_partition_exact(6, TRIANGLES_EDGES)
        assert Fraction(1, 2) == best  # the fixture's true optimum

    def test_single_k3_one_community(self, k3):
        part = louvain(k3, seed=1)
        assert part.n_communities == 1
        assert part.q == pytest.approx(0.0, abs=1e-15)

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            louvain(CoGraph.from_weighted_edges(["a", "b"], []), seed=1)

    def test_recorded_q_matches_modularity(self, two_triangles):
        part = louvain(two_triangles, seed=7)
        assert part.q == pytest.approx(modularity(two_triangles, part.assignment), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 42, 99])
    def test_q_history_non_decreasing(self, seed):
        rng = random.Random(seed)
        n = rng.randint(8, 60)
        g = make_graph(n, oracles.random_graph(rng, n, 0.12))
        part = louvain(g, seed=seed)
        assert part.passes == len(part.q_history)
        for earlier, later in zip(part.q_history, part.q_history[1:]):
            assert later >= earlier

    @pytest.mark.parametrize("seed", range(6))
    def test_last_level_quality_is_the_reported_q(self, seed, monkeypatch):
        """Upper levels keep every unit of weight, so the last recorded
        quality is the modularity of the final assignment."""
        levels = []
        aggregate = community._aggregate
        monkeypatch.setattr(community, "_aggregate", lambda *a: levels.append(1) or aggregate(*a))
        rng = random.Random(seed)
        g = make_graph(200, oracles.random_graph(rng, 200, 0.03))
        part = louvain(g, seed=seed)
        assert len(levels) >= 2
        assert part.q_history[-1] == pytest.approx(part.q, abs=1e-12)

    def test_bit_identical_across_repeats(self):
        rng = random.Random(31)
        g = make_graph(80, oracles.random_graph(rng, 80, 0.08))
        runs = [louvain(g, seed=42) for _ in range(10)]
        first = runs[0]
        for other in runs[1:]:
            assert other.assignment == first.assignment
            assert other.q == first.q  # bitwise float equality
            assert other.q_history == first.q_history

    def test_assignment_ids_contiguous(self):
        rng = random.Random(8)
        g = make_graph(40, oracles.random_graph(rng, 40, 0.1))
        part = louvain(g, seed=3)
        assert sorted(set(part.assignment)) == list(range(part.n_communities))
        # numbered in order of each community's first node
        assert list(dict.fromkeys(part.assignment)) == list(range(part.n_communities))

    def test_q_in_valid_range(self):
        for seed in range(5):
            rng = random.Random(seed)
            n = rng.randint(5, 40)
            g = make_graph(n, oracles.random_graph(rng, n, 0.2))
            part = louvain(g, seed=seed)
            assert -0.5 <= part.q <= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_95_percent_of_all_partitions(self, seed):
        rng = random.Random(3000 + seed)
        n = rng.randint(4, 8)
        raw = oracles.random_graph(rng, n, 0.4)
        g = make_graph(n, raw)
        part = louvain(g, seed=seed)
        _, all_q = oracles.best_partition_exact(n, weighted(raw))
        q = Fraction(part.q).limit_denominator(10**12)
        beaten = sum(1 for value in all_q if q >= value)
        assert beaten / len(all_q) >= 0.95

    def test_weights_drive_grouping(self):
        # heavy pair should end up together even inside a triangle of light edges
        g = CoGraph.from_weighted_edges(
            ["a", "b", "c", "d"], [(0, 1, 10), (1, 2, 1), (2, 3, 10), (0, 3, 1)]
        )
        part = louvain(g, seed=5)
        assert part.assignment[0] == part.assignment[1]
        assert part.assignment[2] == part.assignment[3]

    @pytest.mark.parametrize("resolution", [1.0, 0.5, 2.0])
    @pytest.mark.parametrize("seed", range(10))
    def test_lazy_recount_matches_full_recount_oracle(self, seed, resolution, monkeypatch):
        """Scanning a node's candidates in the order they were counted, not
        by ascending id, changes no partition, quality trace or round count,
        and neither does the queue bookkeeping of ``_sweep``."""
        rng = random.Random(seed)
        levels = []
        aggregate = community._aggregate
        monkeypatch.setattr(community, "_aggregate", lambda *a: levels.append(1) or aggregate(*a))
        for n, p in ((rng.randint(10, 60), 0.15), (200, 0.03)):
            g = CoGraph.from_weighted_edges(*weighted_random_graph(rng, n, p, isolated=5))
            levels.clear()
            lazy = louvain(g, seed=seed, resolution=resolution)
            aggregations = len(levels)
            with monkeypatch.context() as patch:
                patch.setattr(community, "_sweep", oracles.louvain_sweep_full_recount)
                full = louvain(g, seed=seed, resolution=resolution)
            assert lazy.assignment == full.assignment
            assert lazy.q == full.q
            assert lazy.q_history == full.q_history
            assert lazy.passes == full.passes
        assert aggregations >= 2  # the 200-node graph

    def test_disconnected_communities_are_counted_not_prevented(self):
        """Louvain can leave a community internally disconnected (Traag,
        Waltman & van Eck 2019). On 150 sparse 100-node graphs it does so
        once: seed 140 splits one community in two."""
        assert oracles.disconnected_communities(4, [(0, 1), (2, 3)], [0, 0, 0, 1]) == 1
        found = {}
        for seed in range(150):
            labels, edges = weighted_random_graph(random.Random(seed), 100, 0.02)
            part = louvain(CoGraph.from_weighted_edges(labels, edges), seed=seed)
            count = oracles.disconnected_communities(100, edges, part.assignment)
            if count:
                found[seed] = count
        assert found == {140: 1}


def weighted_random_graph(rng: random.Random, n: int, p: float, isolated: int = 0):
    """Labels and weighted edges of ``oracles.random_graph`` over ``n`` nodes,
    weights 1 to 5, plus ``isolated`` nodes with no edge."""
    edges = [(u, v, rng.randint(1, 5)) for u, v in oracles.random_graph(rng, n, p)]
    return [f"n{i}" for i in range(n + isolated)], edges


class TestClusterGraph:
    def test_joined_triangles_frequency(self):
        g = CoGraph.from_weighted_edges(
            list("abcdef"), TRIANGLES_EDGES + [(2, 3, 1)]
        )
        part = louvain(g, seed=42)
        cg = build_cluster_graph(g, part)
        assert len(cg.clusters) == 2
        volumes = sorted(info.volume for info in cg.clusters.values())
        assert volumes == [7, 7]
        (link,) = cg.links.values()
        assert link.weight == 1
        assert link.frequency == pytest.approx(1 / 7, abs=1e-15)

    def test_disconnected_clusters_no_link(self, two_triangles):
        part = louvain(two_triangles, seed=42)
        cg = build_cluster_graph(two_triangles, part)
        assert cg.links == {}

    def test_single_cluster_empty_links(self, k3):
        part = louvain(k3, seed=42)
        cg = build_cluster_graph(k3, part)
        assert len(cg.clusters) == 1
        assert cg.links == {}

    def test_country_labels_and_overrides(self):
        g = CoGraph.from_weighted_edges(
            list("abcdef"),
            TRIANGLES_EDGES,
            node_country=["US", "US", "FR", "IN", "IN", None],
        )
        part = louvain(g, seed=42)
        cg = build_cluster_graph(g, part)
        labels = sorted(info.label for info in cg.clusters.values())
        assert labels == ["IN", "US"]
        cg2 = build_cluster_graph(g, part, overrides={0: "Hollywood"})
        assert cg2.clusters[0].label == "Hollywood"

    @settings(max_examples=150, deadline=None)
    @given(
        titles=st.lists(
            st.tuples(
                st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
                st.sampled_from([None, "", "India", "France", "US"]),
            ),
            min_size=1,
            max_size=12,
        ),
        cluster_of=st.lists(st.integers(0, 2), min_size=8, max_size=8),
    )
    # Actor x is in a "" title and an India one: x counts for India alone.
    @example(titles=[([0, 1], ""), ([0, 2], "India")], cluster_of=[0] * 8)
    @example(titles=[([0], ""), ([0], "India"), ([1], "US")], cluster_of=[0] * 8)
    def test_country_labels_match_bruteforce(self, titles, cluster_of):
        records = [
            TitleRecord(f"t{i}", f"t{i}", TitleKind.MOVIE, 2000, (),
                        tuple(f"P{p}" for p in cast), country)
            for i, (cast, country) in enumerate(titles)
        ]
        store = build_bipartite(records)
        g = project(store)
        actor_country = oracles.plurality_countries(
            ((p, t) for t, members in enumerate(store.incidence) for p in members),
            store.title_country,
            g.n,
        )
        assert g.node_country == actor_country
        part = Partition(assignment=tuple(cluster_of[: g.n]), q=0.0)
        cg = build_cluster_graph(g, part)
        expected = oracles.plurality_countries(
            ((cid, v) for v, cid in enumerate(part.assignment)), actor_country,
            part.n_communities,
        )
        assert [info.label for _, info in sorted(cg.clusters.items())] == [
            country or f"cluster-{cid}" for cid, country in enumerate(expected)
        ]

    @settings(max_examples=200, deadline=None)
    @given(partitioned_graphs())
    @example((3, [], [0, 1, 1]))  # edgeless: no volume and no link
    @example((4, [(0, 1, 2), (1, 0, 1), (2, 3, 4)], [0, 1, 2, 2]))  # singletons, repeated edge
    def test_sizes_volumes_and_links_match_bruteforce(self, case):
        n, edges, assignment = case
        g, part = graph_and_partition(n, edges, assignment)
        cg = build_cluster_graph(g, part)
        sizes, volumes, links = oracles.cluster_counts(edges, assignment, part.n_communities)
        assert [(c.size, c.volume) for _, c in sorted(cg.clusters.items())] == list(
            zip(sizes, volumes)
        )
        assert list(cg.links) == sorted(links)
        for (a, b), link in cg.links.items():
            assert link.weight == links[a, b]
            assert link.frequency == float(Fraction(links[a, b], min(volumes[a], volumes[b])))

    def test_fallback_label(self, two_triangles):
        cg = build_cluster_graph(two_triangles, louvain(two_triangles, seed=42))
        assert {info.label for info in cg.clusters.values()} == {"cluster-0", "cluster-1"}


class TestFilterInteractions:
    def make_cluster_graph(self):
        g = CoGraph.from_weighted_edges(list("abcdef"), TRIANGLES_EDGES + [(2, 3, 1)])
        part = louvain(g, seed=42)
        return build_cluster_graph(g, part)

    def test_keep_below_drop_above(self):
        cg = self.make_cluster_graph()
        assert len(filter_interactions(cg, 0.05).links) == 1
        assert len(filter_interactions(cg, 0.2).links) == 0

    def test_clusters_always_retained(self):
        cg = self.make_cluster_graph()
        filtered = filter_interactions(cg, 0.99)
        assert filtered.clusters.keys() == cg.clusters.keys()

    def test_tau_one_keeps_only_full_frequency(self):
        cg = self.make_cluster_graph()
        assert filter_interactions(cg, 1.0).links == {}

    def test_monotone_nesting(self):
        rng = random.Random(77)
        n = 60
        g = make_graph(n, oracles.random_graph(rng, n, 0.08))
        part = louvain(g, seed=1)
        cg = build_cluster_graph(g, part)
        taus = [0.0025, 0.005, 0.02, 0.05, 0.3, 1.0]
        kept = [set(filter_interactions(cg, tau).links) for tau in taus]
        for wider, narrower in zip(kept, kept[1:]):
            assert narrower <= wider

    def test_invalid_tau(self):
        cg = self.make_cluster_graph()
        for tau in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                filter_interactions(cg, tau)


class TestCrossover:
    def test_all_neighbors_one_community_zero(self, two_triangles):
        part = louvain(two_triangles, seed=42)
        assert np.all(crossover_scores(two_triangles, part).scores == 0.0)

    def test_even_split_half(self):
        # center u with one neighbor in each of two communities
        g = CoGraph.from_weighted_edges(
            ["u", "a1", "a2", "b1", "b2"],
            [(0, 1, 1), (0, 3, 1), (1, 2, 5), (3, 4, 5)],
        )
        from castnet.community import Partition

        part = Partition(assignment=(0, 0, 0, 1, 1), q=0.0)
        scores = crossover_scores(g, part).scores
        assert scores[0] == pytest.approx(0.5, abs=1e-15)

    def test_degree_zero_is_zero(self):
        g = CoGraph.from_weighted_edges(["a", "b", "c"], [(0, 1, 1)])
        from castnet.community import Partition

        part = Partition(assignment=(0, 0, 1), q=0.0)
        assert crossover_scores(g, part).scores[2] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(partitioned_graphs())
    # A hub with one neighbor in each of three clusters: 1 - 3 * (1/3)**2
    # summed in floats gives 0.6666666666666667, one ulp above 2/3.
    @example((4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)], [0, 0, 1, 2]))
    def test_scores_are_the_exact_participation_rounded_once(self, case):
        n, edges, assignment = case
        g, part = graph_and_partition(n, edges, assignment)
        exact = oracles.participation_exact(n, edges, assignment)
        assert crossover_scores(g, part).scores.tolist() == [float(p) for p in exact]

    def test_bridge_scores_highest(self):
        g = CoGraph.from_weighted_edges(
            list("abcdefg"),
            TRIANGLES_EDGES + [(6, 0, 1), (6, 3, 1)],  # g bridges both triangles
        )
        part = louvain(g, seed=42)
        scores = crossover_scores(g, part).scores
        assert int(np.argmax(scores)) == 6


def era_records(era: str, year: int, casts: list[list[str]]):
    return [
        TitleRecord(f"{era}{i}", f"{era} film {i}", TitleKind.MOVIE, year, (), tuple(cast))
        for i, cast in enumerate(casts)
    ]


class TestEvolution:
    def test_identical_casts_full_overlap(self):
        casts = [["A", "B", "C"], ["D", "E", "F"]]
        records = era_records("x", 2000, casts) + era_records("y", 2001, casts)
        timeline = community_evolution(records, window_years=1, step_years=1, seed=42)
        assert len(timeline.windows) == 2
        assert timeline.matches[0]
        assert all(m.overlap == 1.0 for m in timeline.matches[0].values())

    def test_disjoint_casts_zero_overlap(self):
        records = era_records("x", 2000, [["A", "B"], ["C", "D"]]) + era_records(
            "y", 2001, [["E", "F"], ["G", "H"]]
        )
        timeline = community_evolution(records, window_years=1, step_years=1, seed=42)
        assert all(m.overlap == 0.0 for m in timeline.matches[0].values())

    def test_community_split_half_overlap(self):
        # one 4-actor community splits into two pairs in the next window
        records = era_records("x", 2000, [["A", "B", "C", "D"]]) + era_records(
            "y", 2001, [["A", "B"], ["C", "D"]]
        )
        timeline = community_evolution(records, window_years=1, step_years=1, seed=42)
        (match,) = timeline.matches[0].values()
        assert match.overlap == pytest.approx(0.5)

    def test_empty_window_recorded_not_fatal(self):
        # 2002's only title has a cast above the cap, so no title survives there
        oversize = [f"P{i}" for i in range(DEFAULT_MAX_CAST + 1)]
        records = (
            era_records("x", 2000, [["A", "B"]])
            + era_records("w", 2002, [oversize])
            + era_records("z", 2004, [["C", "D"]])
        )
        timeline = community_evolution(records, window_years=1, step_years=1, seed=42)
        assert len(timeline.windows) == 5
        for window in timeline.windows[1:4]:
            assert window.names == () and window.partition is None

    def test_window_validation(self):
        records = era_records("x", 2000, [["A", "B"]])
        with pytest.raises(ValueError):
            community_evolution(records, window_years=1, step_years=2, seed=1)
        with pytest.raises(ValueError):
            community_evolution(records, window_years=0, step_years=0, seed=1)

    def test_windows_cover_year_span(self):
        # the yearless title takes part in no window
        records = (
            era_records("x", 2000, [["A", "B"]])
            + era_records("y", 2005, [["C", "D"]])
            + era_records("u", None, [["A", "B", "Y"], ["Y", "Z"]])
        )
        timeline = community_evolution(records, window_years=3, step_years=2, seed=1)
        assert [w.years for w in timeline.windows] == [
            (2000, 2002),
            (2002, 2004),
            (2004, 2006),
        ]
        assert [w.names for w in timeline.windows] == [("A", "B"), (), ("C", "D")]

    def test_namesakes_are_distinct_actors_across_windows(self):
        # nm1 and nm2 are both "John" but never share a window: labelled per
        # window, both would be "John" and match at overlap 1/3
        records = era_records("t1", 2000, [["nm1", "nmA"]]) + era_records(
            "t2", 2005, [["nm2", "nmB"]]
        )
        names = {"nm1": "John", "nm2": "John"}
        timeline = community_evolution(records, 5, 5, 42, names=names)
        assert [w.names for w in timeline.windows] == [("John [nm1]", "nmA"),
                                                       ("John [nm2]", "nmB")]
        assert timeline.matches == [{0: CommunityMatch(0, 0.0)}]

    def test_matches_equal_set_jaccard_oracle(self):
        rng = random.Random(8)
        pool = [f"actor{i}" for i in range(40)]

        def window():
            if rng.random() < 0.1:
                return community.EvolutionWindow((2000, 2000), (), None)
            names = tuple(rng.sample(pool, rng.randint(1, 30)))
            k = rng.randint(1, 6)  # ids may skip values: empty communities
            part = Partition(assignment=tuple(rng.randrange(k) for _ in names), q=0.0)
            return community.EvolutionWindow((2000, 2000), names, part)

        for _ in range(300):
            prev, cur = window(), window()
            got = community._match_windows(prev, cur)
            args = [(w.names, w.partition.assignment if w.partition else ()) for w in (prev, cur)]
            expected = oracles.window_matches(*args[0], *args[1])
            assert {c: (m.new_cid, m.overlap) for c, m in got.items()} == expected
