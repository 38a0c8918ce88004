import dataclasses
import os
import random
import struct
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracles
from castnet import graphio
from castnet._options import YEAR_MAX, YEAR_MIN
from castnet.cli import main
from castnet.community import build_cluster_graph, louvain
from castnet.errors import CacheFormatError
from castnet.graph import CoGraph
from castnet.graphio import (
    CACHE_MAGIC,
    CACHE_VERSION,
    load_cache,
    save_cache,
    write_cluster_dot,
    write_cluster_json,
    write_dot,
    write_graphml,
    write_partition_csv,
)
from castnet.ingest import TitleKind, TitleRecord, normalize_name
from conftest import graph_of, make_graph


def full_featured_graph():
    records = [
        TitleRecord("t1", "Quote \"Title\"", TitleKind.MOVIE, 2000, (), ("Ann", "Bob"), "US"),
        TitleRecord("t2", "Other", TitleKind.MOVIE, 2001, (), ("Bob", "Cat"), "IN"),
        TitleRecord("t3", "Third", TitleKind.MOVIE, 2002, (), ("Solo",), "US"),
    ]
    return graph_of(records)


class TestCache:
    def test_round_trip_identical(self, tmp_path):
        g = full_featured_graph()
        path = tmp_path / "graph.bin"
        save_cache(path, g)
        assert load_cache(path) == g

    def test_round_trip_without_optional_sections(self, tmp_path):
        rng = random.Random(5)
        g = make_graph(20, oracles.random_graph(rng, 20, 0.2))
        path = tmp_path / "graph.bin"
        save_cache(path, g)
        loaded = load_cache(path)
        assert loaded == g
        assert loaded.title_names == [""] * g.total_edge_weight
        assert loaded.node_country == [None] * 20

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAGRPH" + b"\x00" * 64)
        with pytest.raises(CacheFormatError):
            load_cache(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.bin"
        path.write_bytes(CACHE_MAGIC + struct.pack("<II", 999, 0) + b"\x00" * 24)
        with pytest.raises(CacheFormatError):
            load_cache(path)

    @staticmethod
    def degree_of_version(tmp_path, capsys, version):
        """Exit code and stderr of ``centrality degree`` on a cache that
        claims ``version``."""
        path = tmp_path / "graph.bin"
        save_cache(path, full_featured_graph())
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(["centrality", "degree", "--graph", str(path), "--out", str(tmp_path)])
        return code, capsys.readouterr().err

    def test_version_2_cache_asks_for_a_rebuild(self, tmp_path, capsys):
        """A cache written before titles carried years is refused, not misread."""
        assert self.degree_of_version(tmp_path, capsys, 2) == (
            1, "error: cache version 2 unsupported (expected 5); rebuild\n"
        )

    def test_version_3_cache_asks_for_a_rebuild(self, tmp_path, capsys):
        """A cache that stores each edge twice is refused, not misread."""
        assert self.degree_of_version(tmp_path, capsys, 3) == (
            1, "error: cache version 3 unsupported (expected 5); rebuild\n"
        )

    def test_version_4_cache_asks_for_a_rebuild(self, tmp_path, capsys):
        """A cache that stores each edge beside the incidence is refused, not misread."""
        assert self.degree_of_version(tmp_path, capsys, 4) == (
            1, "error: cache version 4 unsupported (expected 5); rebuild\n"
        )

    def test_doc_title_names_the_version(self):
        doc = Path(__file__).parents[1] / "docs" / "cache-format.md"
        title = doc.read_text(encoding="utf-8").splitlines()[0]
        assert title == f"# Binary graph cache format (version {CACHE_VERSION})"

    def test_truncation_rejected(self, tmp_path):
        g = full_featured_graph()
        path = tmp_path / "graph.bin"
        save_cache(path, g)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CacheFormatError):
            load_cache(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        g = full_featured_graph()
        path = tmp_path / "graph.bin"
        save_cache(path, g)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CacheFormatError):
            load_cache(path)

    def test_incidence_round_trips(self, tmp_path):
        g = full_featured_graph()
        save_cache(tmp_path / "graph.bin", g)
        loaded = load_cache(tmp_path / "graph.bin")
        assert loaded.title_ptr.tolist() == [0, 2, 4, 5]
        assert loaded.title_members.tolist() == [0, 1, 1, 2, 3]
        assert loaded.titles_for_edge(1, 2) == ("Other",)

    def test_title_years_round_trip(self, tmp_path):
        records = [
            TitleRecord("t1", "Early", TitleKind.MOVIE, YEAR_MIN, (), ("Ann", "Bob")),
            TitleRecord("t2", "Undated", TitleKind.MOVIE, None, (), ("Bob",)),
            TitleRecord("t3", "Late", TitleKind.MOVIE, YEAR_MAX, (), ("Cat",)),
        ]
        g = graph_of(records)
        assert g.title_year.tolist() == [YEAR_MIN, -1, YEAR_MAX]
        save_cache(tmp_path / "graph.bin", g)
        loaded = load_cache(tmp_path / "graph.bin")
        assert loaded == g and loaded.title_year.tolist() == [YEAR_MIN, -1, YEAR_MAX]
        assert loaded != dataclasses.replace(g, title_year=np.array([YEAR_MIN, -1, 2000]))

    def test_loaded_arrays_are_read_only(self, tmp_path):
        save_cache(tmp_path / "graph.bin", full_featured_graph())
        loaded = load_cache(tmp_path / "graph.bin")
        for f in dataclasses.fields(loaded):
            array = getattr(loaded, f.name)
            if not isinstance(array, np.ndarray):
                continue
            assert array.dtype.isnative, f.name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_failed_write_keeps_previous_cache(self, tmp_path, monkeypatch):
        path = tmp_path / "graph.bin"
        save_cache(path, full_featured_graph())
        before = path.read_bytes()
        sections = graphio._sections

        def failing(g):  # the write fails after the header and the labels
            yield from list(sections(g))[:2]
            raise OSError("No space left on device")

        monkeypatch.setattr(graphio, "_sections", failing)
        with pytest.raises(OSError, match="No space"):
            save_cache(path, full_featured_graph())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["graph.bin"]


def _set(field, pos, value):
    def mutate(g):
        arr = getattr(g, field).copy()
        arr[pos] = value
        return {field: arr}

    return mutate


# Each mutation breaks one invariant of a valid graph; ``match`` names the
# check that must catch it.
INVALID = {
    "title_ptr_decreases": (_set("title_ptr", 2, 2), "offsets"),
    "title_ptr_end_wrong": (_set("title_ptr", -1, 7), "offsets"),
    "member_out_of_range": (_set("title_members", 4, 4), "outside"),
    "member_order": (_set("title_members", 1, 0), "strictly increasing"),
    # One header count sizes the names, title_ptr and the years, so a short
    # name list misaligns every later section.
    "title_count_mismatch": (lambda g: {"title_names": g.title_names[:2]}, None),
    "title_year_below_unknown": (_set("title_year", 0, -2), "title year"),
    "title_year_before_min": (_set("title_year", 1, YEAR_MIN - 1), "title year"),
    "title_year_after_max": (_set("title_year", 2, YEAR_MAX + 1), "title year"),
    "label_repeated": (lambda g: {"labels": [g.labels[1], *g.labels[1:]]}, "repeated actor label"),
}


class TestCacheInvariants:
    """Every invariant violation is a CacheFormatError, never a later crash."""

    def graph(self):
        # 0-1-2-3 path plus 0-2: rows [1, 2], [0, 2], [0, 1, 3], [2].
        records = [
            TitleRecord("t1", "A", TitleKind.MOVIE, 2000, (), ("a", "b", "c"), "US"),
            TitleRecord("t2", "B", TitleKind.MOVIE, 2001, (), ("c", "d"), None),
            TitleRecord("t3", "C", TitleKind.MOVIE, 2002, (), ("d",), "IN"),
        ]
        return graph_of(records)

    def test_fixture_is_valid(self, tmp_path):
        g = self.graph()
        assert g.indices.tolist() == [1, 2, 0, 2, 0, 1, 3, 2]
        assert [column.tolist() for column in g.edge_arrays()] == [
            [0, 0, 1, 2], [1, 2, 2, 3], [1, 1, 1, 1]
        ]
        save_cache(tmp_path / "graph.bin", g)
        assert load_cache(tmp_path / "graph.bin") == g

    @pytest.mark.parametrize("name", sorted(INVALID))
    def test_violation_rejected(self, tmp_path, name):
        """The file is written from a stand-in that holds the mutated
        arrays, since the ``CoGraph`` constructor projects its incidence."""
        mutate, match = INVALID[name]
        g = self.graph()
        arrays = {f.name: getattr(g, f.name) for f in dataclasses.fields(g) if f.init}
        arrays.update(mutate(g))
        bad = SimpleNamespace(**arrays, n=g.n, total_edge_weight=g.total_edge_weight)
        path = tmp_path / "graph.bin"
        path.write_bytes(b"".join(graphio._sections(bad)))
        with pytest.raises(CacheFormatError, match=match):
            load_cache(path)

    def test_country_slot_outside_table(self, tmp_path):
        path = tmp_path / "graph.bin"
        save_cache(path, self.graph())
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<i", 7)  # last node's country slot
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError, match="country"):
            load_cache(path)

    def test_total_weight_wrong_rejected(self, tmp_path):
        """The header's total must be the casts' pair count: 3 + 1 + 0."""
        g = self.graph()
        path = tmp_path / "graph.bin"
        save_cache(path, g)
        data = bytearray(path.read_bytes())
        # The header's u64 total_edge_weight follows the magic, version and n.
        assert struct.unpack("<Q", data[20:28]) == (g.total_edge_weight,) == (4,)
        for total in (3, 5, 2**63):
            data[20:28] = struct.pack("<Q", total)
            path.write_bytes(bytes(data))
            with pytest.raises(CacheFormatError, match="total_edge_weight disagrees"):
                load_cache(path)

    @pytest.mark.parametrize("table, match", [
        (b'["a", "b", "c", 4]', "string table"),
        (b'{"a": 1}', "string table"),
        (b'["a", "b", "c"]', "string table"),
        (b'["a", "b", "c", "\\ud800"]', "labels: .* surrogates not allowed"),  # the constructor's
        (b'["a", "b", "c", "d"', "string table"),
        (b"[" * 10**6, "string table"),
    ], ids=["number", "object", "three", "lone-surrogate", "unterminated", "nested"])
    def test_bad_label_table_rejected(self, tmp_path, table, match):
        """The label table must be a JSON array of the four labels. One of
        deeply nested arrays overflows the JSON parser's stack."""
        path = tmp_path / "graph.bin"
        save_cache(path, self.graph())
        data = path.read_bytes()
        (size,) = struct.unpack("<Q", data[52:60])  # the label table follows the header
        path.write_bytes(data[:52] + struct.pack("<Q", len(table)) + table + data[60 + size:])
        with pytest.raises(CacheFormatError, match=match):
            load_cache(path)


_VALID_CACHE: list[bytes] = []


def _valid_cache(directory) -> bytes:
    if not _VALID_CACHE:
        save_cache(directory / "valid.bin", full_featured_graph())
        _VALID_CACHE.append((directory / "valid.bin").read_bytes())
    return _VALID_CACHE[0]


def _mixed(valid, *invalid):
    """Mostly ``valid`` values, and now and then one of the ``invalid`` ones."""
    return st.one_of(valid, valid, valid, *invalid)


_name = st.one_of(st.sampled_from(["", "a", "b", "é"]), st.text(max_size=3))
_lone_surrogate = st.sampled_from(["a\udc00", "\ud800"])
_not_str = st.one_of(st.integers(0, 5), st.binary(max_size=1))


@st.composite
def _constructor_fields(draw):
    """``CoGraph`` keyword arguments with a valid incidence, whose labels,
    title names, node countries and years mix valid and invalid values."""
    labels = draw(st.lists(_mixed(_name, _lone_surrogate, _not_str), max_size=6))
    n = len(labels)
    country = _mixed(st.none(), st.sampled_from(["", "US", "IN"]), _lone_surrogate, _not_str)
    year = st.one_of(st.just(-1), st.integers(YEAR_MIN, YEAR_MAX), st.integers(-3, 3000))
    cast = st.sets(st.integers(0, n - 1), max_size=4) if n else st.just(set())
    titles = draw(st.lists(st.tuples(_mixed(_name, _lone_surrogate, _not_str), year, cast),
                           max_size=5))
    return dict(
        labels=labels,
        node_country=draw(st.lists(country, min_size=n, max_size=n)),
        title_names=[name for name, _, _ in titles],
        title_ptr=np.cumsum([0, *(len(c) for _, _, c in titles)], dtype=np.int64),
        title_members=np.array([m for *_, c in titles for m in sorted(c)], np.int32),
        title_year=np.array([y for _, y, _ in titles], np.int32),
    )


def _fields(**changes):
    """The fields of a two-actor, one-title graph, with ``changes``."""
    return dict(labels=["a", "b"], node_country=[None, "US"], title_names=["t"],
                title_ptr=np.array([0, 2], np.int64), title_members=np.array([0, 1], np.int32),
                title_year=np.array([2000], np.int32)) | changes


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_constructor_fields())
@example(_fields(labels=["a", "a"]))
@example(_fields(labels=["a\udc00", "b"]))
@example(_fields(node_country=[None, 5]))
@example(_fields(title_year=np.array([3000], np.int32)))
def test_every_graph_the_constructor_accepts_round_trips(tmp_path, fields):
    """The constructor owns the invariants the cache stores: it rejects a
    graph, or ``load_cache`` reads back the graph ``save_cache`` wrote."""
    try:
        g = CoGraph(**fields)
    except ValueError:
        return
    save_cache(tmp_path / "graph.bin", g)
    assert load_cache(tmp_path / "graph.bin") == g


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), max_size=4),
    keep=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_corrupted_cache_raises_only_cache_format_error(tmp_path_factory, flips, keep):
    directory = tmp_path_factory.getbasetemp()
    data = bytearray(_valid_cache(directory))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    if keep is not None:
        data = data[: keep % len(data)]
    path = directory / "corrupt.bin"
    path.write_bytes(bytes(data))
    try:
        load_cache(path)
    except CacheFormatError:
        pass


class TestDot:
    def test_structure_and_escaping(self, tmp_path):
        g = full_featured_graph()
        path = tmp_path / "g.dot"
        write_dot(path, g)
        text = path.read_text()
        assert text.startswith("graph coappearance {")
        assert '\\"Title\\"' not in text  # titles are not node labels
        assert 'n0 [name="Ann"];' in text
        assert "n0 -- n1 [weight=1];" in text

    def test_quote_escaping_in_names(self, tmp_path):
        g = CoGraph.from_weighted_edges(['Say "Hi"', "B"], [(0, 1, 1)])
        path = tmp_path / "g.dot"
        write_dot(path, g)
        assert '"Say \\"Hi\\""' in path.read_text()


class TestGraphml:
    def test_labels_lose_characters_xml_forbids(self, tmp_path):
        path = tmp_path / "g.graphml"
        write_graphml(path, CoGraph.from_weighted_edges(["a\x01b", "c"], [(0, 1, 1)]))
        root = ET.parse(path).getroot()
        names = [data.text for data in root.iter("{http://graphml.graphdrawing.org/xmlns}data")]
        assert names == ["ab", "c", "1"]

    def test_parses_and_round_trips_attributes(self, tmp_path):
        g = full_featured_graph()
        path = tmp_path / "g.graphml"
        write_graphml(path, g)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        root = ET.parse(path).getroot()
        nodes = root.findall(".//g:node", ns)
        assert len(nodes) == g.n
        names = [node.find("g:data", ns).text for node in nodes]
        assert names == g.labels
        edges = root.findall(".//g:edge", ns)
        assert len(edges) == g.edge_count
        weights = sorted(int(e.find("g:data", ns).text) for e in edges)
        assert weights == sorted(w for _, _, w in g.edges())


def _xml_chars(label: str) -> str:
    """``label`` without the characters XML 1.0 forbids."""
    return "".join(
        ch for ch in label if ch in "\t\n\r" or not (ch < " " or ch in "\ufffe\uffff")
    )


def _elementtree_graphml(path, g: CoGraph) -> None:
    """The GraphML writer as ElementTree builds it, from labels cleaned by
    ``_xml_chars``: the oracle for the bytes."""
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    ET.SubElement(
        root, "key", id="d0", attrib={"for": "node", "attr.name": "name", "attr.type": "string"}
    )
    ET.SubElement(
        root, "key", id="d1", attrib={"for": "edge", "attr.name": "weight", "attr.type": "long"}
    )
    graph = ET.SubElement(root, "graph", edgedefault="undirected")
    for i, label in enumerate(g.labels):
        node = ET.SubElement(graph, "node", id=f"n{i}")
        ET.SubElement(node, "data", key="d0").text = _xml_chars(label)
    for u, v, w in g.edges():
        edge = ET.SubElement(graph, "edge", source=f"n{u}", target=f"n{v}")
        ET.SubElement(edge, "data", key="d1").text = str(w)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


_label = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def _labelled_graphs(draw):
    labels = draw(st.lists(_label, max_size=12, unique=True))
    n = len(labels)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9))
    edges = draw(st.lists(pairs, max_size=30)) if n else []
    return CoGraph.from_weighted_edges(labels, [(u, v, w) for u, v, w in edges if u != v])


class TestGraphmlBytes:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_labelled_graphs())
    @example(CoGraph.from_weighted_edges([], []))
    @example(CoGraph.from_weighted_edges(["lone"], []))
    @example(CoGraph.from_weighted_edges(["a&b", "<x>", "", "q\"'", "é", "  "], [(0, 2, 3)]))
    @example(CoGraph.from_weighted_edges(["\x01", "t\tn\nr\r", "\x7f\x85\uffff"], [(0, 1, 1)]))
    def test_matches_elementtree(self, tmp_path, g):
        write_graphml(tmp_path / "streamed.graphml", g)
        _elementtree_graphml(tmp_path / "tree.graphml", g)
        assert (tmp_path / "streamed.graphml").read_bytes() == (
            tmp_path / "tree.graphml"
        ).read_bytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_labelled_graphs())
@example(CoGraph.from_weighted_edges(["a\x01b", "\x00", "\x1b[0m", "x\x9f\uffff"], [(0, 1, 1)]))
def test_graphml_of_ingested_names_is_well_formed(tmp_path, g):
    """Names reach the graph through ``normalize_name``, as ingest passes them,
    and ingest keeps the labels distinct."""
    labels = [normalize_name(label) for label in g.labels]
    assume(len(set(labels)) == len(labels))
    g = dataclasses.replace(g, labels=labels)
    write_graphml(tmp_path / "graph.graphml", g)
    root = ET.parse(tmp_path / "graph.graphml").getroot()
    names = [data.text or "" for data in root.iter("{http://graphml.graphdrawing.org/xmlns}data")
             if data.get("key") == "d0"]
    assert names == g.labels


class TestClusterOutputs:
    def test_partition_csv(self, tmp_path, two_triangles):
        part = louvain(two_triangles, seed=42)
        path = tmp_path / "communities.csv"
        write_partition_csv(path, two_triangles.labels, part)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,community"
        assert len(lines) == 7

    def test_cluster_json_and_dot(self, tmp_path, two_triangles):
        part = louvain(two_triangles, seed=42)
        cg = build_cluster_graph(two_triangles, part)
        write_cluster_json(tmp_path / "c.json", cg)
        write_cluster_dot(tmp_path / "c.dot", cg)
        import json

        payload = json.loads((tmp_path / "c.json").read_text())
        assert len(payload["clusters"]) == 2
        assert payload["links"] == []
        dot = (tmp_path / "c.dot").read_text()
        assert dot.startswith("graph clusters {")
        assert "c0 [" in dot and "c1 [" in dot

    def test_outputs_deterministic(self, tmp_path, two_triangles):
        part = louvain(two_triangles, seed=42)
        cg = build_cluster_graph(two_triangles, part)
        write_cluster_json(tmp_path / "a.json", cg)
        write_cluster_json(tmp_path / "b.json", cg)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
