"""Graph serialization: DOT and GraphML exports plus a binary cache.

The cache is a little-endian versioned container so analyses can reload a
built graph without re-parsing the raw dumps; see ``docs/cache-format.md``
for the byte layout. The loader rejects unknown magic or versions and any
file whose arrays break the graph's invariants.
"""

from __future__ import annotations

import math
import os
import struct
from typing import TYPE_CHECKING

import numpy as np

from ._write import fmt_score, replacing, write_csv, write_json
from .errors import CacheFormatError
from .graph import CoGraph

if TYPE_CHECKING:
    from .community import ClusterGraph, Partition

CACHE_MAGIC = b"CASTNETG"
CACHE_VERSION = 2

_FLAG_NODE_COUNTRY = 1


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(path: str | os.PathLike, g: CoGraph) -> None:
    """DOT export: node attribute ``name``, edge attribute ``weight``."""
    with replacing(path) as fh:
        fh.write("graph coappearance {\n")
        for i, label in enumerate(g.labels):
            fh.write(f"  n{i} [name={_dot_quote(label)}];\n")
        for u, v, w in g.edges():
            fh.write(f"  n{u} -- n{v} [weight={w}];\n")
        fh.write("}\n")


# C0 controls other than tab, LF and CR, and U+FFFE and U+FFFF: XML 1.0
# cannot carry them, not even as character references.
_XML_FORBIDDEN = dict.fromkeys(
    [*(c for c in range(0x20) if chr(c) not in "\t\n\r"), 0xFFFE, 0xFFFF]
)


def _xml_text(text: str) -> str:
    if not text.isprintable():  # printable text holds none; translate is slow
        text = text.translate(_XML_FORBIDDEN)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_graphml(path: str | os.PathLike, g: CoGraph) -> None:
    """GraphML export: node attribute ``name``, edge attribute ``weight``.

    Labels lose the characters XML 1.0 forbids. The text is what
    ElementTree writes for the same tree after ``ET.indent``: two-space
    indent, empty elements as ``<x />``, no newline after the root.
    """
    with replacing(path) as fh:
        fh.write(
            "<?xml version='1.0' encoding='utf-8'?>\n"
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '  <key for="node" attr.name="name" attr.type="string" id="d0" />\n'
            '  <key for="edge" attr.name="weight" attr.type="long" id="d1" />\n'
        )
        if g.n == 0:
            fh.write('  <graph edgedefault="undirected" />\n</graphml>')
            return
        fh.write('  <graph edgedefault="undirected">\n')
        for i, label in enumerate(g.labels):
            text = _xml_text(label)
            data = f'<data key="d0">{text}</data>' if text else '<data key="d0" />'
            fh.write(f'    <node id="n{i}">\n      {data}\n    </node>\n')
        for u, v, w in g.edges():
            fh.write(
                f'    <edge source="n{u}" target="n{v}">\n'
                f'      <data key="d1">{w}</data>\n    </edge>\n'
            )
        fh.write("  </graph>\n</graphml>")


# ---------------------------------------------------------------------------
# Binary cache
# ---------------------------------------------------------------------------


def _strings(texts) -> bytes:
    """String table: ``u32`` byte length per string, then the UTF-8 bytes."""
    data = [text.encode("utf-8") for text in texts]
    return np.array([len(d) for d in data], "<u4").tobytes() + b"".join(data)


def _sections(g: CoGraph):
    flags = _FLAG_NODE_COUNTRY if g.node_country is not None else 0
    counts = (g.n, len(g.indices), g.total_edge_weight, len(g.title_names), len(g.title_members))
    yield CACHE_MAGIC + struct.pack("<II5Q", CACHE_VERSION, flags, *counts)
    yield _strings(g.labels)
    yield g.indptr.astype("<i8").tobytes()
    yield g.indices.astype("<i4").tobytes()
    yield g.weights.astype("<i8").tobytes()
    yield _strings(g.title_names)
    yield g.title_ptr.astype("<i8").tobytes()
    yield g.title_members.astype("<i4").tobytes()
    if g.node_country is not None:
        names = sorted({c for c in g.node_country if c is not None})
        slot = {name: i for i, name in enumerate(names)}
        yield struct.pack("<Q", len(names)) + _strings(names)
        yield np.array([-1 if c is None else slot[c] for c in g.node_country], "<i4").tobytes()


def save_cache(path: str | os.PathLike, g: CoGraph) -> None:
    """Write the cache atomically: ``path`` holds the old file or the whole new one."""
    with replacing(path, binary=True) as fh:
        for section in _sections(g):
            fh.write(section)


class _Reader:
    """Cursor over the cache bytes; reading past the end is a format error."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int) -> bytes:
        if size > len(self.data) - self.pos:
            raise CacheFormatError("truncated cache file")
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def array(self, dtype: str, count: int) -> np.ndarray:
        """``count`` little-endian items, native-endian and read-only."""
        raw = np.frombuffer(self.take(np.dtype(dtype).itemsize * count), dtype)
        out = raw.astype(raw.dtype.newbyteorder("="), copy=False)
        out.flags.writeable = False
        return out

    def strings(self, count: int) -> list[str]:
        lengths = self.array("<u4", count).astype(np.int64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        blob = self.take(int(ends[-1]) if count else 0)
        try:
            return [blob[a:b].decode("utf-8") for a, b in zip(starts.tolist(), ends.tolist())]
        except UnicodeDecodeError:
            raise CacheFormatError("cache string is not UTF-8") from None


def _rows(what: str, ptr: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Row id of every value, after checking ``ptr`` offsets ``values`` into rows
    of strictly increasing ids in ``[0, n)``."""
    if ptr[0] != 0 or ptr[-1] != len(values) or np.any(np.diff(ptr) < 0):
        raise CacheFormatError(f"{what} offsets are not monotone from 0 to {len(values)}")
    if len(values) and (values.min() < 0 or values.max() >= n):
        raise CacheFormatError(f"{what} id outside [0, {n})")
    rows = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    if np.any(np.diff(values)[rows[1:] == rows[:-1]] <= 0):
        raise CacheFormatError(f"{what} ids not strictly increasing within a row")
    return rows


def _check_adjacency(n: int, total: int, indptr, indices, weights) -> None:
    rows = _rows("adjacency", indptr, indices, n)
    if np.any(rows == indices):
        raise CacheFormatError("self-loop in adjacency")
    if np.any(weights < 1):
        raise CacheFormatError("edge weight below 1")
    # Rows are sorted and strictly increasing, so the keys are sorted; the
    # transpose holds the same keys and weights exactly when A is symmetric.
    keys = rows * n + indices
    transposed = indices.astype(np.int64) * n + rows
    order = np.argsort(transposed)
    if not (np.array_equal(transposed[order], keys) and np.array_equal(weights[order], weights)):
        raise CacheFormatError("adjacency is not symmetric with equal weights")
    if int(weights.sum()) // 2 != total:
        raise CacheFormatError("total_edge_weight disagrees with the edge weights")


def load_cache(path: str | os.PathLike) -> CoGraph:
    """Read a cache written by :func:`save_cache`, rejecting any file that is
    truncated, carries trailing bytes or breaks a CSR or incidence invariant.
    The graph's arrays are read-only."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(len(CACHE_MAGIC)) != CACHE_MAGIC:
        raise CacheFormatError("not a graph cache file")
    version, flags = struct.unpack("<II", r.take(8))
    if version != CACHE_VERSION:
        raise CacheFormatError(
            f"cache version {version} unsupported (expected {CACHE_VERSION}); rebuild"
        )
    if flags & ~_FLAG_NODE_COUNTRY:
        raise CacheFormatError(f"unknown cache flags {flags:#x}")
    n, nnz, total, n_titles, n_members = struct.unpack("<5Q", r.take(40))
    labels = r.strings(n)
    indptr = r.array("<i8", n + 1)
    indices = r.array("<i4", nnz)
    weights = r.array("<i8", nnz)
    title_names = r.strings(n_titles)
    title_ptr = r.array("<i8", n_titles + 1)
    title_members = r.array("<i4", n_members)
    node_country = None
    if flags & _FLAG_NODE_COUNTRY:
        (n_countries,) = struct.unpack("<Q", r.take(8))
        names = r.strings(n_countries) + [None]  # slot -1 means no country
        slots = r.array("<i4", n)
        if np.any((slots < -1) | (slots >= n_countries)):
            raise CacheFormatError("node country outside the country table")
        node_country = [names[s] for s in slots.tolist()]
    if r.pos != len(r.data):
        raise CacheFormatError("trailing bytes after cache payload")
    _check_adjacency(n, total, indptr, indices, weights)
    _rows("title", title_ptr, title_members, n)
    if len(set(labels)) != n:
        raise CacheFormatError("repeated actor label")
    return CoGraph(
        labels=labels,
        indptr=indptr,
        indices=indices,
        weights=weights,
        title_names=title_names,
        title_ptr=title_ptr,
        title_members=title_members,
        node_country=node_country,
    )


# ---------------------------------------------------------------------------
# Partition and cluster meta-graph outputs
# ---------------------------------------------------------------------------


def write_partition_csv(path: str | os.PathLike, labels: list[str], partition: Partition) -> None:
    write_csv(path, ["name", "community"], sorted(zip(labels, partition.assignment)))


def write_cluster_json(path: str | os.PathLike, cg: ClusterGraph) -> None:
    payload = {
        "clusters": [
            {"id": cid, "label": info.label, "size": info.size, "volume": info.volume}
            for cid, info in sorted(cg.clusters.items())
        ],
        "links": [
            {
                "a": a,
                "b": b,
                "weight": link.weight,
                "frequency": link.frequency,
            }
            for (a, b), link in sorted(cg.links.items())
        ],
    }
    write_json(path, payload)


def write_cluster_dot(path: str | os.PathLike, cg: ClusterGraph) -> None:
    """Cluster meta-graph DOT: nodes sized by membership, edges by frequency."""
    with replacing(path) as fh:
        fh.write("graph clusters {\n")
        for cid, info in sorted(cg.clusters.items()):
            width = 0.3 + 0.15 * math.sqrt(info.size)
            fh.write(
                f"  c{cid} [label={_dot_quote(f'{info.label} ({info.size})')}"
                f", width={width:.2f}];\n"
            )
        for (a, b), link in sorted(cg.links.items()):
            fh.write(f"  c{a} -- c{b} [label={_dot_quote(fmt_score(link.frequency))}];\n")
        fh.write("}\n")
