"""Graph serialization: DOT and GraphML exports plus a binary cache.

The cache is a little-endian versioned container so analyses can reload a
built graph without re-parsing the raw dumps; see ``docs/cache-format.md``
for the byte layout. The loader rejects unknown magic or versions and any
file whose arrays break the graph's invariants.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import TYPE_CHECKING

import numpy as np

from ._options import YEAR_MAX, YEAR_MIN
from ._write import fmt_score, replacing, write_csv, write_json
from .errors import CacheFormatError
from .graph import CoGraph

if TYPE_CHECKING:
    from .community import ClusterGraph, Partition

CACHE_MAGIC = b"CASTNETG"
CACHE_VERSION = 5


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


def _strings(texts: list[str]) -> bytes:
    """String table: ``u64`` byte length, then the strings as one UTF-8 JSON array."""
    data = json.dumps(texts, ensure_ascii=False).encode("utf-8")
    return struct.pack("<Q", len(data)) + data


def _sections(g: CoGraph):
    countries = sorted({c for c in g.node_country if c is not None})
    slot = {name: i for i, name in enumerate(countries)}
    counts = (g.n, g.total_edge_weight, len(g.title_names), len(g.title_members), len(countries))
    yield CACHE_MAGIC + struct.pack("<I5Q", CACHE_VERSION, *counts)
    yield _strings(g.labels)
    yield _strings(g.title_names)
    yield g.title_ptr.astype("<i8").tobytes()
    yield g.title_members.astype("<i4").tobytes()
    yield g.title_year.astype("<i4").tobytes()
    yield _strings(countries)
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
        (size,) = struct.unpack("<Q", self.take(8))
        blob = self.take(size)
        try:
            texts = json.loads(blob.decode("utf-8"))
            # join fails unless every item is a str, encode on a lone surrogate
            "".join(texts).encode("utf-8")
        except (ValueError, TypeError, RecursionError):
            raise CacheFormatError("cache string table is not a JSON array of strings") from None
        if type(texts) is not list or len(texts) != count:
            raise CacheFormatError(f"cache string table does not hold {count} strings")
        return texts


def load_cache(path: str | os.PathLike) -> CoGraph:
    """Read a cache written by :func:`save_cache`, rejecting any file that is
    truncated, carries trailing bytes or breaks an incidence invariant. The
    :class:`CoGraph` constructor checks and projects the incidence; every
    array of the graph is read-only."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(len(CACHE_MAGIC)) != CACHE_MAGIC:
        raise CacheFormatError("not a graph cache file")
    (version,) = struct.unpack("<I", r.take(4))
    if version != CACHE_VERSION:
        raise CacheFormatError(
            f"cache version {version} unsupported (expected {CACHE_VERSION}); rebuild"
        )
    n, total, n_titles, n_members, n_countries = struct.unpack("<5Q", r.take(40))
    labels = r.strings(n)
    title_names = r.strings(n_titles)
    title_ptr = r.array("<i8", n_titles + 1)
    title_members = r.array("<i4", n_members)
    title_year = r.array("<i4", n_titles)
    countries = r.strings(n_countries) + [None]  # slot -1 means no country
    slots = r.array("<i4", n)
    if r.pos != len(r.data):
        raise CacheFormatError("trailing bytes after cache payload")
    # Projecting makes c(c-1)/2 pairs per cast of c. The header states their
    # sum, which is checked before the constructor makes any pair; offsets
    # that do not split the members into casts fail the constructor's check.
    sizes = np.diff(title_ptr)
    casts = title_ptr[0] == 0 and title_ptr[-1] == n_members and np.all(sizes >= 0)
    if casts and int((sizes * (sizes - 1) // 2).sum()) != total:
        raise CacheFormatError("total_edge_weight disagrees with the casts' pair count")
    if np.any((title_year != -1) & ((title_year < YEAR_MIN) | (title_year > YEAR_MAX))):
        raise CacheFormatError(f"title year neither -1 nor in {YEAR_MIN}..{YEAR_MAX}")
    if np.any((slots < -1) | (slots >= n_countries)):
        raise CacheFormatError("node country outside the country table")
    if len(set(labels)) != n:
        raise CacheFormatError("repeated actor label")
    try:
        return CoGraph(
            labels=labels,
            node_country=[countries[s] for s in slots.tolist()],
            title_names=title_names,
            title_ptr=title_ptr,
            title_members=title_members,
            title_year=title_year,
        )
    except ValueError as exc:
        raise CacheFormatError(str(exc)) from None


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
