"""The actor co-appearance graph: the title x person incidence of a catalog
and its projection onto actors.

A :class:`CoGraph` is built from its incidence alone, and its constructor
adds the co-appearance edges with :func:`project`; :func:`build_bipartite`
builds one from catalog records. The graph is the analysis substrate for
every other module. It is immutable once built: adjacency is CSR-style
(sorted neighbor arrays), node indices are dense and assigned in first-seen
order, and all outputs downstream report names, never indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._options import DEFAULT_MAX_CAST, YEAR_MAX, YEAR_MIN
from .errors import EmptyInputError, NodeOutOfRangeError, UnknownActorError

if TYPE_CHECKING:
    from .ingest import TitleKind, TitleRecord


def build_bipartite(
    records: Sequence[TitleRecord],
    *,
    kind: TitleKind | None = None,
    year_min: int | None = None,
    year_max: int | None = None,
    min_cast: int = 0,
    max_cast: int = DEFAULT_MAX_CAST,
    names: Mapping[str, str] | None = None,
) -> tuple[CoGraph, int]:
    """``(graph, oversize)``: the co-appearance graph of the title x person
    incidence of the ``records`` that pass the filters, and the number of
    titles rejected as oversize.

    ``names`` optionally maps person keys to display labels (IMDb nconst to
    primaryName); colliding display labels are disambiguated with the key.
    ``year_min`` and ``year_max`` bound the release year, each inclusive; a
    title without a year is kept only when neither bound is set.
    Cast sizes count distinct keys. Titles with more than ``max_cast`` are
    rejected as data errors and counted, since projection is quadratic per title.
    A kept title dated outside ``YEAR_MIN..YEAR_MAX`` raises :class:`ValueError`.
    """
    seen_titles: set[str] = set()
    person_index: dict[str, int] = {}  # key -> index, in first-seen order
    title_names: list[str] = []
    title_year: list[int] = []
    title_country: list[str | None] = []
    title_ptr = [0]
    members: list[int] = []  # title after title: sorted, duplicate-free person indices
    oversize = 0
    for rec in records:
        if kind is not None and rec.kind != kind:
            continue
        year = rec.release_year
        if year_min is not None and (year is None or year < year_min):
            continue
        if year_max is not None and (year is None or year > year_max):
            continue
        cast = dict.fromkeys(rec.cast)  # distinct keys, in first-seen order
        if len(cast) < min_cast:
            continue
        if len(cast) > max_cast:
            oversize += 1
            continue
        if rec.title_id in seen_titles:
            continue
        seen_titles.add(rec.title_id)
        if year is not None and not YEAR_MIN <= year <= YEAR_MAX:
            raise ValueError(f"title {rec.title_id!r}: year {year} outside {YEAR_MIN}..{YEAR_MAX}")
        title_names.append(rec.title)
        title_year.append(-1 if year is None else year)
        title_country.append(rec.country)
        members.extend(sorted([person_index.setdefault(key, len(person_index)) for key in cast]))
        title_ptr.append(len(members))
    if not title_names:
        raise EmptyInputError("no titles survive the configured filters")
    from .ingest import _display_labels  # here, so that analysis commands load no ingest

    n = len(person_index)
    ptr = np.array(title_ptr, np.int64)
    owners = np.array(members, np.int64)
    return CoGraph(
        labels=_display_labels(list(person_index), names),
        node_country=plurality_countries(
            title_country, np.repeat(np.arange(len(title_names)), np.diff(ptr)), owners, n
        ),
        title_names=title_names,
        title_ptr=ptr,
        title_members=owners.astype(np.int32),
        title_year=np.array(title_year, np.int32),
    ), oversize


@dataclass(eq=False)
class CoGraph:
    """Weighted undirected actor co-appearance graph (CSR adjacency).

    Built from the title x person incidence alone: title ``t`` has the cast
    ``title_members[title_ptr[t]:title_ptr[t + 1]]`` and the release year
    ``title_year[t]``, -1 when unknown. The constructor rejects, with
    :class:`ValueError`, fields that disagree on the title or node count and
    an incidence whose offsets do not run from 0 up to ``len(title_members)``
    or whose casts are not strictly increasing ids in ``[0, n)``. It then fills the read-only CSR, and
    ``rows``, the row of each entry, with :func:`project`. Edge weight counts
    shared titles. Neighbor arrays are sorted by index; there are no
    self-loops and all weights are >= 1. ``total_edge_weight`` sums weights
    over undirected edges (each edge once).
    """

    labels: list[str]
    node_country: list[str | None]  # len n, None for an unknown country
    title_names: list[str]
    title_ptr: np.ndarray  # int64, len titles+1
    title_members: np.ndarray  # int32, sorted within each title
    title_year: np.ndarray  # int32, len titles
    indptr: np.ndarray = field(init=False)  # int64, len n+1
    indices: np.ndarray = field(init=False)  # int32, sorted within each row
    weights: np.ndarray = field(init=False)  # int64, parallel to indices
    rows: np.ndarray = field(init=False)  # int64, parallel to indices

    def __post_init__(self) -> None:
        if len(self.node_country) != self.n:
            raise ValueError(f"node_country has length {len(self.node_country)}, not {self.n}")
        titles = (len(self.title_names), len(self.title_year), len(self.title_ptr) - 1)
        if len(set(titles)) != 1:
            raise ValueError("title count disagrees: %d names, %d years, %d offset spans" % titles)
        ptr, members = self.title_ptr, self.title_members
        if ptr[0] != 0 or ptr[-1] != len(members) or np.any(np.diff(ptr) < 0):
            raise ValueError(f"title offsets are not monotone from 0 to {len(members)}")
        if len(members) and (members.min() < 0 or members.max() >= self.n):
            raise ValueError(f"title member id outside [0, {self.n})")
        title = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))  # of each member slot
        if np.any(np.diff(members)[title[1:] == title[:-1]] <= 0):
            raise ValueError("title member ids not strictly increasing within a title")
        self.indptr, self.indices, self.weights, self.rows = project(
            self.n, self.title_ptr, self.title_members
        )
        for array in (self.indptr, self.indices, self.weights, self.rows):
            array.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def total_edge_weight(self) -> int:
        return int(self.weights.sum()) // 2

    def _check(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise NodeOutOfRangeError(f"node {u} outside [0, {self.n})")

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor indices of ``u`` (a read-only view)."""
        self._check(u)
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.labels)}

    def node(self, name: str) -> int:
        try:
            return self._label_index[name]
        except KeyError:
            # Colliding display names carry a " [key]" suffix; suggest them.
            prefix = f"{name} ["
            suggestions = sorted(lbl for lbl in self.labels if lbl.startswith(prefix))
            raise UnknownActorError(name, suggestions) from None

    def titles_for_edge(self, u: int, v: int) -> tuple[str, ...]:
        """Names of the titles whose cast holds both actors, sorted by name."""

        def titles_of(p: int) -> np.ndarray:
            slots = np.flatnonzero(self.title_members == p)
            return np.searchsorted(self.title_ptr, slots, side="right") - 1

        # A set, not np.intersect1d: its np.unique imports numpy.ma.
        shared = set(titles_of(u).tolist()).intersection(titles_of(v).tolist())
        return tuple(sorted(self.title_names[t] for t in shared))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoGraph):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, weight)`` arrays holding each undirected edge once, u < v, in row order."""
        upper = self.rows < self.indices
        return self.rows[upper], self.indices[upper].astype(np.int64), self.weights[upper]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each undirected edge once as (u, v, weight) with u < v, in row order."""
        return zip(*(column.tolist() for column in self.edge_arrays()))

    @classmethod
    def from_weighted_edges(
        cls,
        labels: Sequence[str],
        edges: Iterable[tuple[int, int, int]],
        *,
        node_country: Sequence[str | None] | None = None,
    ) -> "CoGraph":
        """Build a graph from an undirected weighted edge list; repeated edges sum.

        Each unit of an edge's weight becomes one unnamed (``""``) title of
        unknown year (-1) whose cast is the edge's two actors, in edge-list
        order, and the graph is built from that incidence.
        """
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("actor labels must be unique")
        u, v, w = np.array(list(edges), dtype=np.int64).reshape(-1, 3).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")
        bad = np.flatnonzero((lo < 0) | (hi >= n))
        if bad.size:
            raise NodeOutOfRangeError(f"edge ({u[bad[0]]},{v[bad[0]]}) outside [0,{n})")
        if np.any(w < 1):
            raise ValueError("edge weights must be >= 1")
        unit = np.repeat(np.arange(len(w)), w)  # the edge of each title
        return cls(
            labels=list(labels),
            node_country=list(node_country) if node_country is not None else [None] * n,
            title_names=[""] * len(unit),
            title_ptr=np.arange(0, 2 * len(unit) + 1, 2, dtype=np.int64),
            title_members=np.stack([lo[unit], hi[unit]], axis=1).ravel().astype(np.int32),
            title_year=np.full(len(unit), -1, np.int32),
        )


def name_ranks(labels: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """``(rank, names)``: ``names`` is ``sorted(labels)`` and ``rank[i]`` is the
    position of ``labels[i]`` in it, so comparing ranks compares names."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(labels), np.int64)
    rank[order] = np.arange(len(labels))
    return rank, [labels[i] for i in order]


def top_pairs(score: np.ndarray, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest keys ``(-score, a, b)``, in key order.

    ``a`` and ``b`` are name ranks of a pair (``a < b``), which makes this the
    order "score descending, then names". Every entry tied with the k-th
    score reaches the sort, so the names alone decide among ties.
    """
    idx = np.arange(len(score))
    if len(score) > k:
        kth = np.partition(score, len(score) - k)[len(score) - k]
        idx = np.flatnonzero(score >= kth)
    order = np.lexsort((b[idx], a[idx], -score[idx]))
    return idx[order[:k]]


def project(n: int, title_ptr: np.ndarray, title_members: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(indptr, indices, weights, rows)``: the CSR co-appearance adjacency of
    ``n`` persons under a title x person incidence, and the row of each entry.

    Edge (u, v) has weight = number of titles whose cast contains both.
    Isolated persons (solo casts) remain as degree-0 nodes. The incidence
    may be read-only.
    """
    members = title_members.astype(np.int64)
    # Every within-title pair u < v: the member in slot p pairs with the
    # ``after[p]`` members that follow it in its title's sorted cast.
    slot = np.arange(len(members))
    after = np.repeat(title_ptr[1:], np.diff(title_ptr)) - slot - 1
    run_start = np.cumsum(after) - after
    partner = np.arange(int(after.sum())) - np.repeat(run_start - slot - 1, after)
    u, v = np.repeat(members, after), members[partner]
    # Both directions in one sort: the keys come out in row-major CSR order.
    keys, weights = np.unique(np.concatenate([u * n + v, v * n + u]), return_counts=True)
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(np.int32), weights, rows


def plurality_countries(
    countries: Sequence[str | None], items: np.ndarray, owners: np.ndarray, n: int
) -> list[str | None]:
    """Each of ``n`` owners' most frequent country, ties to the smaller string.

    Entry ``e`` gives owner ``owners[e]`` (int64) one count of
    ``countries[items[e]]``. ``None`` and ``""`` are no country; an owner
    without one gets ``None``. Countries are interned in sorted order, so the
    smaller code is the smaller string.
    """
    table = sorted({c for c in countries if c})
    code_of = {c: i for i, c in enumerate(table)}
    entry_code = np.array([code_of.get(c, -1) for c in countries], np.int64)[items]
    known = entry_code >= 0
    width = max(len(table), 1)
    keys, counts = np.unique(owners[known] * width + entry_code[known], return_counts=True)
    owner, code = np.divmod(keys, width)
    order = np.lexsort((code, -counts, owner))  # each owner's plurality first
    first = order[np.diff(owner[order], prepend=-1) != 0]
    best = np.full(n, len(table))  # the None slot
    best[owner[first]] = code[first]
    table.append(None)
    return [table[c] for c in best.tolist()]
