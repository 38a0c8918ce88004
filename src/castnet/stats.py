"""Catalog-level summaries: yearly trends, cast-size histogram, leaderboards."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from ._write import write_csv, write_json
from .ingest import TitleKind, TitleRecord


@dataclass
class CatalogSummary:
    per_year: dict[int, tuple[int, int]]  # year -> (movies, tv shows)
    unknown_year: tuple[int, int]
    cast_histogram: dict[int, int]  # cast size -> title count
    top_actors: list[tuple[str, int]]
    top_directors: list[tuple[str, int]]
    type_totals: tuple[int, int]  # (movies, tv shows)
    rating_counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_titles(self) -> int:
        return self.type_totals[0] + self.type_totals[1]


def summarize(records: Sequence[TitleRecord], top_k: int = 5) -> CatalogSummary:
    """Exact counts over the catalog; leaderboard ties break by name.

    Actors and directors are counted once per distinct title appearance.
    Titles without a release year land in the unknown-year bucket rather
    than being dropped.
    """
    per_year: dict[int, list[int]] = {}
    unknown = [0, 0]
    cast_hist: dict[int, int] = {}
    actor_counts: dict[str, int] = {}
    director_counts: dict[str, int] = {}
    totals = [0, 0]
    ratings: dict[str, int] = {}
    for rec in records:
        slot = 0 if rec.kind is TitleKind.MOVIE else 1
        totals[slot] += 1
        if rec.release_year is None:
            unknown[slot] += 1
        else:
            per_year.setdefault(rec.release_year, [0, 0])[slot] += 1
        size = len(rec.cast)
        cast_hist[size] = cast_hist.get(size, 0) + 1
        for name in rec.cast:
            actor_counts[name] = actor_counts.get(name, 0) + 1
        for name in rec.directors:
            director_counts[name] = director_counts.get(name, 0) + 1
        if rec.rating:
            ratings[rec.rating] = ratings.get(rec.rating, 0) + 1
    return CatalogSummary(
        per_year={y: (c[0], c[1]) for y, c in sorted(per_year.items())},
        unknown_year=(unknown[0], unknown[1]),
        cast_histogram=dict(sorted(cast_hist.items())),
        top_actors=_top(actor_counts, top_k),
        top_directors=_top(director_counts, top_k),
        type_totals=(totals[0], totals[1]),
        rating_counts=dict(sorted(ratings.items())),
    )


def _top(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def write_summary_json(path: str | os.PathLike, summary: CatalogSummary) -> None:
    payload = {
        "type_totals": {"movies": summary.type_totals[0], "tv_shows": summary.type_totals[1]},
        "per_year": {
            str(year): {"movies": mv, "tv_shows": tv}
            for year, (mv, tv) in summary.per_year.items()
        },
        "unknown_year": {
            "movies": summary.unknown_year[0],
            "tv_shows": summary.unknown_year[1],
        },
        "cast_histogram": {str(size): cnt for size, cnt in summary.cast_histogram.items()},
        "top_actors": [{"name": n, "count": c} for n, c in summary.top_actors],
        "top_directors": [{"name": n, "count": c} for n, c in summary.top_directors],
        "rating_counts": summary.rating_counts,
    }
    write_json(path, payload)


def write_summary_csvs(outdir: str | os.PathLike, summary: CatalogSummary) -> list[str]:
    """Per-figure CSVs (yearly trend, cast histogram, leaderboards)."""
    written = []

    def _write(name: str, header: list[str], rows) -> None:
        path = os.path.join(outdir, name)
        write_csv(path, header, rows)
        written.append(path)

    _write(
        "per_year.csv",
        ["year", "movies", "tv"],
        [(y, mv, tv) for y, (mv, tv) in summary.per_year.items()],
    )
    _write(
        "cast_histogram.csv",
        ["cast_size", "count"],
        list(summary.cast_histogram.items()),
    )
    _write("top_actors.csv", ["name", "count"], summary.top_actors)
    _write("top_directors.csv", ["name", "count"], summary.top_directors)
    return written
