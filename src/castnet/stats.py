"""Catalog-level summaries: yearly trends, cast-size histogram, leaderboards."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ._write import write_csv, write_json
from .ingest import TitleKind, TitleRecord, _display_labels


@dataclass
class CatalogSummary:
    per_year: dict[int, tuple[int, int]]  # release year -> (movies, tv shows)
    unknown_year: tuple[int, int]
    per_year_added: dict[int, tuple[int, int]]  # year added to the catalog -> (movies, tv shows)
    cast_histogram: dict[int, int]  # cast size -> title count
    top_actors: list[tuple[str, int]]
    top_directors: list[tuple[str, int]]
    type_totals: tuple[int, int]  # (movies, tv shows)
    rating_counts: dict[str, int] = field(default_factory=dict)


def summarize(
    records: Sequence[TitleRecord], top_k: int = 5, names: Mapping[str, str] | None = None
) -> CatalogSummary:
    """Exact counts over the catalog; leaderboard ties break by name.

    Actors and directors are counted once per distinct title appearance,
    and a cast's size is its number of distinct keys, as in the graph.
    Actors are counted by cast key; with ``names`` (cast key -> display
    name, such as IMDb nconst -> primaryName) each is listed by the label
    the whole catalog's graph gives it, and otherwise by its key.
    Titles without a release year land in the unknown-year bucket rather
    than being dropped. ``per_year_added`` counts only titles with a
    ``date_added``, which IMDb records never have. A record's kind is a
    ``TitleKind`` or its value; any other value raises ValueError.
    """
    is_tv = [TitleKind(rec.kind) is TitleKind.TV_SHOW for rec in records]
    kinds = Counter(zip((rec.release_year for rec in records), is_tv))
    added = Counter((rec.date_added.year, tv)
                    for rec, tv in zip(records, is_tv) if rec.date_added is not None)
    casts = [set(rec.cast) for rec in records]
    cast_sizes = Counter(map(len, casts))
    actors = Counter(key for cast in casts for key in cast)
    directors = Counter(name for rec in records for name in set(rec.directors))
    ratings = Counter(rec.rating for rec in records if rec.rating)
    if names is not None:
        actors = dict(zip(_display_labels(list(actors), names), actors.values()))
    movies = sum(count for (_, tv), count in kinds.items() if not tv)
    return CatalogSummary(
        per_year=_by_year(kinds),
        unknown_year=(kinds[None, False], kinds[None, True]),
        per_year_added=_by_year(added),
        cast_histogram=dict(sorted(cast_sizes.items())),
        top_actors=_top(actors, top_k),
        top_directors=_top(directors, top_k),
        type_totals=(movies, len(records) - movies),
        rating_counts=dict(sorted(ratings.items())),
    )


def _by_year(counts: Counter) -> dict[int, tuple[int, int]]:
    """``{year: (movies, tv)}`` by year from a count of (year, is TV); no None year."""
    years = sorted({year for year, _ in counts} - {None})
    return {y: (counts[y, False], counts[y, True]) for y in years}


def _top(counts: dict[str, int], k: int) -> list[tuple[str, int]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def write_summary_json(path: str | os.PathLike, summary: CatalogSummary) -> None:
    """The counts no CSV of :func:`write_summary_csvs` holds."""
    payload = {
        "type_totals": {"movies": summary.type_totals[0], "tv_shows": summary.type_totals[1]},
        "unknown_year": {"movies": summary.unknown_year[0], "tv_shows": summary.unknown_year[1]},
        "rating_counts": summary.rating_counts,
    }
    write_json(path, payload)


def write_summary_csvs(output: Callable[[str], str], summary: CatalogSummary) -> None:
    """Per-figure CSVs (yearly trends, cast histogram, leaderboards), each at
    the path ``output`` gives its file name."""
    for name, table in (("per_year.csv", summary.per_year),
                        ("per_year_added.csv", summary.per_year_added)):
        rows = [(y, mv, tv) for y, (mv, tv) in table.items()]
        write_csv(output(name), ["year", "movies", "tv"], rows)
    write_csv(output("cast_histogram.csv"), ["cast_size", "count"],
              list(summary.cast_histogram.items()))
    write_csv(output("top_actors.csv"), ["name", "count"], summary.top_actors)
    write_csv(output("top_directors.csv"), ["name", "count"], summary.top_directors)
