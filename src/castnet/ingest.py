"""Catalog ingestion: Netflix CSV and IMDb TSV dumps into normalized records.

Both parsers return an :class:`IngestResult` and take each input as a path or
a text stream; a gzip-compressed file is detected by its magic bytes. They
are tolerant: malformed rows are skipped and counted in an
:class:`IngestReport`, never fatal; a file that is not UTF-8 text, or a cut
or corrupt gzip file, fails with a one-line :class:`CastnetError` naming
it. Parsing is a pure function of the input bytes, so identical streams
always yield identical record lists.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from typing import IO, Callable, Iterable, Iterator, Mapping, TypeVar, Union

from ._write import replacing
from .errors import CastnetError, JsonlFormatError, MissingColumnError

Source = Union[str, "os.PathLike[str]", IO[str]]
T = TypeVar("T")

YEAR_MIN = 1870
YEAR_MAX = 2100

GZIP_MAGIC = b"\x1f\x8b"


class TitleKind(str, Enum):
    MOVIE = "movie"
    TV_SHOW = "tv_show"


@dataclass(frozen=True)
class TitleRecord:
    """One normalized catalog entry."""

    title_id: str
    title: str
    kind: TitleKind
    release_year: int | None
    directors: tuple[str, ...]
    cast: tuple[str, ...]
    country: str | None = None
    rating: str | None = None
    date_added: date | None = None


@dataclass(frozen=True)
class SkipEvent:
    """One skipped input row, with its physical line number and reason."""

    line: int
    reason: str


@dataclass
class IngestReport:
    """Accounting for one parse: every data row is a record, a skip, or
    filtered out by the title-kind filter."""

    rows: int = 0
    skipped: list[SkipEvent] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def skip(self, line: int, reason: str) -> None:
        self.skipped.append(SkipEvent(line, reason))

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by


@dataclass
class IngestResult:
    records: list[TitleRecord]
    report: IngestReport
    persons: dict[str, str] = field(default_factory=dict)  # IMDb nconst -> name; Netflix has none


# C0 and C1 controls that are not whitespace, and U+FFFE and U+FFFF: XML 1.0
# cannot carry them, not even as character references.
_DROPPED_CHARS = dict.fromkeys(
    c for c in [*range(0x20), *range(0x7F, 0xA0), 0xFFFE, 0xFFFF] if not chr(c).isspace()
)


def normalize_name(raw: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces, and drop
    control characters.

    No case folding: names differing in case stay distinct.
    """
    if not raw.isprintable():  # printable text holds none; translate is slow
        raw = raw.translate(_DROPPED_CHARS)
    return " ".join(raw.split())


@contextmanager
def _open_text(source: Source) -> Iterator[IO[str]]:
    """Open ``source`` as a UTF-8 text stream.

    A filesystem path is opened, and gunzipped when it starts with the gzip
    magic; reading text that is not UTF-8, or a cut or corrupt gzip stream,
    raises :class:`CastnetError` naming the path. A text stream is used
    as-is and not closed. Anything else, a binary stream included, raises
    :class:`TypeError`.
    """
    if isinstance(source, io.TextIOBase):
        yield source
        return
    if not isinstance(source, (str, os.PathLike)):
        raise TypeError(f"expected a path or a text stream, not {type(source).__name__}")
    with open(source, "rb") as raw:
        if raw.peek(2)[:2] == GZIP_MAGIC:
            fh = gzip.open(raw, "rt", encoding="utf-8-sig", newline="")
        else:
            fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
        with fh:
            try:
                yield fh
            except UnicodeDecodeError:
                raise CastnetError(f"{source}: not UTF-8 text") from None
            except EOFError:
                raise CastnetError(f"{source}: truncated gzip stream") from None
            except (gzip.BadGzipFile, zlib.error):
                raise CastnetError(f"{source}: corrupt gzip stream") from None


@contextmanager
def _table(source: Source, table: str, required: tuple[str, ...], **dialect):
    """Open ``source`` as a ``csv`` table in ``dialect`` and yield ``(col, rows)``.

    ``col`` maps header names to indices; a header lacking ``required``
    columns raises :class:`MissingColumnError`, and one the csv module cannot
    parse a :class:`CastnetError` naming the path (the table for a stream).
    ``rows`` yields ``(line, row, fault)`` per data row; ``fault`` is None, a
    bad arity, or a csv parse failure (``row`` None) after which reading
    resumes at the next line.
    """
    with _open_text(source) as fh:
        reader = csv.reader(fh, **dialect)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            where = table if isinstance(source, io.TextIOBase) else os.fspath(source)
            raise CastnetError(f"{where}: header: {exc}") from None
        col = {name.strip(): i for i, name in enumerate(header)}
        missing = [c for c in required if c not in col]
        if missing:
            raise MissingColumnError(table, missing)
        yield col, _rows(reader, len(header))


def _rows(reader, width: int) -> Iterator[tuple[int, list[str] | None, str | None]]:
    """:func:`_table`'s ``rows`` of ``reader``, whose rows have ``width`` fields."""
    done = False
    while not done:
        try:
            for row in reader:
                fault = None if len(row) == width else f"row arity {len(row)} != {width}"
                yield reader.line_num, row, fault
            done = True
        except csv.Error as exc:
            yield reader.line_num, None, f"csv parse failure: {exc}"


def _split_people(cell: str) -> tuple[str, ...]:
    """Split a comma-separated people cell, normalize, drop empties, dedupe."""
    names = dict.fromkeys(map(normalize_name, cell.split(",")))
    names.pop("", None)
    return tuple(names)


def _clean_year(value: str | None) -> int | None:
    if not value:
        return None
    try:
        year = int(value.strip())
    except ValueError:
        return None
    return year if YEAR_MIN <= year <= YEAR_MAX else None


# ---------------------------------------------------------------------------
# Netflix catalog CSV
# ---------------------------------------------------------------------------

NETFLIX_REQUIRED = ("show_id", "type", "title", "director", "cast", "release_year")

_NETFLIX_KINDS = {"Movie": TitleKind.MOVIE, "TV Show": TitleKind.TV_SHOW}


def parse_netflix(source: Source, kinds: Iterable[TitleKind] | None = None) -> IngestResult:
    """Parse a Kaggle-schema ``netflix_titles.csv`` into TitleRecords.

    One record per data row; ``cast``/``director`` cells are comma-split and
    trimmed; rows with a bad arity, an unknown type, or a duplicate show_id
    are skipped and counted. Rows of a kind outside ``kinds`` (default: all)
    are counted as ``filtered``.
    """
    wanted = frozenset(kinds) if kinds else frozenset(TitleKind)
    report = IngestReport()
    records: list[TitleRecord] = []
    seen_ids: set[str] = set()
    with _table(source, "netflix", NETFLIX_REQUIRED) as (col, rows):
        for line, row, fault in rows:
            report.rows += 1
            if fault:
                report.skip(line, fault)
                continue
            title_id = row[col["show_id"]].strip()
            if not title_id:
                report.skip(line, "empty show_id")
                continue
            if title_id in seen_ids:
                report.skip(line, f"duplicate show_id {title_id}")
                continue
            kind = _NETFLIX_KINDS.get(row[col["type"]].strip())
            if kind is None:
                report.skip(line, f"unknown type {row[col['type']]!r}")
                continue
            seen_ids.add(title_id)
            if kind not in wanted:
                report.bump("filtered")
                continue
            records.append(
                TitleRecord(
                    title_id=title_id,
                    title=row[col["title"]].strip(),
                    kind=kind,
                    release_year=_clean_year(row[col["release_year"]]),
                    directors=_split_people(row[col["director"]]),
                    cast=_split_people(row[col["cast"]]),
                    country=_first_country(_cell(row, col, "country")),
                    rating=_cell(row, col, "rating") or None,
                    date_added=_parse_date_added(_cell(row, col, "date_added")),
                )
            )
    return IngestResult(records, report)


def _cell(row: list[str], col: dict[str, int], name: str) -> str:
    idx = col.get(name)
    return row[idx].strip() if idx is not None else ""


def _first_country(cell: str) -> str | None:
    for part in cell.split(","):
        part = part.strip()
        if part:
            return part
    return None


def _parse_date_added(cell: str) -> date | None:
    if not cell:
        return None
    try:
        return datetime.strptime(cell, "%B %d, %Y").date()
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# IMDb non-commercial TSV dumps
# ---------------------------------------------------------------------------

IMDB_NULL = r"\N"

BASICS_REQUIRED = ("tconst", "titleType", "primaryTitle", "startYear")
PRINCIPALS_REQUIRED = ("tconst", "ordering", "nconst", "category")
NAMES_REQUIRED = ("nconst", "primaryName")

# IMDb titleType values mapped into the two catalog kinds; everything else
# (episodes, shorts, video games, ...) is filtered out.
KIND_BY_TITLE_TYPE = {
    "movie": TitleKind.MOVIE,
    "tvMovie": TitleKind.MOVIE,
    "tvSeries": TitleKind.TV_SHOW,
    "tvMiniSeries": TitleKind.TV_SHOW,
}

CAST_CATEGORIES = frozenset({"actor", "actress"})


_TSV = {"delimiter": "\t", "quoting": csv.QUOTE_NONE}


def _null(value: str) -> str | None:
    value = value.strip()
    return None if value == IMDB_NULL or not value else value


def parse_imdb(
    basics: Source,
    principals: Source,
    names: Source,
    kinds: Iterable[TitleKind] | None = None,
) -> IngestResult:
    """Join title.basics, title.principals and name.basics into records.

    Titles and people are joined on their tconst and nconst as written.
    Only principals rows with category actor/actress populate ``cast``
    (ordered by the ``ordering`` column); category director populates
    ``directors``. Cast entries carry the nconst as the person key; the
    returned ``persons`` map nconst to primaryName. Rows referencing an
    unknown tconst/nconst are counted as dangling and skipped.
    """
    wanted = frozenset(kinds) if kinds else frozenset(TitleKind)
    report = IngestReport()

    # Pass 1: title.basics -> kept titles (+ id set for dangling detection).
    # tconst -> (title, kind, year, cast, directors); cast and directors
    # collect (ordering, nconst) pairs.
    kept: dict[str, tuple] = {}
    all_title_ids: set[str] = set()
    with _table(basics, "title.basics", BASICS_REQUIRED, **_TSV) as (col, rows):
        for line, row, fault in rows:
            report.rows += 1
            if fault:
                report.skip(line, fault)
                continue
            tconst = row[col["tconst"]].strip()
            if not tconst:
                report.skip(line, "empty tconst")
                continue
            all_title_ids.add(tconst)
            kind = KIND_BY_TITLE_TYPE.get(row[col["titleType"]].strip())
            if kind is None or kind not in wanted:
                report.bump("basics_filtered")
                continue
            if tconst in kept:
                report.skip(line, f"duplicate tconst {tconst}")
                continue
            year = _clean_year(_null(row[col["startYear"]]))
            kept[tconst] = (_null(row[col["primaryTitle"]]) or "", kind, year, [], [])
    report.bump("basics_kept", len(kept))

    # Pass 2: title.principals -> cast/director entries per kept title.
    referenced: set[str] = set()
    with _table(principals, "title.principals", PRINCIPALS_REQUIRED, **_TSV) as (col, rows):
        for _, row, fault in rows:
            report.bump("principals_rows")
            if fault:
                report.bump("principals_bad_rows")
                continue
            tconst = row[col["tconst"]].strip()
            if tconst not in all_title_ids:
                report.bump("principals_dangling_title")
                continue
            meta = kept.get(tconst)
            if meta is None:
                continue  # title filtered out by kind, not an error
            category = row[col["category"]].strip()
            if category in CAST_CATEGORIES:
                entries = meta[3]
            elif category == "director":
                entries = meta[4]
            else:
                continue
            nconst = row[col["nconst"]].strip()
            if not nconst:
                report.bump("principals_dangling_person")
                continue
            try:
                ordering = int(row[col["ordering"]])
            except ValueError:
                ordering = 1 << 30
            entries.append((ordering, nconst))
            referenced.add(nconst)

    # Pass 3: name.basics -> primaryName for the people we actually need.
    person_names: dict[str, str] = {}
    with _table(names, "name.basics", NAMES_REQUIRED, **_TSV) as (col, rows):
        for _, row, fault in rows:
            report.bump("names_rows")
            if fault:
                report.bump("names_bad_rows")
                continue
            nconst = row[col["nconst"]].strip()
            if nconst not in referenced:
                continue
            name = normalize_name(row[col["primaryName"]])
            if name:
                person_names[nconst] = name

    # Assembly: resolve entries, count dangling person references.
    titles: list[TitleRecord] = []
    persons: dict[str, str] = {}  # in order of first reference

    def _resolve(entries: list[tuple[int, str]]) -> tuple[str, ...]:
        """The distinct named nconsts of ``entries``, by ordering."""
        out: dict[str, None] = {}
        for _, nconst in sorted(entries):
            if nconst in out:
                continue
            name = person_names.get(nconst)
            if name is None:
                report.bump("dangling_person_refs")
                continue
            out[nconst] = None
            persons.setdefault(nconst, name)
        return tuple(out)

    for tconst, (title, kind, year, cast, directors) in kept.items():
        # Cast keys are nconsts (the stable IMDb identity); directors are
        # display names, mirroring the Netflix side. Cast is resolved first:
        # it sets the order of ``persons``.
        cast_ids = _resolve(cast)
        director_names = tuple(person_names[n] for n in _resolve(directors))
        titles.append(TitleRecord(tconst, title, kind, year, director_names, cast_ids))
    return IngestResult(titles, report, persons)


# ---------------------------------------------------------------------------
# Canonical JSON Lines serialization
# ---------------------------------------------------------------------------


def record_to_json(rec: TitleRecord) -> str:
    payload = {
        "title_id": rec.title_id,
        "title": rec.title,
        "kind": rec.kind.value,
        "release_year": rec.release_year,
        "directors": list(rec.directors),
        "cast": list(rec.cast),
        "country": rec.country,
        "rating": rec.rating,
        "date_added": rec.date_added.isoformat() if rec.date_added else None,
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def _typed(key: str, value: T, ok: bool, expected: str) -> T:
    """``value`` when ``ok``, else a TypeError naming ``key``'s expected type."""
    if not ok:
        raise TypeError(f"{key!r} must be {expected}, not {type(value).__name__}")
    return value


def _str(payload: dict, key: str) -> str:
    value = payload[key]
    return _typed(key, value, isinstance(value, str), "a string")


def _str_or_null(payload: dict, key: str) -> str | None:
    value = payload.get(key)
    return _typed(key, value, value is None or isinstance(value, str), "a string or null")


def _strs(payload: dict, key: str) -> tuple[str, ...]:
    value = payload[key]
    ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    return tuple(_typed(key, value, ok, "a list of strings"))


def record_from_json(line: str) -> TitleRecord:
    """The record ``record_to_json`` wrote; a field of the wrong JSON type
    raises :class:`TypeError` naming it."""
    payload = json.loads(line)
    year = payload["release_year"]
    # bool is an int subclass, but true is not a year
    _typed("release_year", year, year is None or type(year) is int, "an integer or null")
    added = _str_or_null(payload, "date_added")
    return TitleRecord(
        title_id=_str(payload, "title_id"),
        title=_str(payload, "title"),
        kind=TitleKind(payload["kind"]),
        release_year=year,
        directors=_strs(payload, "directors"),
        cast=_strs(payload, "cast"),
        country=_str_or_null(payload, "country"),
        rating=_str_or_null(payload, "rating"),
        date_added=date.fromisoformat(added) if added else None,
    )


def write_records_jsonl(path: str | os.PathLike, records: Iterable[TitleRecord]) -> None:
    _write_jsonl(path, map(record_to_json, records))


def read_records_jsonl(path: str | os.PathLike) -> list[TitleRecord]:
    return _read_jsonl(path, record_from_json)


def write_persons_jsonl(path: str | os.PathLike, persons: Mapping[str, str]) -> None:
    """One ``{"person_id", "name"}`` line per entry of ``persons``, in order."""
    _write_jsonl(path, (
        json.dumps({"person_id": key, "name": name}, ensure_ascii=False, separators=(",", ":"))
        for key, name in persons.items()
    ))


def _person_from_json(line: str) -> tuple[str, str]:
    payload = json.loads(line)
    return _str(payload, "person_id"), _str(payload, "name")


def read_persons_jsonl(path: str | os.PathLike) -> dict[str, str]:
    """person_id -> name, as ``write_persons_jsonl`` wrote it."""
    return dict(_read_jsonl(path, _person_from_json))


def _write_jsonl(path: str | os.PathLike, lines: Iterable[str]) -> None:
    """Each of ``lines`` and a newline, written to ``path`` in place of
    whatever was there."""
    with replacing(path) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _read_jsonl(path: str | os.PathLike, parse: Callable[[str], T]) -> list[T]:
    """``parse`` of each non-blank line of ``path``.

    A line that is not JSON, or not the object ``parse`` expects, raises
    :class:`JsonlFormatError` naming the file and the line. Text that is not
    UTF-8 is reported at the line whose read failed; the decoder reads ahead,
    so the bad byte may sit a few lines further on.
    """
    out = []
    number = 0
    with _open_text(path) as fh:  # the try is inside, to give a decode error its line
        try:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    out.append(parse(line))
        except UnicodeDecodeError:
            raise JsonlFormatError(path, number + 1, "not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            reason = f"not JSON: {exc.msg} (column {exc.colno})"
            raise JsonlFormatError(path, number, reason) from None
        except KeyError as exc:
            raise JsonlFormatError(path, number, f"missing key {exc}") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise JsonlFormatError(path, number, str(exc)) from None
    return out
