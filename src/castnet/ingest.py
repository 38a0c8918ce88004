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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

from ._options import YEAR_MAX, YEAR_MIN
from ._write import write_jsonl
from .errors import CastnetError, JsonlFormatError, MissingColumnError

Source = Union[str, "os.PathLike[str]", IO[str]]
T = TypeVar("T")

GZIP_MAGIC = b"\x1f\x8b"


class TitleKind(str, Enum):
    MOVIE = "movie"
    TV_SHOW = "tv_show"


class TitleRecord(NamedTuple):
    """One normalized catalog entry. Its fields, in order, are the keys of a
    ``records.jsonl`` line."""

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

    def count(self, **events: int) -> None:
        """Bump each key by its count of events; a zero count adds no key."""
        for key, by in events.items():
            if by:
                self.bump(key, by)


@dataclass
class IngestResult:
    records: list[TitleRecord]
    report: IngestReport
    persons: dict[str, str] = field(default_factory=dict)  # IMDb nconst -> name; Netflix has none


def _display_labels(keys: Sequence[str], names: Mapping[str, str] | None) -> list[str]:
    """Each key's display name. A name equal to another label gains a
    `` [key]`` suffix, and so does a name equal to a suffixed label, until
    every label is unique."""
    if names is None:
        return list(keys)
    labels = [names.get(k, k) for k in keys]
    plain = set(range(len(labels)))
    while True:
        counts = Counter(labels)
        clashing = {i for i in plain if counts[labels[i]] > 1}
        if not clashing:
            return labels
        for i in clashing:
            labels[i] = f"{labels[i]} [{keys[i]}]"
        plain -= clashing


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
def _table(
    source: Source,
    table: str,
    required: tuple[str, ...],
    bad: Callable[[SkipEvent], object],
    **dialect,
):
    """Open ``source`` as a ``csv`` table in ``dialect``; yield ``(col, rows, reader)``.

    ``col`` maps header names to indices; a header lacking ``required``
    columns raises :class:`MissingColumnError`, and one the csv module cannot
    parse a :class:`CastnetError` naming the path (the table for a stream).
    ``rows`` yields each data row with as many fields as the header and
    passes every other one to ``bad`` as a :class:`SkipEvent`: a bad arity,
    or a csv parse failure after which reading resumes at the next line.
    ``reader.line_num`` is the physical line the last row ended on.
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
        yield col, _rows(reader, len(header), bad), reader


def _rows(reader, width: int, bad: Callable[[SkipEvent], object]) -> Iterator[list[str]]:
    """:func:`_table`'s ``rows`` of ``reader``, whose rows have ``width`` fields."""
    while True:
        try:
            for row in reader:
                if len(row) == width:
                    yield row
                else:
                    bad(SkipEvent(reader.line_num, f"row arity {len(row)} != {width}"))
            return
        except csv.Error as exc:
            bad(SkipEvent(reader.line_num, f"csv parse failure: {exc}"))


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
    filtered = 0
    table = _table(source, "netflix", NETFLIX_REQUIRED, report.skipped.append)
    with table as (col, rows, reader):
        id_col, type_col, title_col, director_col, cast_col, year_col = map(
            col.__getitem__, NETFLIX_REQUIRED
        )
        country_col, rating_col, added_col = map(col.get, ("country", "rating", "date_added"))
        for row in rows:
            title_id = row[id_col].strip()
            if not title_id:
                report.skip(reader.line_num, "empty show_id")
                continue
            if title_id in seen_ids:
                report.skip(reader.line_num, f"duplicate show_id {title_id}")
                continue
            kind = _NETFLIX_KINDS.get(row[type_col].strip())
            if kind is None:
                report.skip(reader.line_num, f"unknown type {row[type_col]!r}")
                continue
            seen_ids.add(title_id)
            if kind not in wanted:
                filtered += 1
                continue
            records.append(
                TitleRecord(
                    title_id=title_id,
                    title=row[title_col].strip(),
                    kind=kind,
                    release_year=_clean_year(row[year_col]),
                    directors=_split_people(row[director_col]),
                    cast=_split_people(row[cast_col]),
                    country=_first_country(_cell(row, country_col)),
                    rating=_cell(row, rating_col) or None,
                    date_added=_parse_date_added(_cell(row, added_col)),
                )
            )
    # Every row is a record, a skip or filtered out.
    report.rows = len(report.skipped) + filtered + len(records)
    report.count(filtered=filtered)
    return IngestResult(records, report)


def _cell(row: list[str], idx: int | None) -> str:
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
    # Each id set is dropped once its pass is done, so that it does not add
    # to the peak memory of assembly.
    kept, all_title_ids = _imdb_titles(basics, wanted, report)
    referenced = _imdb_principals(principals, kept, all_title_ids, report)
    del all_title_ids
    person_names = _imdb_names(names, referenced, report)
    del referenced

    # Assembly: resolve entries, count dangling person references.
    titles: list[TitleRecord] = []
    persons: dict[str, str] = {}  # in order of first reference
    dangling = 0

    def _resolve(entries: list[tuple[int, str]]) -> tuple[str, ...]:
        """The distinct named nconsts of ``entries``, by ordering."""
        nonlocal dangling
        out: dict[str, None] = {}
        for _, nconst in sorted(entries):
            if nconst in out:
                continue
            name = person_names.get(nconst)
            if name is None:
                dangling += 1
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
    report.count(dangling_person_refs=dangling)
    return IngestResult(titles, report, persons)


# Each pass reads one dump and adds its counts to ``report`` once.


def _imdb_titles(
    source: Source, wanted: frozenset, report: IngestReport
) -> tuple[dict[str, tuple], set[str]]:
    """Pass 1, title.basics: the kept titles and every tconst (for dangling
    detection). Kept titles map tconst -> (title, kind, year, cast,
    directors); cast and directors collect (ordering, nconst) pairs."""
    kept: dict[str, tuple] = {}
    all_title_ids: set[str] = set()
    filtered = 0
    table = _table(source, "title.basics", BASICS_REQUIRED, report.skipped.append, **_TSV)
    with table as (col, rows, reader):
        id_col, type_col, title_col, year_col = map(col.__getitem__, BASICS_REQUIRED)
        for row in rows:
            tconst = row[id_col].strip()
            if not tconst:
                report.skip(reader.line_num, "empty tconst")
                continue
            all_title_ids.add(tconst)
            kind = KIND_BY_TITLE_TYPE.get(row[type_col].strip())
            if kind is None or kind not in wanted:
                filtered += 1
                continue
            if tconst in kept:
                report.skip(reader.line_num, f"duplicate tconst {tconst}")
                continue
            year = _clean_year(_null(row[year_col]))
            kept[tconst] = (_null(row[title_col]) or "", kind, year, [], [])
    # Every row is a kept title, a skip or filtered out.
    report.rows = len(report.skipped) + filtered + len(kept)
    report.count(basics_filtered=filtered)
    report.bump("basics_kept", len(kept))
    return kept, all_title_ids


def _imdb_principals(
    source: Source, kept: dict[str, tuple], all_title_ids: set[str], report: IngestReport
) -> set[str]:
    """Pass 2, title.principals: cast and director entries of the kept
    titles; returns the nconsts they reference."""
    referenced: set[str] = set()
    bad: list[SkipEvent] = []
    good = dangling_title = dangling_person = 0
    table = _table(source, "title.principals", PRINCIPALS_REQUIRED, bad.append, **_TSV)
    with table as (col, rows, _):
        id_col, ordering_col, person_col, category_col = map(col.__getitem__, PRINCIPALS_REQUIRED)
        for good, row in enumerate(rows, 1):
            tconst = row[id_col].strip()
            if tconst not in all_title_ids:
                dangling_title += 1
                continue
            meta = kept.get(tconst)
            if meta is None:
                continue  # title filtered out by kind, not an error
            category = row[category_col].strip()
            if category in CAST_CATEGORIES:
                entries = meta[3]
            elif category == "director":
                entries = meta[4]
            else:
                continue
            nconst = row[person_col].strip()
            if not nconst:
                dangling_person += 1
                continue
            try:
                ordering = int(row[ordering_col])
            except ValueError:
                ordering = 1 << 30
            entries.append((ordering, nconst))
            referenced.add(nconst)
    report.count(
        principals_rows=good + len(bad),
        principals_bad_rows=len(bad),
        principals_dangling_title=dangling_title,
        principals_dangling_person=dangling_person,
    )
    return referenced


def _imdb_names(source: Source, referenced: set[str], report: IngestReport) -> dict[str, str]:
    """Pass 3, name.basics: nconst -> primaryName for the ``referenced`` people."""
    person_names: dict[str, str] = {}
    bad: list[SkipEvent] = []
    good = 0
    with _table(source, "name.basics", NAMES_REQUIRED, bad.append, **_TSV) as (col, rows, _):
        id_col, name_col = map(col.__getitem__, NAMES_REQUIRED)
        for good, row in enumerate(rows, 1):
            nconst = row[id_col].strip()
            if nconst not in referenced:
                continue
            name = normalize_name(row[name_col])
            if name:
                person_names[nconst] = name
    report.count(names_rows=good + len(bad), names_bad_rows=len(bad))
    return person_names


# ---------------------------------------------------------------------------
# Canonical JSON Lines serialization
# ---------------------------------------------------------------------------


_PERSON_KEYS = ("person_id", "name")

_KINDS = {kind.value: kind for kind in TitleKind}


def _record(payload: dict) -> TitleRecord:
    """The record of one ``records.jsonl`` object; a field of the wrong JSON
    type raises :class:`TypeError` naming it."""
    year = payload["release_year"]
    # bool is an int subclass, but true is not a year
    if year is not None and type(year) is not int:
        raise TypeError(_wrong_type("release_year", year, "an integer or null"))
    if year is not None and not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"'release_year' {year} outside {YEAR_MIN}..{YEAR_MAX}")
    added = payload.get("date_added")
    if added is not None and type(added) is not str:
        raise TypeError(_wrong_type("date_added", added, "a string or null"))
    title_id = payload["title_id"]
    if type(title_id) is not str:
        raise TypeError(_wrong_type("title_id", title_id, "a string"))
    title = payload["title"]
    if type(title) is not str:
        raise TypeError(_wrong_type("title", title, "a string"))
    value = payload["kind"]
    kind = _KINDS.get(value) if type(value) is str else None
    if kind is None:
        raise ValueError(f"{value!r} is not a valid TitleKind")
    directors = payload["directors"]
    if type(directors) is not list or not all(type(d) is str for d in directors):
        raise TypeError(_wrong_type("directors", directors, "a list of strings"))
    cast = payload["cast"]
    if type(cast) is not list or not all(type(c) is str for c in cast):
        raise TypeError(_wrong_type("cast", cast, "a list of strings"))
    country = payload.get("country")
    if country is not None and type(country) is not str:
        raise TypeError(_wrong_type("country", country, "a string or null"))
    rating = payload.get("rating")
    if rating is not None and type(rating) is not str:
        raise TypeError(_wrong_type("rating", rating, "a string or null"))
    return TitleRecord(
        title_id,
        title,
        kind,
        year,
        tuple(directors),
        tuple(cast),
        country,
        rating,
        date.fromisoformat(added) if added else None,
    )


def _wrong_type(key: str, value, expected: str) -> str:
    return f"{key!r} must be {expected}, not {type(value).__name__}"


def write_records_jsonl(path: str | os.PathLike, records: Iterable[TitleRecord]) -> None:
    write_jsonl(path, TitleRecord._fields, records)


def read_records_jsonl(path: str | os.PathLike) -> list[TitleRecord]:
    return _read_jsonl(path, _record)


def write_persons_jsonl(path: str | os.PathLike, persons: Mapping[str, str]) -> None:
    """One ``{"person_id", "name"}`` line per entry of ``persons``, in order."""
    write_jsonl(path, _PERSON_KEYS, persons.items())


def _person(payload: dict) -> tuple[str, str]:
    person_id = payload["person_id"]
    if type(person_id) is not str:
        raise TypeError(_wrong_type("person_id", person_id, "a string"))
    name = payload["name"]
    if type(name) is not str:
        raise TypeError(_wrong_type("name", name, "a string"))
    return person_id, name


def read_persons_jsonl(path: str | os.PathLike) -> dict[str, str]:
    """person_id -> name, as ``write_persons_jsonl`` wrote it."""
    return dict(_read_jsonl(path, _person))


_decode = json.JSONDecoder().raw_decode


def _object(line: str) -> dict:
    """``json.loads(line)``, which must be a JSON object; anything else
    raises :class:`TypeError` naming its type. A line that one
    ``raw_decode`` cannot read whole, such as one with surrounding
    whitespace, goes through ``json.loads``, so an error keeps its message
    and column. A string holding a lone surrogate, which no UTF-8 output can
    carry, raises :class:`ValueError`."""
    try:
        payload, end = _decode(line)
    except json.JSONDecodeError:
        end = -1
    if end != len(line):  # json.loads raises its own error, message and column included
        payload = json.loads(line)
    if type(payload) is not dict:
        raise TypeError(f"expected a JSON object, not {type(payload).__name__}")
    if "\\u" in line:  # UTF-8 text holds no surrogate, so only an escape makes one
        try:
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"lone surrogate {exc.object[exc.start]!r} in a string") from None
    return payload


def _read_jsonl(path: str | os.PathLike, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of the object on each non-blank line of ``path``.

    A line that is not a JSON object, or not the object ``parse`` expects,
    raises :class:`JsonlFormatError` naming the file and the line. Text that
    is not UTF-8 is reported at the line whose read failed; the decoder reads
    ahead, so the bad byte may sit a few lines further on.
    """
    out = []
    number = 0
    with _open_text(path) as fh:  # the try is inside, to give a decode error its line
        try:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    out.append(parse(_object(line)))
        except UnicodeDecodeError:
            raise JsonlFormatError(path, number + 1, "not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            reason = f"not JSON: {exc.msg} (column {exc.colno})"
            raise JsonlFormatError(path, number, reason) from None
        except KeyError as exc:
            raise JsonlFormatError(path, number, f"missing key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise JsonlFormatError(path, number, str(exc)) from None
    return out
