import gzip
import io
import json
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from castnet import _write
from castnet._options import YEAR_MAX, YEAR_MIN
from castnet.errors import CastnetError, JsonlFormatError, MissingColumnError
from castnet.ingest import (
    TitleKind,
    TitleRecord,
    normalize_name,
    parse_imdb,
    parse_netflix,
    read_persons_jsonl,
    read_records_jsonl,
    write_persons_jsonl,
    write_records_jsonl,
)

HEADER = "show_id,type,title,director,cast,country,date_added,release_year,rating,duration"


def netflix_csv(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  Anupam  Kher ", "Anupam Kher"),
            ("", ""),
            ("Om\tPuri", "Om Puri"),
            ("One", "One"),
            ("a\x01b", "ab"),
            ("a \x00 b\x7f", "a b"),
            ("Zo\x9f\ufffe\uffffë\x85Ray", "Zoë Ray"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_name(raw) == expected

    @given(st.text())
    def test_idempotent_and_collapsed(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once
        assert "  " not in once
        assert once == once.strip()
        assert not any(c < " " or "\x7f" <= c < "\xa0" or c in "\ufffe\uffff" for c in once)

    def test_preserves_case(self):
        assert normalize_name("anupam KHER") == "anupam KHER"


class TestParseNetflix:
    def test_cast_split(self):
        res = parse_netflix(netflix_csv('s1,Movie,T,,"A, B",,,2000,,'))
        assert res.records[0].cast == ("A", "B")

    def test_empty_cast_retained(self):
        res = parse_netflix(netflix_csv("s1,Movie,T,,,,,2000,,"))
        assert res.records[0].cast == ()
        assert len(res.records) == 1

    def test_kind_mapping(self):
        res = parse_netflix(
            netflix_csv("s1,Movie,T,,,,,2000,,", "s2,TV Show,U,,,,,2001,,")
        )
        assert [r.kind for r in res.records] == [TitleKind.MOVIE, TitleKind.TV_SHOW]

    def test_missing_column(self):
        with pytest.raises(MissingColumnError):
            parse_netflix(io.StringIO("show_id,type,title\n"))

    def test_bad_arity_skipped_with_row_number(self):
        res = parse_netflix(netflix_csv("s1,Movie,T,,,,,2000,,", "only,three,cells"))
        assert len(res.records) == 1
        assert len(res.report.skipped) == 1
        assert res.report.skipped[0].line == 3
        assert "arity" in res.report.skipped[0].reason

    def test_oversized_field_skipped_and_reading_resumes(self):
        huge = "x" * 131_073  # one more than the csv module's field size limit
        res = parse_netflix(netflix_csv(f"s1,Movie,{huge},,,,,2000,,", "s2,Movie,T,,,,,2000,,"))
        assert [r.title_id for r in res.records] == ["s2"]
        [event] = res.report.skipped
        assert event.line == 2 and event.reason.startswith("csv parse failure: field larger")
        assert res.report.rows == 2

    def test_oversized_header_field_names_the_table(self):
        huge = "x" * 131_073
        with pytest.raises(CastnetError, match=r"^netflix: header: field larger than field limit"):
            parse_netflix(io.StringIO(f"show_id,{huge}\ns1,x\n"))

    def test_unknown_type_skipped(self):
        res = parse_netflix(netflix_csv("s1,Documentary,T,,,,,2000,,"))
        assert res.records == []
        assert len(res.report.skipped) == 1

    def test_duplicate_show_id_skipped(self):
        res = parse_netflix(
            netflix_csv("s1,Movie,T,,,,,2000,,", "s1,Movie,U,,,,,2001,,")
        )
        assert len(res.records) == 1
        assert len(res.report.skipped) == 1

    def test_accounting_invariant(self):
        res = parse_netflix(
            netflix_csv(
                "s1,Movie,T,,,,,2000,,",
                "bad,row",
                "s2,Nope,U,,,,,2001,,",
                "s3,TV Show,V,,,,,2002,,",
            )
        )
        assert len(res.records) + len(res.report.skipped) == res.report.rows == 4

    def test_year_out_of_range_is_none(self):
        res = parse_netflix(netflix_csv("s1,Movie,T,,,,,1850,,", "s2,Movie,U,,,,,2000,,"))
        assert res.records[0].release_year is None
        assert res.records[1].release_year == 2000

    def test_cast_dedupe_and_whitespace(self):
        res = parse_netflix(netflix_csv('s1,Movie,T,,"A , A,  B  ,",,,2000,,'))
        assert res.records[0].cast == ("A", "B")

    def test_first_country_kept(self):
        res = parse_netflix(netflix_csv('s1,Movie,T,,,"India, France",,2000,,'))
        assert res.records[0].country == "India"

    def test_date_added_parsed(self):
        res = parse_netflix(
            netflix_csv('s1,Movie,T,,,,"September 25, 2021",2000,,')
        )
        assert str(res.records[0].date_added) == "2021-09-25"

    def test_quoted_fields_with_commas_and_newlines(self):
        res = parse_netflix(
            netflix_csv('s1,Movie,"Title, with comma",,"A, B",,,2000,,')
        )
        assert res.records[0].title == "Title, with comma"

    def test_deterministic(self):
        text = '\n'.join([HEADER, 's1,Movie,T,,"A, B",,,2000,,']) + "\n"
        a = parse_netflix(io.StringIO(text))
        b = parse_netflix(io.StringIO(text))
        assert a.records == b.records

    def test_gzip_detected_by_magic(self, tmp_path):
        plain = tmp_path / "catalog.csv"
        plain.write_text("\n".join([HEADER, "s1,Movie,T,,,,,2000,,"]) + "\n")
        zipped = tmp_path / "catalog.csv.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))
        assert parse_netflix(zipped).records == parse_netflix(plain).records

    def test_binary_stream_rejected(self):
        data = ("\n".join([HEADER, "s1,Movie,T,,,,,2000,,"]) + "\n").encode()
        with pytest.raises(TypeError, match="path or a text stream"):
            parse_netflix(io.BytesIO(data))


BASICS_HEADER = "tconst\ttitleType\tprimaryTitle\toriginalTitle\tisAdult\tstartYear\tendYear\truntimeMinutes\tgenres"
PRINCIPALS_HEADER = "tconst\tordering\tnconst\tcategory\tjob\tcharacters"
NAMES_HEADER = "nconst\tprimaryName\tbirthYear\tdeathYear\tprimaryProfession\tknownForTitles"


def tsv(header: str, *rows: str) -> io.StringIO:
    return io.StringIO("\n".join([header, *rows]) + "\n")


class TestParseImdb:
    def make_desk_fixture(self):
        basics = tsv(BASICS_HEADER, "tt1\tmovie\tThe Film\tThe Film\t0\t1994\t\\N\t100\tDrama")
        principals = tsv(
            PRINCIPALS_HEADER,
            "tt1\t2\tnm2\tactress\t\\N\t\\N",
            "tt1\t1\tnm1\tactor\t\\N\t\\N",
            "tt1\t3\tnm3\tdirector\t\\N\t\\N",
        )
        names = tsv(
            NAMES_HEADER,
            "nm1\tFirst Actor\t1970\t\\N\tactor\ttt1",
            "nm2\tSecond Actor\t1975\t\\N\tactress\ttt1",
            "nm3\tThe Director\t1960\t\\N\tdirector\ttt1",
        )
        return basics, principals, names

    def test_desk_fixture_one_title_two_actors_one_director(self):
        res = parse_imdb(*self.make_desk_fixture())
        assert len(res.records) == 1
        title = res.records[0]
        assert len(title.cast) == 2
        assert title.cast == ("nm1", "nm2")  # ordered by the ordering column
        assert title.directors == ("The Director",)
        assert title.release_year == 1994

    def test_actress_category_populates_cast(self):
        res = parse_imdb(*self.make_desk_fixture())
        assert "nm2" in res.records[0].cast

    def test_null_start_year(self):
        basics = tsv(BASICS_HEADER, "tt1\tmovie\tX\tX\t0\t\\N\t\\N\t\\N\t\\N")
        principals = tsv(PRINCIPALS_HEADER)
        names = tsv(NAMES_HEADER)
        res = parse_imdb(basics, principals, names)
        assert res.records[0].release_year is None

    def test_person_records_resolved(self):
        res = parse_imdb(*self.make_desk_fixture())
        # cast first, by ordering, then the director
        assert res.persons == {"nm1": "First Actor", "nm2": "Second Actor", "nm3": "The Director"}
        assert list(res.persons) == ["nm1", "nm2", "nm3"]

    def test_dangling_title_reference_counted(self):
        basics, principals, names = self.make_desk_fixture()
        principals = tsv(
            PRINCIPALS_HEADER,
            "tt1\t1\tnm1\tactor\t\\N\t\\N",
            "tt999\t1\tnm1\tactor\t\\N\t\\N",
        )
        res = parse_imdb(basics, principals, names)
        assert res.report.counters["principals_dangling_title"] == 1

    def test_dangling_person_reference_counted_and_skipped(self):
        basics = tsv(BASICS_HEADER, "tt1\tmovie\tX\tX\t0\t1990\t\\N\t\\N\t\\N")
        principals = tsv(PRINCIPALS_HEADER, "tt1\t1\tnm404\tactor\t\\N\t\\N")
        names = tsv(NAMES_HEADER)
        res = parse_imdb(basics, principals, names)
        assert res.records[0].cast == ()
        assert res.report.counters["dangling_person_refs"] == 1

    def test_gzip_dumps(self, tmp_path):
        basics, principals, names = self.make_desk_fixture()
        paths = []
        for name, stream in (
            ("basics.tsv.gz", basics),
            ("principals.tsv.gz", principals),
            ("names.tsv.gz", names),
        ):
            path = tmp_path / name
            path.write_bytes(gzip.compress(stream.getvalue().encode()))
            paths.append(path)
        res = parse_imdb(*paths)
        assert len(res.records) == 1 and len(res.records[0].cast) == 2

    def test_basics_accounting(self):
        basics = tsv(
            BASICS_HEADER,
            "tt1\tmovie\tFilm\tFilm\t0\t1990\t\\N\t\\N\t\\N",
            "tt2\ttvEpisode\tEp\tEp\t0\t1991\t\\N\t\\N\t\\N",
            "tt3\tshort",  # bad arity
            "tt4\tmovie\tOther\tOther\t0\t1992\t\\N\t\\N\t\\N",
        )
        res = parse_imdb(basics, tsv(PRINCIPALS_HEADER), tsv(NAMES_HEADER))
        filtered = res.report.counters.get("basics_filtered", 0)
        assert len(res.records) + len(res.report.skipped) + filtered == res.report.rows == 4

    def test_kind_filter(self):
        basics = tsv(
            BASICS_HEADER,
            "tt1\tmovie\tFilm\tFilm\t0\t1990\t\\N\t\\N\t\\N",
            "tt2\ttvSeries\tShow\tShow\t0\t1991\t\\N\t\\N\t\\N",
            "tt3\ttvEpisode\tEp\tEp\t0\t1991\t\\N\t\\N\t\\N",
        )
        principals = tsv(PRINCIPALS_HEADER)
        names = tsv(NAMES_HEADER)
        res = parse_imdb(basics, principals, names, {TitleKind.MOVIE})
        assert [t.title_id for t in res.records] == ["tt1"]
        both = parse_imdb(
            tsv(
                BASICS_HEADER,
                "tt1\tmovie\tFilm\tFilm\t0\t1990\t\\N\t\\N\t\\N",
                "tt2\ttvSeries\tShow\tShow\t0\t1991\t\\N\t\\N\t\\N",
            ),
            tsv(PRINCIPALS_HEADER),
            tsv(NAMES_HEADER),
        )
        assert len(both.records) == 2

    def test_ids_equal_as_numbers_are_distinct_titles(self):
        basics = tsv(
            BASICS_HEADER,
            "tt0000001\tmovie\tOld\tOld\t0\t1990\t\\N\t\\N\t\\N",
            "tt1\tmovie\tNew\tNew\t0\t1991\t\\N\t\\N\t\\N",
        )
        res = parse_imdb(basics, tsv(PRINCIPALS_HEADER), tsv(NAMES_HEADER))
        titles = [(t.title_id, t.title) for t in res.records]
        assert titles == [("tt0000001", "Old"), ("tt1", "New")]
        assert res.report.skipped == []

    def test_ids_equal_as_numbers_are_distinct_people(self):
        basics = tsv(BASICS_HEADER, "tt1\tmovie\tX\tX\t0\t1990\t\\N\t\\N\t\\N")
        principals = tsv(
            PRINCIPALS_HEADER,
            "tt1\t1\tnm0000001\tactor\t\\N\t\\N",
            "tt1\t2\tnm1\tactor\t\\N\t\\N",
        )
        names = tsv(
            NAMES_HEADER,
            "nm0000001\tAnn\t\\N\t\\N\t\\N\t\\N",
            "nm1\tBob\t\\N\t\\N\t\\N\t\\N",
        )
        res = parse_imdb(basics, principals, names)
        assert res.records[0].cast == ("nm0000001", "nm1")
        people = list(res.persons.items())
        assert people == [("nm0000001", "Ann"), ("nm1", "Bob")]

    def test_person_id_in_tconst_column_is_dangling(self):
        basics = tsv(BASICS_HEADER, "tt0000002\tmovie\tX\tX\t0\t1990\t\\N\t\\N\t\\N")
        principals = tsv(PRINCIPALS_HEADER, "nm0000002\t1\tnm1\tactor\t\\N\t\\N")
        names = tsv(NAMES_HEADER, "nm1\tAnn\t\\N\t\\N\t\\N\t\\N")
        res = parse_imdb(basics, principals, names)
        assert res.records[0].cast == ()
        assert res.report.counters["principals_dangling_title"] == 1

    def test_oversized_field_is_a_bad_row(self):
        huge = "x" * 131_073  # one more than the csv module's field size limit
        basics = tsv(
            BASICS_HEADER,
            f"tt1\tmovie\t{huge}\t{huge}\t0\t1990\t\\N\t\\N\t\\N",
            "tt2\tmovie\tY\tY\t0\t1991\t\\N\t\\N\t\\N",
        )
        principals = tsv(
            PRINCIPALS_HEADER,
            f"tt2\t1\tnm1\tactor\t\\N\t{huge}",
            "tt2\t2\tnm2\tactor\t\\N\t\\N",
            "tt2\t3\tnm3\tactor",
        )
        names = tsv(
            NAMES_HEADER,
            f"nm1\t{huge}\t\\N\t\\N\t\\N\t\\N",
            "nm2\tBob\t\\N\t\\N\t\\N\t\\N",
        )
        res = parse_imdb(basics, principals, names)
        assert [t.title_id for t in res.records] == ["tt2"]
        assert res.records[0].cast == ("nm2",)
        [event] = res.report.skipped
        assert event.line == 2 and event.reason.startswith("csv parse failure: field larger")
        counters = res.report.counters
        assert counters["principals_rows"] == 3 and counters["principals_bad_rows"] == 2
        assert counters["names_rows"] == 2 and counters["names_bad_rows"] == 1

    def test_every_row_event_is_counted_once(self):
        """Each table has a bad-arity row and a csv parse failure; basics
        also has an empty and a duplicate tconst, principals a dangling
        title and person. Skips keep their physical line numbers, the
        ``*_rows`` counters include bad rows, and no counter is zero."""
        huge = "x" * 131_073  # one more than the csv module's field size limit
        basics = tsv(
            BASICS_HEADER,
            "tt1\tmovie\tFilm\tFilm\t0\t1990\t\\N\t\\N\t\\N",
            "tt2\tshort",
            f"tt3\tmovie\t{huge}\tX\t0\t1991\t\\N\t\\N\t\\N",
            " \tmovie\tNo Id\tNo Id\t0\t1992\t\\N\t\\N\t\\N",
            "tt4\ttvEpisode\tEp\tEp\t0\t1993\t\\N\t\\N\t\\N",
            "tt1\tmovie\tAgain\tAgain\t0\t1994\t\\N\t\\N\t\\N",
            "tt4\ttvEpisode\tEp\tEp\t0\t1993\t\\N\t\\N\t\\N",  # filtered, not a duplicate
            "tt5\ttvSeries\tShow\tShow\t0\t2005\t\\N\t\\N\t\\N",
        )
        principals = tsv(
            PRINCIPALS_HEADER,
            "tt1\t1\tnm1\tactor\t\\N\t\\N",
            "tt1\t2\tnm2\tactress\t\\N\t\\N",
            "tt1\t3",
            f"tt1\t4\tnm3\tactor\t\\N\t{huge}",
            "tt999\t1\tnm1\tactor\t\\N\t\\N",
            "tt1\t5\t \tactor\t\\N\t\\N",
            "tt1\t4\tnm3\tactor\t\\N\t\\N",
            "tt1\t6\tnm9\tdirector\t\\N\t\\N",
            "tt4\t1\tnm1\tactor\t\\N\t\\N",
            "tt5\t1\tnm404\tactor\t\\N\t\\N",
            "tt5\t2\tnm2\tactress\t\\N\t\\N",
        )
        names = tsv(
            NAMES_HEADER,
            "nm1\tAnn\t\\N\t\\N\t\\N\t\\N",
            "nm8\tShort",
            f"nm3\t{huge}\t\\N\t\\N\t\\N\t\\N",
            "nm2\tBob\t\\N\t\\N\t\\N\t\\N",
            "nm9\tDir\t\\N\t\\N\t\\N\t\\N",
        )
        res = parse_imdb(basics, principals, names)
        report = res.report
        assert report.rows == 8
        assert [(e.line, e.reason) for e in report.skipped] == [
            (3, "row arity 2 != 9"),
            (4, "csv parse failure: field larger than field limit (131072)"),
            (5, "empty tconst"),
            (7, "duplicate tconst tt1"),
        ]
        assert report.counters == {
            "basics_filtered": 2,
            "basics_kept": 2,
            "principals_rows": 11,
            "principals_bad_rows": 2,
            "principals_dangling_title": 1,
            "principals_dangling_person": 1,
            "names_rows": 5,
            "names_bad_rows": 2,
            "dangling_person_refs": 2,  # nm3 (its name row failed) and nm404
        }
        assert [(t.title_id, t.title, t.directors, t.cast) for t in res.records] == [
            ("tt1", "Film", ("Dir",), ("nm1", "nm2")),
            ("tt5", "Show", (), ("nm2",)),
        ]
        assert list(res.persons.items()) == [("nm1", "Ann"), ("nm2", "Bob"), ("nm9", "Dir")]

    def test_basics_kept_is_counted_even_when_zero(self):
        basics = tsv(BASICS_HEADER, "tt1\ttvEpisode\tEp\tEp\t0\t1990\t\\N\t\\N\t\\N")
        res = parse_imdb(basics, tsv(PRINCIPALS_HEADER), tsv(NAMES_HEADER))
        assert res.records == [] and res.report.rows == 1
        assert res.report.counters == {"basics_filtered": 1, "basics_kept": 0}


class TestRoundTrip:
    def test_jsonl_round_trip_exact(self, tmp_path, catalog_csv):
        res = parse_netflix(catalog_csv)
        out = tmp_path / "records.jsonl"
        write_records_jsonl(out, res.records)
        again = read_records_jsonl(out)
        assert again == res.records


def dumps_line(payload: dict) -> str:
    """One JSON Lines line as ``json.dumps`` writes it: the writers' oracle."""
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"


def record_line(rec: TitleRecord) -> str:
    return dumps_line({
        "title_id": rec.title_id,
        "title": rec.title,
        "kind": rec.kind.value,
        "release_year": rec.release_year,
        "directors": list(rec.directors),
        "cast": list(rec.cast),
        "country": rec.country,
        "rating": rec.rating,
        "date_added": rec.date_added.isoformat() if rec.date_added else None,
    })


# Pieces that could be taken for the writers' separators or templates once
# encoded, and text that JSON escapes or leaves as is.
_PIECES = st.sampled_from(
    ['],\n[', "],[", '","', '"],\n["', "],", ",\n", '"', "\\", "\x00", "\x1f\x7f", "\u2028", "Zoë",
     "東京", "%s"]
)
_TEXT = st.lists(
    _PIECES | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4), max_size=3
).map("".join)
_NAMES = st.lists(_TEXT, max_size=3).map(tuple)  # empty and one-element casts included
_RECORDS = st.lists(
    st.builds(
        TitleRecord,
        title_id=_TEXT,
        title=_TEXT,
        kind=st.sampled_from(list(TitleKind)),
        release_year=st.none() | st.integers(YEAR_MIN, YEAR_MAX),
        directors=_NAMES,
        cast=_NAMES,
        country=st.none() | _TEXT,
        rating=st.none() | _TEXT,
        date_added=st.none() | st.dates(),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_RECORDS, st.dictionaries(_TEXT, _TEXT, max_size=8), st.integers(1, 4))
def test_jsonl_writers_match_json_dumps_and_read_back(tmp_path, records, persons, batch):
    """The column-at-a-time writers write the bytes of one ``json.dumps`` per
    line, across batch boundaries, and the readers give back what was
    written, in order."""
    with mock.patch.object(_write, "_JSONL_BATCH", batch):
        write_records_jsonl(tmp_path / "records.jsonl", records)
        write_persons_jsonl(tmp_path / "persons.jsonl", persons)
    expected = "".join(map(record_line, records))
    assert (tmp_path / "records.jsonl").read_bytes() == expected.encode("utf-8")
    expected = "".join(dumps_line({"person_id": k, "name": v}) for k, v in persons.items())
    assert (tmp_path / "persons.jsonl").read_bytes() == expected.encode("utf-8")
    assert read_records_jsonl(tmp_path / "records.jsonl") == records
    again = read_persons_jsonl(tmp_path / "persons.jsonl")
    assert list(again.items()) == list(persons.items())


@pytest.mark.parametrize("reader, payload", [
    (read_records_jsonl, dict(json.loads(record_line(TitleRecord(
        "t1", "T", TitleKind.MOVIE, 2000, (), ()))), cast=["A\ud800", "B"])),
    (read_persons_jsonl, {"person_id": "nm1", "name": "Y\ud800"}),
], ids=["records-cast", "persons-name"])
def test_lone_surrogate_escape_is_a_format_error(tmp_path, reader, payload):
    """No UTF-8 output can carry a lone surrogate, which only a ``\\u``
    escape can put in a line, so the reader rejects it at its line."""
    path = tmp_path / "in.jsonl"
    path.write_text("\n" + json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(JsonlFormatError, match=r":2: lone surrogate '\\ud800' in a string$"):
        reader(path)


def test_surrogate_pair_and_escaped_backslash_read_back(tmp_path):
    name = "\U0001F600 \\ud800"  # a pair escape, and a backslash before "ud800"
    path = tmp_path / "persons.jsonl"
    path.write_text(json.dumps({"person_id": "nm1", "name": name}) + "\n", encoding="utf-8")
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    assert read_persons_jsonl(path) == {"nm1": name}


def test_readme_jsonl_examples_are_what_the_writers_write(tmp_path):
    """README's ``records.jsonl`` and ``persons.jsonl`` lines, read back and
    written again, give the same bytes: the documented keys and their order
    are the writers'."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    record = re.search(r"`ingest` writes `records.jsonl`.*?```json\n(.*?\n)```", readme, re.S)[1]
    person = re.search(r"`persons.jsonl` names each one.*?`(\{.*?\})`", readme, re.S)[1] + "\n"
    (tmp_path / "readme.jsonl").write_text(record, encoding="utf-8")
    write_records_jsonl(tmp_path / "records.jsonl", read_records_jsonl(tmp_path / "readme.jsonl"))
    assert (tmp_path / "records.jsonl").read_bytes() == record.encode("utf-8")
    (tmp_path / "readme.jsonl").write_text(person, encoding="utf-8")
    write_persons_jsonl(tmp_path / "persons.jsonl", read_persons_jsonl(tmp_path / "readme.jsonl"))
    assert (tmp_path / "persons.jsonl").read_bytes() == person.encode("utf-8")
