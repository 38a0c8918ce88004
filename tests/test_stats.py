import json
import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castnet.cli import Run
from castnet.ingest import TitleKind, TitleRecord, parse_netflix
from castnet.stats import summarize, write_summary_csvs, write_summary_json


def rec(tid, kind, year, cast=(), directors=(), rating=None, added=None):
    return TitleRecord(
        title_id=tid,
        title=tid,
        kind=kind,
        release_year=year,
        directors=tuple(directors),
        cast=tuple(cast),
        rating=rating,
        date_added=added,
    )


class TestSummarize:
    def test_per_year_split(self):
        records = [
            rec("a", TitleKind.MOVIE, 2015),
            rec("b", TitleKind.MOVIE, 2015),
            rec("c", TitleKind.TV_SHOW, 2015),
        ]
        summary = summarize(records)
        assert summary.per_year == {2015: (2, 1)}
        assert summary.type_totals == (2, 1)

    def test_per_year_added_counts_dated_titles_by_year_added(self):
        records = [
            rec("a", TitleKind.MOVIE, 2001, added=date(2019, 1, 5)),
            rec("b", TitleKind.TV_SHOW, 1999, added=date(2019, 12, 31)),
            rec("c", TitleKind.MOVIE, None, added=date(2021, 6, 1)),
            rec("d", TitleKind.MOVIE, 2001),  # no date_added: not counted
        ]
        assert summarize(records).per_year_added == {2019: (1, 1), 2021: (1, 0)}

    def test_cast_histogram(self):
        summary = summarize([rec("a", TitleKind.MOVIE, 2000, cast=["A", "B", "C", "D"])])
        assert summary.cast_histogram == {4: 1}

    def test_unknown_year_bucket(self):
        records = [rec("a", TitleKind.MOVIE, None), rec("b", TitleKind.TV_SHOW, 2001)]
        summary = summarize(records)
        assert summary.unknown_year == (1, 0)
        total_with_year = sum(mv + tv for mv, tv in summary.per_year.values())
        assert total_with_year + sum(summary.unknown_year) == sum(summary.type_totals)

    def test_histogram_sums_to_total(self):
        rng = random.Random(4)
        records = [
            rec(f"t{i}", TitleKind.MOVIE, 2000, cast=[f"P{j}" for j in range(rng.randint(0, 5))])
            for i in range(20)
        ]
        summary = summarize(records)
        assert sum(summary.cast_histogram.values()) == sum(summary.type_totals)

    def test_top_lists_counts_and_ties(self):
        records = [
            rec("a", TitleKind.MOVIE, 2000, cast=["X", "Y"], directors=["D1"]),
            rec("b", TitleKind.MOVIE, 2001, cast=["X"], directors=["D1"]),
            rec("c", TitleKind.MOVIE, 2002, cast=["Z"], directors=["D2"]),
        ]
        summary = summarize(records, top_k=2)
        assert summary.top_actors == [("X", 2), ("Y", 1)]  # Y before Z by name
        assert summary.top_directors == [("D1", 2), ("D2", 1)]

    def test_director_counted_once_per_title(self):
        records = [rec("t1", TitleKind.MOVIE, 2000, cast=["x"], directors=["D", "D"])]
        assert summarize(records).top_directors == [("D", 1)]

    def test_rating_counts(self):
        records = [
            rec("a", TitleKind.MOVIE, 2000, rating="PG"),
            rec("b", TitleKind.MOVIE, 2000, rating="PG"),
            rec("c", TitleKind.MOVIE, 2000, rating="R"),
        ]
        assert summarize(records).rating_counts == {"PG": 2, "R": 1}

    def test_permutation_invariant(self, catalog_csv):
        records = parse_netflix(catalog_csv).records
        shuffled = list(records)
        random.Random(3).shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_top_k_prefix_property(self, catalog_csv):
        records = parse_netflix(catalog_csv).records
        small = summarize(records, top_k=3)
        large = summarize(records, top_k=10)
        assert large.top_actors[:3] == small.top_actors
        assert large.top_directors[:3] == small.top_directors


# Keys k0-k5 and display names without brackets, so a clashing name's
# " [key]" suffix never clashes again; "k1" as a name clashes with a key.
_KEYS = st.sampled_from([f"k{i}" for i in range(6)])
_RECORDS = st.lists(
    st.builds(
        rec,
        tid=st.just("t"),
        kind=st.sampled_from([TitleKind.MOVIE, TitleKind.TV_SHOW, "movie", "tv_show"]),
        year=st.none() | st.integers(1990, 1994),
        cast=st.lists(_KEYS, max_size=4),  # empty casts and a key twice in one cast
        directors=st.lists(st.sampled_from(["D1", "D2", "D3"]), max_size=2, unique=True),
        rating=st.none() | st.sampled_from(["", "PG", "R"]),
        added=st.none() | st.dates(date(2018, 1, 1), date(2020, 12, 31)),
    ),
    max_size=12,
)
_NAMES = st.none() | st.dictionaries(_KEYS, st.sampled_from(["Ann", "Bob", "k1"]))


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS, top_k=st.integers(1, 8), names=_NAMES)
def test_summarize_matches_counts_per_field(records, top_k, names):
    """Each field against its own count over the records. A kind counts by
    its value, so the plain string "movie" is a movie; a cast counts each
    distinct key once."""
    summary = summarize(records, top_k=top_k, names=names)

    def split(titles):
        titles = list(titles)
        movies = sum(1 for r in titles if r.kind == "movie")
        return movies, len(titles) - movies

    years = sorted({r.release_year for r in records} - {None})
    assert summary.per_year == {y: split(r for r in records if r.release_year == y) for y in years}
    assert list(summary.per_year) == years
    assert summary.unknown_year == split(r for r in records if r.release_year is None)
    assert summary.type_totals == split(records)
    added = sorted({r.date_added.year for r in records if r.date_added})
    assert summary.per_year_added == {
        y: split(r for r in records if r.date_added and r.date_added.year == y) for y in added
    }
    assert list(summary.per_year_added) == added
    sizes = sorted({len(set(r.cast)) for r in records})
    assert summary.cast_histogram == {
        s: sum(len(set(r.cast)) == s for r in records) for s in sizes
    }
    assert list(summary.cast_histogram) == sizes
    ratings = sorted({r.rating for r in records if r.rating})
    assert summary.rating_counts == {x: sum(r.rating == x for r in records) for x in ratings}
    assert list(summary.rating_counts) == ratings

    def leaders(counts):
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]

    keys = {key for r in records for key in r.cast}
    base = {key: (names or {}).get(key, key) for key in keys}
    label = {
        key: name if list(base.values()).count(name) == 1 else f"{name} [{key}]"
        for key, name in base.items()
    }
    if names is None:
        label = {key: key for key in keys}
    actors = {label[key]: sum(key in r.cast for r in records) for key in keys}
    assert summary.top_actors == leaders(actors)
    directors = {d for r in records for d in r.directors}
    assert summary.top_directors == leaders(
        {d: sum(d in r.directors for r in records) for d in directors}
    )


def test_summarize_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="film"):
        summarize([rec("t", "film", 2000)])


class TestOutputs:
    def test_json_and_csvs(self, tmp_path, catalog_csv):
        records = parse_netflix(catalog_csv).records
        summary = summarize(records)
        json_path = tmp_path / "summary.json"
        write_summary_json(json_path, summary)
        payload = json.loads(json_path.read_text())
        assert payload["type_totals"]["movies"] == summary.type_totals[0]
        run = Run(str(tmp_path))
        write_summary_csvs(run.output, summary)
        assert run.outputs == ["per_year.csv", "per_year_added.csv", "cast_histogram.csv",
                               "top_actors.csv", "top_directors.csv"]
        per_year = (tmp_path / "per_year.csv").read_text().splitlines()
        assert per_year[0] == "year,movies,tv"
        assert len(per_year) == len(summary.per_year) + 1

    def test_per_year_added_of_the_test_catalog(self, tmp_path, catalog_csv):
        # By hand: 16 + 16 country films, 2 crossovers and 1 solo feature are
        # movies, plus 4 shows; every row was added in 2021.
        summary = summarize(parse_netflix(catalog_csv).records)
        assert summary.per_year_added == {2021: (35, 4)}
        write_summary_json(tmp_path / "summary.json", summary)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["per_year_added"] == {"2021": {"movies": 35, "tv_shows": 4}}
        write_summary_csvs(lambda name: str(tmp_path / name), summary)
        assert (tmp_path / "per_year_added.csv").read_text() == "year,movies,tv\n2021,35,4\n"
