import json
import random
from datetime import date

import pytest

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


class TestOutputs:
    def test_json_and_csvs(self, tmp_path, catalog_csv):
        records = parse_netflix(catalog_csv).records
        summary = summarize(records)
        json_path = tmp_path / "summary.json"
        write_summary_json(json_path, summary)
        payload = json.loads(json_path.read_text())
        assert payload["type_totals"]["movies"] == summary.type_totals[0]
        paths = write_summary_csvs(tmp_path, summary)
        assert len(paths) == 5
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
        write_summary_csvs(tmp_path, summary)
        assert (tmp_path / "per_year_added.csv").read_text() == "year,movies,tv\n2021,35,4\n"
