"""Deterministic synthetic catalogs in the two input schemas castnet reads.

``netflix_csv`` writes a Kaggle-schema ``netflix_titles.csv``;
``imdb_dumps`` writes gzip ``title.basics``, ``title.principals`` and
``name.basics`` TSVs. Both draw everything from ``numpy.random.Generator``
seeded by the caller, so the same seed and size give the same bytes.

The catalog model: six country pools of actors, Zipf popularity by rank
inside each pool (a Pareto-tailed profile), lognormal cast sizes, and a small
share of cast slots drawn across pools. One extra title joins two actors who
appear nowhere else, so one path query is known to be unreachable.

The marginals are stratified rather than drawn: the number of titles per
country and per type, and the multiset of cast sizes and release years, are
the same for every seed; the seed decides their order and who is cast. This
keeps the work a catalog implies (Σ C(k,2), hub sizes) nearly constant across
seeds, so seed-to-seed spread in the benchmark is mostly the machine's.
"""

from __future__ import annotations

import csv
import gzip
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

COUNTRIES = ("United States", "India", "United Kingdom", "Japan", "South Korea", "Spain")
COUNTRY_SHARE = np.array([0.45, 0.17, 0.12, 0.09, 0.09, 0.08])
MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
RATINGS = ("TV-MA", "TV-14", "TV-PG", "R", "PG-13", "PG", "TV-Y7", "G")
GENRES = ("Dramas", "Comedies", "Documentaries", "Action & Adventure", "Thrillers")
ISLAND = ("Island Pair 1", "Island Pair 2")  # digits never occur in generated names

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr gr kr st tr".split()
_VOWELS = "a e i o u ai ei ou".split()


@dataclass(frozen=True)
class Size:
    """Shape parameters of one synthetic catalog."""

    titles: int  # data rows (Netflix) or title.basics rows (IMDb)
    pool: int  # actors available to cast
    zipf: float  # popularity exponent by rank inside a country pool
    cast_mu: float  # lognormal cast size: exp(N(mu, sigma)), rounded
    cast_sigma: float
    cast_max: int
    cross: float = 0.08  # share of cast slots drawn from the global pool


@dataclass
class Catalog:
    """Generated files plus what the benchmark needs to predict the graph."""

    files: dict  # CLI flag name -> path
    casts: list  # per title castnet keeps: np.ndarray of person ids, deduplicated
    labels: list  # person id -> the label castnet gives that person
    rows: int  # data rows written across all files
    island: tuple = ISLAND


def _name_words(rng: np.random.Generator) -> list[str]:
    words = [a + b + c + d for a in _ONSETS for b in _VOWELS for c in _ONSETS for d in _VOWELS]
    rng.shuffle(words)
    return [w.capitalize() for w in words]


def unique_names(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct "First Last" names, no digits, commas or quotes."""
    words = _name_words(rng)
    picks = rng.choice(len(words) * len(words), size=count, replace=False)
    first, last = np.divmod(picks, len(words))
    return [f"{words[a]} {words[b]}" for a, b in zip(first.tolist(), last.tolist())]


def stratified(rng: np.random.Generator, n: int, shares) -> np.ndarray:
    """``n`` category indices, each as often as its share allows, in random order."""
    exact = np.asarray(shares, dtype=np.float64) * n
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact, kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def quantiles(rng: np.random.Generator, n: int, inv_cdf) -> np.ndarray:
    """``inv_cdf`` at the ``n`` midpoint quantiles, in random order."""
    return rng.permutation(np.array([inv_cdf((i + 0.5) / n) for i in range(n)]))


def release_years(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exponential ages (mean 7 years) back from 2021, floored at 1942."""
    return quantiles(rng, n, lambda u: max(1942, 2021 - int(-7.0 * np.log1p(-u))))


class CastSampler:
    """Draws casts: mostly from one country pool by Zipf rank, some across pools."""

    def __init__(self, rng: np.random.Generator, size: Size):
        self.rng = rng
        self.size = size
        bounds = np.concatenate([[0], np.cumsum(COUNTRY_SHARE)]) * size.pool
        self.starts = np.round(bounds).astype(np.int64)
        self.cdfs = []
        for lo, hi in zip(self.starts[:-1], self.starts[1:]):
            w = np.arange(1, hi - lo + 1, dtype=np.float64) ** -size.zipf
            self.cdfs.append(np.cumsum(w) / w.sum())
        glob = np.concatenate(
            [np.diff(np.concatenate([[0.0], c])) * s for c, s in zip(self.cdfs, COUNTRY_SHARE)]
        )
        self.global_cdf = np.cumsum(glob) / glob.sum()

    def countries(self, n: int) -> np.ndarray:
        return stratified(self.rng, n, COUNTRY_SHARE)

    def cast_sizes(self, n: int, scale: float = 1.0, empty: float = 0.0) -> np.ndarray:
        """Cast sizes for ``n`` titles: a share ``empty`` of 0, the rest lognormal."""
        s = self.size
        normal = NormalDist(s.cast_mu, s.cast_sigma)
        m = n - int(round(empty * n))
        sizes = [max(1, min(round(scale * np.exp(normal.inv_cdf((i + 0.5) / m))), s.cast_max))
                 for i in range(m)]
        return self.rng.permutation(np.array(sizes + [0] * (n - m), dtype=np.int64))

    def cast(self, country: int, k: int) -> np.ndarray:
        """``k`` distinct person ids in draw order."""
        rng, lo = self.rng, self.starts[country]
        out: list[int] = []
        seen: set[int] = set()
        while len(out) < k:
            m = 2 * (k - len(out)) + 2
            local = lo + np.searchsorted(self.cdfs[country], rng.random(m), side="right")
            glob = np.searchsorted(self.global_cdf, rng.random(m), side="right")
            picks = np.where(rng.random(m) < self.size.cross, glob, local)
            for p in picks.tolist():
                if p not in seen:
                    seen.add(p)
                    out.append(p)
                    if len(out) == k:
                        break
        return np.array(out, dtype=np.int64)


def netflix_csv(path: str, seed: int, size: Size) -> Catalog:
    """Write a Kaggle-schema catalog of ``size.titles`` rows (+1 island row)."""
    rng = np.random.default_rng([seed, 1])
    sampler = CastSampler(rng, size)
    names = unique_names(rng, size.pool + size.pool // 7)
    actors, directors = names[: size.pool], names[size.pool :]
    casts: list[np.ndarray] = []
    n = size.titles
    shows = stratified(rng, n, [0.7, 0.3]) == 1
    sizes = np.empty(n, np.int64)
    sizes[~shows] = sampler.cast_sizes(int((~shows).sum()), empty=0.09)
    sizes[shows] = sampler.cast_sizes(int(shows.sum()), scale=1.4, empty=0.09)
    countries, years = sampler.countries(n), release_years(rng, n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["show_id", "type", "title", "director", "cast", "country", "date_added",
             "release_year", "rating", "duration", "listed_in", "description"]
        )
        for i in range(n):
            show, country, year = bool(shows[i]), int(countries[i]), int(years[i])
            cast = sampler.cast(country, int(sizes[i]))
            casts.append(cast)
            where = COUNTRIES[country]
            if rng.random() < 0.15:
                where += ", " + COUNTRIES[int(rng.integers(len(COUNTRIES)))]
            added = f"{MONTHS[int(rng.integers(12))]} {1 + int(rng.integers(28))}, {max(year, 2015)}"
            w.writerow(
                [
                    f"s{i + 1}",
                    "TV Show" if show else "Movie",
                    f"Title {i + 1}",
                    "" if show else directors[int(rng.integers(len(directors)))],
                    ", ".join(actors[p] for p in cast.tolist()),
                    where,
                    added,
                    year,
                    RATINGS[int(rng.integers(len(RATINGS)))],
                    f"{1 + int(rng.integers(4))} Seasons" if show else f"{80 + int(rng.integers(60))} min",
                    GENRES[int(rng.integers(len(GENRES)))],
                    "A synthetic title.",
                ]
            )
        w.writerow(
            [f"s{size.titles + 1}", "Movie", "Island Feature", "", ", ".join(ISLAND),
             "Spain", "May 1, 2020", 2019, "PG", "90 min", "Dramas", "Two actors alone."]
        )
    labels, casts = _relabel(casts + [np.array([size.pool, size.pool + 1])], actors + list(ISLAND))
    return Catalog({"input": path}, casts, labels, size.titles + 1)


def _relabel(casts: list, names: list) -> tuple[list, list]:
    """Renumber persons 0..n-1 in first-appearance order, as castnet interns them."""
    index: dict[int, int] = {}
    labels: list[str] = []
    out = []
    for cast in casts:
        ids = []
        for p in cast.tolist():
            q = index.get(p)
            if q is None:
                q = index[p] = len(labels)
                labels.append(names[p])
            ids.append(q)
        out.append(np.array(ids, dtype=np.int64))
    return labels, out


IMDB_TYPES = ("movie", "tvMovie", "tvSeries", "tvMiniSeries", "tvEpisode", "short")
IMDB_TYPE_SHARE = np.array([0.40, 0.10, 0.06, 0.02, 0.27, 0.15])
IMDB_KEPT = {"movie", "tvMovie"}  # what `ingest --kind movie` keeps


def _gz(path: str):
    return gzip.GzipFile(path, "wb", compresslevel=6, mtime=0)


def imdb_dumps(directory: str, seed: int, size: Size) -> Catalog:
    """Write the three gzip TSV dumps; ``--kind movie`` keeps movie and tvMovie.

    Every title has at most 10 principals: its cast plus a director and
    sometimes a writer, who come from a crew pool outside the actor pool.
    """
    rng = np.random.default_rng([seed, 2])
    sampler = CastSampler(rng, size)
    crew = size.pool // 8
    names = unique_names(rng, size.pool + crew)
    paths = {
        "basics": os.path.join(directory, "title.basics.tsv.gz"),
        "principals": os.path.join(directory, "title.principals.tsv.gz"),
        "names": os.path.join(directory, "name.basics.tsv.gz"),
    }
    kept_casts: list[np.ndarray] = []
    basics: list[str] = ["tconst\ttitleType\tprimaryTitle\toriginalTitle\tisAdult\tstartYear\tendYear\truntimeMinutes\tgenres\n"]
    principals: list[str] = ["tconst\tordering\tnconst\tcategory\tjob\tcharacters\n"]
    n = size.titles
    types = stratified(rng, n, IMDB_TYPE_SHARE)
    countries, sizes, years = sampler.countries(n), sampler.cast_sizes(n), release_years(rng, n + 1)
    no_year = stratified(rng, n + 1, [0.98, 0.02]) == 1
    for i in range(n + 1):
        tconst = f"tt{i + 1:07d}"
        if i == n:
            ttype, cast = "movie", np.array([size.pool + crew, size.pool + crew + 1])
        else:
            ttype = IMDB_TYPES[int(types[i])]
            cast = sampler.cast(int(countries[i]), int(sizes[i]))
        year = r"\N" if no_year[i] else str(int(years[i]))
        basics.append(f"{tconst}\t{ttype}\tTitle {i + 1}\tTitle {i + 1}\t0\t{year}\t\\N\t90\tDrama\n")
        order = 1
        for p in cast.tolist():
            cat = "actress" if p % 2 else "actor"
            principals.append(f"{tconst}\t{order}\tnm{p + 1:07d}\t{cat}\t\\N\t[\"Role {order}\"]\n")
            order += 1
        principals.append(f"{tconst}\t{order}\tnm{size.pool + int(rng.integers(crew)) + 1:07d}\tdirector\t\\N\t\\N\n")
        if rng.random() < 0.5:
            principals.append(f"{tconst}\t{order + 1}\tnm{size.pool + int(rng.integers(crew)) + 1:07d}\twriter\tscreenplay\t\\N\n")
        if ttype in IMDB_KEPT:
            kept_casts.append(cast)
    everyone = names + list(ISLAND)
    people = ["nconst\tprimaryName\tbirthYear\tdeathYear\tprimaryProfession\tknownForTitles\n"]
    people += [
        f"nm{p + 1:07d}\t{name}\t{1930 + p % 70}\t\\N\t{'actor' if p < size.pool else 'director'}\t\\N\n"
        for p, name in enumerate(everyone)
    ]
    for key, lines in (("basics", basics), ("principals", principals), ("names", people)):
        with _gz(paths[key]) as fh:
            fh.write("".join(lines).encode("utf-8"))
    labels, casts = _relabel(kept_casts, everyone)
    rows = len(basics) + len(principals) + len(people) - 3
    return Catalog(paths, casts, labels, rows)
