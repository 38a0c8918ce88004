"""Commands that read a Netflix CSV, IMDb TSVs, a ``--config`` file or a
``--labels`` file, on damaged input: one mutation of one line of one input.
Every outcome is an exit code and at most one line on stderr, never an
exception, and ``ingest`` never makes more records than there are rows."""

import codecs
import contextlib
import gzip
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from castnet.cli import main

# About 7 ms an example, so the four inputs add about 2 s to tier-1.
EXAMPLES = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

# One more character than the csv module's field limit.
LONG = b"x" * (131_072 + 1)

_BAD_BYTES = st.sampled_from([b"\x00", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])

_IMDB = {
    "basics": [
        "tconst\ttitleType\tprimaryTitle\toriginalTitle\tisAdult\tstartYear\tendYear"
        "\truntimeMinutes\tgenres",
        "tt1\tmovie\tThe Film\tThe Film\t0\t1994\t\\N\t100\tDrama",
        "tt2\tmovie\tSequel\tSequel\t0\t1997\t\\N\t95\tDrama",
    ],
    "principals": [
        "tconst\tordering\tnconst\tcategory\tjob\tcharacters",
        "tt1\t2\tnm2\tactress\t\\N\t\\N",
        "tt1\t1\tnm1\tactor\t\\N\t\\N",
        "tt1\t3\tnm3\tdirector\t\\N\t\\N",
        "tt2\t1\tnm1\tactor\t\\N\t\\N",
        "tt2\t2\tnm4\tactor\t\\N\t\\N",
    ],
    "names": [
        "nconst\tprimaryName\tbirthYear\tdeathYear\tprimaryProfession\tknownForTitles",
        "nm1\tFirst Actor\t1970\t\\N\tactor\ttt1",
        "nm2\tSecond Actor\t1975\t\\N\tactress\ttt1",
        "nm3\tThe Director\t1960\t\\N\tdirector\ttt1",
        "nm4\tFourth Actor\t1980\t\\N\tactor\ttt2",
    ],
}


@st.composite
def _mutated(draw, lines: list[str], sep: bytes) -> bytes:
    """The file of ``lines`` with one mutation of one line; ``sep`` splits a
    line into fields."""
    rows = [line.encode("utf-8") for line in lines]
    index = draw(st.integers(0, len(rows) - 1))
    line = rows[index]
    at = draw(st.integers(0, len(line)))
    how = draw(st.sampled_from(["drop", "extra", "quote", "byte", "long", "bom", "crlf"]))
    if how in ("drop", "extra"):
        fields = line.split(sep)
        i = draw(st.integers(0, len(fields) - 1))
        if how == "drop":
            del fields[i]
        else:
            fields.insert(i, draw(st.sampled_from(fields + [b"", b"1"])))
        line = sep.join(fields)
    elif how == "crlf":
        line += b"\r"
    else:
        insert = {"quote": b'"', "long": LONG, "bom": codecs.BOM_UTF8}.get(how)
        line = line[:at] + (insert or draw(_BAD_BYTES)) + line[at:]
    rows[index] = line
    return b"\n".join(rows) + b"\n"


def _run(*argv: str) -> int:
    """``main(argv)``, checked to exit 0, 1 or 2 with at most one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code in (0, 1, 2), (argv, code)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    return code


def _ingest_and_build(out: Path, rows: int, *ingest: str, persons: bool = False) -> None:
    """``ingest`` of a file of ``rows`` data rows, then ``build`` on its output."""
    if _run("ingest", *ingest, "--out", str(out / "ingest")) != 0:
        return
    report = json.loads((out / "ingest" / "run_report.json").read_text(encoding="utf-8"))
    assert report["records"] <= rows
    inputs = ["--records", str(out / "ingest" / "records.jsonl")]
    if persons:
        inputs += ["--persons", str(out / "ingest" / "persons.jsonl")]
    _run("build", *inputs, "--out", str(out / "build"))


@pytest.fixture(scope="module")
def built(tmp_path_factory, catalog_csv) -> Path:
    """The test catalog, ingested and built."""
    out = tmp_path_factory.mktemp("built")
    assert _run("ingest", "--input", str(catalog_csv), "--out", str(out)) == 0
    assert _run("build", "--records", str(out / "records.jsonl"), "--out", str(out)) == 0
    return out


def test_mutated_netflix_csv_exits_cleanly(catalog_csv, tmp_path_factory):
    base = tmp_path_factory.mktemp("netflix")
    lines = catalog_csv.read_text(encoding="utf-8").splitlines()

    @EXAMPLES
    @given(_mutated(lines, b","))
    def check(data):
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            d = Path(tmp)
            (d / "catalog.csv").write_bytes(data)
            _ingest_and_build(d, len(data.splitlines()) - 1, "--input", str(d / "catalog.csv"))

    check()


def test_mutated_imdb_tsvs_exit_cleanly(tmp_path_factory):
    base = tmp_path_factory.mktemp("imdb")

    @st.composite
    def dumps(draw):
        """The three tables, one of them mutated, each plain or gzip; a gzip
        stream may be cut short."""
        name = draw(st.sampled_from(sorted(_IMDB)))
        files = {key: "\n".join(lines).encode("utf-8") + b"\n" for key, lines in _IMDB.items()}
        files[name] = draw(_mutated(_IMDB[name], b"\t"))
        if draw(st.booleans()):
            files = {key: gzip.compress(data, mtime=0) for key, data in files.items()}
            if draw(st.booleans()):
                files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
        return files

    @EXAMPLES
    @given(dumps())
    def check(files):
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            d = Path(tmp)
            flags = []
            for name, data in files.items():
                (d / f"{name}.tsv").write_bytes(data)
                flags += [f"--{name}", str(d / f"{name}.tsv")]
            basics = files["basics"]
            if basics[:2] == b"\x1f\x8b":
                with contextlib.suppress(EOFError, OSError):
                    basics = gzip.decompress(basics)
            rows = len(basics.splitlines()) - 1
            _ingest_and_build(d, rows, "--source", "imdb", *flags, persons=True)

    check()


def test_mutated_config_file_exits_cleanly(built, tmp_path_factory):
    base = tmp_path_factory.mktemp("config")
    lines = ["# one file for the whole pipeline", f"records = {built / 'records.jsonl'}",
             "seed = 7", "threads = 2", "kind = movie", "year_min = 2000"]
    nul_path = "\n".join(lines).replace("records = ", "records = \0").encode("utf-8")

    @EXAMPLES
    @given(_mutated(lines, b"="))
    @example(nul_path)  # open() raises ValueError, not OSError, on a NUL
    def check(data):
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            d = Path(tmp)
            (d / "run.conf").write_bytes(data)
            _run("stats", "--config", str(d / "run.conf"), "--out", str(d / "out"))

    check()


def test_mutated_labels_exit_cleanly(built, tmp_path_factory):
    base = tmp_path_factory.mktemp("labels")
    lines = json.dumps({"0": "West", "1": "East", "2": "Bridge"}, indent=2).splitlines()

    @st.composite
    def labels(draw):
        """A mutated line, a value of the wrong JSON type, or a label with a
        lone surrogate escape."""
        how = draw(st.sampled_from(["line", "type", "surrogate"]))
        if how == "line":
            return draw(_mutated(lines, b","))
        if how == "type":
            wrong = st.sampled_from([[], 1, 2.5, "West", None, True, {"0": 1}, {"0": None},
                                     {"0": ["West"]}, {"0": {}}, {"west": "West"}, {"": "x"}])
            return json.dumps(draw(wrong)).encode("utf-8")
        escape = draw(st.sampled_from(["\\ud800", "\\udc00", "A\\udbff", "\\udfffB"]))
        return ('{"0": "West", "1": "%s"}' % escape).encode("utf-8")

    @EXAMPLES
    @given(labels())
    def check(data):
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            d = Path(tmp)
            (d / "labels.json").write_bytes(data)
            _run("clusters", "--graph", str(built / "graph.bin"), "--tau", "0.02",
                 "--labels", str(d / "labels.json"), "--out", str(d / "out"))

    check()
