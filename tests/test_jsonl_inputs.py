"""Commands that read ``records.jsonl`` and ``persons.jsonl`` on damaged
input: one mutation of one line of the test catalog. Every outcome is an
exit code and at most one line on stderr, never an exception."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from castnet._options import YEAR_MAX, YEAR_MIN
from castnet.cli import main
from castnet.ingest import read_records_jsonl, write_persons_jsonl

STEP = 5


@pytest.fixture(scope="module")
def catalog(tmp_path_factory, catalog_csv) -> dict[str, list[str]]:
    """The lines of the test catalog's ``records.jsonl``, and of a
    ``persons.jsonl`` that names its cast, with two namesakes."""
    out = tmp_path_factory.mktemp("jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--source", "netflix", "--input", str(catalog_csv),
                     "--out", str(out)]) == 0
    keys = sorted({key for rec in read_records_jsonl(out / "records.jsonl") for key in rec.cast})
    write_persons_jsonl(out / "persons.jsonl",
                        {key: "Namesake" if i < 2 else key.upper() for i, key in enumerate(keys)})
    return {name: (out / name).read_text(encoding="utf-8").splitlines()
            for name in ("records.jsonl", "persons.jsonl")}


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1, 1),
                         st.text(max_size=3), st.just([]), st.just({}))
_EXTREME_INTS = st.sampled_from([-(2**63) - 1, -(2**31), 2**31, 2**63, 10**30, -(10**400)])
_STRINGS = st.one_of(st.just(""), st.integers(1, 10**5).map(lambda k: "x" * k))
_CONTROL = st.sampled_from([*map(chr, range(0x20)), "\x7f", "\x85", " "])


@st.composite
def _mutation(draw, catalog):
    """``(file name, line number, new line)``."""
    name = draw(st.sampled_from(sorted(catalog)))
    index = draw(st.integers(0, len(catalog[name]) - 1))
    line = catalog[name][index]
    payload = json.loads(line)
    key = draw(st.sampled_from(sorted(payload)))
    how = draw(st.sampled_from(["drop", "type", "int", "string", "control", "nan", "duplicate",
                                "truncate"]))
    if how == "drop":
        del payload[key]
    elif how == "type":
        payload[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(payload[key])))
    elif how == "int":
        payload[key] = draw(_EXTREME_INTS)
    elif how in ("string", "control", "nan"):
        if how == "string":
            value = draw(_STRINGS)
        elif how == "control":
            value = "A" + draw(_CONTROL) + "B"
        else:
            value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        items = payload[key]
        if type(items) is list and items:  # one cast or directors entry
            items[draw(st.integers(0, len(items) - 1))] = value
        else:
            payload[key] = value
    elif how == "duplicate":  # a second copy of the key, which json keeps last
        text = json.dumps(payload)
        return name, index, f'{text[:-1]}, {json.dumps(key)}: {json.dumps(draw(_JSON_VALUES))}}}'
    else:
        return name, index, line[: draw(st.integers(0, len(line) - 1))]
    return name, index, json.dumps(payload)


def test_mutated_jsonl_exits_cleanly(catalog, tmp_path_factory):
    base = tmp_path_factory.mktemp("mutated")

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutation(catalog))
    def check(mutation):
        name, index, new_line = mutation
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            d = Path(tmp)
            for file, lines in catalog.items():
                text = [new_line if file == name and i == index else line
                        for i, line in enumerate(lines)]
                (d / file).write_text("\n".join(text) + "\n", encoding="utf-8")
            inputs = ["--records", str(d / "records.jsonl"), "--persons", str(d / "persons.jsonl")]
            for command in (["build"], ["stats"], ["evolve", "--window", "10", "--step", str(STEP)]):
                out = d / command[0]
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([*command, *inputs, "--out", str(out)])
                assert code in (0, 1, 2), (command, code)
                assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
                if command[0] == "evolve" and code == 0:
                    windows = json.loads((out / "evolution.json").read_text())["windows"]
                    assert len(windows) <= (YEAR_MAX - YEAR_MIN) // STEP + 1

    check()
