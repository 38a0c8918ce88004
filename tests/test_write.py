import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from castnet._write import _rounded, write_csv, write_json


def test_json_floats_at_6_significant_digits(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [0.123456789, (2.5e-12, 123456789.0)], "a": {"x": 1, "y": True}},
               sort_keys=True)
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "x": 1,\n    "y": true\n  },\n'
        b'  "b": [\n    0.123457,\n    [\n      2.5e-12,\n      123457000.0\n    ]\n  ]\n}\n'
    )


def test_csv_float_cells_at_6_significant_digits(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["name", "count", "score"], [("Ann, Jr.", 3, 0.123456789), ("é", 0, 1.0)])
    assert path.read_bytes() == (
        'name,count,score\n"Ann, Jr.",3,0.123457\né,0,1\n'.encode("utf-8")
    )


# A lone surrogate cannot be encoded as UTF-8, so each write below fails
# once its temporary file exists.
@pytest.mark.parametrize(
    "write",
    [
        lambda path, rows: write_json(path, [{"name": name} for name in rows]),
        lambda path, rows: write_csv(path, ["name"], [(name,) for name in rows]),
    ],
    ids=["json", "csv"],
)
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "out"
    write(path, ["kept"] * 10_000)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write(path, ["new"] * 10_000 + ["\ud800"])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out"]


_text = st.text(st.characters(blacklist_categories=("Cs",)))  # UTF-8 cannot hold surrogates
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_text, inner, max_size=5),
    max_leaves=40,
)


def _indent_2(payload, sort_keys=False) -> bytes:
    text = json.dumps(_rounded(payload), ensure_ascii=False, indent=2, sort_keys=sort_keys)
    return (text + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "payload",
    [
        {"scores": [{"name": "Zoë", "score": 0.25}, {"name": "},\n    {", "score": 1e-7}]},
        {"windows": [{"years": [2001, 2005], "communities": [["a", "b"], ["ç"]], "q": None}]},
        {"empty": [{}, [], [[]], [{}], {"x": {}}], "rows": [[1, 2], [3]], "mixed": [[1], {"a": 2}]},
        [[], {}, "", 0, False, float("nan"), float("-inf")],
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        {}, [], "plain", 3.0,
    ],
)
def test_json_matches_indent_2(tmp_path, payload):
    write_json(tmp_path / "out.json", payload)
    assert (tmp_path / "out.json").read_bytes() == _indent_2(payload)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_json_values, st.booleans())
def test_json_matches_indent_2_on_any_payload(tmp_path, payload, sort_keys):
    write_json(tmp_path / "out.json", payload, sort_keys=sort_keys)
    assert (tmp_path / "out.json").read_bytes() == _indent_2(payload, sort_keys)
