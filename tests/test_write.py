import os

import pytest

from castnet._write import write_csv, write_json


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
