"""How castnet writes an output file.

Every file goes to ``<path>.<pid>.tmp`` in the target directory and is
renamed over ``path`` once complete, so ``path`` holds either the old file
or the whole new one. Text is UTF-8 with LF line ends; JSON is indented by
two with a trailing newline; floats carry 6 significant digits, in JSON and
CSV alike. JSON Lines hold one compact object per line.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from datetime import date
from itertools import islice
from typing import Iterable, Iterator, Sequence


@contextlib.contextmanager
def replacing(path: str | os.PathLike, binary: bool = False) -> Iterator:
    """Open a temporary file that replaces ``path`` when the block completes
    and is removed when it raises."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def fmt_score(x: float) -> str:
    """Floats rendered with 6 significant digits for stable output files."""
    return f"{x:.6g}"


def _rounded(value):
    """``value`` with every float cut to 6 significant digits, as written."""
    if isinstance(value, float):
        return float(fmt_score(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def write_json(path: str | os.PathLike, payload, *, sort_keys: bool = False) -> None:
    text = json.dumps(_rounded(payload), ensure_ascii=False, indent=2, sort_keys=sort_keys)
    with replacing(path) as fh:
        fh.write(text + "\n")


# Encodes a list of scalars as one item per line, unindented; a date is its
# ISO string.
_ITEMS = json.JSONEncoder(ensure_ascii=False, separators=(",\n", ": "), default=date.isoformat)


# Rows per batch of a JSON Lines file: each batch is encoded in memory.
_JSONL_BATCH = 128


def write_jsonl(path: str | os.PathLike, keys: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One JSON object per row, a tuple of values in key order, as
    ``json.dumps(dict(zip(keys, row)), ensure_ascii=False, separators=(",",
    ":"))`` writes it, except that a ``datetime.date`` is its ISO string.
    """
    template = _template(keys)
    rows = iter(rows)
    with replacing(path) as fh:
        while batch := list(islice(rows, _JSONL_BATCH)):
            fh.write("".join(_json_rows(template, zip(*batch))))


def _template(keys: Sequence[str]) -> str:
    """A JSON Lines line with a ``%s`` for the value of each of ``keys``,
    for :func:`_json_rows`."""
    items = (json.dumps(key, ensure_ascii=False).replace("%", "%%") + ":%s" for key in keys)
    return "{" + ",".join(items) + "}\n"


def _json_rows(template: str, columns: Iterable[Sequence]) -> list[str]:
    """Row ``i`` as ``template % (cell_0, cell_1, ...)``, where ``cell_j`` is
    ``columns[j][i]`` as compact JSON. A column holds only scalars, or only
    lists and tuples of scalars.

    Each column is one C call, split at the separator ``",\\n"``, which an
    encoded string cannot hold, so no row is rebuilt. In a column of lists,
    a closing bracket, a separator and an opening bracket in a row occur
    only between two rows, so those separators become row breaks and the
    others the compact ``","``.
    """
    cells = []
    for column in columns:
        text = _ITEMS.encode(column)[1:-1]
        if text.startswith("["):  # a column of lists
            cells.append(text.replace("],\n[", "]\n[").replace(",\n", ",").split("\n"))
        else:
            cells.append(text.split(",\n"))
    return list(map(template.__mod__, zip(*cells)))


def write_csv(path: str | os.PathLike, header: list[str], rows: Iterable) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [fmt_score(cell) if isinstance(cell, float) else cell for cell in row] for row in rows
        )
