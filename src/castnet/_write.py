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
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence


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


def _rounded(values) -> list:
    """``values`` with each float cut to 6 significant digits, as written."""
    return [float(f"{x:.6g}") if isinstance(x, float) else x for x in values]


def write_json(path: str | os.PathLike, payload, *, sort_keys: bool = False) -> None:
    text = _indented(payload, 0, sort_keys)
    with replacing(path) as fh:
        fh.write(text + "\n")


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _indented(value, level: int, sort_keys: bool) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2, sort_keys=sort_keys)``
    for a value nested ``level`` deep, floats cut to 6 significant digits,
    built from the C encoder's output.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set. The C encoder takes no indent, but its item separator may carry a
    newline and the indent of one level. An encoded string never holds a raw
    newline, so a container of scalars is one C call plus a fix-up at its
    brackets, and so is each column of a table (see :func:`_json_rows`).
    Anything else is walked here.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:  # scalars, {} and []
        return _encoder(0, sort_keys).encode(_rounded([value])[0])
    pad, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if _all_scalars(_values(value)):
        rounded = _rounded(_values(value))
        if isinstance(value, dict):
            rounded = dict(zip(value, rounded))
        text = _encoder(level + 1, sort_keys).encode(rounded)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    table = _table(value, level, sort_keys)
    if table is not None:
        return table
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        parts = [_key(k) + ": " + _indented(v, level + 1, sort_keys) for k, v in items]
        o, c = "{", "}"
    else:
        parts = [_indented(v, level + 1, sort_keys) for v in value]
        o, c = "[", "]"
    return o + inner + ("," + inner).join(parts) + pad + c


def _table(value, level: int, sort_keys: bool) -> str | None:
    """Non-empty dicts of scalars, all with the same keys in the same order,
    as :func:`_indented` writes them, or None for anything else."""
    if not isinstance(value, (list, tuple)) or set(map(type, value)) != {dict} or not all(value):
        return None
    keys = list(value[0])
    columns = list(zip(*map(dict.values, value)))
    if not all(map(keys.__eq__, map(list, value))) or not _all_scalars(chain(*columns)):
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__) if sort_keys else range(len(keys))
    pad, inner, deeper = ("\n" + "  " * (level + i) for i in range(3))
    row = "{" + deeper + _template([keys[i] for i in order], "," + deeper, ": ") + inner + "}"
    rows = _json_rows(row, [_rounded(columns[i]) for i in order])
    return "[" + inner + ("," + inner).join(rows) + pad + "]"


# Encodes a list of scalars as one item per line, unindented.
_ITEMS = json.JSONEncoder(ensure_ascii=False, separators=(",\n", ": "))


# Rows per batch of a JSON Lines file: each batch is encoded in memory.
_JSONL_BATCH = 128


def write_jsonl(
    path: str | os.PathLike,
    keys: Sequence[str],
    rows: Iterable,
    columns: Callable[[list], Sequence[Sequence]] = lambda batch: list(zip(*batch)),
) -> None:
    """One JSON object per row, as ``json.dumps(dict(zip(keys, row)),
    ensure_ascii=False, separators=(",", ":"))`` writes it.

    ``rows`` are taken in batches; ``columns`` of a batch gives its values a
    column per key, as :func:`_json_rows` takes them, and by default reads
    each row as a tuple in key order.
    """
    template = "{" + _template(keys, ",", ":") + "}\n"
    rows = iter(rows)
    with replacing(path) as fh:
        while batch := list(islice(rows, _JSONL_BATCH)):
            fh.write("".join(_json_rows(template, columns(batch))))


def _template(keys: Sequence, separator: str, colon: str) -> str:
    """``key<colon>%s`` for each of ``keys``, joined by ``separator``: one
    object's items, for :func:`_json_rows`."""
    return separator.join(_key(key).replace("%", "%%") + colon + "%s" for key in keys)


def _json_rows(template: str, columns: Sequence[Sequence]) -> list[str]:
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


def _encoder(level: int, sort_keys: bool) -> json.JSONEncoder:
    """The C encoder; each item separator starts a line indented to ``level``."""
    separator = ",\n" + "  " * level if level else ","
    return json.JSONEncoder(ensure_ascii=False, separators=(separator, ": "), sort_keys=sort_keys)


def _values(container):
    return container.values() if isinstance(container, dict) else container


def _all_scalars(values) -> bool:
    return set(map(type, values)) <= _SCALAR_TYPES


def _key(key) -> str:
    """A dict key as ``json`` writes it, non-string keys included."""
    return _encoder(0, False).encode({key: None})[1 : -len(": null}")]


def write_csv(path: str | os.PathLike, header: list[str], rows: Iterable) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [fmt_score(cell) if isinstance(cell, float) else cell for cell in row] for row in rows
        )
