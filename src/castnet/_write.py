"""How castnet writes an output file.

Every file goes to ``<path>.<pid>.tmp`` in the target directory and is
renamed over ``path`` once complete, so ``path`` holds either the old file
or the whole new one. Text is UTF-8 with LF line ends; JSON is indented by
two with a trailing newline; floats carry 6 significant digits, in JSON and
CSV alike.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from itertools import chain
from typing import Iterable, Iterator


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
    if isinstance(value, float):
        return float(fmt_score(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def write_json(path: str | os.PathLike, payload, *, sort_keys: bool = False) -> None:
    text = _indented(_rounded(payload), 0, sort_keys)
    with replacing(path) as fh:
        fh.write(text + "\n")


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _indented(value, level: int, sort_keys: bool) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2, sort_keys=sort_keys)``
    for a value nested ``level`` deep, built from the C encoder's output.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set. The C encoder takes no indent, but its item separator may carry a
    newline and the indent of one level. An encoded string never holds a raw
    newline, so a container of scalars, or a list of such containers, is one
    C call plus a fix-up at its brackets. Anything deeper is walked here.
    """
    if not isinstance(value, (dict, list)) or not value:  # scalars, {} and []
        return _encoder(0, sort_keys).encode(value)
    pad, inner, deeper = ("\n" + "  " * (level + i) for i in range(3))
    if _all_scalars(_values(value)):
        text = _encoder(level + 1, sort_keys).encode(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    kinds = set(map(type, value)) if isinstance(value, list) and all(value) else set()
    if kinds in ({dict}, {list}) and _all_scalars(chain.from_iterable(map(_values, value))):
        # Rows of scalars. A row's closing bracket directly before a
        # separator only occurs between two rows.
        o, c = ("{", "}") if dict in kinds else ("[", "]")
        rows = _encoder(level + 2, sort_keys).encode(value)[2:-2]
        rows = rows.replace(c + "," + deeper + o, inner + c + "," + inner + o + deeper)
        return "[" + inner + o + deeper + rows + inner + c + pad + "]"
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else value.items()
        parts = [_key(k) + ": " + _indented(v, level + 1, sort_keys) for k, v in items]
        o, c = "{", "}"
    else:
        parts = [_indented(v, level + 1, sort_keys) for v in value]
        o, c = "[", "]"
    return o + inner + ("," + inner).join(parts) + pad + c


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
