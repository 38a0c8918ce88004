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
    text = json.dumps(_rounded(payload), ensure_ascii=False, indent=2, sort_keys=sort_keys)
    with replacing(path) as fh:
        fh.write(text + "\n")


def write_csv(path: str | os.PathLike, header: list[str], rows: Iterable) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [fmt_score(cell) if isinstance(cell, float) else cell for cell in row] for row in rows
        )
