"""Output checks for one castnet command, and the digest of what it wrote.

A command passes when it exits 0, its ``run_report.json`` and every file the
report lists parse, and the command-specific checks below hold against the
benchmark's own arithmetic (``Expect``). Every problem is returned as a
string; the caller counts a command with any problem as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

# castnet writes scores with 6 significant digits: allow half a unit in the
# 6th digit against a full-precision reference, plus float noise.
OUTPUT_RTOL = 5.01e-6
ORACLE_ATOL = 1e-9


@dataclass
class Expect:
    """What the benchmark predicts for the catalog it generated."""

    nodes: int
    edges: int
    max_weight: int
    candidates: int
    distances: dict  # (a, b) -> hop count, -1 when unreachable
    reference: dict = field(default_factory=dict)  # measure -> {label: score}
    graph: object = None  # castnet CoGraph, for the modularity recomputation


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _parse(path: str) -> None:
    ext = os.path.splitext(path)[1]
    if ext == ".json":
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    elif ext == ".jsonl":
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                json.loads(line)
    elif ext == ".csv":
        _read_csv(path)
    elif ext == ".graphml":
        ET.parse(path)
    elif ext == ".dot":
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if not text.startswith("graph ") or not text.rstrip().endswith("}"):
            raise ValueError("not a DOT graph")
    elif ext == ".bin":
        from castnet import graphio
        from castnet.errors import CastnetError

        try:
            graphio.load_cache(path)
        except CastnetError as exc:
            raise ValueError(str(exc)) from None
    else:
        raise ValueError(f"unknown output type {ext}")


def _scores(path: str) -> dict:
    rows = _read_csv(path)
    return {name: float(score) for name, score in rows[1:]}


def _check_scores(path: str, expect: Expect, problems: list) -> dict:
    scores = _scores(path)
    if len(scores) != expect.nodes:
        problems.append(f"{os.path.basename(path)}: {len(scores)} rows, want {expect.nodes}")
    bad = [s for s in scores.values() if not (math.isfinite(s) and s >= 0)]
    if bad:
        problems.append(f"{os.path.basename(path)}: {len(bad)} scores not finite and >= 0")
    return scores


def _check_reference(measure: str, scores: dict, expect: Expect, problems: list) -> None:
    ref = expect.reference.get(measure)
    if ref is None:
        return
    worst = max(
        (abs(scores.get(name, math.inf) - want) - OUTPUT_RTOL * abs(want) for name, want in ref.items()),
        default=0.0,
    )
    if worst > ORACLE_ATOL:
        problems.append(f"{measure}: differs from networkx by {worst:.3g} beyond output precision")


def _check_modularity(out: str, report: dict, expect: Expect, problems: list) -> None:
    from castnet import modularity

    g = expect.graph
    cid = {name: int(c) for name, c in _read_csv(os.path.join(out, "communities.csv"))[1:]}
    if len(cid) != g.n:
        problems.append(f"communities.csv: {len(cid)} rows, want {g.n}")
        return
    q = modularity(g, [cid[name] for name in g.labels])
    if abs(q - report["q"]) > 1e-6 * max(1.0, abs(q)):
        problems.append(f"communities: reported q {report['q']} != recomputed {q:.6g}")


def check(argv: tuple, rc: int, out: str, expect: Expect) -> tuple[list, str]:
    """Problems found in what ``castnet *argv`` wrote to ``out``, and its digest."""
    if rc != 0:
        return [f"exit code {rc}"], ""
    problems: list = []
    digest = hashlib.sha256()
    report_path = os.path.join(out, "run_report.json")
    try:
        with open(report_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"run_report.json: {exc}"], ""
    digest.update(raw)
    if report.get("command") != argv[0]:
        problems.append(f"run_report.json is for {report.get('command')!r}")
    outputs = [os.path.join(out, p) for p in report.get("outputs", [])]
    for path in outputs:
        try:
            _parse(path)
            with open(path, "rb") as fh:
                digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
        except (OSError, ValueError, ET.ParseError, csv.Error) as exc:
            problems.append(f"{os.path.basename(path)}: {exc}")
    if problems:
        return problems, digest.hexdigest()

    cmd = argv[0]
    if cmd == "build":
        if (report["persons"], report["edges"]) != (expect.nodes, expect.edges):
            problems.append(
                f"build: {report['persons']} nodes / {report['edges']} edges, "
                f"want {expect.nodes} / {expect.edges}"
            )
    elif cmd == "centrality":
        measure = argv[1]
        scores = _check_scores(os.path.join(out, f"centrality_{measure}.csv"), expect, problems)
        _check_reference(measure, scores, expect, problems)
    elif cmd == "crossover":
        _check_scores(os.path.join(out, "crossover.csv"), expect, problems)
    elif cmd == "communities":
        _check_modularity(out, report, expect, problems)
    elif cmd == "path":
        with open(os.path.join(out, "path.json"), encoding="utf-8") as fh:
            got = json.load(fh)
        want = expect.distances[(argv[1], argv[2])]
        length = got.get("length", -1) if got["reachable"] else -1
        if length != want:
            problems.append(f"path {argv[1]} -> {argv[2]}: length {length}, want {want}")
    elif cmd == "partners":
        rows = _read_csv(os.path.join(out, "partners.csv"))[1:]
        if not rows or int(rows[0][2]) != expect.max_weight:
            problems.append(f"partners: top weight is not the heaviest edge ({expect.max_weight})")
    elif cmd == "predict":
        rows = _read_csv(os.path.join(out, "predictions.csv"))[1:]
        top = int(argv[argv.index("--top") + 1])
        if len(rows) != min(top, expect.candidates):
            problems.append(f"predict: {len(rows)} rows, want {min(top, expect.candidates)}")
        scores = np.array([float(r[3]) for r in rows])
        if np.any(scores < 0) or np.any(scores > 1) or np.any(np.diff(scores) > 0):
            problems.append("predict: jaccard scores not descending within [0, 1]")
    return problems, digest.hexdigest()
