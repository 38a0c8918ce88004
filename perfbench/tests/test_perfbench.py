"""Tests of the benchmark itself: generators, span arithmetic, metric names, a smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = gen.Size(titles=60, pool=150, zipf=0.9, cast_mu=1.3, cast_sigma=0.5, cast_max=8)


def _digests(paths) -> list:
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return out


def test_netflix_generator_same_seed_same_bytes(tmp_path):
    a = gen.netflix_csv(str(tmp_path / "a.csv"), 7, TINY)
    b = gen.netflix_csv(str(tmp_path / "b.csv"), 7, TINY)
    c = gen.netflix_csv(str(tmp_path / "c.csv"), 8, TINY)
    assert _digests([a.files["input"]]) == _digests([b.files["input"]])
    assert _digests([a.files["input"]]) != _digests([c.files["input"]])
    assert a.labels == b.labels
    assert all(np.array_equal(x, y) for x, y in zip(a.casts, b.casts))


def test_imdb_generator_same_seed_same_bytes(tmp_path):
    cats = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        cats.append(gen.imdb_dumps(str(tmp_path / name), seed, TINY))
    keys = ("basics", "principals", "names")
    a, b, c = (_digests([cat.files[k] for k in keys]) for cat in cats)
    assert a == b
    assert a != c


def test_generated_casts_have_distinct_members(tmp_path):
    cat = gen.netflix_csv(str(tmp_path / "a.csv"), 3, TINY)
    assert all(len(set(c.tolist())) == len(c) for c in cat.casts)
    assert len(set(cat.labels)) == len(cat.labels)
    assert cat.island[0] in cat.labels


def test_oracle_counts_on_a_path_graph():
    # Titles {0,1}, {1,2}, {2,3}: a path 0-1-2-3.
    casts = [np.array([0, 1]), np.array([1, 2]), np.array([2, 3])]
    adj = oracle.cograph(casts, 4)
    assert adj.nnz // 2 == 3
    assert oracle.projected_pairs(casts) == 3
    assert oracle.two_hop_candidates(adj) == 2  # (0,2) and (1,3)
    assert oracle.traversed_edges(adj) == 4 * 6
    assert oracle.distance(adj, 0, 3) == 3


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "root", None, "r", 0.0, 10.0),
        Span(1, "a", 0, "r", 1.0, 4.0),
        Span(2, "b", 0, "r", 3.0, 6.0),  # overlaps a: union of children is [1, 6]
        Span(3, "c", 1, "r", 2.0, 3.0),
        Span(4, "d", 0, "r", 9.0, 12.0),  # runs past its parent: only [9, 10] counts
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert covered([(0.0, 1.0), (0.5, 2.0)], 0.0, 10.0) == pytest.approx(2.0)


def test_tracer_links_parents_and_disabled_records_nothing():
    tracer = Tracer("run1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.enabled = False
    with tracer.span("ignored") as sp:
        assert sp is None
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("outer", None, "run1"), ("inner", 0, "run1")]
    assert tracer.spans[0].duration >= tracer.spans[1].duration >= 0


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.DECLARED


@pytest.mark.parametrize("workload", ["netflix_pipeline", "traversal_small", "imdb_large"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "0.04"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_all_runs_every_declared_workload_both_ways():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all", "--seed", "6",
         "--seconds", "0.1", "--scale", "0.04"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    want = {f"{w}.{m}" for w in run.DECLARED for m in list(run.END_TO_END) + list(run.PER_LAYER)}
    assert set(result["metrics"]) == want
    assert proc.stdout.count("self time per pass, by span") == len(run.DECLARED)
