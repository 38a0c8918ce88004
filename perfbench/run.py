#!/usr/bin/env python3
"""castnet benchmark: timed CLI pipelines on seeded synthetic catalogs.

    python3 perfbench/run.py --workload netflix_pipeline --seed 1 --seconds 30 --trace 0

Run from anywhere inside a castnet checkout; the benchmark runs the package
from the checkout's ``src/``. ``--trace 0`` runs each castnet command as a
subprocess, one at a time, and reports end-to-end metrics. ``--trace 1``
replays the same commands in-process with a span around every call into a
castnet module and reports per-layer metrics. Every line but the last is for
people; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy.sparse import csgraph  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import DECLARED, GROUP_METRICS, WORKLOADS, Command, Context, Workload  # noqa: E402

SETUPS = 3  # set-ups per run; set-up metrics are their median
MIN_PASSES = 2  # analysis passes per run, at least; outputs must match across passes
STARTUP_PROBES = 5  # `castnet --help` launches behind cli.startup_s

# The metrics BENCHMARK.json declares; a run prints exactly these in its JSON line.
END_TO_END = {"setup_s": "s", "analysis_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.read_records_jsonl_s": "s",
    "graph.build_bipartite_s": "s",
    "graph.project_s": "s",
    "graph.project.pairs": "count",
    "graph.project.pairs_per_s": "1/s",
    "graph.project.rss_growth_mb": "MB",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graphio.save_cache_s": "s",
    "graphio.load_cache_s": "s",
    "graphio.cache_bytes": "bytes",
    "graphio.load_cache.mb_per_s": "MB/s",
    "centrality.degree_s": "s",
    "centrality.write_scores_s": "s",
    "centrality.traversed_edges": "count",
    "linkpred.candidates": "count",
    "cli.startup_s": "s",
    "trace.analysis_untraced_s": "s",
    "trace.analysis_traced_s": "s",
    "trace.overhead_pct": "%",
}


class Ops:
    """Commands attempted and failed; a failed output check fails its command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def fail(self, label: str, problem: str) -> None:
        """A failed whole-run check (determinism, oracle) marks a command failed."""
        self.failed += 1
        self.problems.append(f"{label}: {problem}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class Prepared:
    """A generated catalog and what the benchmark predicts castnet makes of it."""

    def __init__(self, wl: Workload, seed: int, work: str):
        self.workload = wl
        self.seed = seed
        inputs = os.path.join(work, "input")
        os.makedirs(inputs)
        if wl.source == "netflix":
            self.catalog = gen.netflix_csv(os.path.join(inputs, "netflix_titles.csv"), seed, wl.size)
        else:
            self.catalog = gen.imdb_dumps(inputs, seed, wl.size)
        self.expect: checks.Expect | None = None

    def analyse(self) -> None:
        """The benchmark's own arithmetic on the catalog; fills ``shape`` and ``expect``."""
        cat = self.catalog
        adj = oracle.cograph(cat.casts, len(cat.labels))
        self.shape = {
            "titles": len(cat.casts),
            "actors": adj.shape[0],
            "edges": adj.nnz // 2,
            "graph.project.pairs": oracle.projected_pairs(cat.casts),
            "linkpred.candidates": oracle.two_hop_candidates(adj),
            "centrality.traversed_edges": oracle.traversed_edges(adj),
        }
        self.path_pairs = self._path_pairs(adj)
        reference = {}
        if self.workload.oracle:
            bc, cc = oracle.networkx_reference(adj)
            reference = {
                "betweenness": dict(zip(cat.labels, bc.tolist())),
                "closeness": dict(zip(cat.labels, cc.tolist())),
            }
        self.expect = checks.Expect(
            nodes=self.shape["actors"],
            edges=self.shape["edges"],
            max_weight=int(adj.data.max()),
            candidates=self.shape["linkpred.candidates"],
            distances={(a, b): d for a, b, d in self.path_pairs},
            reference=reference,
        )

    def _path_pairs(self, adj) -> list:
        """Four pairs inside the largest component, and one that cannot connect."""
        labels = self.catalog.labels
        _, comp = csgraph.connected_components(adj, directed=False)
        big = np.flatnonzero(comp == np.bincount(comp).argmax())
        rng = np.random.default_rng([self.seed, 3])
        ends = rng.choice(big, size=8, replace=False).tolist()
        pairs = list(zip(ends[::2], ends[1::2]))
        pairs.append((labels.index(self.catalog.island[0]), int(big[0])))
        return [(labels[u], labels[v], oracle.distance(adj, u, v)) for u, v in pairs]

    def setup_commands(self, out: str) -> list:
        f = self.catalog.files
        records = ("--records", os.path.join(out, "records.jsonl"))
        if self.workload.source == "netflix":
            ingest = ("ingest", "--source", "netflix", "--input", f["input"])
            build = ("build",) + records
        else:
            ingest = ("ingest", "--source", "imdb", "--kind", "movie", "--basics", f["basics"],
                      "--principals", f["principals"], "--names", f["names"])
            build = ("build",) + records + ("--persons", os.path.join(out, "persons.jsonl"))
        return [Command("setup", ingest + ("--out", out)), Command("setup", build + ("--out", out))]

    def commands(self, setup_dir: str, out: str) -> list:
        ctx = Context(
            graph=os.path.join(setup_dir, "graph.bin"),
            records=os.path.join(setup_dir, "records.jsonl"),
            out=out,
            path_pairs=tuple((a, b) for a, b, _ in self.path_pairs),
        )
        return self.workload.analysis(ctx)

    def load_graph(self, setup_dir: str) -> None:
        """castnet's graph, for recomputing modularity from communities.csv."""
        from castnet import graphio

        self.expect.graph = graphio.load_cache(os.path.join(setup_dir, "graph.bin"))


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _graph_digest(setup_dir: str) -> str:
    with open(os.path.join(setup_dir, "graph.bin"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class PassChecks:
    """Cross-command checks of one invocation: determinism and thread identity."""

    def __init__(self, ops: Ops):
        self.ops = ops
        self.first: list[str] | None = None
        self.current: list[str] = []
        self.by_measure: dict = {}
        self.q: float | None = None

    def start(self) -> None:
        self.current, self.by_measure = [], {}

    def after(self, cmd: Command, rc: int, out: str, expect: checks.Expect) -> None:
        problems, digest = checks.check(cmd.argv, rc, out, expect)
        i = len(self.current)
        if self.first is not None and digest != self.first[i]:
            problems.append("output differs from the first pass")
        if cmd.argv[0] == "centrality" and cmd.argv[1] in ("betweenness", "closeness"):
            if self.by_measure.setdefault(cmd.argv[1], digest) != digest:
                problems.append("output differs between --threads 1 and --threads 2")
        if cmd.argv[0] == "communities" and not problems:
            with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
                self.q = json.load(fh)["q"]
        self.ops.record(" ".join(cmd.argv[:2]), problems)
        self.current.append(digest)

    def finish(self) -> None:
        if self.first is None:
            self.first = self.current


# ---------------------------------------------------------------------------
# Untraced run: castnet subprocesses, timed with wait4 on our own child
# ---------------------------------------------------------------------------


class Child:
    """Wall time, CPU time and peak RSS of one castnet subprocess."""

    def __init__(self, argv: tuple):
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(os.devnull, "wb") as devnull:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "castnet.cli", *argv],
                stdout=devnull, stderr=devnull, env=env, cwd=ROOT,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def untraced(prep: Prepared, seconds: float, work: str, ops: Ops) -> tuple[dict, list, dict]:
    prep.analyse()
    setups, graphs, peak_mb = [], set(), 0.0
    for k in range(SETUPS):
        out = _fresh(os.path.join(work, f"setup{k}"))
        wall = 0.0
        for cmd in prep.setup_commands(out):
            child = Child(cmd.argv)
            ops.record(cmd.argv[0], checks.check(cmd.argv, child.rc, out, prep.expect)[0])
            wall, peak_mb = wall + child.wall, max(peak_mb, child.rss_mb)
        setups.append(wall)
        graphs.add(_graph_digest(out))
    if len(graphs) > 1:
        ops.fail("build", "graph.bin differs between set-ups")
    setup_dir = os.path.join(work, "setup0")
    prep.load_graph(setup_dir)
    out = os.path.join(work, "pass")
    commands = prep.commands(setup_dir, out)

    passes: list[list[Child]] = []
    pc = PassChecks(ops)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _fresh(out)
        pc.start()
        children = []
        for cmd in commands:
            child = Child(cmd.argv)
            pc.after(cmd, child.rc, out, prep.expect)
            children.append(child)
            peak_mb = max(peak_mb, child.rss_mb)
        pc.finish()
        passes.append(children)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - t0) > seconds:
            break

    def median_of(idx: list, attr: str = "wall") -> float:
        """Sum over the commands of each one's median over passes."""
        return sum(statistics.median(getattr(p[i], attr) for p in passes) for i in idx)

    startup = [p[i].wall for p in passes for i, c in enumerate(commands) if c.group == "startup"]
    everything = list(range(len(commands)))
    metrics = {
        "setup_s": statistics.median(setups),
        "analysis_cpu_s": median_of(everything, "cpu"),
        "peak_rss_mb": peak_mb,
    }
    lines = [("set-ups", SETUPS, "runs"), ("passes", len(passes), "runs"),
             ("analysis_s", median_of(everything), "s"),
             ("startup_load_s", statistics.median(startup), f"s (n={len(startup)})")]
    for name, groups in GROUP_METRICS.items():
        idx = [i for i, c in enumerate(commands) if c.group in groups]
        if idx and name not in metrics:
            lines.append((name, median_of(idx), "s"))
    one = [i for i, c in enumerate(commands) if c.group.endswith("_1t")]
    many = [i for i, c in enumerate(commands) if c.group.endswith("_nt")]
    if one and many:
        lines.append(("traversal.thread_speedup", median_of(one) / median_of(many), "x"))
        lines.append(("traversal.nt.cpu_per_wall", median_of(many, "cpu") / median_of(many), "x"))
    if pc.q is not None:
        lines.append(("modularity_q", pc.q, "q"))
    lines.append(("failed_ops_ratio", ops.failed / ops.attempted, "ratio"))
    raw = {
        "setup_s": setups,
        "commands": [" ".join(c.argv[:2]) for c in commands],
        "wall_s": [[c.wall for c in p] for p in passes],
        "cpu_s": [[c.cpu for c in p] for p in passes],
    }
    return metrics, lines, raw


# ---------------------------------------------------------------------------
# Traced run: the same commands in-process, spans around every module call
# ---------------------------------------------------------------------------

# Public functions wrapped in spans, by castnet module. The CLI imports some
# of them by name, so they are wrapped in castnet.cli's namespace as well.
TRACED = {
    "ingest": ("parse_netflix", "parse_imdb", "read_records_jsonl", "write_records_jsonl",
               "read_persons_jsonl", "write_persons_jsonl"),
    "graph": ("build_bipartite", "project"),
    "graphio": ("load_cache", "save_cache", "write_graphml", "write_dot",
                "write_partition_csv", "write_cluster_json", "write_cluster_dot"),
    "stats": ("summarize", "write_summary_json", "write_summary_csvs"),
    "centrality": ("degree_centrality", "betweenness_centrality", "closeness_centrality",
                   "eigenvector_centrality", "write_scores_csv", "write_scores_json"),
    "paths": ("shortest_path", "top_partnerships"),
    "linkpred": ("predict_top",),
    "community": ("louvain", "build_cluster_graph", "filter_interactions",
                  "crossover_scores", "community_evolution"),
}
TRAVERSALS = ("betweenness_centrality", "closeness_centrality")


def _counters(result, kwargs: dict) -> dict:
    """Algorithm counters read off a traced call's arguments and result."""
    out = {}
    if "threads" in kwargs:
        out["threads"] = kwargs["threads"]
    params = getattr(result, "params", None)
    if isinstance(params, dict) and "iterations" in params:
        out["iterations"] = params["iterations"]
    if hasattr(result, "q_history"):
        out.update(passes=result.passes, communities=result.n_communities)
    if hasattr(result, "windows"):
        out["windows"] = len(result.windows)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer, scores: dict):
    """Wrap the ``TRACED`` functions in spans for the duration of the block.

    ``scores`` receives the full-precision result of every betweenness and
    closeness call, keyed by (function, threads), for the oracle checks.
    """
    import castnet.cli as cli

    def wrap(name: str, fn):
        short = name.rsplit(".", 1)[1]

        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
            if sp is not None:
                sp.counters = _counters(result, kwargs)
            if short in TRAVERSALS:
                scores[(short, kwargs.get("threads", 1))] = result.scores
            return result

        return traced

    saved = []
    for module, names in TRACED.items():
        mod = importlib.import_module(f"castnet.{module}")
        for name in names:
            fn = getattr(mod, name)
            wrapped = wrap(f"{module}.{name}", fn)
            for target in (mod, cli):
                if getattr(target, name, None) is fn:
                    saved.append((target, name, fn))
                    setattr(target, name, wrapped)
    try:
        yield
    finally:
        for target, name, fn in saved:
            setattr(target, name, fn)


def _inprocess(tracer: Tracer, argv: tuple) -> int:
    import castnet.cli as cli

    sink = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        return cli.main(list(argv))


def _check_traversals(scores: dict, expect: checks.Expect, labels: list, ops: Ops) -> None:
    """Full-precision scores: within 1e-9 of networkx, identical across threads."""
    by_fn: dict = defaultdict(list)
    for (fn, _threads), got in sorted(scores.items()):
        ref = expect.reference[fn.split("_")[0]]
        err = float(np.max(np.abs(got - np.array([ref[name] for name in labels]))))
        if err > checks.ORACLE_ATOL:
            ops.fail(fn, f"max |castnet - networkx| = {err:.3g}")
        by_fn[fn].append(got)
    for fn, arrays in by_fn.items():
        if any(not np.array_equal(arrays[0], a) for a in arrays[1:]):
            ops.fail(fn, "scores differ between thread counts")


def traced(prep: Prepared, seconds: float, work: str, ops: Ops) -> tuple[Tracer, dict]:
    """Set up and replay the workload in-process; passes alternate spans off and on.

    Returns the tracer and the wall times of the analysis passes without and
    with spans.
    """
    tracer = Tracer("setup0")
    scores: dict = {}
    walls: dict = {False: [], True: []}
    with instrument(tracer, scores):
        for k in range(SETUPS):
            tracer.run = f"setup{k}"
            out = _fresh(os.path.join(work, f"setup{k}"))
            for cmd in prep.setup_commands(out):
                tracer.enabled = True
                rc = _inprocess(tracer, cmd.argv)
                tracer.enabled = False
                if prep.expect is None and cmd.argv[0] == "build":
                    prep.analyse()  # after the first build, so the RSS growth it records is castnet's
                ops.record(cmd.argv[0], checks.check(cmd.argv, rc, out, prep.expect)[0])
        setup_dir = os.path.join(work, "setup0")
        prep.load_graph(setup_dir)
        labels = prep.expect.graph.labels
        out = os.path.join(work, "pass")
        commands = prep.commands(setup_dir, out)
        pc = PassChecks(ops)
        start, k = time.perf_counter(), 0
        while True:
            t0 = time.perf_counter()
            # Alternate which goes first, so warm-up falls on both sides.
            for enabled in ((False, True) if k % 2 == 0 else (True, False)):
                tracer.enabled, tracer.run = enabled, f"pass{k}"
                _fresh(out)
                pc.start()
                a0 = time.perf_counter()
                for cmd in commands:
                    pc.after(cmd, _inprocess(tracer, cmd.argv), out, prep.expect)
                walls[enabled].append(time.perf_counter() - a0)
                pc.finish()
                _check_traversals(scores, prep.expect, labels, ops)
                scores.clear()
            k += 1
            now = time.perf_counter()
            if k >= MIN_PASSES and (now - start) + (now - t0) > seconds:
                break
    return tracer, walls


def layer_metrics(prep: Prepared, tracer: Tracer, walls: dict, work: str) -> tuple[dict, list]:
    spans = tracer.spans
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)
    setup_runs = [f"setup{k}" for k in range(SETUPS)]
    pass_runs = sorted({sp.run for sp in spans if sp.run.startswith("pass")})

    def parent_name(sp) -> str:
        return by_id[sp.parent].name if sp.parent is not None else ""

    def total(runs: list, names: tuple, under: str | None = None) -> float:
        """Median over runs of the summed duration of the named spans."""
        return statistics.median(
            sum(sp.duration for sp in spans
                if sp.run == run and sp.name in names and (under is None or parent_name(sp) == under))
            for run in runs
        )

    def calls(names: tuple, pred=lambda sp: True) -> list:
        return [sp for sp in spans if sp.run in pass_runs and sp.name in names and pred(sp)]

    def per_call(names: tuple, pred=lambda sp: True) -> float:
        return statistics.median(sp.duration for sp in calls(names, pred))

    parse = ("ingest.parse_netflix", "ingest.parse_imdb")
    cache_bytes = os.path.getsize(os.path.join(work, "setup0", "graph.bin"))
    m = {
        "ingest.parse_s": total(setup_runs, parse),
        "ingest.read_records_jsonl_s": total(setup_runs, ("ingest.read_records_jsonl",), "cli.build"),
        "graph.build_bipartite_s": total(setup_runs, ("graph.build_bipartite",)),
        "graph.project_s": total(setup_runs, ("graph.project",)),
        "graph.project.pairs": prep.shape["graph.project.pairs"],
        "graph.project.rss_growth_mb": next(
            sp.rss_growth_kb for sp in spans if sp.name == "graph.project") / 1024.0,
        "graph.nodes": prep.expect.graph.n,
        "graph.edges": prep.expect.graph.edge_count,
        "graphio.save_cache_s": total(setup_runs, ("graphio.save_cache",)),
        "graphio.load_cache_s": per_call(("graphio.load_cache",)),
        "graphio.cache_bytes": cache_bytes,
        "centrality.degree_s": total(pass_runs, ("centrality.degree_centrality",)),
        "centrality.write_scores_s": total(
            pass_runs, ("centrality.write_scores_csv", "centrality.write_scores_json")),
        "centrality.traversed_edges": prep.shape["centrality.traversed_edges"],
        "linkpred.candidates": prep.shape["linkpred.candidates"],
        "cli.startup_s": statistics.median(Child(("--help",)).wall for _ in range(STARTUP_PROBES)),
        "trace.analysis_untraced_s": statistics.median(walls[False]),
        "trace.analysis_traced_s": statistics.median(walls[True]),
    }
    m["ingest.rows_per_s"] = prep.catalog.rows / m["ingest.parse_s"]
    m["graph.project.pairs_per_s"] = m["graph.project.pairs"] / m["graph.project_s"]
    m["graphio.load_cache.mb_per_s"] = cache_bytes / 1e6 / m["graphio.load_cache_s"]
    m["trace.overhead_pct"] = 100.0 * (
        m["trace.analysis_traced_s"] / m["trace.analysis_untraced_s"] - 1.0)

    # Layers only some workloads exercise: printed, not part of the JSON line.
    lines = []
    top = lambda sp: parent_name(sp).startswith("cli.")  # noqa: E731
    for name in ("stats.summarize", "centrality.eigenvector_centrality", "paths.shortest_path",
                 "paths.top_partnerships", "linkpred.predict_top", "community.louvain",
                 "community.build_cluster_graph", "community.crossover_scores",
                 "community.community_evolution", "graphio.write_graphml", "graphio.write_dot"):
        found = calls((name,), top)
        if found:
            lines.append((f"{name}_s", per_call((name,), top), f"s per call, n={len(found)}"))
    eig = calls(("centrality.eigenvector_centrality",))
    if eig:
        it = eig[0].counters["iterations"]
        lines.append(("centrality.eigenvector.iterations", it, "count"))
        lines.append(("centrality.eigenvector.edges_per_s",
                      it * 2 * m["graph.edges"] / per_call(("centrality.eigenvector_centrality",)), "1/s"))
    louv = calls(("community.louvain",), lambda sp: parent_name(sp) == "cli.communities")
    if louv:
        lines.append(("community.louvain.passes", louv[0].counters["passes"], "count"))
        lines.append(("community.louvain.communities", louv[0].counters["communities"], "count"))
    evo = calls(("community.community_evolution",))
    if evo:
        lines.append(("community.evolution.windows", evo[0].counters["windows"], "count"))
    pred = calls(("linkpred.predict_top",))
    if pred:
        lines.append(("linkpred.candidates_per_s",
                      m["linkpred.candidates"] / per_call(("linkpred.predict_top",)), "1/s"))
    def traversal(fn: str, threads: int) -> list:
        return calls((f"centrality.{fn}",), lambda sp: sp.counters.get("threads") == threads)

    wall = {}
    for fn in TRAVERSALS:
        short = fn.split("_")[0]
        for threads, tag in ((1, "1t"), (2, "nt")):
            found = traversal(fn, threads)
            if found:
                wall[tag, short] = statistics.median(sp.duration for sp in found)
                lines.append((f"centrality.{short}_{tag}_s", wall[tag, short], "s"))
        if ("1t", short) in wall:
            lines.append((f"centrality.{short}.teps",
                          m["centrality.traversed_edges"] / wall["1t", short], "1/s"))
    if wall:
        one = sum(v for (tag, _), v in wall.items() if tag == "1t")
        many = sum(v for (tag, _), v in wall.items() if tag == "nt")
        nt = [sp for fn in TRAVERSALS for sp in traversal(fn, 2)]
        lines.append(("centrality.thread_speedup", one / many, "x"))
        lines.append(("centrality.nt.cpu_per_wall",
                      sum(sp.cpu for sp in nt) / sum(sp.duration for sp in nt), "x"))

    # Self time per span name: median over traced passes of the per-pass sum.
    table = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        if sp.run in pass_runs:
            table[sp.name][sp.run] += selfs[sp.id]
    ranked = sorted(((statistics.median(v.get(r, 0.0) for r in pass_runs), n)
                     for n, v in table.items()), reverse=True)
    lines.append(("self time per pass, by span", len(pass_runs), "passes"))
    lines += [(f"  {name}", value, "s self") for value, name in ranked]
    return m, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(wl: Workload, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: prints the human-readable block, returns the result."""
    work = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{seed}-{os.getpid()}")
    ops = Ops()
    results = os.path.join(ROOT, ".perfbench_out")
    stem = os.path.join(results, f"{wl.name}-seed{seed}")
    try:
        prep = Prepared(wl, seed, work)
        if trace:
            tracer, walls = traced(prep, seconds, work, ops)
            metrics, lines = layer_metrics(prep, tracer, walls, work)
            units = PER_LAYER
            os.makedirs(results, exist_ok=True)
            tracer.dump(stem + ".spans.jsonl")
            lines.append(("spans written to", os.path.relpath(stem, ROOT) + ".spans.jsonl", ""))
        else:
            metrics, lines, raw = untraced(prep, seconds, work, ops)
            units = END_TO_END
            os.makedirs(results, exist_ok=True)
            with open(stem + ".samples.json", "w", encoding="utf-8") as fh:
                json.dump(raw, fh, indent=1)
            lines.append(("samples written to", os.path.relpath(stem, ROOT) + ".samples.json", ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}, seed {seed}, {'traced' if trace else 'untraced'}")
    print("shape: " + ", ".join(f"{k}={v}" for k, v in prep.shape.items()))
    for name, unit in units.items():
        print(f"  {name:34s} {_fmt(metrics[name]):>14s} {unit}")
    for name, value, unit in lines:
        print(f"  {name:34s} {_fmt(value):>14s} {unit}")
    for problem in ops.problems:
        print(f"FAILED {problem}")
    print(f"attempted {ops.attempted}, failed {ops.failed}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="'all': every declared workload, untraced and then traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="analysis time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply catalog titles and actor pool (tests use a tiny scale)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "castnet", "cli.py")):
        print(f"perfbench: no castnet sources under {SRC}; run inside a castnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # On SIGTERM, unwind like Ctrl-C: the running child is killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload == "all":
        runs = [(name, trace) for name in DECLARED for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = []
    for name, trace in runs:
        wl = WORKLOADS[name] if args.scale == 1.0 else WORKLOADS[name].scaled(args.scale)
        results.append(measure(wl, args.seed, args.seconds, trace))
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{metric}": v for (name, _), r in zip(runs, results)
                        for metric, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
