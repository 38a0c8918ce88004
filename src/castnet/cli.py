"""Command-line surface: ingest -> build -> analyze -> export.

``main`` frames every command. The parser rejects each usage error before
the output directory is created. ``main`` then reads the command's
``--graph``, or its ``--records`` and ``--persons``, once before the command
runs; a failed read exits 1 with one line. ``main`` hands each command its
``Run``, which names each file the command writes. The command returns its
report's facts (skipped rows, non-convergence, parameters), the ``Run``
writes them with those files' names as ``run_report.json``, and ``main`` maps
the outcome to an exit code.
Diagnostics go to stderr; stdout carries machine-readable data only. Same
inputs + same seed produce byte-identical output trees: no timestamps, fixed
key order, floats at 6 significant digits. ``_write`` writes every file.

Each command imports the modules it uses when it runs, so a process loads
only what its command needs, and ``stats`` and ``ingest`` never load numpy.
"""

from __future__ import annotations

import argparse
import codecs
import json
import math
import os
import sys

from ._options import DEFAULT_MAX_CAST, Method
from ._write import write_csv, write_json
from .errors import CastnetError

DATA_DIR_ENV = "CASTNET_DATA_DIR"

# castnet calls no multi-threaded BLAS routine, so a castnet process should
# not start a BLAS thread pool. ``console_main`` defaults these to 1; a value
# already set wins.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


def _resolve_data_paths(args: argparse.Namespace) -> None:
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        for key in ("input", "basics", "principals", "names", "records", "persons", "graph"):
            value = getattr(args, key, None)
            if value and not os.path.isabs(value) and not os.path.exists(value):
                setattr(args, key, os.path.join(data_dir, value))


class Run:
    """One command's run: its ``--out`` directory and, in the order the
    command names them, the files it writes there."""

    def __init__(self, out: str):
        self.out = out
        self.outputs: list[str] = []  # relative to ``out``, so runs into two dirs match

    def output(self, name: str) -> str:
        """The path of the command's output file ``name``, recorded for the report."""
        self.outputs.append(name)
        return os.path.join(self.out, name)

    def write_report(self, command: str, payload: dict) -> None:
        """``run_report.json``: the command's payload and its ``outputs``."""
        report = {"command": command, **payload, "outputs": self.outputs}
        write_json(os.path.join(self.out, "run_report.json"), report, sort_keys=True)


def _read_inputs(args: argparse.Namespace, settings: set[str]) -> dict:
    """The inputs a command declares, each read once: ``graph``, or ``records`` and ``persons``."""
    inputs = {}
    if "graph" in settings:
        from . import graphio

        inputs["graph"] = graphio.load_cache(args.graph)
    if "records" in settings:
        from . import ingest

        inputs["records"] = ingest.read_records_jsonl(args.records)
        if "persons" in settings:  # display names of the records' person keys
            inputs["persons"] = ingest.read_persons_jsonl(args.persons) if args.persons else None
    return inputs


# ---------------------------------------------------------------------------
# Commands: each writes the files ``run`` names and returns its report's facts
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, run: Run) -> dict:
    from .ingest import (
        TitleKind,
        parse_imdb,
        parse_netflix,
        write_persons_jsonl,
        write_records_jsonl,
    )

    kinds = {TitleKind(args.kind)} if args.kind else None
    records_path = run.output("records.jsonl")  # listed first, though written last
    if args.source == "netflix":
        result = parse_netflix(args.input, kinds)
    else:
        result = parse_imdb(args.basics, args.principals, args.names, kinds)
        write_persons_jsonl(run.output("persons.jsonl"), result.persons)
    records, report = result.records, result.report
    write_records_jsonl(records_path, records)
    print(f"ingest: {len(records)} records, {len(report.skipped)} skipped", file=sys.stderr)
    return {
        "source": args.source,
        "rows": report.rows,
        "records": len(records),
        "skipped": [{"line": ev.line, "reason": ev.reason} for ev in report.skipped],
        "counters": dict(sorted(report.counters.items())),
    }


def cmd_build(args: argparse.Namespace, run: Run, records, persons) -> dict:
    from .graph import build_bipartite
    from .graphio import save_cache
    from .ingest import TitleKind

    graph, oversize = build_bipartite(
        records,
        kind=TitleKind(args.kind) if args.kind else None,
        year_min=args.year_min,
        year_max=args.year_max,
        min_cast=args.min_cast,
        max_cast=args.max_cast,
        names=persons,
    )
    save_cache(run.output("graph.bin"), graph)
    print(
        f"build: {graph.n} actors, {graph.edge_count} edges "
        f"({oversize} oversize titles rejected)",
        file=sys.stderr,
    )
    return {
        "titles": len(graph.title_names),
        "persons": graph.n,
        "edges": graph.edge_count,
        "total_edge_weight": graph.total_edge_weight,
        "oversize_titles_rejected": oversize,
    }


def cmd_stats(args: argparse.Namespace, run: Run, records, persons) -> dict:
    from .stats import summarize, write_summary_csvs, write_summary_json

    summary = summarize(records, top_k=args.top, names=persons)
    write_summary_json(run.output("summary.json"), summary)
    write_summary_csvs(run.output, summary)
    return {}


def cmd_centrality(args: argparse.Namespace, run: Run, graph) -> dict:
    from . import centrality

    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(args.threads or cores, cores)  # 0 = all cores, and never more
    if args.measure == "degree":
        table = centrality.degree_centrality(graph)
    elif args.measure == "betweenness":
        table = centrality.betweenness_centrality(graph, threads=threads)
    elif args.measure == "closeness":
        table = centrality.closeness_centrality(graph, threads=threads)
    else:
        table = centrality.eigenvector_centrality(graph)
    name = f"centrality_{args.measure}"
    centrality.write_scores_csv(run.output(f"{name}.csv"), table.ranked(graph.labels))
    centrality.write_scores_json(run.output(f"{name}.json"), args.measure, table.params)
    events = []
    if table.params.get("converged") is False:
        events.append({"type": "no_convergence", "detail": "max_iter reached"})
    return {"measure": args.measure, "params": table.params, "events": events}


def cmd_path(args: argparse.Namespace, run: Run, graph) -> dict:
    from .paths import path_to_dict, render_path, shortest_path

    result = shortest_path(graph, args.a, args.b)
    print(render_path(result))
    write_json(run.output("path.json"), path_to_dict(result))
    return {"a": args.a, "b": args.b}


def cmd_partners(args: argparse.Namespace, run: Run, graph) -> dict:
    from .paths import top_partnerships

    rows = top_partnerships(graph, args.top)
    write_csv(run.output("partners.csv"), ["actor_a", "actor_b", "shared_titles"], rows)
    return {"top": args.top}


def cmd_predict(args: argparse.Namespace, run: Run, graph) -> dict:
    from .linkpred import predict_top

    scores = predict_top(graph, args.method, args.top, min_common=args.min_common, cap=args.cap)
    rows = [(ps.u, ps.v, args.method, ps.score) for ps in scores]
    write_csv(run.output("predictions.csv"), ["actor_a", "actor_b", "method", "score"], rows)
    flags = {"method": args.method, "top": args.top, "min_common": args.min_common}
    write_json(run.output("predictions.json"), flags)
    return flags


def cmd_communities(args: argparse.Namespace, run: Run, graph) -> dict:
    from .community import louvain
    from .graphio import write_partition_csv

    part = louvain(graph, seed=args.seed, resolution=args.resolution)
    write_partition_csv(run.output("communities.csv"), graph.labels, part)
    print(f"communities: {part.n_communities} (q={part.q:.4f})", file=sys.stderr)
    return {
        "seed": args.seed,
        "resolution": args.resolution,
        "q": part.q,
        "passes": part.passes,
        "communities": part.n_communities,
    }


def cmd_clusters(args: argparse.Namespace, run: Run, graph) -> dict:
    from .community import build_cluster_graph, filter_interactions, louvain
    from .graphio import write_cluster_dot, write_cluster_json

    part = louvain(graph, seed=args.seed)
    cg = build_cluster_graph(graph, part, overrides=args.labels)
    cg = filter_interactions(cg, args.tau)
    write_cluster_json(run.output("clusters.json"), cg)
    write_cluster_dot(run.output("clusters.dot"), cg)
    return {"seed": args.seed, "tau": args.tau,
            "clusters": len(cg.clusters), "links": len(cg.links)}


def cmd_crossover(args: argparse.Namespace, run: Run, graph) -> dict:
    from .centrality import write_scores_csv
    from .community import crossover_scores, louvain

    scores = crossover_scores(graph, louvain(graph, seed=args.seed))
    write_scores_csv(run.output("crossover.csv"), scores.ranked(graph.labels))
    return {"seed": args.seed}


def cmd_evolve(args: argparse.Namespace, run: Run, records, persons) -> dict:
    from .community import community_evolution
    from .graph import build_bipartite

    graph = build_bipartite(records, names=persons)[0]
    timeline = community_evolution(graph, args.window, args.step, args.seed)
    evolution = {
        "windows": [
            {
                "years": list(w.years),
                "actors": len(w.actors),
                "communities": (
                    [sorted(graph.labels[w.actors[v]] for v in group)
                     for group in w.partition.members()]
                    if w.partition
                    else []
                ),
                "q": w.partition.q if w.partition else None,
            }
            for w in timeline.windows
        ],
        "matches": [
            {
                str(old): {
                    "new": match.new_cid,
                    "overlap": match.overlap,
                }
                for old, match in sorted(step.items())
            }
            for step in timeline.matches
        ],
    }
    write_json(run.output("evolution.json"), evolution)
    return {"window": args.window, "step": args.step, "seed": args.seed}


def cmd_export(args: argparse.Namespace, run: Run, graph) -> dict:
    from .graphio import write_dot, write_graphml

    write = write_dot if args.format == "dot" else write_graphml
    write(run.output(f"graph.{args.format}"), graph)
    return {"format": args.format}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one stderr line (exit 2), no usage dump."""

    settings_of: dict[str, set[str]]  # command -> the ``SETTINGS`` keys it reads

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _checked(convert, expected: str, ok):
    """An argparse ``type``: ``convert(text)``, rejected unless ``ok`` accepts it."""

    def parse(text: str):
        try:
            value = convert(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_path = _checked(str, "a path without NUL", lambda v: "\0" not in v)  # open() refuses NUL
_thread_count = _checked(int, "an integer >= 0 (0 = all cores)", lambda v: v >= 0)
_positive_int = _checked(int, "an integer >= 1", lambda v: v >= 1)
_count = _checked(int, "an integer >= 0", lambda v: v >= 0)
_tau = _checked(float, "a number in (0, 1]", lambda v: 0 < v <= 1)
_resolution = _checked(float, "a finite number > 0", lambda v: 0 < v < math.inf)


def _label_overrides(path: str) -> dict[int, str]:
    """``--labels``: a JSON file holding an object of community id -> label."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            labels = {int(k): v for k, v in json.load(fh).items()}
        if all(isinstance(v, str) for v in labels.values()):
            "".join(labels.values()).encode("utf-8")  # a lone surrogate escape raises
            return labels
    except (OSError, ValueError, AttributeError):
        pass
    raise argparse.ArgumentTypeError(f"{path!r} is not a JSON object of id -> label")


# The settings a config file may hold, each declared once as the keywords of
# its flag: key ``year_min`` is flag ``--year-min``. A command declares the
# flags of the keys it reads, and ``main`` passes a config file to the parser
# as those flags, so a value is checked the same wherever it comes from.
SETTINGS: dict[str, dict] = {
    "source": {"choices": ["netflix", "imdb"], "default": "netflix"},
    "input": {"type": _path, "help": "netflix_titles.csv (source=netflix)"},
    "basics": {"type": _path, "help": "title.basics.tsv[.gz] (source=imdb)"},
    "principals": {"type": _path, "help": "title.principals.tsv[.gz] (source=imdb)"},
    "names": {"type": _path, "help": "name.basics.tsv[.gz] (source=imdb)"},
    "records": {"type": _path, "required": True, "help": "records.jsonl from ingest"},
    "persons": {"type": _path, "help": "persons.jsonl (IMDb display names)"},
    "graph": {"type": _path, "required": True, "help": "graph.bin from build"},
    "out": {"type": _path, "default": "out", "help": "output directory (default: out)"},
    "seed": {"type": int, "default": 42, "help": "RNG seed (default: 42)"},
    "threads": {"type": _thread_count, "default": 1,
                "help": "worker threads, 0 = auto (default: 1)"},
    "format": {"choices": ["dot", "graphml"], "required": True},
    "kind": {"choices": ["movie", "tv_show"]},
    "year_min": {"type": int},
    "year_max": {"type": int},
    "min_cast": {"type": _count, "default": 0},
    "max_cast": {"type": _positive_int, "default": DEFAULT_MAX_CAST},
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="castnet",
        description="Actor collaboration network analytics over movie/OTT catalogs.",
    )
    parser.settings_of = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *settings: str) -> argparse.ArgumentParser:
        """A subcommand that reads ``--config``, ``--out`` and ``settings``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file")
        for key in ("out", *settings):
            p.add_argument(_flag(key), **SETTINGS[key])
        parser.settings_of[name] = {"out", *settings}
        p.set_defaults(func=func)
        return p

    command("ingest", cmd_ingest, "parse a raw catalog into records.jsonl",
            "source", "input", "basics", "principals", "names", "kind")

    command("build", cmd_build, "build the co-appearance graph cache",
            "records", "persons", "kind", "year_min", "year_max", "min_cast", "max_cast")

    p = command("stats", cmd_stats, "catalog summary and per-figure CSVs", "records", "persons")
    p.add_argument("--top", type=_positive_int, default=5)

    p = command("centrality", cmd_centrality, "compute one centrality measure",
                "graph", "threads")
    p.add_argument("measure", choices=["degree", "betweenness", "closeness", "eigenvector"])

    p = command("path", cmd_path, "shortest collaboration path between two actors", "graph")
    p.add_argument("a")
    p.add_argument("b")

    p = command("partners", cmd_partners, "top co-acting partnerships by shared titles",
                "graph")
    p.add_argument("--top", type=_positive_int, required=True)

    p = command("predict", cmd_predict, "rank candidate future collaborations", "graph")
    p.add_argument("method", choices=[m.value for m in Method])
    p.add_argument("--top", type=_positive_int, required=True)
    p.add_argument("--min-common", dest="min_common", type=_count, default=1)
    p.add_argument("--cap", type=_positive_int,
                   help="fail when more candidate pairs than this are found (default: no cap)")

    p = command("communities", cmd_communities, "Louvain community detection", "graph", "seed")
    p.add_argument("--resolution", type=_resolution, default=1.0)

    p = command("clusters", cmd_clusters, "threshold-filtered cluster meta-graph",
                "graph", "seed")
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--labels", type=_label_overrides, help="JSON file: community id -> label")

    command("crossover", cmd_crossover, "participation scores across communities",
            "graph", "seed")

    p = command("evolve", cmd_evolve, "temporal community evolution",
                "records", "persons", "seed")
    p.add_argument("--window", type=_positive_int, required=True)
    p.add_argument("--step", type=_positive_int, required=True)

    command("export", cmd_export, "export the graph as DOT or GraphML", "graph", "format")

    return parser


def _check_flag_pairs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Rejects flag values that are only invalid together, like a bad single flag."""
    if args.command == "ingest":
        inputs = ("input",) if args.source == "netflix" else ("basics", "principals", "names")
        missing = [_flag(key) for key in inputs if not getattr(args, key)]
        if missing:
            parser.error(f"the following arguments are required with --source {args.source}: "
                         + ", ".join(missing))
    if args.command == "evolve" and args.window < args.step:
        parser.error(f"argument --window: expected >= --step ({args.step}), got {args.window}")
    if (args.command == "predict" and args.min_common == 0
            and args.method != Method.PREFERENTIAL_ATTACHMENT.value):
        parser.error("argument --min-common: 0 needs preferential_attachment")
    if args.command == "build":
        for low, high in (("min_cast", "max_cast"), ("year_min", "year_max")):
            lo, hi = getattr(args, low), getattr(args, high)
            if lo is not None and hi is not None and lo > hi:
                parser.error(f"argument {_flag(low)}: expected <= {_flag(high)} ({hi}), got {lo}")


def load_config_file(parser: argparse.ArgumentParser, path: str, settings: set[str]) -> list[str]:
    """A ``key = value`` config file (# comments) as ``--key=value`` flags.

    One leading UTF-8 BOM is dropped, as in every data file castnet reads.
    Every key must be one of ``SETTINGS``; any other key, a line without
    ``=``, a line that is not UTF-8, or a file that cannot be read, is a
    ``parser`` error. Keys outside ``settings``, the ones the command does
    not read, are skipped.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        parser.error(f"{path}: cannot read config file: {exc.strerror}")
    flags = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            parser.error(f"{path}:{lineno}: not UTF-8 text")
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        if key in settings:
            flags.append(f"{_flag(key)}={value.strip()}")
    return flags


def _config_flags(parser: _Parser, argv: list[str]) -> list[str]:
    """The settings of the command's ``--config`` file as flags, if it has one."""
    settings = parser.settings_of.get(argv[0]) if argv else None
    if settings is None:
        return []
    pre = _Parser(prog=f"{parser.prog} {argv[0]}", add_help=False)
    pre.add_argument("--config", type=_checked(str, "a file path", lambda v: v and "\0" not in v))
    path = pre.parse_known_args(argv[1:])[0].config
    return load_config_file(pre, path, settings) if path is not None else []


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        # argparse keeps the last value of a flag, so flags on the command
        # line, which follow the config file's, win.
        args = parser.parse_args(argv[:1] + _config_flags(parser, argv) + argv[1:])
        _check_flag_pairs(parser, args)
        _resolve_data_paths(args)
        os.makedirs(args.out, exist_ok=True)
        run = Run(args.out)
        inputs = _read_inputs(args, parser.settings_of[args.command])
        run.write_report(args.command, args.func(args, run, **inputs))
    except SystemExit as exc:  # a usage error (2), before --out exists, or --help (0)
        return exc.code
    except (OSError, CastnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


def console_main() -> int:
    """The ``castnet`` program and ``python -m castnet.cli``: ``main`` in a
    process that starts no BLAS thread pool when a command loads numpy."""
    for var in BLAS_THREAD_ENV:
        os.environ.setdefault(var, "1")
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
