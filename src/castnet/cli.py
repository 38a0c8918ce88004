"""Command-line surface: ingest -> build -> analyze -> export.

Every command reads/writes files under an output directory and emits a
structured ``run_report.json`` (skipped rows, non-convergence, parameters).
Diagnostics go to stderr; stdout carries machine-readable data only. Same
inputs + same seed produce byte-identical output trees: no timestamps, fixed
key order, floats at 6 significant digits. ``_write`` writes every file.

Each command imports the modules it uses when it runs, so a process loads
only what its command needs, and ``stats`` and ``ingest`` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from ._options import DEFAULT_CANDIDATE_CAP, DEFAULT_MAX_CAST, Method
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


@dataclass
class RunConfig:
    """Effective settings: defaults < config file < command-line flags."""

    source: str = "netflix"
    input: str | None = None
    basics: str | None = None
    principals: str | None = None
    names: str | None = None
    records: str | None = None
    persons: str | None = None
    graph: str | None = None
    out: str = "out"
    seed: int = 42
    threads: int = 1
    format: str = "csv"
    kind: str | None = None
    year_min: int | None = None
    year_max: int | None = None
    min_cast: int = 0
    max_cast: int = DEFAULT_MAX_CAST

    _INT_FIELDS = {"seed", "threads", "year_min", "year_max", "min_cast", "max_cast"}


class UsageError(Exception):
    pass


def load_config_file(path: str) -> dict:
    """Parse the simple ``key = value`` config format (# comments)."""
    known = {f.name for f in fields(RunConfig) if not f.name.startswith("_")}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in RunConfig._INT_FIELDS:
                try:
                    out[key] = int(value)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: {key} must be an integer") from None
                if key == "threads" and out[key] < 0:
                    raise UsageError(f"{path}:{lineno}: threads must be >= 0 (0 = all cores)")
            else:
                out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        if f.name.startswith("_"):
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        for key in ("input", "basics", "principals", "names", "records", "persons", "graph"):
            value = getattr(cfg, key)
            if value and not os.path.isabs(value) and not os.path.exists(value):
                setattr(cfg, key, os.path.join(data_dir, value))
    return cfg


def _build_filters(cfg: RunConfig) -> dict:
    from .ingest import TitleKind

    filters: dict = {"min_cast": cfg.min_cast, "max_cast": cfg.max_cast}
    if cfg.kind:
        try:
            filters["kind"] = TitleKind(cfg.kind)
        except ValueError:
            raise UsageError(f"unknown kind {cfg.kind!r} (movie or tv_show)") from None
    if cfg.year_min is not None or cfg.year_max is not None:
        filters["year_range"] = (cfg.year_min, cfg.year_max)
    return filters


def _write_report(cfg: RunConfig, command: str, payload: dict) -> None:
    report = {"command": command, **payload}
    if "outputs" in report:
        # Relative to the output dir so identical runs into different
        # directories still produce byte-identical trees.
        report["outputs"] = [os.path.relpath(p, cfg.out) for p in report["outputs"]]
    write_json(os.path.join(cfg.out, "run_report.json"), report, sort_keys=True)


def _require(cfg: RunConfig, attr: str, flag: str) -> str:
    value = getattr(cfg, attr)
    if not value:
        raise UsageError(f"missing {flag} (flag or config key '{attr}')")
    return value


def _load_records(cfg: RunConfig):
    from .ingest import read_records_jsonl

    return read_records_jsonl(_require(cfg, "records", "--records"))


def _load_names(cfg: RunConfig) -> dict[str, str] | None:
    """Person key -> display name from ``--persons``, if given."""
    if not cfg.persons:
        return None
    from .ingest import person_name_map, read_persons_jsonl

    return person_name_map(read_persons_jsonl(cfg.persons))


def _load_graph(cfg: RunConfig):
    from .graphio import load_cache

    return load_cache(_require(cfg, "graph", "--graph"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .ingest import (
        TitleKind,
        parse_imdb,
        parse_netflix,
        write_persons_jsonl,
        write_records_jsonl,
    )

    records_path = os.path.join(cfg.out, "records.jsonl")
    if cfg.source == "netflix":
        result = parse_netflix(_require(cfg, "input", "--input"))
        records, report = result.records, result.report
        persons_path = None
    elif cfg.source == "imdb":
        kinds = {TitleKind(cfg.kind)} if cfg.kind else None
        result = parse_imdb(
            _require(cfg, "basics", "--basics"),
            _require(cfg, "principals", "--principals"),
            _require(cfg, "names", "--names"),
            kinds,
        )
        records, report = result.titles, result.report
        persons_path = os.path.join(cfg.out, "persons.jsonl")
        write_persons_jsonl(persons_path, result.persons)
    else:
        raise UsageError(f"unknown source {cfg.source!r} (netflix or imdb)")
    write_records_jsonl(records_path, records)
    _write_report(
        cfg,
        "ingest",
        {
            "source": cfg.source,
            "rows": report.rows,
            "records": len(records),
            "skipped": [
                {"line": ev.line, "reason": ev.reason} for ev in report.skipped
            ],
            "counters": dict(sorted(report.counters.items())),
            "outputs": [p for p in (records_path, persons_path) if p],
        },
    )
    print(f"ingest: {len(records)} records, {len(report.skipped)} skipped", file=sys.stderr)
    return EXIT_OK


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .graph import build_bipartite, project
    from .graphio import save_cache

    records = _load_records(cfg)
    store = build_bipartite(records, names=_load_names(cfg), **_build_filters(cfg))
    graph = project(store)
    cache_path = os.path.join(cfg.out, "graph.bin")
    save_cache(cache_path, graph)
    _write_report(
        cfg,
        "build",
        {
            "titles": store.n_titles,
            "persons": store.n_persons,
            "edges": graph.edge_count,
            "total_edge_weight": graph.total_edge_weight,
            "oversize_titles_rejected": store.oversize_titles,
            "outputs": [cache_path],
        },
    )
    print(
        f"build: {graph.n} actors, {graph.edge_count} edges "
        f"({store.oversize_titles} oversize titles rejected)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_stats(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .stats import summarize, write_summary_csvs, write_summary_json

    summary = summarize(_load_records(cfg), top_k=args.top)
    json_path = os.path.join(cfg.out, "summary.json")
    write_summary_json(json_path, summary)
    csvs = write_summary_csvs(cfg.out, summary)
    _write_report(cfg, "stats", {"outputs": [json_path] + csvs})
    return EXIT_OK


def cmd_centrality(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import centrality

    g = _load_graph(cfg)
    threads = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    if args.measure == "degree":
        table = centrality.degree_centrality(g)
    elif args.measure == "betweenness":
        table = centrality.betweenness_centrality(g, threads=threads)
    elif args.measure == "closeness":
        table = centrality.closeness_centrality(g, threads=threads)
    else:
        table = centrality.eigenvector_centrality(g)
    csv_path = os.path.join(cfg.out, f"centrality_{args.measure}.csv")
    json_path = os.path.join(cfg.out, f"centrality_{args.measure}.json")
    centrality.write_scores_csv(csv_path, g, table)
    centrality.write_scores_json(json_path, g, table)
    events = []
    if table.params.get("converged") is False:
        events.append({"type": "no_convergence", "detail": "max_iter reached"})
    _write_report(
        cfg,
        "centrality",
        {
            "measure": args.measure,
            "params": table.params,
            "events": events,
            "outputs": [csv_path, json_path],
        },
    )
    return EXIT_OK


def cmd_path(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .errors import UnknownActorError
    from .paths import path_to_dict, render_path, shortest_path

    g = _load_graph(cfg)
    try:
        result = shortest_path(g, args.a, args.b)
    except UnknownActorError as exc:
        # Colliding display names carry a "[key]" suffix; suggest them.
        prefix = f"{exc.name} ["
        suggestions = [lbl for lbl in g.labels if lbl.startswith(prefix)]
        if suggestions:
            raise UnknownActorError(
                f"{exc.name} is ambiguous; use one of: {', '.join(sorted(suggestions))}"
            ) from None
        raise
    print(render_path(result))
    json_path = os.path.join(cfg.out, "path.json")
    write_json(json_path, path_to_dict(result))
    _write_report(cfg, "path", {"a": args.a, "b": args.b, "outputs": [json_path]})
    return EXIT_OK


def cmd_partners(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .paths import top_partnerships

    g = _load_graph(cfg)
    rows = top_partnerships(g, args.top)
    out_path = os.path.join(cfg.out, "partners.csv")
    write_csv(out_path, ["actor_a", "actor_b", "shared_titles"], rows)
    _write_report(cfg, "partners", {"top": args.top, "outputs": [out_path]})
    return EXIT_OK


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .linkpred import predict_top

    g = _load_graph(cfg)
    method = Method(args.method)
    scores = predict_top(
        g,
        method,
        args.top,
        min_common=args.min_common,
        allow_zero_common=args.allow_zero_common,
        cap=args.cap,
    )
    out_path = os.path.join(cfg.out, "predictions.csv")
    rows = [(ps.u, ps.v, ps.method.value, ps.score) for ps in scores]
    write_csv(out_path, ["actor_a", "actor_b", "method", "score"], rows)
    json_path = os.path.join(cfg.out, "predictions.json")
    write_json(json_path, [{"u": u, "v": v, "method": m, "score": s} for u, v, m, s in rows])
    _write_report(
        cfg,
        "predict",
        {"method": method.value, "top": args.top, "min_common": args.min_common,
         "outputs": [out_path, json_path]},
    )
    return EXIT_OK


def cmd_communities(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .community import louvain
    from .graphio import write_partition_csv

    g = _load_graph(cfg)
    part = louvain(g, seed=cfg.seed, resolution=args.resolution)
    out_path = os.path.join(cfg.out, "communities.csv")
    write_partition_csv(out_path, g.labels, part)
    _write_report(
        cfg,
        "communities",
        {
            "seed": cfg.seed,
            "resolution": args.resolution,
            "q": part.q,
            "passes": part.passes,
            "communities": part.n_communities,
            "outputs": [out_path],
        },
    )
    print(f"communities: {part.n_communities} (q={part.q:.4f})", file=sys.stderr)
    return EXIT_OK


def cmd_clusters(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .community import build_cluster_graph, filter_interactions, louvain
    from .graphio import write_cluster_dot, write_cluster_json

    g = _load_graph(cfg)
    part = louvain(g, seed=cfg.seed)
    cg = build_cluster_graph(g, part, overrides=args.labels)
    cg = filter_interactions(cg, args.tau)
    json_path = os.path.join(cfg.out, "clusters.json")
    dot_path = os.path.join(cfg.out, "clusters.dot")
    write_cluster_json(json_path, cg)
    write_cluster_dot(dot_path, cg)
    _write_report(
        cfg,
        "clusters",
        {
            "seed": cfg.seed,
            "tau": args.tau,
            "clusters": len(cg.clusters),
            "links": len(cg.links),
            "outputs": [json_path, dot_path],
        },
    )
    return EXIT_OK


def cmd_crossover(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .centrality import write_scores_csv
    from .community import crossover_scores, louvain

    g = _load_graph(cfg)
    part = louvain(g, seed=cfg.seed)
    table = crossover_scores(g, part)
    out_path = os.path.join(cfg.out, "crossover.csv")
    write_scores_csv(out_path, g, table)
    _write_report(cfg, "crossover", {"seed": cfg.seed, "outputs": [out_path]})
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .community import community_evolution

    records = _load_records(cfg)
    names = _load_names(cfg)
    timeline = community_evolution(records, args.window, args.step, cfg.seed, names=names)
    payload = {
        "windows": [
            {
                "years": list(w.years),
                "actors": len(w.names),
                "communities": (
                    [sorted(w.names[v] for v in group) for group in w.partition.members()]
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
    out_path = os.path.join(cfg.out, "evolution.json")
    write_json(out_path, payload)
    _write_report(
        cfg,
        "evolve",
        {"window": args.window, "step": args.step, "seed": cfg.seed, "outputs": [out_path]},
    )
    return EXIT_OK


def cmd_export(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .graphio import write_dot, write_graphml

    g = _load_graph(cfg)
    fmt = args.format or cfg.format
    if fmt == "dot":
        out_path = os.path.join(cfg.out, "graph.dot")
        write_dot(out_path, g)
    elif fmt == "graphml":
        out_path = os.path.join(cfg.out, "graph.graphml")
        write_graphml(out_path, g)
    else:
        raise UsageError(f"unknown export format {fmt!r} (dot or graphml)")
    _write_report(cfg, "export", {"format": fmt, "outputs": [out_path]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one stderr line (exit 2), no usage dump."""

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


_thread_count = _checked(int, "an integer >= 0 (0 = all cores)", lambda v: v >= 0)
_positive_int = _checked(int, "an integer >= 1", lambda v: v >= 1)
_count = _checked(int, "an integer >= 0", lambda v: v >= 0)
_tau = _checked(float, "a number in (0, 1]", lambda v: 0 < v <= 1)
_resolution = _checked(float, "a finite number > 0", lambda v: 0 < v < math.inf)


def _label_overrides(path: str) -> dict[int, str]:
    """``--labels``: a JSON file holding an object of community id -> label."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return {int(k): str(v) for k, v in json.load(fh).items()}
    except (OSError, ValueError, AttributeError):
        raise argparse.ArgumentTypeError(f"{path!r} is not a JSON object of id -> label") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="castnet",
        description="Actor collaboration network analytics over movie/OTT catalogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="RNG seed (default: 42)")
        p.add_argument("--threads", type=_thread_count, help="worker threads, 0 = auto (default: 1)")

    p = sub.add_parser("ingest", help="parse a raw catalog into records.jsonl")
    common(p)
    p.add_argument("--source", choices=["netflix", "imdb"])
    p.add_argument("--input", help="netflix_titles.csv (source=netflix)")
    p.add_argument("--basics", help="title.basics.tsv[.gz] (source=imdb)")
    p.add_argument("--principals", help="title.principals.tsv[.gz] (source=imdb)")
    p.add_argument("--names", help="name.basics.tsv[.gz] (source=imdb)")
    p.add_argument("--kind", choices=["movie", "tv_show"])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build the co-appearance graph cache")
    common(p)
    p.add_argument("--records", help="records.jsonl from ingest")
    p.add_argument("--persons", help="persons.jsonl (IMDb display names)")
    p.add_argument("--kind", choices=["movie", "tv_show"])
    p.add_argument("--year-min", dest="year_min", type=int)
    p.add_argument("--year-max", dest="year_max", type=int)
    p.add_argument("--min-cast", dest="min_cast", type=int)
    p.add_argument("--max-cast", dest="max_cast", type=int)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="catalog summary and per-figure CSVs")
    common(p)
    p.add_argument("--records")
    p.add_argument("--top", type=_positive_int, default=5)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("centrality", help="compute one centrality measure")
    common(p)
    p.add_argument("measure", choices=["degree", "betweenness", "closeness", "eigenvector"])
    p.add_argument("--graph", help="graph.bin from build")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("path", help="shortest collaboration path between two actors")
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("partners", help="top co-acting partnerships by shared titles")
    common(p)
    p.add_argument("--top", type=_positive_int, required=True)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_partners)

    p = sub.add_parser("predict", help="rank candidate future collaborations")
    common(p)
    p.add_argument("method", choices=[m.value for m in Method])
    p.add_argument("--top", type=_positive_int, required=True)
    p.add_argument("--min-common", dest="min_common", type=_count, default=1)
    p.add_argument("--allow-zero-common", action="store_true")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CANDIDATE_CAP,
                   help="fail when more candidate pairs than this are found (default: no cap)")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("communities", help="Louvain community detection")
    common(p)
    p.add_argument("--resolution", type=_resolution, default=1.0)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("clusters", help="threshold-filtered cluster meta-graph")
    common(p)
    p.add_argument("--tau", type=_tau, required=True)
    p.add_argument("--labels", type=_label_overrides, help="JSON file: community id -> label")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("crossover", help="participation scores across communities")
    common(p)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("evolve", help="temporal community evolution")
    common(p)
    p.add_argument("--window", type=_positive_int, required=True)
    p.add_argument("--step", type=_positive_int, required=True)
    p.add_argument("--records")
    p.add_argument("--persons")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("export", help="export the graph as DOT or GraphML")
    common(p)
    p.add_argument("--format", choices=["dot", "graphml"])
    p.add_argument("--graph")
    p.set_defaults(func=cmd_export)

    return parser


def _check_flag_pairs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Rejects flag values that are only invalid together, like a bad single flag."""
    if args.command == "evolve" and args.window < args.step:
        parser.error(f"argument --window: expected >= --step ({args.step}), got {args.window}")
    if args.command == "predict" and args.min_common == 0 and not (
        args.allow_zero_common and args.method == Method.PREFERENTIAL_ATTACHMENT.value
    ):
        parser.error(
            "argument --min-common: 0 needs --allow-zero-common and preferential_attachment"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flag_pairs(parser, args)
    try:
        cfg = resolve_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, CastnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def console_main() -> int:
    """The ``castnet`` program and ``python -m castnet.cli``: ``main`` in a
    process that starts no BLAS thread pool when a command loads numpy."""
    for var in BLAS_THREAD_ENV:
        os.environ.setdefault(var, "1")
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
