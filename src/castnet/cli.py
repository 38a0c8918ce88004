"""Command-line surface: ingest -> build -> analyze -> export.

Every command reads/writes files under an output directory and emits a
structured ``run_report.json`` (skipped rows, non-convergence, parameters).
Diagnostics go to stderr; stdout carries machine-readable data only. Same
inputs + same seed produce byte-identical output trees: no timestamps, fixed
key order, floats at 6 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields

from . import centrality as centrality_mod
from . import community as community_mod
from . import graphio, linkpred
from . import stats as stats_mod
from .errors import CastnetError
from .graph import DEFAULT_MAX_CAST, build_bipartite, project
from .ingest import (
    TitleKind,
    parse_imdb,
    parse_netflix,
    person_name_map,
    read_persons_jsonl,
    read_records_jsonl,
    write_persons_jsonl,
    write_records_jsonl,
)

DATA_DIR_ENV = "CASTNET_DATA_DIR"

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
    titles: bool = True

    _INT_FIELDS = {"seed", "threads", "year_min", "year_max", "min_cast", "max_cast"}
    _BOOL_FIELDS = {"titles"}


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
            elif key in RunConfig._BOOL_FIELDS:
                if value.lower() not in {"true", "false", "yes", "no", "1", "0"}:
                    raise UsageError(f"{path}:{lineno}: {key} must be a boolean")
                out[key] = value.lower() in {"true", "yes", "1"}
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
    path = os.path.join(cfg.out, "run_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: RunConfig, attr: str, flag: str) -> str:
    value = getattr(cfg, attr)
    if not value:
        raise UsageError(f"missing {flag} (flag or config key '{attr}')")
    return value


def _load_records(cfg: RunConfig):
    path = _require(cfg, "records", "--records")
    return read_records_jsonl(path)


def _load_graph(cfg: RunConfig):
    path = _require(cfg, "graph", "--graph")
    return graphio.load_cache(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
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
    os.makedirs(cfg.out, exist_ok=True)
    records = _load_records(cfg)
    names = None
    if cfg.persons:
        names = person_name_map(read_persons_jsonl(cfg.persons))
    store = build_bipartite(records, names=names, **_build_filters(cfg))
    graph = project(store, keep_titles=cfg.titles)
    cache_path = os.path.join(cfg.out, "graph.bin")
    graphio.save_cache(cache_path, graph)
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
    os.makedirs(cfg.out, exist_ok=True)
    summary = stats_mod.summarize(_load_records(cfg), top_k=args.top)
    json_path = os.path.join(cfg.out, "summary.json")
    stats_mod.write_summary_json(json_path, summary)
    csvs = stats_mod.write_summary_csvs(cfg.out, summary)
    _write_report(cfg, "stats", {"outputs": [json_path] + csvs})
    return EXIT_OK


def cmd_centrality(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    threads = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    if args.measure == "degree":
        table = centrality_mod.degree_centrality(g)
    elif args.measure == "betweenness":
        table = centrality_mod.betweenness_centrality(g, threads=threads)
    elif args.measure == "closeness":
        table = centrality_mod.closeness_centrality(g, threads=threads)
    else:
        table = centrality_mod.eigenvector_centrality(g)
    csv_path = os.path.join(cfg.out, f"centrality_{args.measure}.csv")
    json_path = os.path.join(cfg.out, f"centrality_{args.measure}.json")
    centrality_mod.write_scores_csv(csv_path, g, table)
    centrality_mod.write_scores_json(json_path, g, table)
    events = []
    if table.params.get("converged") is False:
        events.append({"type": "no_convergence", "detail": "max_iter reached"})
    _write_report(
        cfg,
        "centrality",
        {
            "measure": args.measure,
            "params": centrality_mod._round_params(table.params),
            "events": events,
            "outputs": [csv_path, json_path],
        },
    )
    return EXIT_OK


def cmd_path(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    from .errors import UnknownActorError
    from .paths import path_to_dict, render_path, shortest_path

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
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(path_to_dict(result), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    _write_report(cfg, "path", {"a": args.a, "b": args.b, "outputs": [json_path]})
    return EXIT_OK


def cmd_partners(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    from .paths import top_partnerships

    rows = top_partnerships(g, args.top)
    out_path = os.path.join(cfg.out, "partners.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["actor_a", "actor_b", "shared_titles"])
        writer.writerows(rows)
    _write_report(cfg, "partners", {"top": args.top, "outputs": [out_path]})
    return EXIT_OK


def cmd_predict(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    method = linkpred.Method(args.method)
    scores = linkpred.predict_top(
        g,
        method,
        args.top,
        min_common=args.min_common,
        allow_zero_common=args.allow_zero_common,
        cap=args.cap,
    )
    out_path = os.path.join(cfg.out, "predictions.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["actor_a", "actor_b", "method", "score"])
        for ps in scores:
            writer.writerow([ps.u, ps.v, ps.method.value, centrality_mod.fmt_score(ps.score)])
    json_path = os.path.join(cfg.out, "predictions.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            [
                {
                    "u": ps.u,
                    "v": ps.v,
                    "method": ps.method.value,
                    "score": float(centrality_mod.fmt_score(ps.score)),
                }
                for ps in scores
            ],
            fh,
            ensure_ascii=False,
            indent=2,
        )
        fh.write("\n")
    _write_report(
        cfg,
        "predict",
        {"method": method.value, "top": args.top, "min_common": args.min_common,
         "outputs": [out_path, json_path]},
    )
    return EXIT_OK


def cmd_communities(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    part = community_mod.louvain(g, seed=cfg.seed, resolution=args.resolution)
    out_path = os.path.join(cfg.out, "communities.csv")
    graphio.write_partition_csv(out_path, g.labels, part)
    _write_report(
        cfg,
        "communities",
        {
            "seed": cfg.seed,
            "resolution": args.resolution,
            "q": float(centrality_mod.fmt_score(part.q)),
            "passes": part.passes,
            "communities": part.n_communities,
            "outputs": [out_path],
        },
    )
    print(f"communities: {part.n_communities} (q={part.q:.4f})", file=sys.stderr)
    return EXIT_OK


def cmd_clusters(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    part = community_mod.louvain(g, seed=cfg.seed)
    overrides = None
    if args.labels:
        with open(args.labels, "r", encoding="utf-8") as fh:
            overrides = {int(k): str(v) for k, v in json.load(fh).items()}
    cg = community_mod.build_cluster_graph(g, part, overrides=overrides)
    cg = community_mod.filter_interactions(cg, args.tau)
    json_path = os.path.join(cfg.out, "clusters.json")
    dot_path = os.path.join(cfg.out, "clusters.dot")
    graphio.write_cluster_json(json_path, cg)
    graphio.write_cluster_dot(dot_path, cg)
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
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    part = community_mod.louvain(g, seed=cfg.seed)
    table = community_mod.crossover_scores(g, part)
    out_path = os.path.join(cfg.out, "crossover.csv")
    centrality_mod.write_scores_csv(out_path, g, table)
    _write_report(cfg, "crossover", {"seed": cfg.seed, "outputs": [out_path]})
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    records = _load_records(cfg)
    names = None
    if cfg.persons:
        names = person_name_map(read_persons_jsonl(cfg.persons))
    timeline = community_mod.community_evolution(
        records, args.window, args.step, cfg.seed, names=names
    )
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
                "q": (
                    float(centrality_mod.fmt_score(w.partition.q)) if w.partition else None
                ),
            }
            for w in timeline.windows
        ],
        "matches": [
            {
                str(old): {
                    "new": match.new_cid,
                    "overlap": float(centrality_mod.fmt_score(match.overlap)),
                }
                for old, match in sorted(step.items())
            }
            for step in timeline.matches
        ],
    }
    out_path = os.path.join(cfg.out, "evolution.json")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    _write_report(
        cfg,
        "evolve",
        {"window": args.window, "step": args.step, "seed": cfg.seed, "outputs": [out_path]},
    )
    return EXIT_OK


def cmd_export(cfg: RunConfig, args: argparse.Namespace) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    g = _load_graph(cfg)
    fmt = args.format or cfg.format
    if fmt == "dot":
        out_path = os.path.join(cfg.out, "graph.dot")
        graphio.write_dot(out_path, g)
    elif fmt == "graphml":
        out_path = os.path.join(cfg.out, "graph.graphml")
        graphio.write_graphml(out_path, g)
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


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = all cores), got {value}")
    return value


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
    p.add_argument(
        "--no-titles",
        dest="titles",
        action="store_false",
        default=None,
        help="skip per-edge title lists (smaller cache, no path annotations)",
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="catalog summary and per-figure CSVs")
    common(p)
    p.add_argument("--records")
    p.add_argument("--top", type=int, default=5)
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
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_partners)

    p = sub.add_parser("predict", help="rank candidate future collaborations")
    common(p)
    p.add_argument("method", choices=[m.value for m in linkpred.Method])
    p.add_argument("--top", type=int, required=True)
    p.add_argument("--min-common", dest="min_common", type=int, default=1)
    p.add_argument("--allow-zero-common", action="store_true")
    p.add_argument("--cap", type=int, default=linkpred.DEFAULT_CANDIDATE_CAP)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("communities", help="Louvain community detection")
    common(p)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("clusters", help="threshold-filtered cluster meta-graph")
    common(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--labels", help="JSON file: community id -> label override")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("crossover", help="participation scores across communities")
    common(p)
    p.add_argument("--graph")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("evolve", help="temporal community evolution")
    common(p)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--records")
    p.add_argument("--persons")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("export", help="export the graph as DOT or GraphML")
    common(p)
    p.add_argument("--format", choices=["dot", "graphml"])
    p.add_argument("--graph")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except CastnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
