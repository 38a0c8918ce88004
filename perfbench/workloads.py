"""The benchmark's workloads: an input catalog and the castnet commands run on it.

Each analysis command carries a group. Group wall times are the benchmark's
end-to-end breakdown; ``GROUP_METRICS`` maps the printed metric names to
the groups they sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from gen import Size


@dataclass(frozen=True)
class Command:
    group: str
    argv: tuple


@dataclass(frozen=True)
class Context:
    """Paths and names a workload's commands refer to."""

    graph: str
    records: str
    out: str
    path_pairs: tuple  # (a, b) actor names for the `path` queries


@dataclass(frozen=True)
class Workload:
    """A catalog and its commands; BENCHMARK.json says why each was chosen."""

    name: str
    source: str  # "netflix" or "imdb"
    size: Size
    analysis: Callable[[Context], list]
    oracle: bool = False  # check betweenness/closeness against networkx

    def scaled(self, factor: float) -> "Workload":
        s = self.size
        size = replace(s, titles=max(40, int(s.titles * factor)), pool=max(80, int(s.pool * factor)))
        return replace(self, size=size)


def _g(ctx: Context) -> tuple:
    return ("--graph", ctx.graph, "--out", ctx.out)


def _startup(ctx: Context) -> Command:
    """`centrality degree`: little more than start-up and cache load."""
    return Command("startup", ("centrality", "degree") + _g(ctx))


def _paths(ctx: Context) -> list:
    cmds = [Command("paths", ("path", a, b) + _g(ctx)) for a, b in ctx.path_pairs]
    return cmds + [Command("paths", ("partners", "--top", "10") + _g(ctx))]


def _netflix_pipeline(ctx: Context) -> list:
    rec = ("--records", ctx.records, "--out", ctx.out)
    return [
        Command("stats", ("stats",) + rec),
        _startup(ctx),
        Command("eigenvector", ("centrality", "eigenvector") + _g(ctx)),
        *_paths(ctx),
        Command("predict", ("predict", "jaccard", "--top", "20") + _g(ctx)),
        Command("community", ("communities",) + _g(ctx)),
        Command("community", ("clusters", "--tau", "0.02") + _g(ctx)),
        Command("community", ("crossover",) + _g(ctx)),
        Command("evolve", ("evolve", "--window", "10", "--step", "5") + rec),
        Command("export", ("export", "--format", "graphml") + _g(ctx)),
        Command("export", ("export", "--format", "dot") + _g(ctx)),
    ]


def _traversal(ctx: Context) -> list:
    cmds = [_startup(ctx)]
    for threads, suffix in (("1", "1t"), ("2", "nt")):
        for measure in ("betweenness", "closeness"):
            argv = ("centrality", measure, "--threads", threads) + _g(ctx)
            cmds.append(Command(f"{measure}_{suffix}", argv))
    return cmds


def _imdb(ctx: Context) -> list:
    return [
        _startup(ctx),
        *_paths(ctx),
        Command("community", ("communities",) + _g(ctx)),
        Command("community", ("crossover",) + _g(ctx)),
        Command("export", ("export", "--format", "dot") + _g(ctx)),
    ]


# Netflix-shaped catalogs: at titles=8807, pool=31000 this model gives about
# 14k actors, 163k edges and 21M two-hop candidate pairs.
NETFLIX_FULL = Size(titles=8807, pool=31000, zipf=0.93, cast_mu=1.5, cast_sigma=0.62, cast_max=50)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "netflix_pipeline",
            "netflix",
            replace(NETFLIX_FULL, titles=1200, pool=4224),
            _netflix_pipeline,
        ),
        Workload(
            "traversal_small",
            "netflix",
            replace(NETFLIX_FULL, titles=180, pool=634),
            _traversal,
            oracle=True,
        ),
        Workload(
            "imdb_large",
            "imdb",
            Size(titles=18000, pool=30000, zipf=0.8, cast_mu=1.2, cast_sigma=0.5, cast_max=8),
            _imdb,
        ),
        # Not in BENCHMARK.json: one pass takes over a minute. Run by hand to
        # reproduce the seed's Netflix-size figures (see README.md).
        Workload(
            "netflix_full",
            "netflix",
            NETFLIX_FULL,
            _netflix_pipeline,
        ),
    )
}

# The workloads BENCHMARK.json lists; netflix_full is run by hand.
DECLARED = ("netflix_pipeline", "traversal_small", "imdb_large")

# Per-group wall times an untraced run prints: metric -> command groups summed.
GROUP_METRICS = {
    "eigenvector_s": ("eigenvector",),
    "betweenness_1t_s": ("betweenness_1t",),
    "closeness_1t_s": ("closeness_1t",),
    "traversal_nt_s": ("betweenness_nt", "closeness_nt"),
    "predict_s": ("predict",),
    "community_s": ("community",),
    "evolve_s": ("evolve",),
    "paths_s": ("paths",),
    "export_s": ("export",),
    "stats_s": ("stats",),
}
