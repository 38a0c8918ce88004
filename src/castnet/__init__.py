"""Actor collaboration network analytics for movie/OTT catalogs.

The public names load their module on first use (PEP 562), so importing the
package, or one command's modules, does not load every module and numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "centrality": (
        "Scores",
        "betweenness_centrality",
        "closeness_centrality",
        "degree_centrality",
        "eigenvector_centrality",
    ),
    "community": (
        "ClusterGraph",
        "EvolutionTimeline",
        "Partition",
        "build_cluster_graph",
        "community_evolution",
        "crossover_scores",
        "filter_interactions",
        "louvain",
        "modularity",
    ),
    "graph": ("BipartiteStore", "CoGraph", "build_bipartite", "project"),
    "ingest": (
        "TitleKind",
        "TitleRecord",
        "normalize_name",
        "parse_imdb",
        "parse_netflix",
    ),
    "linkpred": ("Method", "PairScore", "predict_top"),
    "paths": (
        "AnnotatedPath",
        "Unreachable",
        "shortest_path",
        "top_partnerships",
    ),
    "stats": ("CatalogSummary", "summarize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
