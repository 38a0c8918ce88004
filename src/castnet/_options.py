"""Option values shared by the library and the command line.

This module imports no numpy, so the command line can build its parser and
check flags before any command loads numpy. ``graph`` and ``linkpred``
re-export these names.
"""

from __future__ import annotations

from enum import Enum

# Casts larger than this are rejected when building the graph, since
# projection is quadratic per title.
DEFAULT_MAX_CAST = 500


class Method(str, Enum):
    """The link-prediction indices."""

    COMMON_NEIGHBORS = "common_neighbors"
    JACCARD = "jaccard"
    RESOURCE_ALLOCATION = "resource_allocation"
    ADAMIC_ADAR = "adamic_adar"
    PREFERENTIAL_ATTACHMENT = "preferential_attachment"
