"""Exception types shared across the package."""

from __future__ import annotations


class CastnetError(Exception):
    """Base class for all errors raised by this package."""


class MissingColumnError(CastnetError):
    """An input header lacks a required column."""

    def __init__(self, source: str, missing: list[str]):
        self.source = source
        self.missing = missing
        super().__init__(f"{source}: missing required column(s): {', '.join(missing)}")


class JsonlFormatError(CastnetError):
    """A line of a records or persons JSON Lines file does not parse."""

    def __init__(self, path, line: int, reason: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {reason}")


class EmptyInputError(CastnetError):
    """No titles survived filtering; nothing to build."""


class NodeOutOfRangeError(CastnetError, IndexError):
    """A node index is outside [0, n)."""


class TooFewNodesError(CastnetError):
    """The graph has too few nodes for the requested measure."""


class EmptyGraphError(CastnetError):
    """The operation requires at least one edge."""


class UnknownActorError(CastnetError, KeyError):
    """An actor name is not present in the graph; ``candidates`` are the
    labels it is ambiguous with, if any."""

    def __init__(self, name: str, candidates: list[str] | None = None):
        self.name = name
        if candidates:
            super().__init__(f"{name} is ambiguous; use one of: {', '.join(candidates)}")
        else:
            super().__init__(f"unknown actor: {name!r}")

    def __str__(self) -> str:  # KeyError's would quote the message
        return self.args[0]


class CandidateExplosionError(CastnetError):
    """The link-prediction candidate set exceeded the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"candidate pairs exceed cap ({count} > {cap}); raise min_common or the cap"
        )


class CacheFormatError(CastnetError):
    """The binary graph cache is corrupt or has an unsupported version."""
