"""Key-value config files: one ``key = value`` per line, ``#`` comments.

The same format carries both cluster topology (grid.n, tree.alpha,
tree.m, routing.jaccard_threshold, rng.seed, cluster.index_workers,
cluster.query_workers, cluster.transport) and experiment definitions
(experiment.*, workload.*, sweep.*, measure.*).  Each key names one field
of a spec dataclass, in one table per spec (:data:`CLUSTER_KEYS` here, the
workload and experiment tables in :mod:`rangemon.bench`); a key a file
leaves out keeps that field's default.  The engine under test,
``experiment.engine``, is the cluster's ``ClusterSpec.engine``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TypeVar

from .cluster import ClusterSpec

S = TypeVar("S")

CLUSTER_KEYS = {
    "grid.n": "grid_n",
    "cluster.index_workers": "index_workers",
    "cluster.query_workers": "query_workers",
    "tree.alpha": "alpha",
    "tree.m": "m",
    "routing.jaccard_threshold": "jaccard_threshold",
    "cluster.transport": "transport",
    "experiment.engine": "engine",
    "rng.seed": "seed",
}

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_KINDS = {bool: "a boolean", tuple: "an x,y pair", int: "an integer", float: "a number"}


def _parse(key: str, raw: str, like):
    """``raw`` read as the type of ``like``, a field's default: a boolean,
    an ``x,y`` pair of floats, a number, or text."""
    try:
        if isinstance(like, bool):
            return _BOOLS[raw.lower()]
        if isinstance(like, tuple):
            x, y = map(float, raw.split(","))
            return (x, y)
        return raw if like is None else type(like)(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: expected {_KINDS[type(like)]}, got {raw!r}") from None


class Config:
    def __init__(self, values: dict[str, str] | None = None):
        self.values = dict(values or {})

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        values: dict[str, str] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
        return cls(values)

    def merged(self, other: "Config") -> "Config":
        out = dict(self.values)
        out.update(other.values)
        return Config(out)

    def applied(self, spec: S, keys: dict[str, str]) -> S:
        """``spec`` with each field that ``keys`` maps a key of this file
        to set from it, read as that field is typed in ``spec``.  The fields
        are set one at a time, so a value the spec's own check rejects
        fails with the key that set it."""
        for key, name in keys.items():
            if key in self.values:
                value = _parse(key, self.values[key], getattr(spec, name))
                try:
                    spec = replace(spec, **{name: value})
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
        return spec

    def cluster_spec(self) -> ClusterSpec:
        return self.applied(ClusterSpec(), CLUSTER_KEYS)
