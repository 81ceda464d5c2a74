"""Key-value config files: one ``key = value`` per line, ``#`` comments.

The same format carries both cluster topology (grid.n, tree.alpha,
tree.m, routing.jaccard_threshold, rng.seed, cluster.index_workers,
cluster.query_workers, cluster.transport) and experiment definitions
(experiment.*, workload.*, sweep.*, queues.*, measure.*).  The engine
under test is ``experiment.engine``; the cluster's engine is set from it
for each run.  A :class:`Config` records every key its getters are asked
for, so a key that nothing reads (a typo) can be rejected.
"""

from __future__ import annotations

from pathlib import Path

from .cluster import ClusterSpec


class Config:
    def __init__(self, values: dict[str, str] | None = None):
        self.values = dict(values or {})
        self.read: set[str] = set()  # every key a getter was asked for

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

    def get(self, key: str, default: str | None = None) -> str | None:
        self.read.add(key)
        return self.values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.get(key)
        return default if raw is None else int(raw)

    def get_float(self, key: str, default: float) -> float:
        raw = self.get(key)
        return default if raw is None else float(raw)

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.get(key)
        if raw is None:
            return default
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")

    def get_floats(self, key: str) -> list[float]:
        raw = self.get(key)
        if raw is None:
            return []
        return [float(part) for part in raw.split(",") if part.strip()]

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(
            grid_n=self.get_int("grid.n", 100),
            index_workers=self.get_int("cluster.index_workers", 4),
            query_workers=self.get_int("cluster.query_workers", 2),
            alpha=self.get_int("tree.alpha", 20),
            m=self.get_int("tree.m", 6),
            jaccard_threshold=self.get_float("routing.jaccard_threshold", 0.5),
            transport=self.get("cluster.transport", "loopback"),
            seed=self.get_int("rng.seed", 0),
        )
