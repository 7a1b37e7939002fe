"""On-disk replication cache keyed by ``(config digest, seed)``.

The §4.2.2 protocol makes every replication a pure function of the
frozen :class:`~repro.core.parameters.VOODBConfig` and the seed, so its
metric dictionary can be memoized on disk.  Repeated sweeps — a pilot
study followed by the full run, or regenerating a figure after touching
only the report code — then never recompute a point: the pilot's seeds
``base_seed..base_seed+9`` are cache hits inside the full run's
``base_seed..base_seed+n*``.

The cache is content-addressed: the key digests a canonical JSON
rendering of the (nested, frozen) config dataclass, the replication
function's qualified name and a hash of the simulator's own sources
(:func:`source_digest`), so two configs that compare equal always
share entries while any parameter change — however deep — or any edit
under ``repro`` misses.

Enable it by passing a :class:`ReplicationCache` to an executor, with
``python -m repro --cache-dir DIR``, or via the ``VOODB_CACHE_DIR``
environment variable (read by :func:`default_cache`).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variable enabling the cache outside the CLI flag.
CACHE_DIR_ENV = "VOODB_CACHE_DIR"


@functools.cache
def source_digest() -> str:
    """sha256 of the ``repro`` package's Python sources.

    Computed once per process, on first cache use, so runs without a
    cache never read the sources.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    names = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py"))
    for name in names:
        data = (root / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """Render a config value as a JSON-stable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        # json.dumps would emit the non-standard literal Infinity; make
        # the canonical form explicit so digests are portable.
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def config_digest(config: Any, replication_name: str = "") -> str:
    """Stable hex digest of a config (plus the replication protocol)."""
    payload = json.dumps(
        {
            "source": source_digest(),
            "replication": replication_name,
            "config": _canonical(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ReplicationCache:
    """File-per-entry metric cache under one directory.

    Entries are small JSON files named ``<digest>-<seed>.json`` holding
    the metric dictionary of one replication.  ``hits``/``misses``
    counters make cache behavior observable (and testable).
    """

    def __init__(self, directory: os.PathLike | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # Configs are frozen/hashable and sweeps probe the same few
        # configs hundreds of times; memoize the (JSON dump + sha256).
        self._digests: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    def _path(self, config: Any, seed: int, replication_name: str) -> Path:
        key = (config, replication_name)
        digest = self._digests.get(key)
        if digest is None:
            digest = config_digest(config, replication_name)
            self._digests[key] = digest
        return self.directory / f"{digest[:32]}-{seed}.json"

    def get(
        self, config: Any, seed: int, replication_name: str = ""
    ) -> Optional[Dict[str, float]]:
        """Return the cached metrics for ``(config, seed)`` or ``None``."""
        path = self._path(config, seed, replication_name)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            metrics = json.loads(raw)
        except ValueError:
            metrics = None
        try:
            entry = {str(name): float(value) for name, value in metrics.items()}
        except (AttributeError, TypeError, ValueError):
            entry = None
        if not entry:
            # Torn write or foreign file (e.g. interrupted run, or an
            # empty {}): treat as absent rather than crash the sweep or
            # feed the analyzer a metric-free replication.
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        config: Any,
        seed: int,
        metrics: Dict[str, float],
        replication_name: str = "",
    ) -> None:
        """Persist one replication's metrics (atomic rename).

        The cache is a pure optimization, so write failures (disk full,
        permissions lost mid-run) must not abort a sweep whose results
        are already computed; they just mean this point recomputes next
        time.
        """
        path = self._path(config, seed, replication_name)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            # TypeError/ValueError: a custom replication fn returned a
            # non-JSON-native value (numpy scalar, Decimal, ...) — skip
            # caching that point rather than abort computed work.
            tmp.write_text(json.dumps(metrics, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):
            try:
                tmp.unlink()
            except OSError:
                pass

    def clear(self) -> int:
        """Delete all entries (and orphaned temp files from interrupted
        runs); returns how many entries were removed."""
        removed = 0
        for entry in self.directory.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for orphan in self.directory.glob("*.json.tmp*"):
            try:
                orphan.unlink()
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def default_cache() -> Optional[ReplicationCache]:
    """Cache configured by ``VOODB_CACHE_DIR`` (``None`` when unset)."""
    directory = os.environ.get(CACHE_DIR_ENV, "")
    if not directory:
        return None
    return ReplicationCache(directory)
