"""On-disk result cache keyed by job-spec content hashes.

Layout (two-level fan-out keeps directories small on big sweeps)::

    <root>/
        ab/
            abcdef...0123.json      # one completed job

Each entry stores the spec (for auditing), the summary dict, and the
wall time of the run that produced it.  Writes go through a temp file +
``os.replace`` so concurrent writers (two sweeps sharing a cache and
finishing the same cell) can never leave a torn entry; a corrupt or
unreadable entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["ResultCache"]


class ResultCache:
    """A directory of completed job results, addressed by content hash.

    Instances also count their own traffic: ``hits`` / ``misses``
    (lookups served / not served) and ``puts`` (entries written), so
    callers can surface cache effectiveness without re-scanning disk.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _scan(self):
        """Yield entry paths, tolerating concurrent deletion.

        ``Path.glob`` can raise if a shard directory disappears between
        being listed and being descended into (a concurrent ``clear``/
        external cleanup); scanning shard-by-shard makes every vanishing
        path a skip instead of an exception.
        """
        try:
            shards = [d for d in os.scandir(self.root) if d.is_dir()]
        except OSError:
            return
        for shard in shards:
            try:
                names = list(os.scandir(shard.path))
            except OSError:
                continue  # shard vanished mid-scan
            for entry in names:
                if entry.name.endswith(".json"):
                    yield Path(entry.path)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached entry for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or "summary" not in entry:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Atomically store ``entry`` under ``key``.

        Retries once if the shard directory is ripped out between the
        ``mkdir`` and the ``os.replace`` (e.g. an external cleanup or an
        aggressive prune running concurrently).
        """
        path = self._path(key)
        for attempt in (1, 2):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                if attempt == 1:
                    continue
                raise
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh, sort_keys=True)
                os.replace(tmp, path)
                self.puts += 1
                return
            except FileNotFoundError:
                self._discard(tmp)
                if attempt == 1:
                    continue
                raise
            except BaseException:
                self._discard(tmp)
                raise

    @staticmethod
    def _discard(tmp: str) -> None:
        try:
            os.unlink(tmp)
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self._scan())

    def size_bytes(self) -> int:
        """Total on-disk size of all entries (0 for an empty cache)."""
        total = 0
        for path in self._scan():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> int:
        """Evict stale entries; returns how many were removed.

        ``max_age`` (seconds) drops every entry whose file mtime is older
        than that; ``max_entries`` then keeps only the most recently
        touched N.  Both are optional and compose; with neither given
        this is a no-op.  Concurrent writers are safe: an entry vanishing
        under us is simply skipped.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_age is not None and max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        entries = []
        for path in self._scan():
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                pass
        entries.sort()  # oldest first
        doomed = []
        if max_age is not None:
            cutoff = time.time() - max_age
            while entries and entries[0][0] < cutoff:
                doomed.append(entries.pop(0)[1])
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            doomed.extend(path for _, path in entries[:excess])
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._scan():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
