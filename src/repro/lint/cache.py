"""Content-hash-keyed incremental cache for simlint.

Warm lint runs must stay O(changed files). Two stages cache
independently, both keyed purely by content:

* **prepass** — ``prepass::{path}::{sha256}::{version}`` → the file's
  skip/syntax state and ``Set``-annotated attribute names. Depends only
  on the file's bytes, so a cached entry is valid for as long as the
  bytes are.
* **findings** — ``findings::{path}::{sha256}::{rules}::{version}::
  {digest}`` → the file's final findings. ``digest`` hashes the
  project-wide set-attribute table (DET003's one cross-file input).

The store is a single pickle under the cache directory (default
``.repro-cache/simlint``), written atomically, pruned on save to the
keys the current run touched — stale hashes never accumulate.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Any, Dict, Optional, Set

__all__ = ["LintCache", "content_hash", "default_cache_dir"]

_CACHE_FILENAME = "simlint-cache.pkl"


def default_cache_dir() -> str:
    return os.path.join(".repro-cache", "simlint")


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LintCache:
    """A load-once / save-once key-value store for one lint run."""

    def __init__(self, cache_dir: Optional[str] = None,
                 enabled: bool = True):
        self.cache_dir = cache_dir or default_cache_dir()
        self.enabled = enabled
        self.path = os.path.join(self.cache_dir, _CACHE_FILENAME)
        self._entries: Dict[str, Any] = {}
        self._touched: Set[str] = set()
        self.hits = 0
        self.misses = 0
        if enabled:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
            if isinstance(payload, dict):
                self._entries = payload
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            # A corrupt or version-skewed cache is just a cold start.
            self._entries = {}

    def get(self, key: str) -> Any:
        """The cached value, or None. A hit marks the key live."""
        if not self.enabled:
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touched.add(key)
        return value

    def put(self, key: str, value: Any) -> None:
        if not self.enabled or value is None:
            return
        self._entries[key] = value
        self._touched.add(key)

    def save(self) -> None:
        """Atomically persist only the keys this run touched."""
        if not self.enabled:
            return
        live = {key: self._entries[key] for key in sorted(self._touched)
                if key in self._entries}
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=self.cache_dir,
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(live, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_path, self.path)
            except BaseException:
                os.unlink(temp_path)
                raise
        except OSError:
            pass  # read-only checkout: lint still works, just cold
