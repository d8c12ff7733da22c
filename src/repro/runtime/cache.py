"""Content-addressed on-disk cache for experiment results.

The cache key for an exhibit is::

    sha256(cache format, python major.minor, exp_id,
           cost-model fingerprint,
           one SHA-256 over every source file of the repro package)

Every exhibit imports nearly the whole package (``repro.experiments``
imports every exhibit module), so the package digest is the exhibit's
code: any edit to a ``repro`` file, however it is imported, invalidates
every entry. The digest covers each file's path relative to the package
and its bytes, in sorted path order, so a rename changes it too. It is
computed once per process (a few milliseconds) and memoized.

Entries are pickled :class:`~repro.experiments.base.ExperimentResult`
objects named ``<exp_id>.<digest>.pkl``; a stale digest simply never
matches again (old entries are inert files). Writes are atomic
(tmp + rename) so parallel exhibit workers can share a cache
directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from typing import Optional

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cached_run",
    "exhibit_fingerprint",
    "package_digest",
]

#: Bump when the pickle payload or key recipe changes shape.
_CACHE_FORMAT = 5

#: Default cache location; overridable per call or via the environment.
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


# -- fingerprints -----------------------------------------------------------

def package_digest(root: str) -> str:
    """SHA-256 over every ``.py`` file under ``root``: each file's
    ``/``-separated path relative to ``root``, its length and its bytes,
    in sorted path order."""
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(".py"):
                relative = os.path.relpath(os.path.join(dirpath, filename),
                                           root)
                paths.append(relative.replace(os.sep, "/"))
    hasher = hashlib.sha256()
    for relative in sorted(paths):
        with open(os.path.join(root, relative), "rb") as handle:
            source = handle.read()
        hasher.update(f"{relative}:{len(source)}\n".encode())
        hasher.update(source)
    return hasher.hexdigest()


_repro_digest: Optional[str] = None


def _source_digest() -> str:
    """:func:`package_digest` of the ``repro`` package, once per process."""
    global _repro_digest
    if _repro_digest is None:
        import repro
        _repro_digest = package_digest(
            os.path.dirname(os.path.abspath(repro.__file__)))
    return _repro_digest


def _cost_fingerprint() -> str:
    """The default cost model, pinned into every key.

    Exhibits close over ``DEFAULT_COSTS``; its repr (a frozen dataclass
    of floats) is deterministic. Source hashes already cover the
    defaults, but the explicit repr also catches monkey-patched costs
    in calibration sessions.
    """
    from ..mesh import DEFAULT_COSTS
    return repr(DEFAULT_COSTS)


def exhibit_fingerprint(exp_id: str) -> str:
    """Digest identifying one exhibit's inputs: id + code + config."""
    hasher = hashlib.sha256()
    hasher.update(f"format={_CACHE_FORMAT}\n".encode())
    hasher.update(f"python={sys.version_info[0]}.{sys.version_info[1]}\n"
                  .encode())
    hasher.update(f"exp_id={exp_id}\n".encode())
    hasher.update(f"costs={_cost_fingerprint()}\n".encode())
    hasher.update(f"repro={_source_digest()}\n".encode())
    return hasher.hexdigest()


# -- the cache itself -------------------------------------------------------

class ResultCache:
    """Pickle store of :class:`ExperimentResult`s keyed by fingerprint."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir or DEFAULT_CACHE_DIR

    def _path(self, exp_id: str, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{exp_id}.{digest[:24]}.pkl")

    def load(self, exp_id: str):
        """The cached result for the exhibit's current inputs, or None."""
        from ..experiments.base import ExperimentResult
        path = self._path(exp_id, exhibit_fingerprint(exp_id))
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError):
            return None  # miss — including unreadable/stale payloads
        return result if isinstance(result, ExperimentResult) else None

    def store(self, exp_id: str, result) -> str:
        """Atomically persist ``result``; returns the entry path."""
        path = self._path(exp_id, exhibit_fingerprint(exp_id))
        os.makedirs(self.cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path


def cached_run(exp_id: str, cache_dir: Optional[str] = None,
               refresh: bool = False):
    """Run one exhibit through the cache.

    Returns ``(result, hit)``. ``refresh`` skips the read (but still
    stores), for runs that must actually execute — e.g. ``--report``.
    """
    from ..experiments import run
    cache = ResultCache(cache_dir)
    if not refresh:
        hit = cache.load(exp_id)
        if hit is not None:
            return hit, True
    result = run(exp_id)
    cache.store(exp_id, result)
    return result, False
