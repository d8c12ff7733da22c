"""Content-addressed on-disk cache for experiment results.

Re-running ``python -m repro.experiments all`` after touching one module
should only recompute the exhibits that can *see* that module. The
cache key for an exhibit is therefore::

    sha256(exp_id, cache format, python major.minor,
           cost-model fingerprint,
           source hash of every repro module the exhibit's module
           transitively imports)

The import closure comes from a static :mod:`ast` parse of every file in
the ``repro`` package (intra-package ``import``/``from`` statements,
including relative ones, found by one walk over statement blocks), not
from ``sys.modules`` — so the fingerprint is stable, cheap (~one parse
per file, computed once per process), and
conservative: editing ``mesh/proxy.py`` invalidates the testbed
exhibits that reach it but leaves, say, ``fig3``'s pure-workload cache
entry warm.

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
import warnings
from typing import Dict, List, Optional, Set, Tuple

from ..lint.astutil import (
    dynamic_import_lines,
    import_statements,
    iter_module_files,
    module_imports,
    parse_file,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "cached_run",
    "closure_dynamic_imports",
    "exhibit_fingerprint",
    "module_closure",
]

#: Bump when the pickle payload or key recipe changes shape.
_CACHE_FORMAT = 4

#: Default cache location; overridable per call or via the environment.
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


# -- static import graph over the repro package -----------------------------

def _package_root() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


_graph_cache: Optional[Tuple[Dict[str, str], Dict[str, Set[str]],
                             Dict[str, List[int]]]] = None


def _module_graph() -> Tuple[Dict[str, str], Dict[str, Set[str]],
                             Dict[str, List[int]]]:
    """(module -> file, module -> imports, module -> dynamic-import
    lines), memoized. The AST walking lives in :mod:`repro.lint.astutil`
    (shared with the simlint analyzer)."""
    global _graph_cache
    if _graph_cache is None:
        files = dict(iter_module_files(_package_root()))
        known = set(files)
        graph: Dict[str, Set[str]] = {}
        dynamic: Dict[str, List[int]] = {}
        for module, path in files.items():
            source, tree = parse_file(path)
            if tree is None:  # pragma: no cover - repo code always parses
                graph[module] = set()
                continue
            imports = import_statements(tree)
            graph[module] = module_imports(
                imports, module, path.endswith("__init__.py"), known)
            lines = dynamic_import_lines(tree, imports, source)
            if lines:
                dynamic[module] = lines
        # A package module stands for its __init__; importing it sees
        # everything the __init__ re-exports (already in its edges).
        _graph_cache = (files, graph, dynamic)
    return _graph_cache


def module_closure(module: str) -> List[str]:
    """``module`` plus every repro module it transitively imports."""
    files, graph, _dynamic = _module_graph()
    if module not in files:
        raise KeyError(f"unknown repro module {module!r}")
    seen: Set[str] = set()
    stack = [module]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(graph.get(current, ()))
        # Importing repro.foo.bar implicitly executes repro.foo/__init__.
        parent = current.rpartition(".")[0]
        if parent and parent in files:
            stack.append(parent)
    return sorted(seen)


def closure_dynamic_imports(module: str) -> Dict[str, List[int]]:
    """Dynamic imports reachable from ``module``'s import closure.

    Maps each offending module in the closure to the line numbers of its
    ``importlib``/``__import__`` usage. A non-empty result means the
    static closure under-approximates the exhibit's real dependencies,
    so its fingerprint — and any cache entry keyed on it — is unsound
    (simlint rule CACHE001 flags the same sites at lint time).
    """
    _files, _graph, dynamic = _module_graph()
    return {m: dynamic[m] for m in module_closure(module) if m in dynamic}


_source_hashes: Dict[str, str] = {}


def _source_hash(module: str) -> str:
    digest = _source_hashes.get(module)
    if digest is None:
        files, _graph, _dynamic = _module_graph()
        with open(files[module], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        _source_hashes[module] = digest
    return digest


# -- fingerprints -----------------------------------------------------------

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
    from ..experiments import EXPERIMENTS
    function = EXPERIMENTS[exp_id]
    hasher = hashlib.sha256()
    hasher.update(f"format={_CACHE_FORMAT}\n".encode())
    hasher.update(f"python={sys.version_info[0]}.{sys.version_info[1]}\n"
                  .encode())
    hasher.update(f"exp_id={exp_id}\n".encode())
    hasher.update(f"costs={_cost_fingerprint()}\n".encode())
    for module in module_closure(function.__module__):
        hasher.update(f"{module}={_source_hash(module)}\n".encode())
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
        path = self._path(exp_id, exhibit_fingerprint(exp_id))
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None  # miss — including unreadable/stale payloads

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

    Exhibits whose import closure contains dynamic imports (CACHE001)
    bypass the cache entirely: the fingerprint cannot see what they
    load, so an entry could go stale without its key changing.
    """
    from ..experiments import EXPERIMENTS, run
    dynamic = closure_dynamic_imports(EXPERIMENTS[exp_id].__module__)
    if dynamic:
        sites = "; ".join(
            f"{module}:{','.join(map(str, lines))}"
            for module, lines in sorted(dynamic.items()))
        warnings.warn(
            f"result cache disabled for {exp_id!r}: dynamic imports in "
            f"its import closure make the cache key unsound ({sites})",
            RuntimeWarning, stacklevel=2)
        return run(exp_id), False
    cache = ResultCache(cache_dir)
    if not refresh:
        hit = cache.load(exp_id)
        if hit is not None:
            return hit, True
    result = run(exp_id)
    cache.store(exp_id, result)
    return result, False
