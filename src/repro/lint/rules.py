"""The simlint rule catalog.

Each rule targets a failure mode this repository has actually hit (or
is structurally exposed to):

* **DET001** — wall-clock reads outside the observability layer make
  results differ run to run.
* **DET002** — module-level ``random`` functions (or an unseeded
  ``random.Random()``) bypass the simulator-owned seeded rng.
* **DET003** — iterating sets / ``dict.popitem`` / unsorted
  ``os.listdir`` yields platform- and hash-seed-dependent order, which
  breaks byte-identical sweeps under ``--jobs N``.
* **PICKLE001** — closures, lambdas, and bound methods passed to the
  sweep executor cannot cross a process boundary (the fig17 bug class).
* **SIM001** — sim-process generators must not block the worker
  (``time.sleep``, real I/O) or return before they can ever yield.
* **CACHE001** — dynamic imports inside ``repro.experiments`` are
  invisible to the cache's static import-closure walker, making cache
  keys unsound.
* **LAYER001** — an import whose target ranks *higher* than the
  importer in the declared layer DAG (:data:`LAYERS`) is an upward
  dependency.

Every rule sees one file at a time. The only cross-file fact is
:class:`~repro.lint.framework.ProjectIndex`'s set-annotated attribute
names (DET003). Hash-order bugs that travel through helper calls are
left to the runtime equivalence harness (``tests/test_equivalence.py``),
which runs each exhibit under two hash seeds and compares the output.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .astutil import dynamic_import_lines, resolve_call_name
from .framework import Finding, ModuleSource, ProjectIndex, Rule, register

__all__ = [
    "BlockingSimProcessRule",
    "DynamicImportRule",
    "LAYERS",
    "LayeringRule",
    "UnorderedIterationRule",
    "UnpicklableSweepTargetRule",
    "UnseededRandomRule",
    "WallClockRule",
    "layer_rank",
]


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


@register
class WallClockRule(Rule):
    """DET001: wall-clock reads outside the allowlisted modules."""

    id = "DET001"
    severity = "error"
    summary = ("wall-clock read (time.time/perf_counter/datetime.now) "
               "outside allowlisted modules")
    fix_hint = ("use sim.now for model time; wall-clock timing belongs in "
                "repro.obs, or suppress with a reason")

    #: Modules whose whole point is measuring wall time: the
    #: observability layer.
    default_allowlist: Tuple[str, ...] = ("repro.obs",)

    #: Carve-outs *inside* allowlisted packages that must still obey
    #: sim-time discipline. Causal tracing records simulated timestamps
    #: and samples from a derived seeded stream — a wall-clock read
    #: there would silently break byte-identical --jobs sweeps.
    default_denylist: Tuple[str, ...] = ("repro.obs.trace",)

    _CALLS = frozenset({
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.clock_gettime", "time.clock_gettime_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def __init__(self, allowlist: Optional[Tuple[str, ...]] = None,
                 denylist: Optional[Tuple[str, ...]] = None):
        self.allowlist = self.default_allowlist if allowlist is None \
            else allowlist
        self.denylist = self.default_denylist if denylist is None \
            else denylist

    @staticmethod
    def _matches(module: str, prefixes: Tuple[str, ...]) -> bool:
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in prefixes)

    def _allowlisted(self, module: Optional[str]) -> bool:
        if not module:
            return False
        if self._matches(module, self.denylist):
            return False
        return self._matches(module, self.allowlist)

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None or self._allowlisted(module.module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, module.aliases)
            if name in self._CALLS:
                yield self.finding(
                    module, node,
                    f"{name}() reads the wall clock; simulation results "
                    f"must depend only on sim.now and the seeded rng")


@register
class UnseededRandomRule(Rule):
    """DET002: global-state or unseeded randomness."""

    id = "DET002"
    severity = "error"
    summary = ("module-level random.* call or unseeded random.Random() "
               "instead of a threaded seeded rng")
    fix_hint = ("draw from the simulator-owned rng (sim.rng / "
                "repro.simcore.rng helpers) or random.Random(seed)")

    #: Functions on the module-level (hidden global) Random instance.
    _MODULE_FNS = frozenset({
        "seed", "random", "uniform", "randint", "randrange", "choice",
        "choices", "shuffle", "sample", "betavariate", "binomialvariate",
        "expovariate", "gammavariate", "gauss", "lognormvariate",
        "normalvariate", "paretovariate", "triangular", "vonmisesvariate",
        "weibullvariate", "getrandbits", "randbytes",
    })

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, module.aliases)
            if name is None:
                continue
            if name == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "random.Random() without a seed draws entropy "
                        "from the OS; pass an explicit seed")
            elif name == "random.SystemRandom":
                yield self.finding(
                    module, node,
                    "random.SystemRandom is OS entropy and can never be "
                    "seeded; use random.Random(seed)")
            else:
                prefix, _, attr = name.rpartition(".")
                if prefix == "random" and attr in self._MODULE_FNS:
                    yield self.finding(
                        module, node,
                        f"random.{attr}() uses the shared module-level "
                        f"rng; seed state leaks across call sites and "
                        f"processes")


@register
class UnorderedIterationRule(Rule):
    """DET003: iteration order that depends on hashing or the OS."""

    id = "DET003"
    severity = "error"
    summary = ("iteration over a set / dict.popitem / unsorted os.listdir "
               "— unordered under --jobs N")
    fix_hint = "sort the iterable (sorted(...)) or use an ordered container"

    _SET_BUILTINS = frozenset({"set", "frozenset"})
    _LISTING_CALLS = frozenset({"os.listdir", "os.scandir"})

    #: Builtins whose result cannot depend on iteration order: a
    #: comprehension/genexp over a set fed *directly* into one of these
    #: is deterministic and must not be flagged.
    _ORDER_INSENSITIVE = frozenset({"len", "any", "all", "sum", "min",
                                    "max", "sorted", "set", "frozenset"})

    def _order_insensitive_context(self, node: ast.AST,
                                   parents: Dict[ast.AST, ast.AST]) -> bool:
        """True when the comprehension's consumer is order-insensitive.

        A set comprehension is order-insensitive by construction (its
        result is itself unordered); any comprehension or generator
        expression is when it is a direct argument to one of the
        :data:`_ORDER_INSENSITIVE` builtins (``any(f(x) for x in s)``).
        """
        if isinstance(node, ast.SetComp):
            return True
        parent = parents.get(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in self._ORDER_INSENSITIVE
                and any(node is arg for arg in parent.args))

    def _local_set_names(self, tree: ast.AST) -> Set[str]:
        """Names assigned a set-typed expression anywhere in the file.

        Deliberately flow-insensitive: if *any* assignment binds the
        name to a set, iterating that name anywhere is flagged. (A name
        that is a set in one function is almost never a list in
        another; suppress the rare false positive.)
        """
        names: Set[str] = set()
        for node in ast.walk(tree):
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                if ProjectIndex._is_set_annotation(node.annotation):
                    value = ast.Set(elts=[])  # annotation says set
                else:
                    value = node.value
            if value is None:
                continue
            if self._is_set_expr(value, frozenset(), ProjectIndex()):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _is_set_expr(self, node: ast.AST, local_sets: frozenset,
                     project: ProjectIndex) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in self._SET_BUILTINS:
            return True
        if isinstance(node, ast.Name) and node.id in local_sets:
            return True
        if isinstance(node, ast.Attribute) and \
                node.attr in project.set_attributes:
            return True
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor,
                                     ast.Sub)):
            # set algebra: a & b, a | b — set if either side clearly is
            return (self._is_set_expr(node.left, local_sets, project) or
                    self._is_set_expr(node.right, local_sets, project))
        return False

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        tree = module.tree
        parents = _parent_map(tree)
        local_sets = frozenset(self._local_set_names(tree))

        def set_iteration(iter_node: ast.AST) -> bool:
            return self._is_set_expr(iter_node, local_sets, project)

        for node in ast.walk(tree):
            if isinstance(node, ast.For) and set_iteration(node.iter):
                yield self.finding(
                    module, node.iter,
                    "for-loop over a set: iteration order is "
                    "hash-dependent and varies across processes")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if self._order_insensitive_context(node, parents):
                    continue
                for comp in node.generators:
                    if set_iteration(comp.iter):
                        yield self.finding(
                            module, comp.iter,
                            "comprehension over a set: iteration order "
                            "is hash-dependent")
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and \
                        node.func.id == "iter" and len(node.args) == 1 \
                        and set_iteration(node.args[0]):
                    yield self.finding(
                        module, node,
                        "iter() over a set yields a hash-ordered element")
                elif isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "popitem":
                    yield self.finding(
                        module, node,
                        "dict.popitem() removes an arbitrary entry; pop a "
                        "specific key or use an ordered strategy")
                else:
                    name = resolve_call_name(node.func, module.aliases)
                    if name in self._LISTING_CALLS:
                        parent = parents.get(node)
                        sorted_wrapped = (
                            isinstance(parent, ast.Call) and
                            isinstance(parent.func, ast.Name) and
                            parent.func.id == "sorted")
                        if not sorted_wrapped:
                            yield self.finding(
                                module, node,
                                f"{name}() order is filesystem-dependent; "
                                f"wrap in sorted(...)")


@register
class UnpicklableSweepTargetRule(Rule):
    """PICKLE001: sweep targets that cannot cross a process boundary."""

    id = "PICKLE001"
    severity = "error"
    summary = ("lambda / nested function / bound method passed to "
               "sweep_map, sweep_imap, or run_exhibit")
    fix_hint = ("hoist the point function to module level and pass its "
                "inputs through the point spec (the fig17 fix)")

    _SINKS = frozenset({"sweep_map", "sweep_imap", "run_exhibit"})

    def _sink_name(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in self._SINKS:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in self._SINKS:
            return func.attr
        return None

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        # Names of functions defined *inside* another function: passing
        # one to a pool sink means pickling a closure cell.
        nested_defs: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in _walk_own(node):
                    if isinstance(inner, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        nested_defs.add(inner.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_name(node.func)
            if sink is None or not node.args:
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    module, target,
                    f"lambda passed to {sink}() cannot be pickled to a "
                    f"pool worker")
            elif isinstance(target, ast.Name) and target.id in nested_defs:
                yield self.finding(
                    module, target,
                    f"nested function {target.id!r} passed to {sink}() "
                    f"closes over local state and cannot be pickled")
            elif isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id in ("self", "cls"):
                yield self.finding(
                    module, target,
                    f"bound method {target.value.id}.{target.attr} passed "
                    f"to {sink}() drags the whole instance through pickle")


@register
class BlockingSimProcessRule(Rule):
    """SIM001: sim-process generators that block or never suspend."""

    id = "SIM001"
    severity = "error"
    summary = ("sim-process generator blocks the worker (time.sleep / "
               "real I/O) or unconditionally returns before first yield")
    fix_hint = ("model delays with sim.timeout(); do I/O outside the "
                "simulation; keep at least one reachable yield")

    _BLOCKING_CALLS = frozenset({
        "time.sleep", "input", "socket.create_connection",
        "subprocess.run", "subprocess.call", "subprocess.check_call",
        "subprocess.check_output", "subprocess.Popen", "os.system",
        "urllib.request.urlopen",
    })
    _SIM_ATTRS = frozenset({"timeout", "process", "event", "work",
                            "all_of", "any_of", "wait"})

    def _is_sim_generator(self, fn: ast.AST) -> bool:
        """A generator whose yields interact with a simulator.

        Heuristic: some ``yield``/``yield from`` value mentions a name
        or attribute called ``sim``, or calls one of the simulator verbs
        (``timeout``/``process``/``work``/...).
        """
        for node in _walk_own(fn):
            if not isinstance(node, (ast.Yield, ast.YieldFrom)):
                continue
            value = node.value
            if value is None:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Name) and sub.id == "sim":
                    return True
                if isinstance(sub, ast.Attribute) and (
                        sub.attr == "sim" or
                        sub.attr in self._SIM_ATTRS):
                    return True
        return False

    @staticmethod
    def _contains_yield(node: ast.AST) -> bool:
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        for sub in _walk_own(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                       for n in _walk_own(fn)):
                continue
            if not self._is_sim_generator(fn):
                continue
            # Blocking calls anywhere in the generator body.
            for node in _walk_own(fn):
                if isinstance(node, ast.Call):
                    name = resolve_call_name(node.func, module.aliases)
                    if name in self._BLOCKING_CALLS:
                        yield self.finding(
                            module, node,
                            f"{name}() inside sim process {fn.name!r} "
                            f"blocks the event loop for real wall time")
            # An *unconditional* top-level return-with-value before the
            # first yield: the generator finishes on its very first
            # resume, so every yield below is dead code. (Conditional
            # early returns are fine — Process delivers StopIteration
            # values correctly.)
            for statement in fn.body:
                if self._contains_yield(statement):
                    break
                if isinstance(statement, ast.Return) and \
                        statement.value is not None:
                    yield self.finding(
                        module, statement,
                        f"sim process {fn.name!r} unconditionally returns "
                        f"before its first yield; the yields below are "
                        f"unreachable")
                    break


@register
class DynamicImportRule(Rule):
    """CACHE001: dynamic imports the cache's closure walker cannot see."""

    id = "CACHE001"
    severity = "error"
    summary = ("dynamic import (importlib / __import__) in a "
               "repro.experiments module — cache keys become unsound")
    fix_hint = ("use a static import so the result cache's AST closure "
                "walker can fingerprint the dependency")

    #: Packages whose modules feed the result cache's import closure.
    #: ``repro.faults`` is included because chaos-aware exhibits import
    #: it — a dynamic import there would hide fault-subsystem changes
    #: from every chaos exhibit's cache key. ``repro.obs.trace`` is in
    #: for the same reason: the trace_breakdown exhibit's findings are
    #: a function of the tracer's sampling and analytics code.
    #: ``repro.simcore`` is in because *every* exhibit's cache entry is
    #: a function of the simulation kernel (the event loop included):
    #: a dynamic import there would hide engine changes from every
    #: cache key in the repository. ``repro.fleet`` is in because the
    #: fleet_* exhibit family's results are a function of the fluid
    #: tier's physics. ``repro.resilience`` is in because installed
    #: policies (breaker trips and retry jitter) steer every protected
    #: exhibit's output the same way the fault plans do.
    default_packages: Tuple[str, ...] = ("repro.experiments",
                                         "repro.faults",
                                         "repro.fleet",
                                         "repro.obs.trace",
                                         "repro.resilience",
                                         "repro.simcore")

    def __init__(self, packages: Optional[Tuple[str, ...]] = None):
        self.packages = self.default_packages if packages is None \
            else packages

    def _applies(self, module: Optional[str]) -> bool:
        if not module:
            return False
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in self.packages)

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None or not self._applies(module.module):
            return
        for lineno in dynamic_import_lines(module.tree, module.imports,
                                           module.source):
            yield Finding(
                rule=self.id, severity=self.severity, path=module.path,
                line=lineno, col=1,
                message=("dynamic import is invisible to the result "
                         "cache's static import-closure walker; the "
                         "exhibit's cache key will not change when the "
                         "imported module does"),
                fix_hint=self.fix_hint)


#: The declared architecture layer DAG, most-specific prefix wins.
#: Rank 0 is the foundation; a module may import only same-or-lower
#: ranks. The ``repro.obs`` instrumentation facade (telemetry counters,
#: ambient runtime state, causal tracer) sits at rank 1 — the
#: model layers call *into* it on the hot path by design — while the
#: package root (init/export wiring) stays at rank 2 with the fault
#: subsystem. ``repro.lint`` sits with the runtime layer because its
#: ``--jobs`` fan-out rides ``runtime.sweep_map``. The umbrella package
#: ``repro`` itself re-exports everything and is exempt (rank None).
LAYERS: Tuple[Tuple[str, int], ...] = (
    ("repro.simcore", 0),
    ("repro.core", 1),
    ("repro.mesh", 1),
    ("repro.netsim", 1),
    ("repro.crypto", 1),
    ("repro.kernel", 1),
    ("repro.k8s", 1),
    ("repro.workloads", 1),
    ("repro.obs.telemetry", 1),
    ("repro.obs.runtime", 1),
    ("repro.obs.trace", 1),
    ("repro.resilience", 1),
    ("repro.obs", 2),
    ("repro.faults", 2),
    ("repro.fleet", 2),
    ("repro.runtime", 3),
    ("repro.experiments", 3),
    ("repro.lint", 3),
)


def layer_rank(module: Optional[str]) -> Optional[int]:
    """Layer rank for a module, by most-specific declared prefix.

    ``None`` for modules outside the DAG (tests, benchmarks, the
    ``repro`` umbrella): they may import anything.
    """
    if not module:
        return None
    best: Optional[Tuple[int, int]] = None   # (prefix length, rank)
    for prefix, rank in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), rank)
    return best[1] if best else None


def _resolve_relative(module: str, is_package: bool, level: int,
                      stem: str) -> str:
    """Absolute dotted name for a ``from ...x import y`` statement."""
    if level == 0:
        return stem
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    parts = parts[:len(parts) - level + 1]
    return ".".join(p for p in (".".join(parts), stem) if p)


@register
class LayeringRule(Rule):
    """LAYER001: upward imports against the declared layer DAG."""

    id = "LAYER001"
    severity = "error"
    summary = ("import from a higher architecture layer (upward edge in "
               "the declared layer DAG)")
    fix_hint = ("invert the dependency: move the shared piece down a "
                "layer, or have the higher layer call into the lower "
                "one instead")

    def _sites(self, module: ModuleSource) -> List[Tuple[str, int]]:
        """(absolute imported name, line) pairs, one per imported
        symbol. For ``from X import a, b`` the per-alias full names are
        used (not the bare base) so importing a low-rank submodule
        through its higher-rank package root is not a false positive.
        """
        is_package = module.path.endswith("__init__.py")
        sites: List[Tuple[str, int]] = []
        for node in module.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    sites.append((alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(module.module, is_package,
                                         node.level, node.module or "")
                if not base:
                    continue
                imported = [a.name for a in node.names if a.name != "*"]
                if imported:
                    sites.extend((f"{base}.{name}", node.lineno)
                                 for name in imported)
                else:
                    sites.append((base, node.lineno))
        return sites

    def check(self, module: ModuleSource,
              project: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        importer_rank = layer_rank(module.module)
        if importer_rank is None:
            return
        #: line -> (imported rank, shortest offending name)
        worst: Dict[int, Tuple[int, str]] = {}
        for name, line in self._sites(module):
            rank = layer_rank(name)
            if rank is None or rank <= importer_rank:
                continue
            current = worst.get(line)
            if current is None or rank > current[0] or \
                    (rank == current[0] and len(name) < len(current[1])):
                worst[line] = (rank, name)
        for line in sorted(worst):
            rank, name = worst[line]
            yield Finding(
                rule=self.id, severity=self.severity, path=module.path,
                line=line, col=1,
                message=(f"{module.module} (layer {importer_rank}) "
                         f"imports {name} (layer {rank}): upward "
                         f"dependency violates the declared layer DAG"),
                fix_hint=self.fix_hint)
