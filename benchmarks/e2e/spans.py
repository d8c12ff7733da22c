"""Span recorder for the benchmark's traced pass.

Measures each layer from outside: :meth:`Recorder.install` swaps the
public callables named in :data:`BOUNDARIES` (and a few simcore entry
points) for wrappers that time every call, and :meth:`Recorder.uninstall`
puts the originals back by identity. Nothing under ``src/`` changes.

A span's layer is the wrapped function's module. Generator functions
(the simulator's process bodies) are wrapped in :class:`SpanGen`, which
times each resume and forwards ``send``, ``throw`` and ``close``, so a
process that lives across many simulated events is one span made of
many timed segments. Root spans are ``Simulator.run`` (which also
counts the agenda entries scheduled while it runs), every process body
handed to ``Simulator.process`` and every ``call_later`` callback.

Self time is a segment's duration minus the time its child segments
cover, so the self times of all spans sum to the wall time of the
recording. ``simcore`` self time is therefore the time inside
``Simulator.run`` that no model span covers. Every span is aggregated
online per ``(module, qualname)``; raw spans are kept only for the first
``raw_limit`` requests (a request starts at a process whose code object
is in ``request_roots``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Dict, List, Tuple

__all__ = ["BOUNDARIES", "COUNTED", "Recorder", "SpanGen", "layer_of"]

#: Layer boundaries: ``(module, attribute path)``. A dotted path is a
#: method on a class; a plain name is a module-level function, patched
#: wherever a ``repro`` module imported it by name.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("repro.simcore.resources", "CpuResource.execute"),
    ("repro.mesh.noop", "NoMesh.open_connection"),
    ("repro.mesh.noop", "NoMesh.request"),
    ("repro.mesh.istio", "IstioMesh.open_connection"),
    ("repro.mesh.istio", "IstioMesh.request"),
    ("repro.mesh.ambient", "AmbientMesh.open_connection"),
    ("repro.mesh.ambient", "AmbientMesh.request"),
    ("repro.core.canal", "CanalMesh.open_connection"),
    ("repro.core.canal", "CanalMesh.request"),
    ("repro.mesh.proxy", "ProxyTier.work"),
    ("repro.core.onnode", "OnNodeProxy.process_message"),
    ("repro.core.onnode", "OnNodeProxy.handshake_work"),
    ("repro.core.gateway", "MeshGateway.process_request"),
    ("repro.crypto.tls", "mtls_handshake"),
    ("repro.crypto.accelerator", "SoftwareAsymEngine.submit"),
    ("repro.crypto.accelerator", "BatchedAccelerator.submit"),
    ("repro.core.key_server", "RemoteKeyEngine.submit"),
    ("repro.core.key_server", "FallbackEngine.submit"),
    ("repro.runtime.cache", "cached_run"),
    ("repro.runtime.cache", "exhibit_fingerprint"),
    ("repro.runtime.cache", "ResultCache.load"),
    ("repro.runtime.cache", "ResultCache.store"),
    ("repro.fleet.model", "FleetModel.start"),
    ("repro.fleet.model", "FleetModel.check_invariants"),
    ("repro.fleet.model", "FleetModel.publish_telemetry"),
    ("repro.fleet.queueing", "mm_c_wait_s"),
    ("repro.fleet.queueing", "sojourn_mean_s"),
    ("repro.fleet.queueing", "sojourn_p99_s"),
    ("repro.fleet.queueing", "weighted_percentile"),
)

#: Instrumentation guards: counted, not timed.
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("repro.obs.runtime", "get_telemetry"),
    ("repro.obs.trace", "get_tracer"),
)

HARNESS = ("harness", "traced pass")


def layer_of(module: str) -> str:
    """``repro.core.gateway`` -> ``core.gateway``; non-repro -> harness."""
    if module.startswith("repro."):
        return module[len("repro."):]
    return "harness"


class SpanGen:
    """A generator wrapper that times every resume as one span segment."""

    def __init__(self, recorder: "Recorder", generator, key: Tuple[str, str],
                 trace: int, parent: int):
        self._rec = recorder
        self._gen = generator
        self._key = key
        self._stats = recorder.stats_for(key)
        self._stats[0] += 1
        self._trace = trace
        self._parent = parent
        self._id = recorder.next_id()
        self.__name__ = getattr(generator, "__name__", "process")
        #: Raw-span accumulators, filled only for kept traces.
        self._keep = 0 < trace <= recorder.raw_limit
        self._first = -1.0
        self._busy = 0.0
        self._self = 0.0
        self._resumes = 0

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, (value,), False)

    def throw(self, *args):
        return self._resume(self._gen.throw, args, False)

    def close(self):
        return self._resume(self._gen.close, (), True)

    def _resume(self, method, args, closing: bool):
        recorder = self._rec
        frame = recorder.push(self._stats, self._trace, self._id)
        done = True  # StopIteration or an exception ends the span
        try:
            result = method(*args)
            done = closing
            return result
        finally:
            start, end, duration, own = recorder.pop(frame)
            if self._keep:
                self._note(start, end, duration, own, done)

    def _note(self, start, end, duration, own, done) -> None:
        if self._first < 0.0:
            self._first = start
        self._busy += duration
        self._self += own
        self._resumes += 1
        if done:
            self._keep = False
            self._rec.keep_raw(self._key, self._id, self._parent,
                               self._trace, self._first, end, self._busy,
                               self._self, self._resumes)


class Recorder:
    """Patches layer boundaries, aggregates spans, keeps some raw spans."""

    def __init__(self, request_roots=(), raw_limit: int = 200):
        self.clock = time.perf_counter
        self.raw_limit = raw_limit
        self.request_roots = frozenset(request_roots)
        #: ``(module, qualname) -> [calls, resumes, busy_s, self_s]``.
        self.stats: Dict[Tuple[str, str], list] = {}
        #: Agenda entries scheduled inside ``Simulator.run``, processes
        #: started, and instrumentation-guard calls.
        self.counts: Dict[str, int] = {"events": 0, "processes": 0,
                                       "obs": 0}
        self.raw: List[dict] = []
        self.requests = 0
        self.wall_s = 0.0
        self._stack: List[list] = []
        self._ids = 0
        self._origin = 0.0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- span bookkeeping ---------------------------------------------------
    def stats_for(self, key: Tuple[str, str]) -> list:
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = [0, 0, 0.0, 0.0]
        return stats

    def next_id(self) -> int:
        self._ids += 1
        return self._ids

    def context(self) -> Tuple[int, int]:
        """(trace, span id) of the innermost open segment."""
        if self._stack:
            top = self._stack[-1]
            return top[3], top[4]
        return 0, 0

    def push(self, stats: list, trace: int, span_id: int) -> list:
        frame = [stats, self.clock(), 0.0, trace, span_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> Tuple[float, float, float, float]:
        """Close ``frame``; returns (start, end, duration, self time)."""
        end = self.clock()
        stack = self._stack
        stack.pop()
        start = frame[1]
        duration = end - start
        own = duration - frame[2]
        stats = frame[0]
        stats[1] += 1
        stats[2] += duration
        stats[3] += own
        if stack:
            stack[-1][2] += duration
        return start, end, duration, own

    def keep_raw(self, key, span_id, parent, trace, start, end, busy, own,
                 resumes=1) -> None:
        origin = self._origin
        self.raw.append({
            "id": span_id, "parent": parent, "trace": trace,
            "layer": layer_of(key[0]), "name": key[1],
            "start_us": (start - origin) * 1e6, "end_us": (end - origin) * 1e6,
            "busy_us": busy * 1e6, "self_us": own * 1e6, "resumes": resumes})

    # -- wrappers -------------------------------------------------------------
    def _wrap_plain(self, fn, key):
        stats = self.stats_for(key)
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            trace, parent = recorder.context()
            span_id = recorder.next_id()
            stats[0] += 1
            frame = recorder.push(stats, trace, span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                start, end, duration, own = recorder.pop(frame)
                if 0 < trace <= recorder.raw_limit:
                    recorder.keep_raw(key, span_id, parent, trace, start, end,
                                      duration, own)
        return span

    def _wrap_generator_function(self, fn, key):
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            trace, parent = recorder.context()
            return SpanGen(recorder, fn(*args, **kwargs), key, trace, parent)
        return span

    def _wrap(self, fn):
        key = (fn.__module__, fn.__qualname__)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator_function(fn, key)
        return self._wrap_plain(fn, key)

    def _wrap_counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["obs"] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap_process_body(self, generator):
        """Root span for a body handed to ``Simulator.process``."""
        if isinstance(generator, SpanGen) or not hasattr(generator, "send"):
            return generator
        frame = getattr(generator, "gi_frame", None)
        module = frame.f_globals.get("__name__", "?") if frame else "?"
        key = (module, getattr(generator, "__qualname__", "process"))
        trace, parent = self.context()
        if getattr(generator, "gi_code", None) in self.request_roots:
            self.requests += 1
            trace = self.requests
        return SpanGen(self, generator, key, trace, parent)

    def wrap_callback(self, call):
        """Root span for a ``call_later`` callback."""
        key = (getattr(call, "__module__", None) or "?",
               getattr(call, "__qualname__", None) or type(call).__name__)
        stats = self.stats_for(key)
        recorder = self

        def callback(arg):
            stats[0] += 1
            trace, _parent = recorder.context()
            frame = recorder.push(stats, trace, recorder.next_id())
            try:
                return call(arg)
            finally:
                recorder.pop(frame)
        return callback

    # -- install / uninstall ---------------------------------------------------
    def _patch(self, owner, name: str, replacement, is_item: bool = False):
        original = owner[name] if is_item else owner.__dict__[name]
        self._patches.append((owner, name, original, is_item))
        if is_item:
            owner[name] = replacement
        else:
            setattr(owner, name, replacement)

    def _patch_function(self, module_name: str, name: str, wrap) -> None:
        """Patch a module-level function in every repro module bound to it."""
        original = getattr(importlib.import_module(module_name), name)
        replacement = wrap(original)
        for mod_name in sorted(sys.modules):
            module = sys.modules[mod_name]
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    module is not None and \
                    module.__dict__.get(name) is original:
                self._patch(module, name, replacement)

    def install(self) -> None:
        """Swap every boundary for its span wrapper."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        import repro.experiments as experiments
        from repro.simcore import Simulator
        for module_name, path in BOUNDARIES:
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(importlib.import_module(module_name),
                                owner_name)
                self._patch(owner, attr, self._wrap(owner.__dict__[attr]))
            else:
                self._patch_function(module_name, attr, self._wrap)
        for module_name, name in COUNTED:
            self._patch_function(module_name, name, self._wrap_counted)
        for exp_id in sorted(experiments.EXPERIMENTS):
            self._patch(experiments.EXPERIMENTS, exp_id,
                        self._wrap_plain(experiments.EXPERIMENTS[exp_id],
                                         (experiments.EXPERIMENTS[exp_id]
                                          .__module__, exp_id)),
                        is_item=True)
        run = Simulator.__dict__["run"]
        run_span = self._wrap(run)
        process = Simulator.__dict__["process"]
        call_later = Simulator.__dict__["call_later"]
        recorder = self

        @functools.wraps(run)
        def traced_run(sim, until=None):
            before = sim._sequence
            try:
                return run_span(sim, until)
            finally:
                recorder.counts["events"] += sim._sequence - before

        @functools.wraps(process)
        def traced_process(sim, generator, name=""):
            recorder.counts["processes"] += 1
            return process(sim, recorder.wrap_process_body(generator), name)

        @functools.wraps(call_later)
        def traced_call_later(sim, delay, call, arg=None):
            return call_later(sim, delay, recorder.wrap_callback(call), arg)

        self._patch(Simulator, "run", traced_run)
        self._patch(Simulator, "process", traced_process)
        self._patch(Simulator, "call_later", traced_call_later)

    def uninstall(self) -> List[Tuple[object, str, object, bool]]:
        """Restore every patched attribute; returns what was restored."""
        restored = list(self._patches)
        for owner, name, original, is_item in reversed(restored):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()
        return restored

    # -- recording ------------------------------------------------------------
    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under the harness root span with every boundary
        patched; the patches are gone again when this returns."""
        self.install()
        try:
            self._origin = self.clock()
            frame = self.push(self.stats_for(HARNESS), 0, 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall_s += self.pop(frame)[2]
        finally:
            self.uninstall()

    def self_s(self, prefix: str = "") -> float:
        """Self seconds of every span whose layer is ``prefix`` or below
        it (``"core"`` covers ``core.gateway``); all spans for ``""``."""
        total = 0.0
        for (module, _name), stats in self.stats.items():
            layer = layer_of(module)
            if not prefix or layer == prefix or layer.startswith(prefix + "."):
                total += stats[3]
        return total

    def program_s(self) -> float:
        """Traced wall seconds minus the benchmark's own (harness) code,
        such as its calibration loops: the base for layer shares."""
        return self.wall_s - self.self_s("harness")

    def span_self_s(self, module: str, qualname: str) -> float:
        stats = self.stats.get((module, qualname))
        return stats[3] if stats else 0.0

    def calls(self, module: str, qualname: str) -> int:
        stats = self.stats.get((module, qualname))
        return int(stats[0]) if stats else 0

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "counts": dict(self.counts),
            "requests": self.requests,
            "spans": [
                {"layer": layer_of(module), "name": name,
                 "calls": int(stats[0]), "resumes": int(stats[1]),
                 "busy_s": stats[2], "self_s": stats[3]}
                for (module, name), stats in sorted(self.stats.items())],
            "raw": self.raw,
        }
