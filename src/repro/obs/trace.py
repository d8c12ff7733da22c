"""Deterministic causal tracing: spans, traces, sampling, analytics.

§4.1.1's functional-equivalence argument says a sidecar-free mesh can
still instrument "critical points in the traffic path". This module is
that backbone: every layer of the reproduction (gateway L7 routing,
on-node L4 segments, app execution, TLS handshakes, control-plane
pushes, fault injections) emits :class:`Span` records that assemble
into causal :class:`Trace` trees.

Design rules, in order of importance:

* **Disabled by default.** The ambient tracer is ``None`` until a run
  installs one (:func:`use_tracer`); the hot-path cost while disabled
  is one module-global read and a ``None`` check.
* **Deterministic.** Head-based sampling draws from a *dedicated*
  ``random.Random`` derived from the run's seed — never from the live
  ``sim.rng`` — so toggling tracing cannot perturb simulation results,
  and trace sets are byte-identical at any ``--jobs`` level (sweeps
  parallelize whole simulations, so per-sim tracer state never races).
* **Bounded.** The collector is a ring buffer: beyond ``max_traces``
  assembled traces the oldest is evicted, while aggregate statistics
  (per-pod bytes, coverage counts) are preserved.
* **Import-light.** Nothing here imports simcore or mesh code — the
  simulator's own observability hooks sit below this module.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Trace",
    "TraceCollector",
    "TraceHandle",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "register_collector",
    "take_collectors",
    "critical_path",
    "layer_attribution",
    "fault_detection_latency",
    "span_to_dict",
    "span_from_dict",
]

#: Default ring-buffer capacity of a collector (assembled traces kept).
DEFAULT_MAX_TRACES = 4096

#: The reserved span id of a trace's root span. Span id 0 means "flat"
#: (a legacy span recorded outside any causal tree); parent id 0 means
#: "no parent".
ROOT_SPAN_ID = 1


@dataclass(frozen=True)
class Span:
    """One instrumented segment of a request's path.

    The first nine fields are the original flat span model; ``span_id``
    / ``parent_id`` / ``name`` / ``annotations`` add causality. Legacy
    producers that only fill the flat fields still work everywhere.
    """

    trace_id: int
    source: str            # entity: "onnode@worker1", "gateway/replica-3"
    layer: str             # "l4" | "l7" | "app" | "tls" | "controlplane" | ...
    start_s: float
    end_s: float
    pod: str = ""
    service: str = ""
    bytes_out: int = 0
    bytes_in: int = 0
    span_id: int = 0
    parent_id: int = 0
    name: str = ""
    #: Typed key/value annotations, sorted for frozen hashability.
    annotations: Tuple[Tuple[str, str], ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def annotation(self, key: str, default: Optional[str] = None
                   ) -> Optional[str]:
        for name, value in self.annotations:
            if name == key:
                return value
        return default


def _freeze_annotations(annotations: Dict[str, object]
                        ) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((key, str(value))
                        for key, value in annotations.items()))


@dataclass
class Trace:
    """All spans of one request, ordered by start time.

    Every derived property is defined (as zero / ``"none"``) for an
    empty span list — a sampled-out or evicted trace must never crash
    the analytics that iterate over collectors.
    """

    trace_id: int
    spans: List[Span] = field(default_factory=list)

    @property
    def start_s(self) -> float:
        if not self.spans:
            return 0.0
        return min(span.start_s for span in self.spans)

    @property
    def end_s(self) -> float:
        if not self.spans:
            return 0.0
        return max(span.end_s for span in self.spans)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def layers(self) -> List[str]:
        return sorted({span.layer for span in self.spans})

    @property
    def coverage(self) -> str:
        """"full" when both node-side L4 and gateway L7 views exist."""
        has_l4 = any(span.layer == "l4" for span in self.spans)
        has_l7 = any(span.layer == "l7" for span in self.spans)
        if has_l4 and has_l7:
            return "full"
        if has_l7:
            return "partial"
        return "none"

    def root(self) -> Optional[Span]:
        """The causal root span, or ``None`` for flat/empty traces."""
        roots = [span for span in self.spans
                 if span.span_id and span.parent_id == 0]
        if not roots:
            return None
        return min(roots, key=lambda span: (span.start_s, span.span_id))

    def span(self, span_id: int) -> Optional[Span]:
        for candidate in self.spans:
            if candidate.span_id == span_id:
                return candidate
        return None

    def children(self, span_id: int) -> List[Span]:
        return sorted((span for span in self.spans
                       if span.parent_id == span_id and span.span_id),
                      key=lambda span: (span.start_s, span.span_id))

    def depth(self, span: Span) -> int:
        """Ancestor count via ``parent_id`` (root = 0, flat spans = 0)."""
        depth, current = 0, span
        while current is not None and current.parent_id:
            current = self.span(current.parent_id)
            if current is None:
                break
            depth += 1
        return depth

    def critical_path_gap_s(self) -> float:
        """Unattributed time: end-to-end minus instrumented coverage.

        Large gaps mean a fault can't be pinpointed — exactly the §3.2
        Issue #1 worry about losing node-side collection. Spans overlap
        (the gateway L7 span can enclose node L4 spans), so coverage is
        the *union* of span intervals, not the sum of durations.
        """
        if not self.spans:
            return 0.0
        intervals = sorted((span.start_s, span.end_s) for span in self.spans)
        covered = 0.0
        current_start, current_end = intervals[0]
        for start, end in intervals[1:]:
            if start > current_end:
                covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        covered += current_end - current_start
        # The union lies within [start_s, end_s]; the clamp only guards
        # floating-point residue.
        return max(0.0, self.duration_s - covered)


# -- trace analytics ---------------------------------------------------------
def critical_path(trace: Trace) -> List[Tuple[float, float, str, str]]:
    """Critical-path decomposition: ``(start_s, end_s, layer, source)``
    segments covering the trace end to end.

    A sequential request's critical path is its own timeline; each
    elementary interval is attributed to the *deepest* covering span
    (ties: the shortest, then latest-allocated — the most specific
    view), or ``("unattributed", "")`` where no span covers it.
    """
    spans = [span for span in trace.spans if span.end_s > span.start_s]
    if not spans:
        return []
    boundaries = sorted({t for span in spans
                         for t in (span.start_s, span.end_s)})
    segments: List[Tuple[float, float, str, str]] = []
    for left, right in zip(boundaries, boundaries[1:]):
        covering = [span for span in spans
                    if span.start_s <= left and span.end_s >= right]
        if covering:
            best = max(covering,
                       key=lambda span: (trace.depth(span),
                                         -span.duration_s, span.span_id))
            layer, source = best.layer, best.source
        else:
            layer, source = "unattributed", ""
        if segments and segments[-1][2] == layer and segments[-1][3] == source \
                and segments[-1][1] == left:
            previous = segments.pop()
            segments.append((previous[0], right, layer, source))
        else:
            segments.append((left, right, layer, source))
    return segments


def layer_attribution(trace: Trace) -> Dict[str, float]:
    """Per-layer exclusive latency over the trace's end-to-end window.

    Sums the critical-path segments by layer, so enclosing spans (root,
    gateway L7 around replica execution) only account for the time not
    claimed by a deeper span.
    """
    attribution: Dict[str, float] = {}
    for start, end, layer, _source in critical_path(trace):
        attribution[layer] = attribution.get(layer, 0.0) + (end - start)
    return attribution


def _default_degraded(trace: Trace) -> bool:
    root = trace.root()
    if root is None:
        return False
    status = root.annotation("status")
    return status is not None and status not in ("200", "ok")


def fault_detection_latency(traces: Sequence[Trace],
                            fault_marks: Sequence[Dict[str, object]],
                            degraded=None) -> List[Dict[str, object]]:
    """Per injection: when did the first degraded trace surface it?

    ``degraded`` is a predicate over :class:`Trace` (default: root span
    status annotation is neither ``200`` nor ``ok``). Detection happens
    when a degraded trace *completes* at or after the injection time,
    so the latency includes the in-flight request's tail. Entries with
    no detection carry ``detected_at``/``latency_s`` of ``None``.
    """
    degraded = degraded or _default_degraded
    completed = sorted(traces, key=lambda trace: (trace.end_s,
                                                  trace.trace_id))
    report: List[Dict[str, object]] = []
    for mark in fault_marks:
        if mark.get("action") != "inject":
            continue
        injected_at = float(mark.get("t", 0.0))
        hit = next((trace for trace in completed
                    if trace.end_s >= injected_at and degraded(trace)), None)
        report.append({
            "kind": mark.get("kind", ""),
            "target": mark.get("target", ""),
            "t": injected_at,
            "detected_at": None if hit is None else hit.end_s,
            "latency_s": None if hit is None else hit.end_s - injected_at,
            "trace_id": None if hit is None else hit.trace_id,
        })
    return report


# -- serialization (picklable sweep transport) -------------------------------
def span_to_dict(span: Span) -> Dict[str, object]:
    """A plain-dict view of one span (JSON- and pickle-friendly)."""
    return {
        "trace_id": span.trace_id, "source": span.source,
        "layer": span.layer, "start_s": span.start_s, "end_s": span.end_s,
        "pod": span.pod, "service": span.service,
        "bytes_out": span.bytes_out, "bytes_in": span.bytes_in,
        "span_id": span.span_id, "parent_id": span.parent_id,
        "name": span.name,
        "annotations": [list(pair) for pair in span.annotations],
    }


def span_from_dict(data: Dict[str, object]) -> Span:
    return Span(
        trace_id=int(data["trace_id"]), source=str(data["source"]),
        layer=str(data["layer"]), start_s=float(data["start_s"]),
        end_s=float(data["end_s"]), pod=str(data.get("pod", "")),
        service=str(data.get("service", "")),
        bytes_out=int(data.get("bytes_out", 0)),
        bytes_in=int(data.get("bytes_in", 0)),
        span_id=int(data.get("span_id", 0)),
        parent_id=int(data.get("parent_id", 0)),
        name=str(data.get("name", "")),
        annotations=tuple((str(key), str(value)) for key, value
                          in data.get("annotations", ())),
    )


class TraceCollector:
    """Receives spans from every layer and assembles bounded traces.

    A ring buffer over assembled traces: recording a span for a new
    trace id beyond ``max_traces`` evicts the oldest trace, folding its
    coverage level into the aggregate counts first (per-pod byte totals
    are aggregated at record time and never lost to eviction).
    """

    def __init__(self, max_traces: Optional[int] = DEFAULT_MAX_TRACES):
        self._spans: "OrderedDict[int, List[Span]]" = OrderedDict()
        self._next_trace_id = 1
        self.max_traces = max_traces
        self.pod_bytes: Dict[str, int] = {}
        #: Fault inject/recover events overlapping the collected traces
        #: (annotated by repro.faults.FaultEngine while tracing is on).
        self.fault_marks: List[Dict[str, object]] = []
        self.spans_recorded = 0
        self.traces_evicted = 0
        self._evicted_coverage: Dict[str, int] = {
            "full": 0, "partial": 0, "none": 0}

    def new_trace_id(self) -> int:
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return trace_id

    def record(self, span: Span) -> None:
        spans = self._spans.get(span.trace_id)
        if spans is None:
            spans = self._spans[span.trace_id] = []
            if self.max_traces is not None \
                    and len(self._spans) > self.max_traces:
                self._evict_oldest()
        spans.append(span)
        self.spans_recorded += 1
        if span.pod:
            self.pod_bytes[span.pod] = (self.pod_bytes.get(span.pod, 0)
                                        + span.bytes_out + span.bytes_in)

    def _evict_oldest(self) -> None:
        oldest_id = next(iter(self._spans))
        spans = self._spans.pop(oldest_id)
        coverage = Trace(trace_id=oldest_id, spans=spans).coverage
        self._evicted_coverage[coverage] += 1
        self.traces_evicted += 1

    def mark_fault(self, t: float, action: str, kind: str, target: str,
                   detail: str = "") -> None:
        """Annotate a fault inject/recover event onto the trace stream."""
        self.fault_marks.append({"t": t, "action": action, "kind": kind,
                                 "target": target, "detail": detail})

    def trace(self, trace_id: int) -> Trace:
        spans = self._spans.get(trace_id)
        if not spans:
            raise KeyError(f"no spans recorded for trace {trace_id}")
        return Trace(trace_id=trace_id,
                     spans=sorted(spans,
                                  key=lambda s: (s.start_s, s.span_id)))

    def traces(self) -> List[Trace]:
        return [self.trace(trace_id) for trace_id in sorted(self._spans)]

    def coverage_report(self) -> Dict[str, int]:
        """How many traces achieved each coverage level (evicted ones
        included, at the level they held when they aged out)."""
        report = dict(self._evicted_coverage)
        for trace in self.traces():
            report[trace.coverage] += 1
        return report

    def pod_traffic_report(self) -> Dict[str, int]:
        """Per-pod byte totals — the sidecar-equivalent statistic that
        the on-node proxy reconstructs by labeling traffic."""
        return dict(self.pod_bytes)


class TraceHandle:
    """Builder for one sampled trace: allocates span ids, records spans.

    The root span (id ``1``) is reserved at start and recorded by
    :meth:`finish`; children allocated via :meth:`add` reference it (or
    each other) through ``parent_id``, giving real causality without
    mutating frozen spans.
    """

    __slots__ = ("collector", "trace_id", "name", "layer", "source",
                 "service", "start_s", "_annotations", "_next_span_id",
                 "finished")

    def __init__(self, collector: TraceCollector, trace_id: int, name: str,
                 layer: str, source: str, service: str, start_s: float,
                 annotations: Dict[str, object]):
        self.collector = collector
        self.trace_id = trace_id
        self.name = name
        self.layer = layer
        self.source = source or name
        self.service = service
        self.start_s = start_s
        self._annotations = dict(annotations)
        self._next_span_id = ROOT_SPAN_ID + 1
        self.finished = False

    def reserve_id(self) -> int:
        """Allocate a span id to record later (parents whose children
        must reference them before the parent's interval closes)."""
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    def add(self, name: str, layer: str, start_s: float, end_s: float,
            parent_id: int = ROOT_SPAN_ID, source: str = "",
            service: str = "", pod: str = "", bytes_out: int = 0,
            bytes_in: int = 0, span_id: Optional[int] = None,
            **annotations) -> int:
        """Record one child span; returns its id for further nesting."""
        if span_id is None:
            span_id = self.reserve_id()
        self.collector.record(Span(
            trace_id=self.trace_id, source=source or name, layer=layer,
            start_s=start_s, end_s=end_s, pod=pod,
            service=service or self.service, bytes_out=bytes_out,
            bytes_in=bytes_in, span_id=span_id, parent_id=parent_id,
            name=name, annotations=_freeze_annotations(annotations)))
        return span_id

    def add_tree(self, spec: Dict[str, object],
                 parent_id: int = ROOT_SPAN_ID) -> int:
        """Record a nested span spec (dicts with a ``children`` list).

        Used for *deferred* spans: connection setup (TLS handshakes)
        happens before any request trace exists, so producers stash
        span specs and the first request's trace adopts them.
        """
        spec = dict(spec)
        children = spec.pop("children", ())
        annotations = dict(spec.pop("annotations", {}))
        span_id = self.add(parent_id=parent_id, **spec, **annotations)
        for child in children:
            self.add_tree(child, parent_id=span_id)
        return span_id

    def annotate(self, key: str, value: object) -> None:
        """Attach a root-span annotation (applied at finish)."""
        self._annotations[key] = value

    def finish(self, end_s: float, **annotations) -> None:
        """Close the trace: record the root span. Idempotent."""
        if self.finished:
            return
        self.finished = True
        merged = dict(self._annotations)
        merged.update(annotations)
        self.collector.record(Span(
            trace_id=self.trace_id, source=self.source, layer=self.layer,
            start_s=self.start_s, end_s=end_s, service=self.service,
            span_id=ROOT_SPAN_ID, parent_id=0, name=self.name,
            annotations=_freeze_annotations(merged)))


class Tracer:
    """Head-sampled trace production over one collector.

    The sampling decision is made once per trace at :meth:`start` from
    a dedicated ``random.Random`` seeded by ``seed`` (derive it from
    the simulator's seed — *never* pass ``sim.rng`` itself: consuming
    the simulation's stream here would change model behavior whenever
    tracing toggles). One draw is consumed per started trace regardless
    of the decision, so downstream draws stay aligned.
    """

    def __init__(self, collector: Optional[TraceCollector] = None,
                 sample_rate: float = 1.0, seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], "
                             f"got {sample_rate}")
        self.collector = (collector if collector is not None
                          else TraceCollector())
        self.sample_rate = sample_rate
        self._sampler = random.Random(f"repro.obs.trace:{seed!r}")
        self.traces_started = 0
        self.traces_sampled = 0

    def start(self, name: str, layer: str = "request", source: str = "",
              service: str = "", start_s: float = 0.0,
              **annotations) -> Optional[TraceHandle]:
        """Begin a trace, or return ``None`` when sampled out."""
        self.traces_started += 1
        trace_id = self.collector.new_trace_id()
        if self.sample_rate < 1.0 \
                and self._sampler.random() >= self.sample_rate:
            return None
        self.traces_sampled += 1
        return TraceHandle(self.collector, trace_id, name, layer, source,
                           service, start_s, annotations)


# -- ambient tracer (the disabled-by-default hot-path hook) ------------------
_tracer: Optional[Tracer] = None
_collectors: List[TraceCollector] = []


def get_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` while tracing is disabled.

    This is the hot-path check: instrumentation points read it once per
    request and skip all trace work on ``None``.
    """
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as ambient; returns the previous one.

    The tracer's collector is registered for the report exporters to
    drain (:func:`take_collectors`) after the run.
    """
    global _tracer
    previous, _tracer = _tracer, tracer
    if tracer is not None:
        register_collector(tracer.collector)
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope a tracer (a full-sampling one by default)."""
    installed = tracer if tracer is not None else Tracer()
    previous = set_tracer(installed)
    try:
        yield installed
    finally:
        set_tracer(previous)


def register_collector(collector: TraceCollector) -> TraceCollector:
    """Queue a collector for the run-report exporters to drain."""
    if collector not in _collectors:
        _collectors.append(collector)
    return collector


def take_collectors() -> List[TraceCollector]:
    """Drain (return and forget) every registered collector."""
    global _collectors
    drained, _collectors = _collectors, []
    return drained
