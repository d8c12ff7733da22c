"""Unified telemetry: metrics registry, per-layer wall split, exporters.

The observability backbone of the reproduction (§4.1.1, Appendix A of
the paper argue a sidecar-free mesh can keep sidecar-grade telemetry;
this package is where our own run telemetry lives):

* :class:`Telemetry` — labeled counters/gauges/histograms that every
  mesh layer emits into (disabled, and nearly free, by default);
* :func:`sample_layers` — a sampled split of a run's wall time across
  the top-level ``repro`` packages, taken off the event loop;
* :mod:`repro.obs.trace` — deterministic, disabled-by-default causal
  tracing: :class:`Span` trees assembled by a ring-buffered
  :class:`TraceCollector`, head-sampled by an ambient :class:`Tracer`;
* exporters — Chrome ``trace_event`` JSON, Prometheus text snapshots,
  and JSON run reports (``python -m repro.experiments --report <dir>``).
"""

from .export import (
    chrome_trace,
    prometheus_text,
    run_report,
    traces_json,
    write_run_artifacts,
)
from .runtime import get_telemetry, set_telemetry, use_telemetry
from .telemetry import DEFAULT_BUCKETS, MetricFamily, Telemetry
from .trace import (
    Span,
    Trace,
    TraceCollector,
    Tracer,
    critical_path,
    fault_detection_latency,
    get_tracer,
    layer_attribution,
    register_collector,
    set_tracer,
    span_from_dict,
    span_to_dict,
    take_collectors,
    use_tracer,
)
from .wallsample import LayerSamples, sample_layers

__all__ = [
    "DEFAULT_BUCKETS",
    "LayerSamples",
    "MetricFamily",
    "Span",
    "Telemetry",
    "Trace",
    "TraceCollector",
    "Tracer",
    "chrome_trace",
    "critical_path",
    "fault_detection_latency",
    "get_telemetry",
    "get_tracer",
    "layer_attribution",
    "prometheus_text",
    "register_collector",
    "run_report",
    "sample_layers",
    "set_telemetry",
    "set_tracer",
    "span_from_dict",
    "span_to_dict",
    "take_collectors",
    "traces_json",
    "use_telemetry",
    "use_tracer",
    "write_run_artifacts",
]
