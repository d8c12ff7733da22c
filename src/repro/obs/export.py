"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, run reports.

Three machine-readable views of one run:

* :func:`chrome_trace` — a ``chrome://tracing`` / Perfetto-loadable JSON
  object combining simulated-time spans (from
  :class:`repro.obs.trace.TraceCollector` traces, pid
  ``"sim-traces"``) and wall-clock profiler timelines (one pid per
  profiled simulator);
* :func:`prometheus_text` — a text-format snapshot of a
  :class:`~repro.obs.telemetry.Telemetry` registry;
* :func:`run_report` / :func:`write_run_artifacts` — a JSON run report
  bundling an experiment's tables/series/findings with the telemetry
  snapshot and profiler attribution, written next to the other two.

Everything is duck-typed (spans need ``source``/``layer``/``start_s``/
``end_s``; results need ``tables``/``series``/``findings``/``notes``) so
this module imports neither ``repro.core`` nor ``repro.experiments``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "run_report",
    "traces_json",
    "write_run_artifacts",
]


# -- Chrome trace_event JSON -------------------------------------------------
def _span_events(traces: Iterable) -> List[dict]:
    """Complete ("ph": "X") events from assembled request traces.

    Simulated seconds map to microseconds of trace time; each span
    source (onnode@w1, gateway/r1, ...) becomes its own thread row.
    Causal spans additionally carry span/parent ids and annotations so
    Perfetto's args panel shows the tree.
    """
    events: List[dict] = []
    tids: Dict[str, int] = {}
    for trace in traces:
        for span in trace.spans:
            tid = tids.setdefault(span.source, len(tids) + 1)
            args = {"trace_id": trace.trace_id, "pod": span.pod,
                    "bytes_out": span.bytes_out,
                    "bytes_in": span.bytes_in}
            span_id = getattr(span, "span_id", 0)
            if span_id:
                args["span_id"] = span_id
                args["parent_id"] = getattr(span, "parent_id", 0)
            for key, value in getattr(span, "annotations", ()):
                args[f"a.{key}"] = value
            name = getattr(span, "name", "")
            events.append({
                "name": name or f"{span.layer}:{span.service or span.source}",
                "cat": span.layer,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": (span.end_s - span.start_s) * 1e6,
                "pid": "sim-traces",
                "tid": tid,
                "args": args,
            })
    return events


def _fault_events(fault_marks: Iterable) -> List[dict]:
    """Instant ("ph": "i") events for fault injections/recoveries.

    Rendered as global vertical markers on the trace timeline so the
    fault lines up visually with the spans it degraded.
    """
    return [{
        "name": f"{mark['action']}:{mark['kind']}",
        "cat": "fault",
        "ph": "i",
        "s": "g",
        "ts": mark["t"] * 1e6,
        "pid": "sim-traces",
        "tid": 0,
        "args": {"target": mark.get("target", ""),
                 "detail": mark.get("detail", "")},
    } for mark in fault_marks]


def _profiler_events(profilers: Iterable) -> List[dict]:
    """Wall-clock timeline events, one pid per profiled simulator."""
    events: List[dict] = []
    for index, profiler in enumerate(profilers, start=1):
        pid = f"sim-{index}-wall"
        tids: Dict[str, int] = {}
        for start_s, dur_s, key in profiler.timeline:
            tid = tids.setdefault(key, len(tids) + 1)
            events.append({
                "name": key,
                "cat": "profiler",
                "ph": "X",
                "ts": start_s * 1e6,
                "dur": dur_s * 1e6,
                "pid": pid,
                "tid": tid,
            })
        for row in profiler.summary():
            events.append({
                "name": "attribution",
                "cat": "profiler",
                "ph": "C",
                "ts": 0,
                "pid": pid,
                "tid": tids.get(row["key"], 0),
                "args": {row["key"]: row["wall_s"] * 1e3},
            })
    return events


def chrome_trace(traces: Iterable = (), profilers: Iterable = (),
                 fault_marks: Iterable = ()) -> dict:
    """A ``chrome://tracing``-loadable JSON object for one run."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": (_span_events(traces) + _profiler_events(profilers)
                        + _fault_events(fault_marks)),
    }


def _span_dict(span) -> dict:
    """JSON-friendly view of one span (legacy flat or causal)."""
    record = {
        "trace_id": span.trace_id, "source": span.source,
        "layer": span.layer, "start_s": span.start_s, "end_s": span.end_s,
        "pod": span.pod, "service": span.service,
        "bytes_out": span.bytes_out, "bytes_in": span.bytes_in,
    }
    span_id = getattr(span, "span_id", 0)
    if span_id:
        record["span_id"] = span_id
        record["parent_id"] = getattr(span, "parent_id", 0)
        record["name"] = getattr(span, "name", "")
    annotations = dict(getattr(span, "annotations", ()))
    if annotations:
        record["annotations"] = annotations
    return record


def traces_json(traces: Iterable = (), fault_marks: Iterable = ()) -> dict:
    """The raw-trace JSON export: spans grouped per trace + fault marks.

    This is the machine-readable companion of :func:`chrome_trace` — the
    view ``repro.serve``'s ``GET /jobs/{id}/trace`` returns and the
    ``*.traces.json`` artifact stores.
    """
    return {
        "traces": [{
            "trace_id": trace.trace_id,
            "start_s": trace.start_s,
            "end_s": trace.end_s,
            "coverage": trace.coverage,
            "layers": trace.layers(),
            "spans": [_span_dict(span) for span in trace.spans],
        } for trace in traces],
        "fault_marks": [dict(mark) for mark in fault_marks],
    }


# -- Prometheus text format --------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"') \
        .replace("\n", r"\n")


def _label_str(labels: Sequence, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(str(value))}"'
                     for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(telemetry) -> str:
    """Text-format exposition of every family in ``telemetry``."""
    lines: List[str] = []
    for family in telemetry.families():
        lines.append(f"# TYPE {family.name} {family.kind}")
        for child in family:
            if family.kind == "histogram":
                cumulative = child.cumulative_counts()
                edges = [str(edge) for edge in child.buckets] + ["+Inf"]
                for edge, count in zip(edges, cumulative):
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_label_str(child.labels, {'le': edge})} {count}")
                lines.append(f"{family.name}_sum{_label_str(child.labels)} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{_label_str(child.labels)} "
                             f"{child.count}")
            else:
                lines.append(f"{family.name}{_label_str(child.labels)} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON run report ---------------------------------------------------------
def _result_dict(result) -> dict:
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "tables": [{"title": table.title, "columns": list(table.columns),
                    "rows": [list(row) for row in table.rows]}
                   for table in result.tables],
        "series": [{"name": series.name, "x_label": series.x_label,
                    "y_label": series.y_label,
                    "points": [list(point) for point in series.points]}
                   for series in result.series],
        "findings": dict(result.findings),
        "notes": list(result.notes),
    }


def run_report(result=None, telemetry=None, profilers: Iterable = (),
               meta: Optional[dict] = None,
               faults: Iterable = ()) -> dict:
    """The JSON run report: exhibit + metrics + profiler attribution.

    ``faults`` is the merged fault timeline (entries with ``t`` /
    ``action`` / ``kind`` / ``target`` / ``detail``, as recorded by
    ``repro.faults.FaultEngine``); it only appears in the report when
    the run actually injected something.
    """
    report: dict = {"meta": dict(meta or {})}
    if result is not None:
        report["result"] = _result_dict(result)
    if telemetry is not None:
        report["telemetry"] = telemetry.snapshot()
    faults = [dict(entry) for entry in faults]
    if faults:
        report["faults"] = faults
    report["profilers"] = [
        {"steps": profiler.steps,
         "sim_total_s": profiler.sim_total_s(),
         "wall_total_s": profiler.wall_total_s(),
         "dropped_timeline_events": profiler.dropped_timeline_events,
         "attribution": profiler.summary()}
        for profiler in profilers
    ]
    return report


def write_run_artifacts(directory: str, exp_id: str, result=None,
                        telemetry=None, profilers: Iterable = (),
                        traces: Iterable = (),
                        meta: Optional[dict] = None,
                        faults: Iterable = (),
                        fault_marks: Iterable = ()) -> Dict[str, str]:
    """Write the artifacts for one run; returns name -> path.

    ``traces`` additionally produces a raw ``*.traces.json`` export next
    to the Chrome ``*.trace.json`` (the latter always exists because it
    also carries profiler timelines).
    """
    os.makedirs(directory, exist_ok=True)
    profilers = list(profilers)
    traces = list(traces)
    fault_marks = list(fault_marks)
    paths = {
        "report": os.path.join(directory, f"{exp_id}.report.json"),
        "metrics": os.path.join(directory, f"{exp_id}.prom"),
        "trace": os.path.join(directory, f"{exp_id}.trace.json"),
    }
    with open(paths["report"], "w") as handle:
        json.dump(run_report(result, telemetry, profilers, meta,
                             faults=faults), handle,
                  indent=2, default=str)
    with open(paths["metrics"], "w") as handle:
        handle.write(prometheus_text(telemetry)
                     if telemetry is not None else "")
    with open(paths["trace"], "w") as handle:
        # dumps, not dump: only the one-shot path uses the C encoder, and
        # profiler timelines run to millions of events (same bytes).
        handle.write(json.dumps(chrome_trace(traces, profilers,
                                             fault_marks)))
    if traces:
        paths["traces"] = os.path.join(directory, f"{exp_id}.traces.json")
        with open(paths["traces"], "w") as handle:
            json.dump(traces_json(traces, fault_marks), handle, indent=2)
    return paths
