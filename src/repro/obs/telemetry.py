"""The labeled-metric registry at the center of ``repro.obs``.

A :class:`Telemetry` instance holds counter, gauge, and histogram
*families* addressed by name, each fanning out to children addressed by
label sets — the classic Prometheus data model::

    telemetry.inc("requests_total", mesh="canal", result="ok")
    telemetry.observe("latency_seconds", 0.004, mesh="canal")
    telemetry.set("water_level", 0.62, backend="backend-1")

Instrumentation points all over the mesh stack emit into the *ambient*
registry (see :mod:`repro.obs.runtime`), which is **disabled** by
default: every mutator checks ``self.enabled`` first and returns, so the
datapath pays one method call per emission when telemetry is off.
Experiments that want measurements install an enabled registry for the
duration of a run.

Nothing here touches the simulator; values are plain floats and the
caller supplies any timestamps it cares about.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Telemetry",
    "MetricFamily",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
]

#: Default histogram buckets, tuned for request latencies / CPU costs in
#: seconds (100 µs .. 10 s, roughly log-spaced like Prometheus defaults).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
    2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A label set frozen into a canonical, hashable key.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class CounterMetric:
    """One monotonically increasing child of a counter family."""

    __slots__ = ("labels", "value")
    kind = "counter"

    def __init__(self, labels: LabelKey):
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class GaugeMetric:
    """One set-to-current-value child of a gauge family."""

    __slots__ = ("labels", "value")
    kind = "gauge"

    def __init__(self, labels: LabelKey):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class HistogramMetric:
    """One bucketed-distribution child of a histogram family."""

    __slots__ = ("labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, labels: LabelKey,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.labels = labels
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        #: counts[i] = observations <= buckets[i]; the final slot is +Inf.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-``le`` counts (ends at +Inf)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricFamily:
    """All children of one metric name, sharing a kind (and buckets)."""

    def __init__(self, name: str, kind: str,
                 buckets: Optional[Sequence[float]] = None):
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelKey, object] = {}

    def child(self, labels: Dict[str, object]):
        key = _label_key(labels)
        metric = self.children.get(key)
        if metric is None:
            if self.kind == "counter":
                metric = CounterMetric(key)
            elif self.kind == "gauge":
                metric = GaugeMetric(key)
            else:
                metric = HistogramMetric(key, self.buckets or DEFAULT_BUCKETS)
            self.children[key] = metric
        return metric

    def __iter__(self) -> Iterator:
        for key in sorted(self.children):
            yield self.children[key]


class Telemetry:
    """A registry of labeled metric families with cheap disabled mode."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}

    # -- family access -----------------------------------------------------
    def _family(self, name: str, kind: str,
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot reuse as {kind}")
        return family

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    # -- emission ----------------------------------------------------------
    def metric(self, kind: str, name: str,
               buckets: Optional[Sequence[float]] = None, **labels):
        """The child ``name{labels}`` of a ``kind`` family, created on
        first use. A hot emitter holds it across emissions (the
        Prometheus client's ``labels()`` idiom) instead of paying for
        the family and label-set lookups of :meth:`inc`/:meth:`observe`
        on every call."""
        return self._family(name, kind, buckets=buckets).child(labels)

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the counter ``name{labels}``."""
        if not self.enabled:
            return
        self._family(name, "counter").child(labels).inc(amount)

    def set(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        if not self.enabled:
            return
        self._family(name, "gauge").child(labels).set(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None, **labels) -> None:
        """Record one sample into the histogram ``name{labels}``.

        ``buckets`` only matters on the family's first use; later calls
        inherit the family's bucket layout.
        """
        if not self.enabled:
            return
        self._family(name, "histogram", buckets=buckets) \
            .child(labels).observe(value)

    # -- queries -----------------------------------------------------------
    def get(self, name: str, **labels):
        """The child metric object for ``name{labels}``, or ``None``."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Current scalar of a counter/gauge (0.0 when never emitted)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        if isinstance(metric, HistogramMetric):
            raise ValueError(f"{name!r} is a histogram; query .sum/.count "
                             f"via get()")
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter family across all label sets."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        if family.kind == "histogram":
            raise ValueError(f"{name!r} is a histogram")
        return sum(child.value for child in family)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready dump of every family and child."""
        out: Dict[str, object] = {}
        for family in self.families():
            samples = []
            for child in family:
                labels = dict(child.labels)
                if isinstance(child, HistogramMetric):
                    samples.append({
                        "labels": labels,
                        "buckets": list(child.buckets),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {"kind": family.kind, "samples": samples}
        return out

    def __len__(self) -> int:
        return len(self._families)
