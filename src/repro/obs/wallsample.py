"""Sampled per-layer wall split of a run, taken off the event loop.

:func:`sample_layers` starts a daemon thread that, every
:data:`INTERVAL_S`, reads the calling thread's stack and counts one
sample for the top-level ``repro`` package (``simcore``, ``core``,
``mesh``, ...) of the innermost frame whose file lies in the package,
or ``other`` when no frame does: the layer names of
``benchmarks/perf_gate.py`` and ``BENCH_e2e.json``. The simulator is
never touched and the sampler reads no clock and draws no randomness,
so simulated output cannot change. Only the calling thread is sampled:
a sweep fanned out to pool workers shows as the frame waiting on them.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterator

__all__ = ["INTERVAL_S", "LayerSamples", "sample_layers"]

#: Seconds between samples.
INTERVAL_S = 0.005

#: ``.../repro/``: its top-level subpackages are the layers.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def _file_layer(filename: str) -> str:
    """The top-level ``repro`` package ``filename`` lies in, else ''."""
    path = os.path.abspath(filename)
    if not path.startswith(_ROOT):
        return ""
    package, sep, _rest = path[len(_ROOT):].partition(os.sep)
    return package if sep else ""


def _stack_layer(frame, layers_by_file: Dict[str, str]) -> str:
    """The layer of the innermost ``repro`` frame on ``frame``'s stack."""
    while frame is not None:
        filename = frame.f_code.co_filename
        layer = layers_by_file.get(filename)
        if layer is None:
            layer = layers_by_file[filename] = _file_layer(filename)
        if layer:
            return layer
        frame = frame.f_back
    return "other"


class LayerSamples:
    """Sample counts per layer, filled in by :func:`sample_layers`."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> Dict[str, float]:
        """Each layer's fraction of the samples; empty before the first."""
        total = self.samples
        return {layer: count / total
                for layer, count in sorted(self.counts.items())}

    def to_dict(self) -> dict:
        return {"samples": self.samples, "shares": self.shares()}


@contextmanager
def sample_layers() -> Iterator[LayerSamples]:
    """Sample the calling thread's layer every :data:`INTERVAL_S`."""
    samples = LayerSamples()
    counts = samples.counts
    target = threading.get_ident()
    stop = threading.Event()
    layers_by_file: Dict[str, str] = {}

    def sample() -> None:
        while not stop.wait(INTERVAL_S):
            layer = _stack_layer(sys._current_frames().get(target),
                                 layers_by_file)
            counts[layer] = counts.get(layer, 0) + 1

    thread = threading.Thread(target=sample, name="repro-wallsample",
                              daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()
