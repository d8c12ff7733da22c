"""Discrete-event simulation core.

A minimal, dependency-free engine in the simpy tradition: a
:class:`Simulator` with an event agenda, generator-driven processes,
capacity resources with utilization accounting, and measurement
primitives. Every higher layer of the Canal Mesh reproduction runs on
top of this package.
"""

from .events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    PENDING,
    Process,
    SimulationError,
    Timeout,
)
from .metrics import Summary, TimeSeries, cdf, percentile
from .resources import CpuResource, Request, Resource, Store
from .rng import derived_stream
from .sim import Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "CpuResource",
    "Event",
    "Interrupt",
    "PENDING",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Summary",
    "TimeSeries",
    "Timeout",
    "cdf",
    "derived_stream",
    "percentile",
]
