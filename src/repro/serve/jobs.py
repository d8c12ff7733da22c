"""Job model for ``repro.serve``: specs, lifecycle, and the store.

A *job* is one unit of accepted work — a single exhibit run, a sweep of
several exhibits, or (in test deployments only) a named probe. Its
lifecycle is a strict one-way state machine::

    queued ──> running ──> done
                  │
                  └──────> failed

``queued → running`` happens when a scheduler worker claims the job;
``running → done`` when the worker process returns a result; ``running
→ failed`` on a job-side exception, a per-job timeout, or worker death
past the retry budget. A retried attempt stays in ``running`` (the
retry is recorded as an event, not a state).

Every transition and every progress report is appended to the job's
*event log*, a monotonically sequenced list the SSE endpoint replays
and tails — a late subscriber sees the full history, a live one blocks
on the store's condition variable until the next append.

Nothing here touches the simulator; all timestamps are wall-clock
(``repro.serve`` is allowlisted for DET001 — the service layer lives in
real time).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Job",
    "JobEvent",
    "JobSpec",
    "JobSpecError",
    "JobStore",
    "PROBE_NAMES",
    "STATES",
    "TERMINAL_STATES",
]

#: Lifecycle states, in order of appearance.
STATES = ("queued", "running", "done", "failed")
TERMINAL_STATES = ("done", "failed")

#: Probe bodies tests may request (gated behind ``allow_probes``).
PROBE_NAMES = ("ok", "sleep", "crash", "fail")

_VALID_KINDS = ("exhibit", "sweep", "probe")


class JobSpecError(ValueError):
    """A submitted job spec failed validation (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated, immutable description of one job's work.

    Built from the JSON body of ``POST /jobs`` via :meth:`from_payload`;
    everything a worker process needs travels in here (the spec is
    pickled into the forked job process).
    """

    kind: str = "exhibit"
    exhibits: Tuple[str, ...] = ()
    priority: int = 0          # higher runs first among queued jobs
    report: bool = False       # write run artifacts (forces execution)
    use_cache: bool = True
    jobs: int = 1              # sweep-internal parallelism (0 = all cores)
    timeout_s: Optional[float] = None   # overrides the server default
    dedupe: bool = True        # coalesce with an identical in-flight job
    probe: str = ""            # probe body name (kind == "probe" only)
    probe_arg: float = 0.0     # probe parameter (e.g. sleep seconds)
    #: Canonical JSON of a :class:`~repro.faults.FaultPlan` ("" = no
    #: chaos). Validated at submission; the worker installs it as the
    #: ambient plan (chaos-aware exhibits arm it) and honors any
    #: ``serve_worker_death`` entries itself. Stored as a string so the
    #: frozen spec stays hashable for :meth:`dedupe_key`.
    faults: str = ""

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate a decoded JSON body into a spec, or raise
        :class:`JobSpecError` with an actionable message."""
        if not isinstance(payload, dict):
            raise JobSpecError("job spec must be a JSON object")
        known_keys = ("kind", "exhibit", "exhibits", "priority", "report",
                      "use_cache", "jobs", "timeout_s", "dedupe", "probe",
                      "probe_arg", "faults")
        unknown = sorted(k for k in payload if k not in known_keys)
        if unknown:
            raise JobSpecError(f"unknown job spec field(s): "
                               f"{', '.join(unknown)}")
        kind = payload.get("kind", "exhibit")
        if kind not in _VALID_KINDS:
            raise JobSpecError(
                f"unknown job kind {kind!r}; known: "
                + ", ".join(_VALID_KINDS))

        exhibits: Tuple[str, ...] = ()
        probe = ""
        probe_arg = 0.0
        if kind == "probe":
            probe = payload.get("probe", "")
            if probe not in PROBE_NAMES:
                raise JobSpecError(
                    f"unknown probe {probe!r}; known: "
                    + ", ".join(PROBE_NAMES))
            probe_arg = _number(payload.get("probe_arg", 0.0), "probe_arg")
        else:
            if kind == "exhibit":
                exhibit = payload.get("exhibit")
                if not isinstance(exhibit, str):
                    raise JobSpecError(
                        "exhibit jobs need an 'exhibit' string field")
                exhibits = (exhibit,)
            else:
                listed = payload.get("exhibits")
                if (not isinstance(listed, (list, tuple)) or not listed
                        or not all(isinstance(e, str) for e in listed)):
                    raise JobSpecError(
                        "sweep jobs need a non-empty 'exhibits' list")
                exhibits = tuple(listed)
            from ..experiments import exhibit_ids
            known = exhibit_ids()
            bogus = sorted(e for e in exhibits if e not in known)
            if bogus:
                raise JobSpecError(
                    f"unknown exhibit(s): {', '.join(bogus)}; known: "
                    + " ".join(known))

        faults = _validate_faults(payload.get("faults"), kind)

        timeout_s = payload.get("timeout_s")
        if timeout_s is not None:
            timeout_s = _number(timeout_s, "timeout_s")
            if timeout_s <= 0:
                raise JobSpecError("timeout_s must be > 0")
        jobs = _integer(payload.get("jobs", 1), "jobs")
        if jobs < 0:
            raise JobSpecError("jobs must be an int >= 0")
        return cls(
            kind=kind, exhibits=exhibits,
            priority=_integer(payload.get("priority", 0), "priority"),
            report=_flag(payload.get("report", False), "report"),
            use_cache=_flag(payload.get("use_cache", True), "use_cache"),
            jobs=jobs, timeout_s=timeout_s,
            dedupe=_flag(payload.get("dedupe", True), "dedupe"),
            probe=probe, probe_arg=probe_arg, faults=faults)

    def dedupe_key(self) -> Tuple:
        """What makes two jobs "the same work" (priority excluded)."""
        return (self.kind, self.exhibits, self.report, self.use_cache,
                self.jobs, self.probe, self.probe_arg, self.faults)

    def fault_plan(self):
        """The spec's :class:`~repro.faults.FaultPlan`, or ``None``."""
        if not self.faults:
            return None
        import json

        from ..faults import FaultPlan
        return FaultPlan.from_json(json.loads(self.faults))

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "exhibits": list(self.exhibits),
            "priority": self.priority,
            "report": self.report,
            "use_cache": self.use_cache,
            "jobs": self.jobs,
            "timeout_s": self.timeout_s,
            "dedupe": self.dedupe,
            "probe": self.probe,
            "probe_arg": self.probe_arg,
            "faults": self.faults,
        }


# JSON true/false decode to bool, a subclass of int: the int and number
# checks below exclude it explicitly, and flags accept nothing else.
def _number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise JobSpecError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise JobSpecError(f"{name} must be finite, got {value!r}")
    return number


def _integer(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{name} must be an int, got {value!r}")
    return value


def _flag(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise JobSpecError(f"{name} must be true or false, got {value!r}")
    return value


def _validate_faults(value: object, kind: str) -> str:
    """Validate a submitted fault plan into its canonical JSON string.

    Accepts a JSON array of fault objects or a string containing one;
    rejects plans on probe jobs (probes exercise the scheduler itself —
    chaos there would be untestable noise).
    """
    if value is None or value == "" or value == []:
        return ""
    if kind == "probe":
        raise JobSpecError("probe jobs cannot carry a fault plan")
    import json

    from ..faults import FaultPlan, FaultPlanError
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"faults is not valid JSON: {exc}") from exc
    try:
        plan = FaultPlan.from_json(value)
    except FaultPlanError as exc:
        raise JobSpecError(f"invalid fault plan: {exc}") from exc
    return plan.canonical()


@dataclass(frozen=True)
class JobEvent:
    """One entry in a job's append-only event log (an SSE frame)."""

    seq: int          # per-job, monotonically increasing from 0
    name: str         # queued|started|progress|retry|done|failed
    unix: float       # wall-clock timestamp
    data: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"seq": self.seq, "name": self.name, "unix": self.unix,
                "data": self.data}


class Job:
    """Mutable job record; mutate only through :class:`JobStore`."""

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.attempts = 0
        self.cache_hit = False
        self.error: Optional[str] = None
        self.result: Optional[List[Dict[str, object]]] = None
        self.artifacts: Dict[str, str] = {}
        self.submitted_unix = time.time()
        self.started_unix: Optional[float] = None
        self.finished_unix: Optional[float] = None
        self.events: List[JobEvent] = []

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_json(),
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "result": self.result,
            "artifacts": dict(self.artifacts),
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "events": len(self.events),
        }


class JobStore:
    """Thread-safe in-memory registry of every job the server has seen.

    One lock + condition guards all jobs; every event append and state
    transition notifies waiters, which is what lets SSE handlers (via
    :meth:`wait_events`) tail a live job without polling the job dict.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._seq = 0

    # -- creation / lookup ---------------------------------------------------
    def create(self, spec: JobSpec) -> Job:
        with self._cond:
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", spec)
            self._jobs[job.id] = job
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    # -- mutation ------------------------------------------------------------
    def append_event(self, job: Job, name: str,
                     data: Optional[Dict[str, object]] = None) -> JobEvent:
        with self._cond:
            event = JobEvent(seq=len(job.events), name=name,
                             unix=time.time(), data=dict(data or {}))
            job.events.append(event)
            self._cond.notify_all()
            return event

    def mark_running(self, job: Job, attempt: int) -> None:
        with self._cond:
            job.state = "running"
            job.attempts = attempt
            if job.started_unix is None:
                job.started_unix = time.time()
            self._cond.notify_all()

    def finish(self, job: Job, state: str,
               result: Optional[List[Dict[str, object]]] = None,
               error: Optional[str] = None,
               artifacts: Optional[Dict[str, str]] = None,
               cache_hit: bool = False) -> None:
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        with self._cond:
            job.state = state
            job.result = result
            job.error = error
            job.cache_hit = cache_hit
            if artifacts:
                job.artifacts.update(artifacts)
            job.finished_unix = time.time()
            self._cond.notify_all()

    # -- tailing -------------------------------------------------------------
    def wait_events(self, job_id: str, start: int,
                    timeout: Optional[float] = 0.5
                    ) -> Tuple[List[JobEvent], bool]:
        """Events ``>= start`` for a job, blocking briefly for new ones.

        Returns ``(new_events, terminal)``. With no news within
        ``timeout`` the list is empty — callers loop. Unknown job ids
        read as terminated streams.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return [], True
            if len(job.events) <= start and not job.terminal:
                self._cond.wait(timeout)
            return list(job.events[start:]), job.terminal

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for /healthz and drain bookkeeping)."""
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out
