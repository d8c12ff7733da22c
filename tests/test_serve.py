"""Tests for ``repro.serve``: the full job lifecycle over real HTTP.

Every test here drives a real asyncio server on an ephemeral port via
the blocking ``repro.serve.client`` — the same path CI's smoke job and
the examples use. Failure-path tests (worker death, timeouts) use
probe jobs, a test-only job kind the server must opt into with
``allow_probes``.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.runtime import cached_run
from repro.serve import (
    JobSpec,
    JobSpecError,
    JobStore,
    Scheduler,
    ServeAPI,
    ServeClient,
    ServeError,
    ServeMetrics,
    ServerBusy,
    background_server,
)


class _Server:
    """One live server + client, torn down with its scheduler."""

    def __init__(self, tmp_path, **scheduler_kwargs):
        scheduler_kwargs.setdefault("workers", 1)
        scheduler_kwargs.setdefault("queue_depth", 4)
        scheduler_kwargs.setdefault("default_timeout_s", 60.0)
        scheduler_kwargs.setdefault("allow_probes", True)
        scheduler_kwargs.setdefault("cache_dir",
                                    str(tmp_path / "serve-cache"))
        scheduler_kwargs.setdefault("artifacts_root",
                                    str(tmp_path / "artifacts"))
        self.store = JobStore()
        self.metrics = ServeMetrics()
        self.scheduler = Scheduler(self.store, self.metrics,
                                   **scheduler_kwargs)
        self.scheduler.start()
        self._ctx = background_server(
            ServeAPI(self.scheduler, self.store, self.metrics))
        host, port = self._ctx.__enter__()
        self.client = ServeClient(host, port)

    def close(self):
        self._ctx.__exit__(None, None, None)
        self.scheduler.stop(force=True)


@pytest.fixture
def server(tmp_path):
    handle = _Server(tmp_path)
    yield handle
    handle.close()


def _sleep_spec(seconds, **extra):
    spec = {"kind": "probe", "probe": "sleep", "probe_arg": seconds}
    spec.update(extra)
    return spec


def _wait_for_state(client, job_id, state, timeout=10.0):
    deadline = time.monotonic()  # simlint: ignore[DET001] test sequencing
    deadline += timeout
    while True:
        job = client.job(job_id)
        if job["state"] == state:
            return job
        if job["state"] in ("done", "failed"):
            raise AssertionError(
                f"job {job_id} reached {job['state']!r} before {state!r}")
        # simlint: ignore[DET001] test sequencing
        if time.monotonic() >= deadline:
            raise AssertionError(f"job {job_id} never reached {state!r}")
        time.sleep(0.02)


def _is_flag(value):
    return isinstance(value, bool)


def _is_int(value):
    return type(value) is int


#: Spec field -> the values ``JobSpec.from_payload`` must accept.
_SPEC_FIELDS = {
    "report": _is_flag,
    "use_cache": _is_flag,
    "dedupe": _is_flag,
    "priority": _is_int,
    "jobs": lambda value: _is_int(value) and value >= 0,
    "timeout_s": lambda value: value is None or (
        type(value) in (int, float) and math.isfinite(value)
        and value > 0),
}


class TestJobSpec:
    def test_exhibit_spec_roundtrip(self):
        spec = JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                     "priority": 3})
        assert spec.exhibits == ("fig17",)
        assert spec.priority == 3

    def test_unknown_exhibit_lists_catalog(self):
        with pytest.raises(JobSpecError) as excinfo:
            JobSpec.from_payload({"kind": "exhibit", "exhibit": "bogus"})
        assert "bogus" in str(excinfo.value)
        assert "fig17" in str(excinfo.value)  # shares the --list catalog

    def test_unknown_field_and_kind_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                  "bogus_field": 1})
        with pytest.raises(JobSpecError):
            JobSpec.from_payload({"kind": "banana"})

    def test_dedupe_key_ignores_priority(self):
        low = JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17"})
        high = JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                     "priority": 9})
        assert low.dedupe_key() == high.dedupe_key()

    def test_faults_field_canonicalized_and_in_dedupe_key(self):
        chaos = JobSpec.from_payload({
            "kind": "exhibit", "exhibit": "fig17",
            "faults": [{"param": 2, "kind": "serve_worker_death"}]})
        plan = chaos.fault_plan()
        assert [f.kind for f in plan.faults] == ["serve_worker_death"]
        assert plan.faults[0].param == 2
        # Key order in the payload must not matter: the spec stores the
        # plan's canonical JSON, so equivalent payloads dedupe together.
        reordered = JobSpec.from_payload({
            "kind": "exhibit", "exhibit": "fig17",
            "faults": [{"kind": "serve_worker_death", "param": 2}]})
        assert chaos.faults == reordered.faults
        assert chaos.dedupe_key() == reordered.dedupe_key()
        clean = JobSpec.from_payload({"kind": "exhibit",
                                      "exhibit": "fig17"})
        assert clean.fault_plan() is None
        assert chaos.dedupe_key() != clean.dedupe_key()

    def test_faults_field_rejects_junk_and_probes(self):
        with pytest.raises(JobSpecError, match="not valid JSON"):
            JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                  "faults": "{nope"})
        with pytest.raises(JobSpecError, match="invalid fault plan"):
            JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                  "faults": [{"kind": "meteor_strike"}]})
        with pytest.raises(JobSpecError,
                           match="probe jobs cannot carry a fault plan"):
            JobSpec.from_payload({
                "kind": "probe", "probe": "ok",
                "faults": [{"kind": "serve_worker_death"}]})

    @pytest.mark.parametrize("field, value", [
        ("use_cache", "false"), ("report", 1), ("dedupe", None),
        ("jobs", True), ("jobs", 1.0), ("jobs", -1),
        ("priority", False), ("priority", "9"),
        ("timeout_s", math.nan), ("timeout_s", math.inf),
        ("timeout_s", True), ("timeout_s", 0)])
    def test_bad_field_value_rejected_by_name(self, field, value):
        with pytest.raises(JobSpecError, match=field):
            JobSpec.from_payload({"kind": "exhibit", "exhibit": "fig17",
                                  field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       "1", False])
    def test_bad_probe_arg_rejected(self, value):
        with pytest.raises(JobSpecError, match="probe_arg"):
            JobSpec.from_payload({"kind": "probe", "probe": "sleep",
                                  "probe_arg": value})

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(sorted(_SPEC_FIELDS)),
        st.none() | st.booleans() | st.integers(-3, 3)
        | st.floats() | st.text(max_size=3)))
    def test_fields_accepted_iff_well_typed(self, fields):
        payload = {"kind": "exhibit", "exhibit": "fig17", **fields}
        bad = sorted(name for name, value in fields.items()
                     if not _SPEC_FIELDS[name](value))
        if bad:
            with pytest.raises(JobSpecError) as excinfo:
                JobSpec.from_payload(payload)
            assert any(name in str(excinfo.value) for name in bad)
        else:
            spec = JobSpec.from_payload(payload)
            for name, value in fields.items():
                assert getattr(spec, name) == value


class TestLifecycle:
    def test_submit_to_done_with_artifacts(self, server):
        job = server.client.submit({"kind": "exhibit", "exhibit": "fig17",
                                    "report": True})
        assert job["state"] in ("queued", "running")
        done = server.client.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        assert done["attempts"] == 1
        assert done["result"][0]["exp_id"] == "fig17"
        # report jobs must write + index artifacts
        assert "fig17.report" in done["artifacts"]
        report = json.loads(server.client.artifact(
            done["artifacts"]["fig17.report"]))
        assert report["result"]["exp_id"] == "fig17"
        # full event log replayed over SSE, in lifecycle order
        names = [e["name"] for e in server.client.events(job["id"])]
        assert names[0] == "queued"
        assert "started" in names
        assert names[-1] == "done"
        assert names.index("queued") < names.index("started") \
            < names.index("done")

    def test_job_listing_and_unknown_job_404(self, server):
        job = server.client.submit(_sleep_spec(0.01))
        server.client.wait(job["id"], timeout=30)
        listed = [j["id"] for j in server.client.jobs()]
        assert job["id"] in listed
        with pytest.raises(ServeError) as excinfo:
            server.client.job("job-999999")
        assert excinfo.value.status == 404

    def test_cache_hit_fast_path(self, server, tmp_path):
        # Warm the cache out-of-band, as a prior run would have.
        cached_run("fig17", cache_dir=str(tmp_path / "serve-cache"))
        job = server.client.submit({"kind": "exhibit", "exhibit": "fig17"})
        # Satisfied at admission: already terminal in the POST response.
        assert job["cache_hit"] is True
        assert job["state"] == "done"
        assert job["attempts"] == 0  # never occupied a worker
        assert job["result"][0]["cache_hit"] is True
        assert server.metrics.value("serve_jobs_total", outcome="cache_hit",
                                    kind="exhibit") == 1

    def test_sweep_streams_progress_per_point(self, server):
        job = server.client.submit({
            "kind": "sweep", "exhibits": ["fig17", "fig3"],
            "use_cache": False})
        events = list(server.client.events(job["id"]))
        progress = [e for e in events if e["name"] == "progress"]
        assert [p["data"]["completed"] for p in progress] == [1, 2]
        assert progress[0]["data"]["total"] == 2
        # per-job-scoped telemetry snapshot travels with progress
        assert "telemetry" in progress[0]["data"]
        done = server.client.wait(job["id"], timeout=120)
        assert [r["exp_id"] for r in done["result"]] == ["fig17", "fig3"]

    def test_dedupe_coalesces_inflight(self, server):
        first = server.client.submit(_sleep_spec(0.5))
        second = server.client.submit(_sleep_spec(0.5))
        assert second["deduped"] is True
        assert second["id"] == first["id"]
        third = server.client.submit(_sleep_spec(0.5, dedupe=False))
        assert third["id"] != first["id"]
        server.client.wait(first["id"], timeout=30)
        server.client.wait(third["id"], timeout=30)

    def test_priority_orders_queued_jobs(self, server):
        # Worker busy; then queue low before high priority.
        busy = server.client.submit(_sleep_spec(0.4))
        _wait_for_state(server.client, busy["id"], "running")
        low = server.client.submit(_sleep_spec(0.05, priority=0,
                                               dedupe=False))
        high = server.client.submit(_sleep_spec(0.05, priority=5,
                                                dedupe=False))
        done_low = server.client.wait(low["id"], timeout=30)
        done_high = server.client.wait(high["id"], timeout=30)
        server.client.wait(busy["id"], timeout=30)
        assert done_high["started_unix"] < done_low["started_unix"]


class TestRobustness:
    def test_backpressure_429_with_retry_after(self, tmp_path):
        server = _Server(tmp_path, workers=1, queue_depth=1)
        try:
            busy = server.client.submit(_sleep_spec(1.0, dedupe=False))
            # Only once the worker holds the first job does the second
            # occupy the queue's single slot.
            _wait_for_state(server.client, busy["id"], "running")
            server.client.submit(_sleep_spec(1.0, dedupe=False))
            with pytest.raises(ServerBusy) as excinfo:
                server.client.submit(_sleep_spec(1.0, dedupe=False))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s >= 1.0
            assert server.metrics.value("serve_jobs_total",
                                        outcome="rejected",
                                        kind="probe") == 1
        finally:
            server.close()

    def test_retry_after_header_rounds_up(self, tmp_path):
        """The advertised delay must never be shorter than the real one:
        a 1.2 s backpressure window must say Retry-After: 2, not 1."""
        from repro.serve.scheduler import QueueFullError
        server = _Server(tmp_path)
        try:
            def full(_spec):
                raise QueueFullError(depth=1, retry_after_s=1.2)
            server.scheduler.submit = full
            with pytest.raises(ServerBusy) as excinfo:
                server.client.submit(_sleep_spec(0.1, dedupe=False))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s == 2.0
        finally:
            server.close()

    def test_retry_after_header_clamped(self):
        clamp = ServeClient._retry_after_delay
        assert clamp("2.5") == 2.5
        assert clamp("0") == 0.0
        # Missing, non-numeric (incl. HTTP-date), nan, and negative
        # values collapse to the default…
        assert clamp(None) == ServeClient.DEFAULT_RETRY_AFTER_S
        assert clamp("soon") == ServeClient.DEFAULT_RETRY_AFTER_S
        assert clamp("Wed, 21 Oct 2026 07:28:00 GMT") == \
            ServeClient.DEFAULT_RETRY_AFTER_S
        assert clamp("nan") == ServeClient.DEFAULT_RETRY_AFTER_S
        assert clamp("-5") == ServeClient.DEFAULT_RETRY_AFTER_S
        # …and huge or infinite delays hit the ceiling.
        assert clamp("inf") == ServeClient.MAX_RETRY_AFTER_S
        assert clamp("86400") == ServeClient.MAX_RETRY_AFTER_S

    def test_worker_death_fault_retries_then_succeeds(self, tmp_path):
        server = _Server(tmp_path, max_retries=2)
        try:
            job = server.client.submit({
                "kind": "exhibit", "exhibit": "fig19",
                "use_cache": False,
                "faults": [{"kind": "serve_worker_death", "param": 1}]})
            done = server.client.wait(job["id"], timeout=120)
            assert done["state"] == "done"
            assert done["attempts"] == 2  # attempt 1 killed by the plan
            assert done["result"][0]["exp_id"] == "fig19"
            names = [e["name"] for e in server.client.events(job["id"])]
            assert "retry" in names
            assert names.count("started") == 2
        finally:
            server.close()

    def test_retry_then_fail_on_crashing_worker(self, tmp_path):
        server = _Server(tmp_path, max_retries=1)
        try:
            job = server.client.submit({"kind": "probe", "probe": "crash"})
            done = server.client.wait(job["id"], timeout=60)
            assert done["state"] == "failed"
            assert done["attempts"] == 2  # first try + one retry
            assert "worker died" in done["error"]
            names = [e["name"] for e in server.client.events(job["id"])]
            assert names.count("started") == 2
            assert "retry" in names
            assert names[-1] == "failed"
            assert server.metrics.value("serve_retries_total") == 1
        finally:
            server.close()

    def test_job_exception_fails_without_retry(self, server):
        job = server.client.submit({"kind": "probe", "probe": "fail"})
        done = server.client.wait(job["id"], timeout=60)
        assert done["state"] == "failed"
        assert done["attempts"] == 1  # deterministic failure: no retry
        assert "RuntimeError" in done["error"]

    def test_per_job_timeout_kills_attempt(self, server):
        job = server.client.submit(_sleep_spec(30.0, timeout_s=0.3))
        done = server.client.wait(job["id"], timeout=60)
        assert done["state"] == "failed"
        assert "timed out" in done["error"]

    def test_probes_rejected_unless_enabled(self, tmp_path):
        server = _Server(tmp_path, allow_probes=False)
        try:
            with pytest.raises(ServeError) as excinfo:
                server.client.submit({"kind": "probe", "probe": "ok"})
            assert excinfo.value.status == 400
        finally:
            server.close()

    def test_bad_spec_value_is_http_400_naming_the_field(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client.submit({"kind": "exhibit", "exhibit": "fig17",
                                  "use_cache": "false"})
        assert excinfo.value.status == 400
        assert "use_cache" in excinfo.value.message

    def test_graceful_drain_finishes_inflight(self, server):
        job = server.client.submit(_sleep_spec(0.5))
        _wait_for_state(server.client, job["id"], "running")
        server.scheduler.begin_drain()
        # New work is refused while draining...
        with pytest.raises(ServerBusy) as excinfo:
            server.client.submit(_sleep_spec(0.1, dedupe=False))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s > 0
        assert server.client.health()["state"] == "draining"
        # ...and drain blocks until the in-flight job finished cleanly.
        assert server.scheduler.drain(timeout=30) is True
        assert server.client.job(job["id"])["state"] == "done"


class TestObservability:
    def test_metrics_expose_queue_and_job_families(self, server):
        job = server.client.submit(_sleep_spec(0.01))
        server.client.wait(job["id"], timeout=30)
        text = server.client.metrics()
        assert "# TYPE serve_queue_depth gauge" in text
        assert "# TYPE serve_jobs_running gauge" in text
        assert 'serve_jobs_total{kind="probe",outcome="done"} 1' in text
        assert "serve_job_wall_seconds_bucket" in text
        assert "serve_http_requests_total" in text

    def test_healthz_counts_jobs(self, server):
        job = server.client.submit(_sleep_spec(0.01))
        server.client.wait(job["id"], timeout=30)
        health = server.client.health()
        assert health["status"] == "ok"
        assert health["state"] == "serving"
        assert health["jobs"]["done"] == 1

    def test_trace_endpoint_serves_collected_traces(self, server):
        job = server.client.submit({"kind": "exhibit",
                                    "exhibit": "trace_breakdown",
                                    "report": True})
        done = server.client.wait(job["id"], timeout=120)
        assert done["state"] == "done"
        assert "trace_breakdown.traces" in done["artifacts"]
        payload = server.client.trace(job["id"])
        assert payload["job_id"] == job["id"]
        traces = payload["traces"]["trace_breakdown"]["traces"]
        assert traces and all(t["spans"] for t in traces)
        coverages = {t["coverage"] for t in traces}
        assert "full" in coverages  # at least one e2e canal trace
        assert payload["traces"]["trace_breakdown"]["fault_marks"]

    def test_trace_endpoint_404s_without_traces(self, server):
        with pytest.raises(ServeError) as err:
            server.client.trace("nope")
        assert err.value.status == 404
        # A report job whose exhibit never traces also 404s.
        job = server.client.submit({"kind": "exhibit", "exhibit": "table1",
                                    "report": True})
        server.client.wait(job["id"], timeout=120)
        with pytest.raises(ServeError) as err:
            server.client.trace(job["id"])
        assert err.value.status == 404

    def test_artifact_traversal_is_blocked(self, server):
        os.makedirs(server.scheduler.artifacts_root(), exist_ok=True)
        with pytest.raises(ServeError) as excinfo:
            server.client.artifact("/artifacts/../../etc/passwd")
        assert excinfo.value.status == 404


class TestSchedulerConfig:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            Scheduler(JobStore(), workers=workers)

    @pytest.mark.parametrize("queue_depth", [0, -1, 2.0, "16", False])
    def test_bad_queue_depth_rejected(self, queue_depth):
        with pytest.raises(ValueError, match="queue_depth"):
            Scheduler(JobStore(), queue_depth=queue_depth)

    @pytest.mark.parametrize("max_retries", [-1, 0.5, "1", True])
    def test_bad_max_retries_rejected(self, max_retries):
        with pytest.raises(ValueError, match="max_retries"):
            Scheduler(JobStore(), max_retries=max_retries)

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf,
                                         "600", True])
    def test_bad_default_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="default_timeout_s"):
            Scheduler(JobStore(), default_timeout_s=timeout)

    @pytest.mark.parametrize("retry_after", [0, -0.5, math.nan, math.inf,
                                             "1", True])
    def test_bad_retry_after_rejected(self, retry_after):
        with pytest.raises(ValueError, match="retry_after_s"):
            Scheduler(JobStore(), retry_after_s=retry_after)

    def test_edge_values_accepted(self):
        scheduler = Scheduler(JobStore(), workers=1, queue_depth=1,
                              max_retries=0, default_timeout_s=0.5,
                              retry_after_s=1)
        assert (scheduler.workers, scheduler.queue_depth,
                scheduler.max_retries, scheduler.default_timeout_s,
                scheduler.retry_after_s) == (1, 1, 0, 0.5, 1.0)


class TestServeCLI:
    def test_zero_workers_exits_1_naming_the_field(self):
        # A subprocess with a timeout: a server that accepted the value
        # would start listening instead of exiting.
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "0"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "workers must be an int >= 1, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_boot_submit_sigterm_drain(self, tmp_path):
        """The CI smoke scenario: ephemeral port, real job, clean drain."""
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--port-file", str(port_file), "--workers", "1",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            client = None
            deadline_attempts = 300  # ~30s of 0.1s polls for slow imports
            for _attempt in range(deadline_attempts):
                if port_file.exists() and port_file.read_text():
                    client = ServeClient("127.0.0.1",
                                         int(port_file.read_text()))
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.1)
            assert client is not None, "server never wrote its port file"
            job = client.submit({"kind": "exhibit", "exhibit": "fig3"})
            done = client.wait(job["id"], timeout=60)
            assert done["state"] == "done"
            assert "serve_jobs_total" in client.metrics()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0
        assert "drain complete" in output
        assert "1 done, 0 failed" in output
