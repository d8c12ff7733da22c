"""Tests for ``repro.resilience``: the circuit breaker and retry
policy, their chaos coverage (each under at least one armed FaultPlan
with zero invariant violations), the equivalence of an installed but
idle policy set with none, the auditor checks, and exhibit
determinism."""

import pickle

import pytest

from repro.core import GatewayConfig, MeshGateway
from repro.core.replica import ReplicaConfig
from repro.experiments.resilience import (
    _resilience_case,
    fig8_resilience,
    resilience_plan,
)
from repro.experiments.testbed import build_testbed
from repro.faults import Fault, FaultEngine, FaultPlan, InvariantAuditor, \
    InvariantViolation
from repro.mesh import HttpRequest
from repro.resilience import (
    QOD_FAILURES_PER_CRASH,
    BreakerConfig,
    BreakerIllegalTransition,
    CircuitBreaker,
    ResilienceConfig,
    ResiliencePolicies,
    RetryConfig,
    RetryPolicy,
    contained_cascade_depth,
    retry_storm_arrivals,
)
from repro.simcore import Simulator


# ---------------------------------------------------------------------------
# unit: circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == "closed"
        assert breaker.allow(0.0)
        assert breaker.transitions == []

    def test_volume_threshold_blocks_early_trip(self):
        breaker = CircuitBreaker(BreakerConfig(min_requests=5))
        breaker.record_failure(1.0, count=4)
        assert breaker.state == "closed"
        breaker.record_failure(1.0)
        assert breaker.state == "open"
        assert breaker.times_opened == 1

    def test_error_rate_threshold(self):
        breaker = CircuitBreaker(BreakerConfig(
            min_requests=4, failure_threshold=0.5))
        breaker.record_success(1.0, count=3)
        breaker.record_failure(1.0, count=2)  # 2/5 = 0.4 < 0.5
        assert breaker.state == "closed"
        breaker.record_failure(1.0)  # 3/6 = 0.5
        assert breaker.state == "open"

    def test_open_fast_fails_until_cooldown(self):
        breaker = CircuitBreaker(BreakerConfig(
            min_requests=1, open_duration_s=10.0))
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.fast_failures == 1
        assert breaker.allow(10.0)  # cooldown expired: half-open probe
        assert breaker.state == "half_open"

    def test_window_prunes_stale_outcomes(self):
        breaker = CircuitBreaker(BreakerConfig(
            window_s=30.0, min_requests=3))
        breaker.record_failure(0.0, count=2)
        breaker.record_failure(100.0)  # the two at t=0 have aged out
        assert breaker.state == "closed"
        assert breaker.error_rate() == 1.0  # 1 failure of 1 in window

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(BreakerConfig(
            min_requests=1, open_duration_s=5.0))
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(6.0)
        assert breaker.state == "open"
        assert breaker.times_opened == 2
        breaker.audit_transitions()  # closed->open->half_open->open

    def test_half_open_closes_after_consecutive_successes(self):
        breaker = CircuitBreaker(BreakerConfig(
            min_requests=1, open_duration_s=5.0, close_after=2))
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_success(6.0)
        assert breaker.state == "half_open"
        breaker.record_success(7.0)
        assert breaker.state == "closed"
        assert breaker.error_rate() == 0.0  # window cleared on close
        breaker.audit_transitions()

    def test_audit_rejects_illegal_edge(self):
        breaker = CircuitBreaker(name="forged")
        breaker.transitions.append((1.0, "open", "closed", "forged"))
        with pytest.raises(BreakerIllegalTransition, match="illegal"):
            breaker.audit_transitions()

    def test_audit_rejects_time_regression(self):
        breaker = CircuitBreaker(BreakerConfig(min_requests=1))
        breaker.record_failure(10.0)
        assert breaker.allow(40.0)
        breaker.transitions.append((5.0, "half_open", "open", "rewound"))
        with pytest.raises(BreakerIllegalTransition, match="backwards"):
            breaker.audit_transitions()

    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0},
        {"min_requests": 0},
        {"failure_threshold": 0.0},
        {"failure_threshold": 1.5},
        {"open_duration_s": -1.0},
        {"close_after": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)

    def test_contained_cascade_depth(self):
        config = BreakerConfig(min_requests=4, failure_threshold=0.5)
        assert contained_cascade_depth(4, 3, config) == 2
        # Volume threshold never reached: the cascade is uncontained.
        loose = BreakerConfig(min_requests=100)
        assert contained_cascade_depth(4, 3, loose) == 4
        assert contained_cascade_depth(0, 3, config) == 0
        with pytest.raises(ValueError):
            contained_cascade_depth(-1, 3, config)
        with pytest.raises(ValueError):
            contained_cascade_depth(4, 0, config)


# ---------------------------------------------------------------------------
# unit: retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_jitter_free_schedule_is_exact(self):
        policy = RetryPolicy(RetryConfig(
            max_attempts=4, base_backoff_s=0.5, multiplier=2.0,
            max_backoff_s=1.5, jitter=0.0))
        assert policy.backoff_s(1) == pytest.approx(0.5)
        assert policy.backoff_s(2) == pytest.approx(1.0)
        assert policy.backoff_s(3) == pytest.approx(1.5)  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(RetryConfig(jitter=1.0), seed=7)
        for attempt in (1, 2):
            delay = policy.backoff_s(attempt)
            assert 0.0 <= delay <= 0.5 * 2.0 ** (attempt - 1)

    def test_same_seed_same_schedule(self):
        config = RetryConfig(jitter=1.0)
        first = RetryPolicy(config, seed=11)
        second = RetryPolicy(config, seed=11)
        assert [first.backoff_s(1) for _ in range(5)] \
            == [second.backoff_s(1) for _ in range(5)]
        other = RetryPolicy(config, seed=12)
        assert first.backoff_s(1) != other.backoff_s(1)

    def test_jitter_zero_still_consumes_a_draw(self):
        """Draw alignment: toggling jitter must not shift the stream."""
        plain = RetryPolicy(RetryConfig(jitter=0.0), seed=3)
        jittered = RetryPolicy(RetryConfig(jitter=1.0), seed=3)
        plain.backoff_s(1)
        jittered.backoff_s(1)
        # Both consumed exactly one draw: their next draws agree.
        assert plain._stream.random() == jittered._stream.random()

    def test_attempt_budget(self):
        policy = RetryPolicy(RetryConfig(max_attempts=3))
        assert policy.max_retries == 2
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        with pytest.raises(ValueError):
            policy.should_retry(0)
        with pytest.raises(ValueError):
            policy.backoff_s(3)

    def test_amplification_accounting(self):
        policy = RetryPolicy(RetryConfig(max_attempts=3))
        for _ in range(4):
            policy.note_first_attempt()
        policy.note_retry()
        assert policy.first_attempts == 4
        assert policy.retries == 1
        assert policy.amplification_bound() == 8

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_backoff_s": 0.0},
        {"multiplier": 0.5},
        {"max_backoff_s": 0.1},
        {"jitter": 1.1},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryConfig(**kwargs)

    def test_storm_synchronized_is_one_spike(self):
        config = RetryConfig(base_backoff_s=10.0, jitter=0.0)
        buckets = retry_storm_arrivals(500, config, seed=5)
        assert buckets[10] == 500
        assert sum(buckets) == 500

    def test_storm_jitter_spreads_population(self):
        config = RetryConfig(base_backoff_s=10.0, jitter=1.0)
        buckets = retry_storm_arrivals(500, config, seed=5)
        assert sum(buckets) == 500
        assert max(buckets) < 500
        assert sum(1 for count in buckets if count) > 1

    def test_storm_edge_cases(self):
        assert retry_storm_arrivals(0, RetryConfig()) == []
        with pytest.raises(ValueError):
            retry_storm_arrivals(-1, RetryConfig())
        with pytest.raises(ValueError):
            retry_storm_arrivals(1, RetryConfig(), bucket_s=0.0)


# ---------------------------------------------------------------------------
# unit: the composed policy set
# ---------------------------------------------------------------------------
class TestResiliencePolicies:
    def test_everything_off_is_pass_through(self):
        policies = ResiliencePolicies(ResilienceConfig())
        assert policies.breaker_for(1) is None
        assert policies.allow_dispatch(1, 0.0)
        policies.record_dispatch(1, 0.0, ok=False)  # no breaker: no-op
        assert policies.breakers == {}
        assert policies.retry is None
        assert policies.stats() == {"breakers": {}}

    def test_breakers_are_lazy_and_per_service(self):
        policies = ResiliencePolicies(ResilienceConfig(
            breaker=BreakerConfig(min_requests=1)))
        assert policies.breakers == {}
        policies.record_dispatch(7, 0.0, ok=False)
        policies.record_dispatch(9, 0.0, ok=True)
        assert sorted(policies.breakers) == [7, 9]
        assert policies.breaker_state(7) == "open"
        assert policies.breaker_state(9) == "closed"
        assert policies.breaker_state(999) == "closed"  # never dispatched

    def test_stats_snapshot_is_picklable(self):
        policies = ResiliencePolicies(ResilienceConfig(
            breaker=BreakerConfig(min_requests=1),
            retry=RetryConfig()))
        policies.record_dispatch(1, 0.0, ok=False)
        stats = pickle.loads(pickle.dumps(policies.stats()))
        assert sorted(stats) == ["breakers", "retry"]
        assert stats["breakers"][1]["state"] == "open"
        assert stats["retry"]["retries"] == 0


# ---------------------------------------------------------------------------
# chaos coverage: each policy under an armed FaultPlan, zero violations
# ---------------------------------------------------------------------------
def _protected_testbed(config, seed=7):
    run = build_testbed("canal", seed=seed)
    policies = ResiliencePolicies(config, seed=seed, name="testbed")
    run.mesh.gateway.install_resilience(policies)
    return run, policies


def _request_at(run, at, responses, service="svc1"):
    mesh, sim = run.mesh, run.sim

    def scenario():
        if at > sim.now:
            yield sim.timeout(at - sim.now)
        connection = yield sim.process(
            mesh.open_connection(run.client_pod, service))
        response = yield sim.process(
            mesh.request(connection, HttpRequest()))
        responses[at] = response

    run.sim.process(scenario())


class TestChaosUnderPolicy:
    """Each mechanism rides through a real armed FaultPlan and the
    invariant auditor (including the two new resilience checks) stays
    clean."""

    def test_breaker_full_lifecycle_under_backend_crash(self):
        run, policies = _protected_testbed(ResilienceConfig(
            breaker=BreakerConfig(window_s=30.0, min_requests=1,
                                  failure_threshold=0.5,
                                  open_duration_s=3.0, close_after=1)))
        engine = FaultEngine(run.sim, gateway=run.mesh.gateway)
        engine.arm(FaultPlan.of(Fault(
            kind="backend_crash", at=0.5, target="service:1/backend:0",
            duration_s=5.0)))
        responses = {}
        _request_at(run, 1.0, responses)   # fails: trips the breaker
        _request_at(run, 2.0, responses)   # fast-failed while open
        _request_at(run, 6.0, responses)   # probe after heal: closes
        run.sim.run()
        sid = run.mesh.tenant_service("svc1").service_id
        breaker = policies.breakers[sid]
        assert responses[1.0].status == 503
        assert responses[2.0].status == 503
        assert responses[6.0].ok
        assert breaker.state == "closed"
        assert breaker.times_opened == 1
        assert breaker.fast_failures >= 1
        assert [(f, t) for _t, f, t, _r in breaker.transitions] == [
            ("closed", "open"), ("open", "half_open"),
            ("half_open", "closed")]
        assert engine.auditor.check("final") > 0
        assert engine.auditor.violations == []

    def test_retry_rides_out_a_crash_window(self):
        run, policies = _protected_testbed(ResilienceConfig(
            retry=RetryConfig(max_attempts=3, base_backoff_s=1.0,
                              multiplier=2.0, max_backoff_s=4.0,
                              jitter=0.0)))
        engine = FaultEngine(run.sim, gateway=run.mesh.gateway)
        engine.arm(FaultPlan.of(Fault(
            kind="backend_crash", at=0.5, target="service:1/backend:0",
            duration_s=1.0)))
        responses = {}
        # First attempt at t=1.0 lands in the outage; the 1 s backoff
        # (jitter 0) lands the retry after the t=1.5 recovery.
        _request_at(run, 1.0, responses)
        run.sim.run()
        assert responses[1.0].ok
        assert policies.retry.first_attempts == 1
        assert policies.retry.retries == 1
        assert policies.retry.retries <= policies.retry.amplification_bound()
        assert engine.auditor.check("final") > 0
        assert engine.auditor.violations == []

    def test_retry_budget_exhausts_into_503(self):
        run, policies = _protected_testbed(ResilienceConfig(
            retry=RetryConfig(max_attempts=2, base_backoff_s=0.5,
                              multiplier=2.0, max_backoff_s=4.0,
                              jitter=0.0)))
        engine = FaultEngine(run.sim, gateway=run.mesh.gateway)
        engine.arm(FaultPlan.of(Fault(
            kind="backend_crash", at=0.5, target="service:1/backend:0",
            duration_s=30.0)))
        responses = {}
        _request_at(run, 1.0, responses)
        run.sim.run()
        assert responses[1.0].status == 503
        assert policies.retry.retries == 1  # budget: one retry, then give up
        assert engine.auditor.check("final") > 0
        assert engine.auditor.violations == []


# ---------------------------------------------------------------------------
# equivalence: an installed policy set that never acts moves nothing
# ---------------------------------------------------------------------------
def _request_outcomes(policies, requests=30):
    """Send ``requests`` overlapping requests through the fault-free
    Canal testbed; return each one's ``(status, latency_s, served_by)``
    in send order."""
    run = build_testbed("canal", seed=11)
    if policies is not None:
        run.mesh.gateway.install_resilience(policies)
    responses = {}
    for index in range(requests):
        _request_at(run, 0.0005 * index, responses,
                    service=f"svc{1 + index % 2}")
    run.sim.run()
    return [(response.status, response.latency_s, response.served_by)
            for _at, response in sorted(responses.items())]


class TestIdlePoliciesLeaveModelUnchanged:
    def test_request_outcomes_identical_with_and_without_policies(self):
        bare = _request_outcomes(None)
        empty = _request_outcomes(ResiliencePolicies(ResilienceConfig()))
        idle = ResiliencePolicies(
            ResilienceConfig(breaker=BreakerConfig(), retry=RetryConfig()),
            seed=11, name="testbed")
        armed = _request_outcomes(idle)
        assert len(bare) == 30
        assert {status for status, _latency, _by in bare} == {200}
        assert len({by for _status, _latency, by in bare}) > 1
        assert empty == bare
        assert armed == bare
        # The armed set really sat on the request path, and never acted.
        stats = idle.stats()
        assert stats["retry"]["first_attempts"] == 30
        assert stats["retry"]["retries"] == 0
        assert len(stats["breakers"]) == 2
        assert all(breaker["times_opened"] == 0
                   for breaker in stats["breakers"].values())


# ---------------------------------------------------------------------------
# fluid-tier chaos: breaker containment of the query-of-death cascade
# ---------------------------------------------------------------------------
class TestBreakerContainment:
    @pytest.fixture(scope="class")
    def chaos_pair(self):
        plan_json = resilience_plan().canonical()
        baseline = _resilience_case(("chaos", 53, plan_json, False))
        protected = _resilience_case(("chaos", 53, plan_json, True))
        return baseline, protected

    def test_baseline_cascade_is_uncontained(self, chaos_pair):
        baseline, _ = chaos_pair
        assert baseline["qod_backends_crashed"] == baseline[
            "victim_backends"]
        assert 0 in baseline["victim_up"]

    def test_breaker_contains_blast_radius(self, chaos_pair):
        baseline, protected = chaos_pair
        assert protected["qod_backends_crashed"] \
            < baseline["qod_backends_crashed"]
        # The victim keeps its surviving shuffle-shard backends: it
        # never goes dark inside the query-of-death window.
        lo = int(next(f.at for f in resilience_plan().faults
                      if f.kind == "query_of_death"))
        hi = lo + 20
        assert all(protected["victim_up"][lo + 1:hi])

    def test_containment_matches_aggregate_analogue(self, chaos_pair):
        _, protected = chaos_pair
        stats = protected["policy_stats"]
        config = BreakerConfig(window_s=30.0, min_requests=4,
                               failure_threshold=0.5,
                               open_duration_s=30.0, close_after=2)
        predicted = contained_cascade_depth(
            backends=protected["victim_backends"],
            failures_per_backend=QOD_FAILURES_PER_CRASH, config=config)
        assert protected["qod_backends_crashed"] == predicted
        opened = [sid for sid, breaker in stats["breakers"].items()
                  if breaker["times_opened"] > 0]
        assert len(opened) == 1  # only the poisoned service tripped

    def test_both_runs_audit_clean(self, chaos_pair):
        for run in chaos_pair:
            assert run["checks"] > 0
            assert run["violations"] == 0


# ---------------------------------------------------------------------------
# auditor: the two new invariants actually fire
# ---------------------------------------------------------------------------
def _policed_gateway():
    sim = Simulator(3)
    config = GatewayConfig(
        replicas_per_backend=2, backends_per_service_per_az=2,
        azs_per_service=2,
        replica=ReplicaConfig(cores=8, request_cost_s=100e-6,
                              request_cost_sigma=0.0))
    gateway = MeshGateway(sim, config)
    gateway.deploy_initial(["az1", "az2"], 4)
    tenant = gateway.registry.add_tenant("t1")
    service = gateway.registry.add_service(tenant, "web", "10.0.0.1")
    gateway.register_service(service)
    policies = ResiliencePolicies(ResilienceConfig(
        breaker=BreakerConfig(), retry=RetryConfig()))
    gateway.install_resilience(policies)
    return gateway, policies, service.service_id


class TestAuditorResilienceChecks:
    def test_clean_policies_pass(self):
        gateway, policies, sid = _policed_gateway()
        policies.record_dispatch(sid, 1.0, ok=True)
        auditor = InvariantAuditor(gateway=gateway)
        assert auditor.check("clean") > 0
        assert auditor.violations == []

    def test_forged_breaker_edge_is_a_violation(self):
        gateway, policies, sid = _policed_gateway()
        breaker = policies.breaker_for(sid)
        breaker.transitions.append((1.0, "open", "closed", "forged"))
        auditor = InvariantAuditor(gateway=gateway)
        with pytest.raises(InvariantViolation, match="breaker-legality"):
            auditor.check("forged-edge")

    def test_retry_amplification_cap_is_a_violation(self):
        gateway, policies, _sid = _policed_gateway()
        policies.retry.note_first_attempt()
        policies.retry.retries = 7  # bound is 1 x 2 = 2
        auditor = InvariantAuditor(gateway=gateway,
                                   raise_on_violation=False)
        auditor.check("amplified")
        assert [v.invariant for v in auditor.violations] \
            == ["retry-amplification"]

    def test_unprotected_gateway_skips_resilience_checks(self):
        gateway, _policies, _sid = _policed_gateway()
        gateway.resilience = None
        baseline = InvariantAuditor(gateway=gateway).check("bare")
        gateway2, _p, _s = _policed_gateway()
        assert InvariantAuditor(gateway=gateway2).check("policed") \
            == baseline + 2


# ---------------------------------------------------------------------------
# the fig8_resilience exhibit (serial == pooled is tests/test_equivalence.py)
# ---------------------------------------------------------------------------
class TestExhibitDeterminism:
    def test_unknown_case_kind_rejected(self):
        with pytest.raises(ValueError):
            _resilience_case(("nonsense",))

    def test_fig8_resilience_headline_findings(self):
        result = fig8_resilience(seed=53, seeds=[53])
        findings = result.findings
        assert findings["invariant_violations"] == 0.0
        assert findings["containment_matches_analytic"] == 1.0
        assert findings["qod_backends_crashed_protected"] \
            < findings["qod_backends_crashed_baseline"]
        assert findings["qod_victim_up_protected"] == 1.0
        assert findings["qod_victim_up_baseline"] == 0.0
        assert findings["storm_peak_jittered"] \
            < findings["storm_peak_synchronized"]
        assert findings["storm_peak_reduction"] > 1.0
        names = {series.name for series in result.series}
        assert {"availability_baseline", "availability_protected",
                "retry_arrivals_synchronized",
                "retry_arrivals_jittered"} <= names
