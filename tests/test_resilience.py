"""Tests for ``repro.resilience``: the circuit breaker, the retry-storm
histogram, the breaker's containment of a query-of-death under an
armed FaultPlan, the request path's indifference to an installed
policy set, the auditor check, and exhibit determinism."""

import math
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
from repro.faults import InvariantAuditor, InvariantViolation
from repro.mesh import HttpRequest
from repro.resilience import (
    QOD_FAILURES_PER_CRASH,
    BreakerConfig,
    BreakerIllegalTransition,
    CircuitBreaker,
    ResiliencePolicies,
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
        {"window_s": math.nan},
        {"open_duration_s": math.nan},
        {"window_s": math.inf},
        {"open_duration_s": math.inf},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
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
# unit: the retry-backoff schedule, as retry_storm_arrivals draws it
# ---------------------------------------------------------------------------
class _FixedStream:
    """Stands in for the storm's jitter stream: hands out fixed draws
    in turn and counts them."""

    DRAWS = (0.1, 0.4, 0.6, 0.9)

    def __init__(self):
        self.taken = 0

    def random(self):
        draw = self.DRAWS[self.taken % len(self.DRAWS)]
        self.taken += 1
        return draw


@pytest.fixture
def fixed_stream(monkeypatch):
    stream = _FixedStream()

    def derived_stream(seed, label):
        assert label == "repro.resilience.retry-storm"
        return stream

    monkeypatch.setattr("repro.resilience.retry.derived_stream",
                        derived_stream)
    return stream


class TestRetryPolicy:
    """The backoff schedule: ``base * (1 - jitter * u)``, one draw ``u``
    per session from the seeded storm stream."""

    def test_jitter_free_schedule_is_exact(self):
        for base in (0.5, 1.0, 10.0):
            buckets = retry_storm_arrivals(7, base, 0.0, bucket_s=0.25)
            assert buckets == [0] * int(base / 0.25) + [7]

    def test_jitter_stays_within_band(self, fixed_stream):
        # Draws 0.1/0.4/0.6/0.9 on a 1 s base, in 0.25 s buckets.
        assert retry_storm_arrivals(4, 1.0, 1.0, bucket_s=0.25) \
            == [1, 1, 1, 1]  # 0.9, 0.6, 0.4, 0.1 s
        assert retry_storm_arrivals(4, 1.0, 0.5, bucket_s=0.25) \
            == [0, 0, 2, 2]  # 0.95, 0.8, 0.7, 0.55 s

    def test_same_seed_same_schedule(self):
        first = retry_storm_arrivals(200, 10.0, 1.0, seed=11)
        assert retry_storm_arrivals(200, 10.0, 1.0, seed=11) == first
        assert retry_storm_arrivals(200, 10.0, 1.0, seed=12) != first
        # Half jitter keeps every delay in [base / 2, base].
        half = retry_storm_arrivals(200, 10.0, 0.5, seed=11, bucket_s=5.0)
        assert half[0] == 0 and sum(half) == 200

    def test_jitter_zero_still_consumes_a_draw(self, fixed_stream):
        """Draw alignment: toggling jitter must not shift the stream."""
        assert retry_storm_arrivals(4, 1.0, 0.0, bucket_s=0.25) \
            == [0, 0, 0, 0, 4]
        assert fixed_stream.taken == 4
        retry_storm_arrivals(4, 1.0, 1.0, bucket_s=0.25)
        assert fixed_stream.taken == 8

    @pytest.mark.parametrize("kwargs", [
        {"base_backoff_s": math.nan},
        {"base_backoff_s": 0.0},
        {"base_backoff_s": math.inf},
        {"bucket_s": math.nan},
        {"jitter": 1.1},
        {"bucket_s": math.inf},
        {"jitter": math.nan},
    ])
    def test_config_validation(self, kwargs):
        args = {"base_backoff_s": 10.0, "jitter": 1.0, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            retry_storm_arrivals(10, **args)

    def test_storm_synchronized_is_one_spike(self):
        buckets = retry_storm_arrivals(500, 10.0, 0.0, seed=5)
        assert buckets[10] == 500
        assert sum(buckets) == 500

    def test_storm_jitter_spreads_population(self):
        buckets = retry_storm_arrivals(500, 10.0, 1.0, seed=5)
        assert sum(buckets) == 500
        assert max(buckets) < 500
        assert sum(1 for count in buckets if count) > 1

    def test_storm_edge_cases(self):
        assert retry_storm_arrivals(0, 0.5, 1.0) == []
        with pytest.raises(ValueError, match="session count"):
            retry_storm_arrivals(-1, 0.5, 1.0)
        with pytest.raises(ValueError, match="bucket_s"):
            retry_storm_arrivals(1, 0.5, 1.0, bucket_s=0.0)


# ---------------------------------------------------------------------------
# unit: the composed policy set
# ---------------------------------------------------------------------------
class TestResiliencePolicies:
    def test_breakers_are_lazy_and_per_service(self):
        policies = ResiliencePolicies(BreakerConfig(min_requests=1))
        assert policies.breakers == {}
        policies.record_dispatch(7, 0.0, ok=False)
        policies.record_dispatch(9, 0.0, ok=True)
        assert sorted(policies.breakers) == [7, 9]
        assert policies.breakers[7].state == "open"
        assert policies.breakers[9].state == "closed"
        assert not policies.allow_dispatch(7, 0.0)
        assert policies.allow_dispatch(9, 0.0)

    def test_stats_snapshot_is_picklable(self):
        policies = ResiliencePolicies(BreakerConfig(min_requests=1))
        policies.record_dispatch(1, 0.0, ok=False)
        stats = pickle.loads(pickle.dumps(policies.stats()))
        assert sorted(stats) == ["breakers"]
        assert stats["breakers"][1]["state"] == "open"
        assert stats["breakers"][1]["times_opened"] == 1


# ---------------------------------------------------------------------------
# the request path: an installed policy set is never consulted
# ---------------------------------------------------------------------------
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
        policies = ResiliencePolicies(BreakerConfig())
        installed = _request_outcomes(policies)
        assert len(bare) == 30
        assert {status for status, _latency, _by in bare} == {200}
        assert len({by for _status, _latency, by in bare}) > 1
        assert installed == bare
        # Requests neither gate on nor feed a breaker: none is created.
        assert policies.breakers == {}


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
# auditor: the breaker-legality invariant actually fires
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
    policies = ResiliencePolicies(BreakerConfig())
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

    def test_unprotected_gateway_skips_resilience_checks(self):
        gateway, _policies, _sid = _policed_gateway()
        gateway.resilience = None
        baseline = InvariantAuditor(gateway=gateway).check("bare")
        gateway2, _p, _s = _policed_gateway()
        assert InvariantAuditor(gateway=gateway2).check("policed") \
            == baseline + 1


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
