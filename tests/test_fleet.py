"""Fleet tier: topology, fluid model, faults, scaling, queueing."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.engine import FaultTargetError
from repro.faults.plan import Fault, FaultPlan
from repro.fleet import (
    FLEET_FAULT_KINDS,
    FleetConfig,
    FleetDemand,
    FleetFaultEngine,
    FleetModel,
    FleetScaler,
    FleetTopology,
    SessionDES,
    mm_c_wait_s,
    sojourn_mean_s,
    sojourn_p99_s,
)
from repro.fleet.queueing import RHO_CAP, weighted_percentile
from repro.fleet.reference import poisson
from repro.simcore import Simulator


def small_world(services=12, backends_per_az=8, dt_s=1.0, rps=2.0,
                sessions=200.0, cls=FleetModel, seed=7, sample_every=1):
    sim = Simulator(seed=seed)
    config = FleetConfig(azs=3, backends_per_az=backends_per_az,
                         services=services, dt_s=dt_s,
                         sample_every=sample_every)
    demand = FleetDemand(mean_sessions=sessions, session_rps=rps)
    model = cls(sim, config, demand)
    return sim, config, demand, model


class TestFleetConfig:
    def test_constants_shared_with_per_session_tier(self):
        # The fluid rates must derive from the same ReplicaConfig /
        # GatewayConfig constants the testbed tier simulates with.
        from repro.core.gateway import GatewayConfig
        from repro.core.replica import ReplicaConfig
        config = FleetConfig()
        replica = ReplicaConfig()
        gateway = GatewayConfig()
        assert config.request_cost_s == replica.request_cost_s
        assert config.cores_per_replica == replica.cores
        assert config.replica_capacity_rps == pytest.approx(
            replica.cores / replica.request_cost_s)
        assert config.safety_threshold == gateway.safety_threshold
        assert config.replicas_per_backend == gateway.replicas_per_backend
        assert config.shard_slots() == (gateway.azs_per_service
                                        * gateway.backends_per_service_per_az)

    def test_https_weight_every_third_service(self):
        config = FleetConfig()
        assert [config.service_weight(i) for i in range(4)] \
            == [3.0, 1.0, 1.0, 3.0]

    @pytest.mark.parametrize("field, value", [
        ("mean_sessions", math.nan),
        ("mean_sessions", math.inf),
        ("phase", math.nan),
        ("period_s", math.nan),
        ("period_s", math.inf),
        ("session_duration_s", math.nan),
        ("session_duration_s", math.inf),
        ("session_rps", math.nan),
        ("session_rps", math.inf),
    ])
    def test_demand_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetDemand(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("dt_s", math.nan),
        ("dt_s", math.inf),
        ("https_every", 0),
        ("https_every", -3),
    ])
    def test_config_rejects_bad_field(self, field, value):
        # https_every=0 used to pass here and raise ZeroDivisionError
        # later, in service_weight.
        with pytest.raises(ValueError, match=field):
            FleetConfig(**{field: value})

    def test_demand_diurnal_shape(self):
        demand = FleetDemand(mean_sessions=1000.0, amplitude=0.5,
                             period_s=86400.0, phase=0.0)
        peak = demand.target_sessions(0.0)
        trough = demand.target_sessions(43200.0)
        assert peak == pytest.approx(1500.0)
        assert trough == pytest.approx(500.0)
        # Fixed point of the flow ODE: arrivals * theta = target.
        assert demand.arrival_rate(0.0) * demand.session_duration_s \
            == pytest.approx(peak)


class TestFleetTopology:
    def test_shards_unique_and_multi_az(self):
        sim = Simulator(seed=7)
        config = FleetConfig(azs=3, backends_per_az=8, services=24)
        topology = FleetTopology(config, sim.rng)
        combos = {tuple(sorted(shard)) for shard in topology.shards}
        assert len(combos) == 24
        stats = topology.shard_stats()
        assert stats.fully_overlapping_pairs == 0
        assert stats.multi_az_services == 24

    def test_add_backend_extends_az_cache(self):
        sim = Simulator(seed=7)
        config = FleetConfig(azs=3, backends_per_az=4, services=6)
        topology = FleetTopology(config, sim.rng)
        index = topology.add_backend(1)
        assert index == 12
        assert index in topology.backends_in_az(1)
        assert topology.az_of[index] == 1
        assert topology.replicas_provisioned() \
            == 13 * config.replicas_per_backend

    def test_extend_shard_rejects_duplicates(self):
        sim = Simulator(seed=7)
        config = FleetConfig(azs=3, backends_per_az=4, services=6)
        topology = FleetTopology(config, sim.rng)
        existing = topology.shards[0][0]
        with pytest.raises(ValueError):
            topology.extend_shard(0, existing)


class TestQueueing:
    def test_wait_increases_with_load(self):
        waits = [mm_c_wait_s(rho, 16, 115e-6) for rho in (0.3, 0.6, 0.9)]
        assert waits == sorted(waits)
        assert waits[0] >= 0.0

    def test_rho_capped_not_infinite(self):
        assert mm_c_wait_s(1.5, 16, 115e-6) \
            == mm_c_wait_s(RHO_CAP, 16, 115e-6)
        assert math.isfinite(mm_c_wait_s(1.5, 16, 115e-6))

    def test_p99_above_mean(self):
        assert sojourn_p99_s(0.7, 16, 115e-6) > sojourn_mean_s(
            0.7, 16, 115e-6)

    def test_weighted_percentile(self):
        values = [1.0, 2.0, 3.0]
        assert weighted_percentile(values, [1.0, 1.0, 98.0], 50.0) == 3.0
        assert weighted_percentile(values, [98.0, 1.0, 1.0], 50.0) == 1.0
        assert weighted_percentile(values, [1.0, 98.0, 1.0], 99.5) == 3.0

    def test_weighted_percentile_rejects_out_of_range_p(self):
        values, weights = [1.0, 2.0], [1.0, 1.0]
        for bad in (-0.1, 100.1, 500.0, float("nan")):
            with pytest.raises(ValueError):
                weighted_percentile(values, weights, bad)

    def test_weighted_percentile_edge_cases(self):
        values, weights = [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
        # p=0: the smallest value with any weight.
        assert weighted_percentile(values, weights, 0.0) == 1.0
        # p=100: the largest.
        assert weighted_percentile(values, weights, 100.0) == 3.0
        # Single element: every percentile is that element.
        assert weighted_percentile([7.0], [2.0], 0.0) == 7.0
        assert weighted_percentile([7.0], [2.0], 50.0) == 7.0
        assert weighted_percentile([7.0], [2.0], 100.0) == 7.0
        # All-equal weights reduce to the unweighted percentile.
        assert weighted_percentile(values, weights, 50.0) == 2.0
        # Zero-weight entries are ignored entirely.
        assert weighted_percentile([1.0, 99.0], [1.0, 0.0], 100.0) == 1.0


#: ``(method, args, name)``: each call must raise a ValueError naming
#: ``name``. Indexes are for small_world's 12 services, 3 AZs and 24
#: backends; a negative one would otherwise hit the last of its kind.
BAD_INPUTS = [
    ("start", (math.nan,), "horizon_s"),
    ("start", (math.inf,), "horizon_s"),
    ("set_qod", (0, math.nan), "factor"),
    ("set_qod", (0, math.inf), "factor"),
    ("set_qod", (-1, 2.0), "service"),
    ("set_qod", (12, 2.0), "service"),
    ("clear_qod", (-1,), "service"),
    ("crash_backend", (-1,), "backend"),
    ("crash_backend", (24,), "backend"),
    ("recover_backend", (24,), "backend"),
    ("crash_replica", (-1,), "backend"),
    ("recover_replica", (24,), "backend"),
    ("crash_az", (-1,), "az"),
    ("crash_az", (3,), "az"),
    ("recover_az", (-1,), "az"),
    ("extend_service", (12, 0), "service"),
    ("extend_service", (0, -1), "backend"),
    ("extend_service", (0, 24), "backend"),
]


class TestFleetModel:
    @pytest.mark.parametrize("method, args, name", BAD_INPUTS)
    def test_bad_input_rejected_by_name(self, method, args, name):
        sim, config, demand, model = small_world()
        with pytest.raises(ValueError, match=f"^{name} "):
            getattr(model, method)(*args)

    def test_warm_start_holds_equilibrium(self):
        sim, config, demand, model = small_world()
        model.start(300.0)
        sim.run(until=300.0)
        total = config.services * demand.mean_sessions
        assert model.active_sessions() == pytest.approx(total, rel=1e-6)
        assert model.overall_availability() == 1.0
        model.check_invariants("test")

    def test_session_conservation_is_exact(self):
        sim, config, demand, model = small_world()
        model.start(200.0)
        sim.run(until=200.0)
        counters = model.counters
        # Warm-start seeding is part of the admitted ledger, so the
        # balance is exact from t=0: everything admitted is either
        # still active, departed normally, or disrupted by a fault.
        assert counters.admitted == pytest.approx(
            model.active_sessions() + counters.departed
            + counters.disrupted, abs=1e-6)
        assert counters.attempted == pytest.approx(
            counters.admitted + counters.rejected, abs=1e-6)

    def test_determinism_same_seed_same_series(self):
        runs = []
        for _ in range(2):
            sim, config, demand, model = small_world(seed=11)
            model.start(120.0)
            sim.run(until=120.0)
            runs.append((list(model.metrics.active_sessions.values),
                         list(model.metrics.latency_p99_ms.values),
                         model.counters.departed))
        assert runs[0] == runs[1]

    def test_backend_crash_disrupts_and_recovers(self):
        sim, config, demand, model = small_world()
        model.start(300.0)
        sim.run(until=50.0)
        backend = model.topology.shards[0][0]
        before = model.active_sessions()
        model.crash_backend(backend)
        assert model.counters.disrupted > 0.0
        assert model.active_sessions() < before
        assert not model.topology.backend_up[backend]
        model.recover_backend(backend)
        assert model.topology.backend_up[backend]
        sim.run(until=300.0)
        model.check_invariants("after recovery")
        assert model.overall_availability() > 0.99

    def test_az_crash_keeps_service_available(self):
        sim, config, demand, model = small_world()
        model.start(300.0)
        sim.run(until=50.0)
        model.crash_az(0)
        sim.run(until=120.0)
        # Every shard spans >= 2 AZs, so one AZ loss never blacks out
        # a service: arrivals keep landing on the surviving slots.
        assert model.counters.rejected == 0.0
        model.recover_az(0)
        sim.run(until=300.0)
        model.check_invariants("after az recovery")

    def test_query_of_death_inflates_water(self):
        sim, config, demand, model = small_world(rps=40.0)
        model.start(300.0)
        sim.run(until=50.0)
        base = model.hottest_water(1)
        model.set_qod(1, 5.0)
        sim.run(until=60.0)
        assert model.hottest_water(1) > base
        model.clear_qod(1)

    def test_extend_service_adds_slot_and_pushes(self):
        sim, config, demand, model = small_world()
        model.start(120.0)
        sim.run(until=20.0)
        service = 0
        shard = model.topology.shards[service]
        outside = next(b for b in range(model.topology.n_backends)
                       if b not in shard)
        pushes_before = model.counters.config_pushes
        model.extend_service(service, outside)
        assert len(model.topology.shards[service]) == 5
        assert len(model.slot_sessions[service]) == 5
        # One config push per replica of the grown combination.
        grown = sum(model.topology.total_replicas[b]
                    for b in model.topology.shards[service])
        assert model.counters.config_pushes - pushes_before == grown
        sim.run(until=120.0)
        model.check_invariants("after extend")

    def test_telemetry_publishes_fleet_metrics(self):
        from repro.obs import Telemetry, use_telemetry
        sim, config, demand, model = small_world()
        model.start(60.0)
        sim.run(until=60.0)
        telemetry = Telemetry(enabled=True)
        with use_telemetry(telemetry):
            model.publish_telemetry()
        totals = telemetry.scalar_totals()
        assert totals["fleet_sessions_admitted_total"] \
            == pytest.approx(model.counters.admitted)
        assert totals["fleet_active_sessions"] \
            == pytest.approx(model.active_sessions())
        assert totals["fleet_replicas_provisioned"] \
            == model.topology.replicas_provisioned()


class TestFleetScaler:
    def test_hot_fleet_triggers_reuse_first(self):
        sim, config, demand, model = small_world(
            services=6, backends_per_az=12, rps=110.0, sessions=600.0)
        scaler = FleetScaler(sim, model)
        model.start(1200.0)
        sim.run(until=1200.0)
        summary = scaler.summary()
        assert summary["total"] > 0
        assert summary["reuse"] >= summary["new"]
        for event in scaler.events:
            assert event.kind in ("reuse", "new")
            if event.finished_at:
                assert event.execution_s > 0.0

    def test_cooldown_rate_limits_one_service(self):
        sim, config, demand, model = small_world(
            services=6, backends_per_az=12, rps=110.0, sessions=600.0)
        scaler = FleetScaler(sim, model, cooldown_s=1e9)
        model.start(1200.0)
        sim.run(until=1200.0)
        per_service = {}
        for event in scaler.events:
            per_service[event.service_id] = \
                per_service.get(event.service_id, 0) + 1
        # An infinite cooldown allows at most one completed operation
        # per service (plus nothing re-triggered after it).
        assert all(count == 1 for count in per_service.values())


class TestFleetFaultEngine:
    def plan(self):
        return FaultPlan.of(
            Fault(kind="backend_crash", at=30.0,
                  target="service:0/backend:0", duration_s=20.0),
            Fault(kind="az_crash", at=60.0, target="az:1",
                  duration_s=20.0),
            Fault(kind="query_of_death", at=90.0, target="service:1",
                  duration_s=20.0, param=4.0),
            Fault(kind="replica_crash", at=120.0,
                  target="service:0/backend:1/replica:0"),
        )

    def test_plan_fires_and_heals(self):
        sim, config, demand, model = small_world()
        engine = FleetFaultEngine(sim, model)
        engine.arm(self.plan())
        model.start(300.0)
        sim.run(until=300.0)
        actions = [(entry["action"], entry["kind"])
                   for entry in engine.timeline]
        assert ("inject", "backend_crash") in actions
        assert ("recover", "backend_crash") in actions
        assert ("inject", "az_crash") in actions
        assert ("inject", "query_of_death") in actions
        assert ("recover", "query_of_death") in actions
        assert ("inject", "replica_crash") in actions
        assert model.counters.disrupted > 0.0
        model.check_invariants("after chaos")

    def test_unknown_kind_rejected_at_arm_time(self):
        sim, config, demand, model = small_world()
        engine = FleetFaultEngine(sim, model)
        with pytest.raises(ValueError):
            engine.arm(FaultPlan.of(
                Fault(kind="meteor_strike", at=1.0, target="az:1")))

    def test_bad_target_rejected_at_arm_time(self):
        sim, config, demand, model = small_world()
        engine = FleetFaultEngine(sim, model)
        with pytest.raises(FaultTargetError):
            engine.arm(FaultPlan.of(
                Fault(kind="az_crash", at=1.0, target="az:99")))

    def test_kinds_tuple_is_the_contract(self):
        assert set(FLEET_FAULT_KINDS) == {
            "replica_crash", "backend_crash", "az_crash",
            "query_of_death"}


def fresh_healthy_slots(model, service):
    """The health index entry recomputed from the topology columns."""
    topology = model.topology
    return [slot for slot, b in enumerate(topology.shards[service])
            if topology.backend_up[b] and topology.healthy_replicas[b] > 0]


#: Operations the property below applies, each as (name, a, b) with
#: ``a``/``b`` reduced modulo whatever the operation indexes.
HEALTH_OPS = ("crash_backend", "recover_backend", "crash_replica",
              "recover_replica", "crash_az", "recover_az",
              "extend_service", "add_backend", "step")


def apply_health_op(model, op, a, b):
    topology = model.topology
    backend = a % topology.n_backends
    az = a % len(topology.az_names)
    if op in ("crash_backend", "recover_backend", "crash_replica",
              "recover_replica"):
        getattr(model, op)(backend)
    elif op in ("crash_az", "recover_az"):
        getattr(model, op)(az)
    elif op == "extend_service":
        service = b % model.config.services
        if backend not in topology.shards[service]:
            model.extend_service(service, backend)
    elif op == "add_backend":
        model.on_backend_added(topology.add_backend(az))
    else:
        model.sim.run(until=model.sim.now + model.config.dt_s)


class TestHealthIndex:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([FleetModel, SessionDES]),
           st.lists(st.tuples(st.sampled_from(HEALTH_OPS),
                              st.integers(0, 10_000),
                              st.integers(0, 10_000)),
                    max_size=30))
    # Always step with some slots down: the step's fold for a partly
    # healthy shard is a separate loop.
    @example(FleetModel, [("crash_az", 0, 0), ("step", 0, 0)])
    def test_index_matches_fresh_recompute(self, cls, ops):
        sim, config, demand, model = small_world(
            cls=cls, services=6, backends_per_az=4, sessions=30.0)
        model.start(1e6)
        floor = model._MIN_HEADROOM
        for op, a, b in ops:
            apply_health_op(model, op, a, b)
            for service in range(config.services):
                cached = model._healthy_index[service]
                fresh = fresh_healthy_slots(model, service)
                assert cached is None or cached == fresh, (op, service)
                assert model._healthy_slots(service) == fresh
            assert model._headroom == [max(floor, 1.0 - water)
                                       for water in model.backend_water]
            # The flow step folds as it advances; the standalone fold
            # must land on exactly the same levels.
            folded = (list(model.backend_water),
                      list(model.backend_sessions), list(model._headroom))
            model._aggregate()
            assert (model.backend_water, model.backend_sessions,
                    model._headroom) == folded, op
            model.check_invariants(op)

    @pytest.mark.parametrize("cls", [FleetModel, SessionDES])
    def test_dropping_the_index_every_tick_changes_nothing(self, cls):
        class Unindexed(cls):
            def _tick(self, arg):
                self._healthy_index = [None] * len(self._healthy_index)
                super()._tick(arg)

        plan = FaultPlan.of(
            Fault(kind="az_crash", at=300.0, target="az:1",
                  duration_s=200.0),
            Fault(kind="backend_crash", at=600.0,
                  target="service:2/backend:0", duration_s=150.0),
            Fault(kind="replica_crash", at=700.0,
                  target="service:0/backend:1/replica:0",
                  duration_s=100.0),
            Fault(kind="query_of_death", at=800.0, target="service:3",
                  duration_s=120.0, param=4.0),
        )
        # The reference gets a tenth of the sessions at ten times the
        # request rate: the same water levels from fewer session events.
        scale = 1.0 if cls is FleetModel else 10.0
        runs = []
        for model_cls in (cls, Unindexed):
            sim, config, demand, model = small_world(
                cls=model_cls, services=6, backends_per_az=12,
                rps=110.0 * scale, sessions=600.0 / scale)
            scaler = FleetScaler(sim, model)
            FleetFaultEngine(sim, model).arm(plan)
            model.start(1200.0)
            sim.run(until=1200.0)
            counters = model.counters
            runs.append((
                counters.attempted, counters.admitted, counters.rejected,
                counters.departed, counters.disrupted,
                counters.config_pushes,
                [list(series.values) for series in model.metrics.all_series()],
                len(scaler.events)))
        assert runs[0] == runs[1]
        assert runs[0][4] > 0.0, "the plan must disrupt sessions"
        assert runs[0][-1] > 0, "the scaler must grow shards"


class TestSessionDES:
    def test_discrete_counts_and_conservation(self):
        sim, config, demand, model = small_world(
            cls=SessionDES, sessions=50.0, dt_s=1.0)
        model.start(120.0)
        sim.run(until=120.0)
        counters = model.counters
        assert counters.admitted == int(counters.admitted)
        assert counters.departed == int(counters.departed)
        model.check_invariants("des")

    def test_stale_departures_after_crash_are_noops(self):
        sim, config, demand, model = small_world(
            cls=SessionDES, sessions=50.0)
        model.start(600.0)
        sim.run(until=30.0)
        backend = model.topology.shards[0][0]
        disrupted_before = model.counters.disrupted
        model.crash_backend(backend)
        assert model.counters.disrupted > disrupted_before
        # Departure events for the disrupted sessions are still on the
        # agenda; the generation bump must turn them into no-ops
        # instead of double-counting (which check_invariants catches).
        sim.run(until=600.0)
        model.check_invariants("stale departures")

    def test_poisson_sampler_small_and_large_means(self):
        import random
        rng = random.Random(7)
        small = [poisson(rng, 3.0) for _ in range(2000)]
        large = [poisson(rng, 400.0) for _ in range(500)]
        assert abs(sum(small) / len(small) - 3.0) < 0.2
        assert abs(sum(large) / len(large) - 400.0) < 5.0
        assert poisson(rng, 0.0) == 0
