"""Appendix exhibits: Figs 21–30.

Dataplane mechanics (iptables vs eBPF, Nagle), crypto offloading
micro-benchmarks (key server, AVX-512 batching), the redirector
session-consistency case, and the production latency distribution.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core import DisaggregatedLB, KeyServer, KeyServerConfig, Replica, \
    RemoteKeyEngine
from ..core.replica import ReplicaConfig
from ..crypto import BatchedAccelerator, SoftwareAsymEngine
from ..kernel import EbpfRedirect, IptablesRedirect, KernelCosts
from ..mesh import DEFAULT_COSTS, MeshCostModel
from ..netsim import FiveTuple
from ..runtime.sweep import sweep_map
from ..simcore import Simulator, Summary, percentile
from ..workloads import production_latency_samples
from .base import ExperimentResult, Series, Table
from .testbed import TestbedPoint, run_point

__all__ = [
    "fig21_iptables_path",
    "fig22_context_switch_frequency",
    "fig23_crypto_completion_time",
    "fig24_latency_distribution",
    "fig25_avx512_batching",
    "fig26_session_consistency",
    "fig27_28_offload_performance",
    "fig29_30_ebpf_performance",
]


# --------------------------------------------------------------------------
# Fig 21 — traffic redirection with iptables vs eBPF (path structure)
# --------------------------------------------------------------------------

def fig21_iptables_path(message_bytes: int = 1024) -> ExperimentResult:
    """Per-message redirect cost structure of the two mechanisms."""
    result = ExperimentResult(
        "fig21", "Traffic redirection: iptables vs eBPF path")
    iptables = IptablesRedirect()
    ebpf = EbpfRedirect()
    table = Table("Per-message redirection cost",
                  ["mechanism", "stack_passes", "context_switches",
                   "copies", "cpu_us"])
    for name, cost in (("iptables", iptables.message_cost(message_bytes)),
                       ("ebpf", ebpf.message_cost(message_bytes))):
        table.add_row(name, cost.stack_passes, cost.context_switches,
                      cost.copies, cost.cpu_s * 1e6)
    result.tables.append(table)
    ipt = iptables.message_cost(message_bytes)
    ebp = ebpf.message_cost(message_bytes)
    result.findings["iptables_extra_stack_passes"] = float(ipt.stack_passes)
    result.findings["cpu_ratio"] = ipt.cpu_s / ebp.cpu_s
    result.notes.append(
        "paper Fig 21: iptables redirection adds two kernel-stack passes "
        "and two context switches per hand-off; eBPF moves payloads "
        "socket-to-socket")
    return result


# --------------------------------------------------------------------------
# Fig 22 — eBPF small-packet context-switch blow-up
# --------------------------------------------------------------------------

def fig22_context_switch_frequency(message_bytes: int = 16,
                                   rps: float = 4000.0) -> ExperimentResult:
    """16-byte messages at 4 kRPS: eBPF without Nagle context-switches
    per message, while the kernel (and Canal's eBPF-Nagle) aggregate."""
    result = ExperimentResult(
        "fig22", "Context switch frequency (16B, 4kRPS)")
    variants = {
        "iptables_kernel_nagle": IptablesRedirect(),
        "ebpf_no_nagle": EbpfRedirect(nagle_enabled=False),
        "ebpf_with_nagle": EbpfRedirect(nagle_enabled=True),
    }
    table = Table("Redirection cost per second of traffic",
                  ["variant", "context_switches_per_s", "cpu_ms_per_s"])
    rates: Dict[str, float] = {}
    for name, redirect in variants.items():
        cost = redirect.path_cost(message_bytes, rps, duration_s=1.0)
        rates[name] = cost.context_switches
        table.add_row(name, cost.context_switches, cost.cpu_s * 1e3)
    result.tables.append(table)
    result.findings["ebpf_over_iptables_ctx"] = (
        rates["ebpf_no_nagle"] / rates["iptables_kernel_nagle"])
    result.findings["nagle_fix_ctx_reduction"] = (
        1 - rates["ebpf_with_nagle"] / rates["ebpf_no_nagle"])
    result.notes.append(
        "paper: kernel bypass loses Nagle, so eBPF shows a higher "
        "context-switch frequency on small packets until Nagle is "
        "re-implemented in eBPF")
    return result


# --------------------------------------------------------------------------
# Fig 23 — crypto completion time: remote / local / no offloading
# --------------------------------------------------------------------------

def fig23_crypto_completion_time(rates: Optional[List[float]] = None,
                                 ops_per_rate: int = 300,
                                 seed: int = 53) -> ExperimentResult:
    """Asymmetric-op completion under the three deployments.

    The shared key server also carries a large background load (it
    serves a massive number of services), so its batches are always
    full and completion stays flat ≈ 1.7 ms. Local AVX-512 sees only
    the local arrivals; plain software on old CPUs takes ≈ 2 ms.
    """
    result = ExperimentResult(
        "fig23", "Completion time of crypto with remote/local/no offload")
    workloads = rates or [200.0, 1000.0, 4000.0]
    series: Dict[str, Series] = {
        name: Series(f"{name}_completion_ms", x_label="ops_per_s",
                     y_label="ms")
        for name in ("remote", "local", "none")
    }
    for rate in workloads:
        # --- remote: key server with heavy background traffic ---------
        sim = Simulator(seed)
        server = KeyServer(sim, az="az1")
        server.store_private_key("tenant", "secret")
        engine = RemoteKeyEngine(sim, server, "requester", "tenant")
        tagged_running = [True]
        # The shared key server carries the whole region's handshake
        # load, so batches fill in tens of microseconds; it keeps
        # flowing for as long as the measured requester is active. One
        # agenda callback per background op; the first gap is drawn
        # before the tagged requester's first, an RNG order the
        # exhibit's numbers depend on.
        token = server.establish_channel("others")
        server.store_private_key("others", "secret2")

        def next_background(sim=sim):
            if tagged_running[0]:
                sim.call_later(sim.rng.expovariate(50_000.0),
                               serve_background)

        def serve_background(_, server=server, token=token,
                             next_background=next_background):
            server.serve("others", token, "others")
            next_background()

        completions = Summary("remote")

        def tagged(sim=sim, engine=engine, completions=completions):
            for _ in range(ops_per_rate):
                yield sim.timeout(sim.rng.expovariate(rate))
                start = sim.now
                done = engine.submit()
                yield done
                completions.add(sim.now - start)
            tagged_running[0] = False

        next_background()
        sim.process(tagged(), name="tagged")
        sim.run()
        series["remote"].add(rate, completions.mean * 1e3)

        # --- local AVX-512: only local arrivals fill batches ----------
        sim = Simulator(seed)
        accelerator = BatchedAccelerator(sim)
        completions = Summary("local")

        def local(sim=sim, accelerator=accelerator, completions=completions):
            for _ in range(ops_per_rate):
                yield sim.timeout(sim.rng.expovariate(rate))
                start = sim.now
                done = accelerator.submit()
                yield done
                completions.add(sim.now - start)

        sim.process(local(), name="local")
        sim.run()
        series["local"].add(rate, completions.mean * 1e3)

        # --- no offloading: software on old CPU models -----------------
        sim = Simulator(seed)
        software = SoftwareAsymEngine(sim, new_cpu=False)
        completions = Summary("none")

        def none(sim=sim, software=software, completions=completions):
            for _ in range(ops_per_rate):
                yield sim.timeout(sim.rng.expovariate(rate))
                start = sim.now
                done = software.submit()
                yield done
                completions.add(sim.now - start)

        sim.process(none(), name="none")
        sim.run()
        series["none"].add(rate, completions.mean * 1e3)

    result.series.extend(series.values())
    remote_values = series["remote"].ys
    result.findings["remote_mean_ms"] = sum(remote_values) / len(remote_values)
    result.findings["remote_spread_ms"] = max(remote_values) - min(remote_values)
    result.findings["none_mean_ms"] = (
        sum(series["none"].ys) / len(series["none"].ys))
    result.notes.append(
        "paper: remote ~1.7 ms regardless of workload; local ~1 ms; "
        "no offloading ~2 ms")
    return result


# --------------------------------------------------------------------------
# Fig 24 — production end-to-end latency distribution
# --------------------------------------------------------------------------

def fig24_latency_distribution(samples: int = 20_000,
                               seed: int = 59) -> ExperimentResult:
    """The bimodal production latency histogram, and why the key
    server's 0.7 ms is negligible against it."""
    result = ExperimentResult(
        "fig24", "End-to-end latency distribution in production")
    rng = random.Random(seed)
    values = production_latency_samples(rng, count=samples)
    edges = [20e-3, 40e-3, 50e-3, 80e-3, 100e-3, 200e-3, 400e-3]
    summary = Summary("latency")
    summary.extend(values)
    counts = summary.histogram(edges)
    series = Series("latency_histogram", x_label="bucket_upper_s",
                    y_label="fraction")
    labels = edges + [float("inf")]
    for edge, count in zip(labels, counts):
        series.add(edge if edge != float("inf") else 1.0,
                   count / len(values))
    result.series.append(series)
    in_40_50 = sum(1 for v in values if 40e-3 <= v < 50e-3) / len(values)
    in_100_200 = sum(1 for v in values if 100e-3 <= v < 200e-3) / len(values)
    result.findings["share_40_50ms"] = in_40_50
    result.findings["share_100_200ms"] = in_100_200
    result.findings["key_server_delta_relative"] = 0.7e-3 / summary.mean
    result.notes.append(
        "paper: most latencies fall in 40-50 ms and 100-200 ms, so the "
        "key server's 0.7 ms addition is negligible")
    return result


# --------------------------------------------------------------------------
# Fig 25 — AVX-512 batch under-fill degradation
# --------------------------------------------------------------------------

def fig25_avx512_batching(max_connections: int = 16, ops_per_conn: int = 50,
                          seed: int = 61) -> ExperimentResult:
    """Performance vs #concurrent new connections: below the batch width
    (8), ops wait out the 1 ms flush timeout and lose to plain software
    on the same CPU."""
    result = ExperimentResult(
        "fig25", "AVX-512 performance vs concurrent new connections")
    completion_series = Series("avx512_completion_ms",
                               x_label="concurrent_connections",
                               y_label="ms")
    software_series = Series("software_completion_ms",
                             x_label="concurrent_connections", y_label="ms")
    software_cost = DEFAULT_COSTS.crypto.asym_software_new_cpu_s
    crossover = None
    for concurrency in range(1, max_connections + 1):
        sim = Simulator(seed)
        accelerator = BatchedAccelerator(sim)
        completions = Summary("avx")

        def connection(sim=sim, accelerator=accelerator,
                       completions=completions):
            for _ in range(ops_per_conn):
                start = sim.now
                done = accelerator.submit()
                yield done
                completions.add(sim.now - start)
                # Steady stream: next handshake follows immediately.

        for _ in range(concurrency):
            sim.process(connection(), name="conn")
        sim.run()
        mean_ms = completions.mean * 1e3
        completion_series.add(concurrency, mean_ms)
        software_series.add(concurrency, software_cost * 1e3)
        if crossover is None and completions.mean <= software_cost:
            crossover = concurrency
    result.series.extend([completion_series, software_series])
    result.findings["crossover_connections"] = float(crossover or -1)
    result.findings["completion_at_1_ms"] = completion_series.ys[0]
    result.findings["completion_at_8_ms"] = completion_series.ys[7]
    result.notes.append(
        "paper: significant degradation below 8 concurrent connections "
        "(the AVX-512 batch width), caused by the >=1 ms flush wait")
    return result


# --------------------------------------------------------------------------
# Fig 26 — session consistency through a replica change
# --------------------------------------------------------------------------

def fig26_session_consistency(established_flows: int = 200,
                              new_flows: int = 200,
                              seed: int = 67) -> ExperimentResult:
    """Drain one replica: established flows keep landing on it via the
    replica chain; new flows land on accepting replicas only."""
    result = ExperimentResult(
        "fig26", "Session consistency maintenance with the redirector")
    sim = Simulator(seed)
    rng = random.Random(seed)
    replicas = [Replica(sim, f"ip{i + 1}", az="az1",
                        config=ReplicaConfig())
                for i in range(3)]
    lb = DisaggregatedLB(service_id=1, replicas=replicas)

    def flow(index: int) -> FiveTuple:
        return FiveTuple(f"10.1.{index // 250}.{index % 250 + 1}",
                         10_000 + index, "10.9.9.9", 443)

    old_flows = [flow(i) for i in range(established_flows)]
    owners_before = {}
    for f in old_flows:
        owners_before[f] = lb.deliver(f, is_syn=True).replica.name

    victim = "ip2"
    lb.drain_replica(victim)

    sticky = sum(1 for f in old_flows
                 if lb.deliver(f, is_syn=False).replica.name
                 == owners_before[f])
    fresh = [flow(10_000 + i) for i in range(new_flows)]
    new_on_victim = sum(1 for f in fresh
                        if lb.deliver(f, is_syn=True).replica.name == victim)
    # Old flows age out; the victim can then retire cleanly.
    for f in old_flows:
        lb.close_flow(f)
    lb.retire_replica(victim)

    table = Table("Replica-drain outcome",
                  ["metric", "value"])
    table.add_row("established flows keeping their replica",
                  sticky / established_flows)
    table.add_row("new flows landed on draining replica",
                  new_on_victim)
    table.add_row("max chain length after drain",
                  lb.table.max_chain_length())
    result.tables.append(table)
    result.findings["sticky_fraction"] = sticky / established_flows
    result.findings["new_flows_on_draining"] = float(new_on_victim)
    result.notes.append(
        "paper Fig 26: a draining replica keeps serving its established "
        "sessions via the bucket chain but receives no new sessions")
    return result


# --------------------------------------------------------------------------
# Figs 27/28 — throughput/latency improvement with the key server
# --------------------------------------------------------------------------

def fig27_28_offload_performance(seed: int = 71,
                                 duration_s: float = 3.0
                                 ) -> ExperimentResult:
    """HTTPS short flows through Canal's on-node proxy: crypto offloaded
    to the key server vs software on the node."""
    result = ExperimentResult(
        "fig27_28", "Throughput and latency with key-server offloading")
    throughput = {
        "software": Series("software_throughput", x_label="cores",
                           y_label="rps"),
        "remote": Series("remote_throughput", x_label="cores",
                         y_label="rps"),
    }
    # Fig 27 offers load beyond capacity; the run extends until the
    # backlog drains, so completions / actual duration measures the
    # proxy's short-flow capacity. Fig 28: P90 latency at rising RPS
    # under 1 core. The software baseline saturates near ~530 flows/s,
    # so the sweep approaches it from below — the reduction grows with
    # RPS, as in the paper.
    capacity_runs = [(cores, mode, 5000.0 * cores)
                     for cores in (1, 2) for mode in ("software", "remote")]
    latency_runs = [(1, mode, rps) for rps in (250.0, 350.0, 450.0)
                    for mode in ("software", "remote")]
    points = [TestbedPoint("canal", "short",
                           dict(rps=rps, duration_s=duration_s), seed=seed,
                           mesh_kwargs=dict(onnode_cores_per_node=cores,
                                            crypto_offload=mode))
              for cores, mode, rps in capacity_runs + latency_runs]
    reports = [point_run.report for point_run in sweep_map(run_point, points)]
    for (cores, mode, _rps), report in zip(capacity_runs, reports):
        throughput[mode].add(cores, report.throughput_rps)
    result.series.extend(throughput.values())
    ratios = [r / s for (_c, r), (_d, s) in zip(
        throughput["remote"].points, throughput["software"].points)]
    result.findings["throughput_ratio_min"] = min(ratios)
    result.findings["throughput_ratio_max"] = max(ratios)

    latency = {
        "software": Series("software_p90_ms", x_label="rps", y_label="ms"),
        "remote": Series("remote_p90_ms", x_label="rps", y_label="ms"),
    }
    p90 = [report.latency.percentile(90)
           for report in reports[len(capacity_runs):]]
    for (_cores, mode, rps), value in zip(latency_runs, p90):
        latency[mode].add(rps, value * 1e3)
    reductions = [1 - remote / software
                  for software, remote in zip(p90[0::2], p90[1::2])]
    result.series.extend(latency.values())
    result.findings["latency_reduction_min"] = min(reductions)
    result.findings["latency_reduction_max"] = max(reductions)
    result.notes.append(
        "paper: offloading improves short-flow throughput by 1.6-1.8x "
        "and cuts latency by 53-60%")
    return result


# --------------------------------------------------------------------------
# Figs 29/30 — eBPF vs iptables by packet size
# --------------------------------------------------------------------------

def fig29_30_ebpf_performance(sizes: Optional[List[int]] = None,
                              costs: KernelCosts = KernelCosts()
                              ) -> ExperimentResult:
    """Netperf-style model: throughput and latency of proxy redirection
    with eBPF vs iptables across packet sizes (both with Nagle on)."""
    result = ExperimentResult(
        "fig29_30", "eBPF vs iptables redirection by packet size")
    packet_sizes = sizes or [500, 1000, 1500, 4000, 16000]
    mss = 1460
    #: Shared per-message work outside redirection: the proxy's own
    #: socket handling and onward transmission.
    proxy_base_s = 95e-6
    #: One-way base path latency of the loopback ping-pong.
    wire_base_s = 60e-6

    iptables = IptablesRedirect(costs)
    ebpf = EbpfRedirect(costs)
    throughput_series = Series("throughput_ratio_ebpf_over_iptables",
                               x_label="bytes", y_label="ratio")
    latency_series = Series("latency_ratio_iptables_over_ebpf",
                            x_label="bytes", y_label="ratio")
    for size in packet_sizes:
        segments = max(1, -(-size // mss))
        base = proxy_base_s + segments * costs.stack_pass_s
        ipt_extra = (2 * segments * costs.stack_pass_s
                     + 2 * costs.context_switch_s + costs.socket_op_s
                     + costs.copy_cost(size))
        ebpf_extra = (costs.context_switch_s + costs.socket_op_s
                      + costs.copy_cost(size))
        # Throughput is CPU-bound: messages/s ∝ 1 / per-message CPU.
        ratio_throughput = (base + ipt_extra) / (base + ebpf_extra)
        throughput_series.add(size, ratio_throughput)
        if size <= mss:
            ratio_latency = ((wire_base_s + ipt_extra)
                             / (wire_base_s + ebpf_extra))
            latency_series.add(size, ratio_latency)
    result.series.extend([throughput_series, latency_series])
    result.findings["throughput_ratio_small"] = throughput_series.ys[0]
    result.findings["throughput_ratio_large"] = throughput_series.ys[-1]
    result.findings["latency_ratio_mean"] = (
        sum(latency_series.ys) / len(latency_series.ys))
    result.notes.append(
        "paper: eBPF improves throughput ~1.3x for small packets and "
        "~2x beyond 1500B; iptables latency is 1.5-1.8x eBPF's, with "
        "little size sensitivity")
    return result
