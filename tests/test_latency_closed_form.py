"""Each request path, priced as one line of arithmetic.

With every service-time sigma at 0, ``sample_service_time`` returns the
mean and draws nothing, and Fig 10's probe (one connection, one request
per second) never queues. A request's latency is then a fixed sum of
``MeshCostModel`` constants and the connection's path latency. The sums
below are written out term by term, in path order, so a dropped hop or
a doubled stage fails here even when the claims ledger's bands, which
hold paper shapes, would still pass.

The only slack is the simulator clock's own rounding: each fixed delay
is added to an absolute time, which rounds by up to half an ulp of that
time (about 1e-15 s at 10 s, against the 50e-6 s of the smallest hop).
"""

import dataclasses
import math

import pytest

from repro.experiments import testbed
from repro.mesh import DEFAULT_COSTS, HttpRequest
from repro.netsim import LatencyModel
from repro.workloads import ClosedLoopDriver

COSTS = dataclasses.replace(DEFAULT_COSTS, istio_l7_sigma=0.0,
                            ambient_l7_sigma=0.0, canal_l7_sigma=0.0)
REQUESTS = 100  # Fig 10 sends 100
REL = 1e-12


def istio_latency(c, request, one_way_s):
    sidecar = (2 * c.iptables_redirect_cpu_s()
               + c.symmetric_cost(request.total_bytes) + c.istio_sidecar_l7_s)
    return [sidecar,            # client sidecar
            one_way_s,          # request hop
            sidecar,            # server sidecar
            c.app_service_time_s,
            one_way_s]          # response hop


def ambient_latency(c, request, one_way_s):
    ztunnel = c.ambient_ztunnel_l4_s + c.symmetric_cost(request.total_bytes)
    return [ztunnel,                    # client ztunnel
            LatencyModel().intra_az,    # hop to the waypoint
            c.ambient_waypoint_l7_s,    # waypoint L7 pass
            one_way_s,                  # on to the server node
            ztunnel,                    # server ztunnel
            c.app_service_time_s,
            one_way_s]                  # response hop


def canal_latency(c, request, _one_way_s):
    # One gateway replica: ECMP enters at the chain head, so the
    # redirectors add no hop.
    onnode = (c.ebpf_redirect_cpu_s() + c.canal_onnode_l4_s
              + c.symmetric_cost(request.total_bytes))
    hop = c.canal_gateway_hop_s
    return [onnode,                 # client on-node proxy
            hop,                    # node to gateway
            c.canal_gateway_l7_s,   # gateway replica L7 pass
            hop,                    # gateway to server node
            onnode,                 # server on-node proxy
            c.app_service_time_s,
            2 * hop]                # response back through the gateway


def proxyless_latency(c, _request, _one_way_s):
    hop = c.canal_gateway_hop_s
    return [hop,                    # app to gateway
            c.canal_gateway_l7_s,   # gateway replica L7 pass
            hop,                    # gateway to server app
            c.app_service_time_s,
            2 * hop]                # response back through the gateway


def nomesh_latency(c, _request, one_way_s):
    return [one_way_s, c.app_service_time_s, one_way_s]


PATHS = {
    "no-mesh": nomesh_latency,
    "istio": istio_latency,
    "ambient": ambient_latency,
    "canal": canal_latency,
    "canal-proxyless": proxyless_latency,
}


def _path_latency(run, connection):
    """The one-way client→server latency the connection travels."""
    pods = run.cluster.pods
    locate = (lambda pod:
              run.cluster.node_by_name(pod.node_name).host.location)
    return LatencyModel().one_way(locate(pods[connection.client]),
                                  locate(pods[connection.server_pod]))


def _sigma0_testbed(mesh_name):
    run = testbed.build_testbed(mesh_name, costs=COSTS)
    gateway = getattr(run.mesh, "gateway", None)
    if gateway is not None:
        for backend in gateway.all_backends:
            for replica in backend.replicas:
                replica.config = dataclasses.replace(
                    replica.config, request_cost_sigma=0.0)
    return run


def _probe(mesh_name):
    """Fig 10's probe on a sigma-0 testbed.

    Returns the run and one ``(connection, response, end time)`` per
    request.
    """
    run = _sigma0_testbed(mesh_name)
    exchanges = []
    inner = run.mesh.request

    def request(connection, http_request):
        response = yield from inner(connection, http_request)
        exchanges.append((connection, response, run.sim.now))
        return response

    run.mesh.request = request
    driver = ClosedLoopDriver(run.sim, run.mesh, run.client_pod, "svc1",
                              connections=1,
                              requests_per_connection=REQUESTS,
                              think_time_s=1.0)
    report = run.run_driver(driver)
    assert report.completed == REQUESTS
    return run, exchanges


@pytest.mark.parametrize("mesh_name", sorted(PATHS))
def test_latency_is_the_closed_form_sum(mesh_name):
    run, exchanges = _probe(mesh_name)
    assert len(exchanges) == REQUESTS
    for connection, response, end_s in exchanges:
        assert response.status == 200
        terms = PATHS[mesh_name](COSTS, HttpRequest(),
                                 _path_latency(run, connection))
        clock_slack = len(terms) * math.ulp(end_s) / 2
        assert response.latency_s == pytest.approx(
            sum(terms), rel=REL, abs=clock_slack)


# -- short flows: a fresh mTLS handshake before each request -----------------

FLOWS = 20


def canal_handshake(c, key_server_config):
    """One on-node proxy's mTLS handshake with the gateway.

    Both asymmetric ops, the proxy's and the gateway's, go to the one
    key server, so they share a batch that nothing else fills: both
    wait out the flush timer, and the longer op is either of them.
    """
    k = key_server_config
    return [c.handshake_base_s + c.connection_setup_s,  # setup
            k.network_rtt_s / 2,            # the op's RPC to the server
            k.flush_timeout_s,              # batch wait
            c.crypto.asym_accelerated_s,    # accelerated op
            k.network_rtt_s / 2 + k.rpc_overhead_s,  # reply
            4 * c.canal_gateway_hop_s]      # two round trips


def _short_flows():
    """Canal short flows on a sigma-0 testbed, one flow at a time.

    Each flow opens a connection (handshake), sends one request and
    ends; the next opens a second later. Returns the run and one
    ``(connection, response, open time, end time)`` per flow.
    """
    run = _sigma0_testbed("canal")
    flows = []

    def one_at_a_time():
        for _ in range(FLOWS):
            opened_at = run.sim.now
            connection = yield from run.mesh.open_connection(
                run.client_pod, "svc1")
            response = yield from run.mesh.request(connection,
                                                   HttpRequest())
            flows.append((connection, response, opened_at, run.sim.now))
            yield run.sim.timeout(1.0)

    run.sim.process(one_at_a_time())
    run.sim.run()
    assert len(flows) == FLOWS
    return run, flows


def test_short_flow_is_the_closed_form_sum():
    run, flows = _short_flows()
    key_server = run.mesh.key_fleet.server_in(run.mesh.gateway_az)
    batch = key_server._engine
    handshake = canal_handshake(COSTS, key_server.config)
    # The longer asymmetric op, today 2.55 ms.
    assert sum(handshake[1:5]) == pytest.approx(2.55e-3)
    server_nodes = set()
    extra_handshakes = 0
    for connection, response, opened_at, end_s in flows:
        assert response.status == 200
        # The first flow to land on a server node also establishes
        # that node's long-lived channel to the gateway: a second
        # handshake, after the client's.
        node = run.cluster.pods[connection.server_pod].node_name
        handshakes = 1 if node in server_nodes else 2
        server_nodes.add(node)
        extra_handshakes += handshakes - 1
        request = canal_latency(COSTS, HttpRequest(), None)
        terms = handshake * handshakes + request
        clock_slack = len(terms) * math.ulp(end_s) / 2
        assert end_s - opened_at == pytest.approx(
            sum(terms), rel=REL, abs=clock_slack)
        assert response.latency_s == pytest.approx(
            sum(request), rel=REL, abs=clock_slack)
    assert extra_handshakes >= 1
    # Each handshake's two ops filled one batch of two.
    assert batch.batches == FLOWS + extra_handshakes
    assert batch.operations == 2 * batch.batches
