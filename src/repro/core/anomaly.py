"""Anomaly classification and the rapid-response dispatcher (§4.2, §6.2).

On a backend alert, the system determines whether the load rise is an
expensive query, a normal workload increase, a DDoS attack, or
undetermined, then responds:

* normal growth → precise scaling (RCA + Reuse/New);
* attack signature (#sessions surging without matching RPS) → lossy
  sandbox migration;
* abnormal-but-stable (slow unusual growth, odd scaling cadence) →
  lossless sandbox migration;
* undetermined → sandbox as well (protect the other tenants first).

Service-level alerts (an auto-scaling tenant near resource depletion)
trigger precise scaling directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..simcore import Simulator
from .gateway import MeshGateway
from .monitoring import Alert, GatewayMonitor
from .rca import RcaResult, RootCauseAnalyzer
from .sandbox import SandboxManager
from .scaling import ScalingEngine

__all__ = ["AnomalySignals", "classify", "RapidResponder", "ResponseRecord"]

NORMAL_GROWTH = "workload_growth"
EXPENSIVE_QUERY = "expensive_query"
DDOS = "ddos"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AnomalySignals:
    """Observed ratios over the detection window for one service."""

    rps_growth: float            # recent / previous RPS
    session_growth: float        # recent / previous #sessions
    water_growth: float          # recent / previous backend water level
    scaling_ops_last_hour: int = 0


def classify(signals: AnomalySignals) -> str:
    """The paper's four-way determination (§4.2 backend-level alert).

    * Sessions surging far beyond RPS is the Case #1 attack signature
      ("#TCP sessions surged without a corresponding increase in RPS").
    * Water rising without RPS movement points at an expensive query.
    * Proportional RPS/session/water growth is normal workload growth.
    * Anything else is undetermined.
    """
    if signals.session_growth >= 2.0 and signals.rps_growth < 1.3:
        return DDOS
    if signals.water_growth >= 1.5 and signals.rps_growth < 1.2:
        return EXPENSIVE_QUERY
    if signals.rps_growth >= 1.2 and (
            signals.session_growth <= signals.rps_growth * 1.5):
        return NORMAL_GROWTH
    return UNDETERMINED


@dataclass
class ResponseRecord:
    """What the responder did about one alert."""

    alert: Alert
    classification: str
    action: str                  # "scale" | "sandbox_lossy" | ...
    rca: Optional[RcaResult] = None
    service_id: Optional[int] = None


class RapidResponder:
    """Wires monitor alerts to RCA, scaling and sandboxing."""

    def __init__(self, sim: Simulator, gateway: MeshGateway,
                 monitor: GatewayMonitor, scaling: ScalingEngine,
                 sandbox: SandboxManager, signal_provider,
                 analyzer: Optional[RootCauseAnalyzer] = None):
        self.sim = sim
        self.gateway = gateway
        self.monitor = monitor
        self.scaling = scaling
        self.sandbox = sandbox
        self.analyzer = analyzer or RootCauseAnalyzer(gateway, monitor)
        #: Callable(service_id) -> AnomalySignals; experiments inject the
        #: trace-derived signals here.
        self.signal_provider = signal_provider
        self.responses: List[ResponseRecord] = []
        monitor.subscribe(self.on_alert)

    # -- alert handling ------------------------------------------------------------
    def on_alert(self, alert: Alert) -> None:
        if alert.level == "backend":
            self._on_backend_alert(alert)
        elif alert.level == "service":
            self._on_service_alert(alert)

    def _on_backend_alert(self, alert: Alert) -> None:
        backend = self.gateway.backend_by_name(alert.subject)
        if "session" in alert.message:
            rca = self.analyzer.analyze_sessions(backend)
        else:
            rca = self.analyzer.analyze(backend)
        if not rca.found:
            record = ResponseRecord(alert=alert, classification=UNDETERMINED,
                                    action="sandbox_lossy", rca=rca)
            self.responses.append(record)
            return
        service_id = rca.service_id
        signals = self.signal_provider(service_id)
        classification = classify(signals)
        if classification == NORMAL_GROWTH:
            action = "scale"
            self.sim.process(self.scaling.scale_service(service_id),
                             name=f"scale-{service_id}")
        elif classification == DDOS:
            action = "sandbox_lossy"
            self.sim.process(self.sandbox.migrate_lossy(service_id),
                             name=f"lossy-{service_id}")
        elif classification == EXPENSIVE_QUERY:
            action = "sandbox_lossless"
            self.sim.process(self.sandbox.migrate_lossless(service_id),
                             name=f"lossless-{service_id}")
        else:
            action = "sandbox_lossy"
            self.sim.process(self.sandbox.migrate_lossy(service_id),
                             name=f"lossy-{service_id}")
        self.responses.append(ResponseRecord(
            alert=alert, classification=classification, action=action,
            rca=rca, service_id=service_id))

    def _on_service_alert(self, alert: Alert) -> None:
        """Auto-scaling tenants get scaled before resources deplete."""
        service_id = int(alert.subject)
        self.sim.process(self.scaling.scale_service(service_id),
                         name=f"scale-{service_id}")
        self.responses.append(ResponseRecord(
            alert=alert, classification=NORMAL_GROWTH, action="scale",
            service_id=service_id))
