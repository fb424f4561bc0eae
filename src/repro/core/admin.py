"""The administrator's console (App. 10.2.1 + Figs. 7/16).

"First, one needs to setup a new Measurement server.  Then, she needs
to register it with the system by using the Coordinator's web
interface.  The Coordinator executes some internal tests to confirm
that the new machine is actually running the Measurement server code.
If the new machine passes the tests, the Coordinator includes it in the
request distribution protocol…  To remove a Measurement server, one can
use the same web interface.  As soon as the selected Measurement server
has no pending jobs, it can be removed."

:class:`AdminConsole` wraps a deployment with exactly that workflow:
attach runs the probe (a canned price-extraction self-test) before the
server joins dispatch; detach refuses while jobs are pending; the two
monitoring panels render on demand.
"""

from __future__ import annotations


from repro.core.errors import ProbeFailed
from repro.core.measurement import MeasurementServer
from repro.core.monitoring import (
    faults_panel,
    ops_panel,
    peers_panel,
    pipeline_panel,
    servers_panel,
)

__all__ = ["AdminConsole", "ProbeFailed"]


class AdminConsole:
    """The Coordinator's web interface, as a library object."""

    def __init__(self, sheriff) -> None:
        self._sheriff = sheriff

    # -- attach / detach ---------------------------------------------------
    def attach_measurement_server(self, name: str) -> MeasurementServer:
        """Set up, probe, and (only then) register a new server."""
        server = self._sheriff.build_measurement_server(name)
        self.probe(server)  # a machine that fails never joins
        self._sheriff.enlist_measurement_server(server)
        return server

    def detach_measurement_server(self, name: str) -> None:
        """Remove a server once it has no pending jobs."""
        self._sheriff.remove_measurement_server(name)

    # -- the internal probe --------------------------------------------------
    @staticmethod
    def probe(server: MeasurementServer) -> None:
        """Confirm the machine runs working Measurement server code.

        The probe exercises the two pipelines a Measurement server must
        have: Tags Path price extraction and currency detection +
        conversion, on a canned page with a known answer.  Any deviation
        raises :class:`ProbeFailed`.
        """
        if not server.self_test():
            raise ProbeFailed(
                f"machine {server.name!r} failed the Measurement server probe"
            )

    # -- panels ------------------------------------------------------------------
    def servers_panel(self) -> str:
        return servers_panel(self._sheriff.coordinator)

    def peers_panel(self, self_peer_id: str = "") -> str:
        return peers_panel(self._sheriff.overlay, self_peer_id)

    def faults_panel(self) -> str:
        """Fault counts straight from the plan's event log, recovery
        counters from the deployment report."""
        report = self._sheriff.fault_report()
        report.pop("chaos_profile", None)
        report.pop("faults_injected", None)
        return faults_panel(self._sheriff.faults, recovery=report)

    def pipeline_panel(self) -> str:
        return pipeline_panel(self._sheriff.telemetry.registry)

    def ops_panel(self, supervisor) -> str:
        """The self-healing layer's component table (pass the
        :class:`repro.ops.supervisor.Supervisor` watching this
        deployment — the console does not own one)."""
        return ops_panel(supervisor)
