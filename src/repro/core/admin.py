"""The administrator's console (Figs. 7/16).

:class:`AdminConsole` renders a deployment's monitoring panels on
demand, read from the live components.  App. 10.2.1's runtime attach
and detach of Measurement servers is not modelled: a deployment's
servers are the ones it was built with (``DESIGN.md``).
"""

from __future__ import annotations

from repro.core.monitoring import (
    faults_panel,
    peers_panel,
    pipeline_panel,
    servers_panel,
)

__all__ = ["AdminConsole"]


class AdminConsole:
    """The Coordinator's web interface, as a library object."""

    def __init__(self, sheriff) -> None:
        self._sheriff = sheriff

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
