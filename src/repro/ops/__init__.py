"""``repro.ops`` — the self-healing operations layer.

The paper's watchdog service watched *prices*; its own availability was
kept up by operators applying corrective measures by hand (App. 10.3).
This package is the automated operator:

* :mod:`repro.ops.supervisor` — the :class:`Supervisor` loop: liveness
  and health probes per component, auto-restarts with flap-prevention
  delays and sliding-window restart budgets, escalation when a budget
  runs dry;
* :mod:`repro.ops.health` — the probe library (heartbeats, queue depth,
  error rates, database staleness, pollution budgets), all read-only and
  RNG-free;
* :mod:`repro.ops.killswitch` — the latched circuit breaker anomalies
  trip;
* :mod:`repro.ops.audit` — the persistent, sim-clock-stamped audit
  trail, whose event counts ``sheriff_ops_events_total`` samples;
* :mod:`repro.ops.notifiers` — pluggable alert fan-out (log,
  callback);
* :mod:`repro.ops.wiring` — :func:`build_supervisor`, which registers a
  whole :class:`repro.core.sheriff.PriceSheriff` deployment.

Not to be confused with :class:`repro.core.watchdog.Watchdog`, the
Sect. 6 product-price watcher — that one watches prices, this package
watches the service.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".audit": ["AuditTrail", "OpsEvent"],
    ".health": [
        "CallableProbe", "DatabaseStalenessProbe", "ErrorRateProbe", "HeartbeatProbe",
        "PollutionBudgetProbe", "ProbeResult", "QueueDepthProbe",
    ],
    ".killswitch": ["KillSwitch", "KillSwitchTripped"],
    ".notifiers": ["CallbackNotifier", "LogNotifier", "Notifier", "NotifierFanout"],
    ".supervisor": ["Component", "HealReport", "RestartPolicy", "Supervisor"],
    ".wiring": ["build_supervisor"],
})
