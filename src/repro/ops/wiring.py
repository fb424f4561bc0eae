"""Wiring a :class:`~repro.ops.supervisor.Supervisor` over a deployment.

:func:`build_supervisor` registers every component of a
:class:`repro.core.sheriff.PriceSheriff` with the probes and restart
actions that fit it:

* **Measurement servers** — heartbeat probe (distributor status + flap
  table); restart = :meth:`PriceSheriff.restart_measurement_server`.
  These are the components the chaos profiles actually kill, so they
  are the ones with a real restart action and the ``critical`` flag.
* **Engine worker pools** — queue-depth probe per server; heal action
  is a drain (run the loop dry), not a process restart.
* **Database server** — one staleness probe (alert-only: the
  simulated storage engine has no process to bounce, a stale database
  needs a human).
* **Coordinator** — error-rate probe over its terminal job failures.
* **IPC fleet / PPC overlay** — fleet-wide error-rate probes
  (alert-only; individual volunteers cannot be restarted by us).
* **SLOs** — when the deployment carries an enabled telemetry plane,
  one alert-only burn-rate component per declared objective
  (``slo/<name>``): a latency or availability promise burning its
  error budget faster than ``slo_max_burn_rate`` pages, nothing
  restarts.

Plus the deployment-wide anomaly detectors: a fleet error-rate spike
and a pollution-budget blowout trip the kill-switch.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.slo import SLOEngine, build_default_slos
from repro.ops.audit import AuditTrail
from repro.ops.health import (
    DatabaseStalenessProbe,
    DeadLetterProbe,
    ErrorRateProbe,
    HeartbeatProbe,
    JobQueueBacklogProbe,
    PollutionBudgetProbe,
    QueueDepthProbe,
    SLOBurnRateProbe,
)
from repro.ops.notifiers import Notifier
from repro.ops.supervisor import RestartPolicy, Supervisor

__all__ = ["build_supervisor"]

#: engine worker-pool backlog (fetch tasks) above which a pool is drained
MAX_QUEUE_DEPTH = 256
#: terminal job failures (and IPC / PPC losses) tolerated per tick
MAX_JOB_FAILURES_PER_TICK = 5.0
#: simulated seconds the Database server may go without a write before
#: it alerts
DB_STALENESS = 24 * 3600.0
#: share of doppelgangers past their pollution budget that trips the
#: kill-switch
POLLUTION_MAX_FRACTION = 0.5
#: share of the queue tier's ``max_depth`` that alerts as backlog
QUEUE_BACKLOG_FRACTION = 0.9


def build_supervisor(
    sheriff,
    notifiers: Sequence[Notifier] = (),
    audit_path: Optional[str] = None,
    heartbeat_policy: Optional[RestartPolicy] = None,
    slo_engine: Optional[SLOEngine] = None,
    slo_max_burn_rate: float = 1.0,
) -> Supervisor:
    """Stand up the self-healing layer over a live deployment.

    ``heartbeat_policy`` is the Measurement servers' restart policy
    (the stock :class:`RestartPolicy` by default).  ``slo_engine``
    overrides the stock objectives
    (:func:`repro.obs.slo.build_default_slos`); pass an engine with your
    own declarations to alert on them instead.  SLO components only
    exist when the sheriff's telemetry registry is enabled — burn rates
    are computed from metrics, and a disabled registry has none.
    """
    clock = sheriff.world.clock
    audit = AuditTrail(clock, path=audit_path, telemetry=sheriff.telemetry)
    supervisor = Supervisor(
        clock, audit=audit, notifiers=notifiers, telemetry=sheriff.telemetry
    )
    policy = RestartPolicy()
    ms_policy = heartbeat_policy if heartbeat_policy is not None else policy

    # Measurement servers: the restartable, critical fleet.
    for name in list(sheriff.measurement_servers):
        supervisor.register(
            name,
            probes=(
                HeartbeatProbe(sheriff.distributor, name, faults=sheriff.faults),
            ),
            restart=(
                lambda server_name=name:
                sheriff.restart_measurement_server(server_name)
            ),
            critical=True,
            policy=ms_policy,
        )
        supervisor.register(
            f"{name}/pool",
            probes=(QueueDepthProbe(sheriff.engine, name, MAX_QUEUE_DEPTH),),
            restart=sheriff.engine.drain,
            policy=policy,
        )

    # The Database server: staleness is observable, restarts are not ours.
    supervisor.register(
        "db/db", probes=(DatabaseStalenessProbe(sheriff.db, DB_STALENESS),)
    )

    # Queued measurement tier (when one is deployed): backlog pressure
    # and queued jobs failed before dispatch.  Both alert-only — the
    # queue drains itself and a failed job is terminal; restarting
    # nothing keeps the supervisor's restart-equivalence property intact.
    job_queue = getattr(sheriff, "job_queue", None)
    if job_queue is not None:
        supervisor.register(
            "jobqueue",
            probes=(JobQueueBacklogProbe(job_queue, QUEUE_BACKLOG_FRACTION),),
        )
        supervisor.register(
            "jobqueue/dlq",
            probes=(DeadLetterProbe(job_queue),),
        )

    # Coordinator: watch terminal job failures per tick.
    supervisor.register(
        "coordinator",
        probes=(
            ErrorRateProbe(
                lambda: sheriff.coordinator.jobs_failed,
                MAX_JOB_FAILURES_PER_TICK,
                name="job failures",
            ),
        ),
    )

    # IPC fleet: fetch failures after retries, fleet-wide.
    supervisor.register(
        "ipc-fleet",
        probes=(
            ErrorRateProbe(
                lambda: sheriff.measurement_stats().ipc_failures,
                MAX_JOB_FAILURES_PER_TICK,
                name="IPC fetch failures",
            ),
        ),
    )

    # PPC overlay: lost volunteer replies, fleet-wide.
    supervisor.register(
        "ppc-fleet",
        probes=(
            ErrorRateProbe(
                lambda: (
                    lambda s: s.ppc_dropped + s.ppc_timeouts + s.ppc_corrupt
                )(sheriff.measurement_stats()),
                MAX_JOB_FAILURES_PER_TICK,
                name="PPC losses",
            ),
        ),
    )

    # SLO burn-rate watch: one alert-only component per objective.
    # Gated on the registry — burn rates read metrics snapshots, and
    # with telemetry off there is nothing to read (and the component
    # set of untelemetered deployments stays exactly as before).
    if sheriff.telemetry.registry.enabled:
        if slo_engine is None:
            slo_engine = build_default_slos(
                SLOEngine(sheriff.telemetry.registry, clock)
            )
        supervisor.slo_engine = slo_engine
        for slo in slo_engine.slos():
            supervisor.register(
                f"slo/{slo.name}",
                probes=(
                    SLOBurnRateProbe(slo_engine, slo.name, slo_max_burn_rate),
                ),
            )

    # Deployment-wide anomaly detectors.
    supervisor.add_anomaly_detector(
        "error-spike",
        ErrorRateProbe(
            lambda: sheriff.coordinator.jobs_failed,
            max(10.0, 3 * MAX_JOB_FAILURES_PER_TICK),
            name="deployment job failures",
        ),
    )
    supervisor.add_anomaly_detector(
        "pollution-budget",
        PollutionBudgetProbe(sheriff.dopp_manager, POLLUTION_MAX_FRACTION),
    )
    return supervisor
