"""``repro.obs`` — telemetry for the $heriff pipeline.

Three layers, and the panels that read them:

* :mod:`repro.obs.metrics` — a labeled metrics registry (Counter /
  Histogram, and sampled views) with Prometheus-style text exposition, threaded
  through the hot paths of the engine, dispatch, fault injection, the
  peer overlay, and the database;
* :mod:`repro.obs.trace` — span tracing on the simulated clock, so a
  single job's journey (admission → queue → steal/retry → fetch →
  persist) is inspectable end to end, across servers, as one record;
* :mod:`repro.obs.slo` — declared latency/availability objectives with
  error-budget accounting on the sim clock;
* the live operator panels of :mod:`repro.core.monitoring`, which
  render from metrics snapshots.

The :class:`Telemetry` facade bundles one registry + one tracer and is
what deployments inject
(``PriceSheriff(world, telemetry=Telemetry())``).  Every instrumented
component takes it as its ``telemetry=`` constructor keyword and
declares its instruments in ``__init__``, so an instrument exists
before any state it counts.  The default everywhere is
:data:`NULL_TELEMETRY` — disabled, zero-cost, and guaranteed not to
perturb determinism (which holds with telemetry on, too;
instrumentation never consumes RNG or advances clocks).
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    WorkCounts,
)
from repro.obs.slo import SLO, SLOEngine, SLOStatus, build_default_slos
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    critical_path,
    render_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NullRegistry",
    "NullTracer",
    "SLO",
    "SLOEngine",
    "SLOStatus",
    "Span",
    "Telemetry",
    "Tracer",
    "WorkCounts",
    "build_default_slos",
    "critical_path",
    "render_trace",
]


class Telemetry:
    """One deployment's registry + tracer, with a disabled twin.

    ``Telemetry()`` is enabled with a fresh registry; the tracer is
    created by :meth:`bind_clock` because it stamps spans with the
    deployment's simulated clock, which the sheriff owns — so a
    deployment binds the clock before it builds the components that
    keep the tracer.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry() if enabled else NULL_REGISTRY
        self.tracer = NULL_TRACER

    def bind_clock(self, clock) -> "Telemetry":
        """Attach the sim clock; creates the tracer."""
        if self.enabled and self.tracer is NULL_TRACER:
            self.tracer = Tracer(clock)
        return self


#: the shared disabled instance every component defaults to
NULL_TELEMETRY = Telemetry(enabled=False)
