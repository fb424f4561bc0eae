"""The metrics registry of the telemetry subsystem.

The deployed Price $heriff is operated through live panels and the
paper reasons about per-stage latencies, retry counts, and pollution
budgets; prior crowd-measurement systems stress that measurement
*quality* accounting — which vantage answered, how long it took, what
was dropped — is what makes detection results trustworthy.  This
module provides the primitive those panels read from: metric families
with optional labels, collected in a :class:`MetricsRegistry` that
renders Prometheus-style text exposition.  An **event instrument**
(:class:`Counter`, :class:`Histogram`) records what the
code tells it, for facts no component keeps otherwise (latencies, bytes
sent); a **sampled view** (:meth:`MetricsRegistry.sampled`) reads a
count a component already keeps (failovers, queue depth, online peers)
when scraped, so each fact has one record and a scrape cannot disagree
with the state it reports.

Two properties matter more than features:

* **zero-cost-when-disabled** — every instrument has a null twin
  (:data:`NULL_REGISTRY` hands them out) whose methods are single-line
  no-ops, so instrumented hot paths pay one attribute call when
  telemetry is off, and a sampled view costs nothing at all;
* **determinism-neutral** — instruments never consult an RNG, never
  read wall clocks, and never change control flow, so the tier-1
  row-identity properties hold with telemetry on or off (pinned by
  ``tests/obs/test_telemetry_determinism.py``).

Every deployment builds its own registry, so two sheriffs in one
process never share series.  Code that every deployment in a process
shares (the extraction memo, the crypto tables) keeps plain-int
:class:`WorkCounts` instead, and the component that ran the work adds
their growth to its own registry.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Sampled",
    "WorkCounts",
]


class MetricError(ValueError):
    """Bad metric declaration or use (name clash, label mismatch…)."""


#: simulated-seconds latency buckets — fetch round trips run seconds to
#: minutes on the sim clock, so the ladder is wider than Prometheus'
#: default HTTP buckets
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 20.0, 40.0, 80.0, 160.0, 320.0,
)

_INF = math.inf


def _fmt(value: float) -> str:
    """Prometheus-style number: integral values lose the trailing .0"""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return format(value, ".10g")


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[object]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class _Family:
    """What every metric family shares: a name, help text and labels."""

    kind = "untyped"
    enabled = True

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def value(self, **labels: object) -> float:
        """One series' number, 0 when it has none (a counter's or a
        sampled view's; a histogram's series are not numbers)."""
        key = self._key(labels)
        return next((state[0] for k, state in self.series() if k == key), 0.0)

    def expose(self, lines: List[str]) -> None:
        """One line per ``(labels, [value])`` series (not a histogram's)."""
        for key, state in self.series():
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, key)} "
                f"{_fmt(state[0])}"
            )


class _Instrument(_Family):
    """An event instrument: its series hold what the code recorded."""

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = 4096,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.max_series = max_series
        self._children: Dict[Tuple[str, ...], object] = {}

    def _child(self, labels: Dict[str, object]):
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_series:
                raise MetricError(
                    f"metric {self.name!r} exceeded its label-cardinality "
                    f"budget of {self.max_series} series"
                )
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(labelvalues, state)`` pairs, sorted for stable output."""
        return sorted(self._children.items())


class Counter(_Instrument):
    """Monotonically increasing count (jobs submitted, transport bytes)."""

    kind = "counter"

    def _new_child(self) -> List[float]:
        return [0.0]

    @property
    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(c[0] for c in self._children.values())

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        self._child(labels)[0] += amount


class Sampled(_Family):
    """A counter or gauge read from a count a component already keeps.

    ``read()`` returns the number, or ``{label-values tuple: number}``,
    each time the family is read or rendered.  A counter series at 0 is
    not exposed (an event counter has none before its first event).
    """

    def __init__(self, kind: str, name: str, help: str,
                 labelnames: Sequence[str], read: Callable[[], object]) -> None:
        if kind not in ("counter", "gauge"):
            raise MetricError(f"sampled metric {name!r} cannot be a {kind!r}")
        super().__init__(name, help, labelnames)
        self.kind = kind
        self._read = read

    def _samples(self) -> Dict[Tuple[str, ...], float]:
        read = self._read()
        pairs = read.items() if self.labelnames else (((), read),)
        return {
            tuple(str(v) for v in key): float(value)
            for key, value in pairs
            if value or self.kind == "gauge"
        }

    @property
    def total(self) -> float:
        return sum(self._samples().values())

    def series(self) -> List[Tuple[Tuple[str, ...], List[float]]]:
        return [(key, [value]) for key, value in sorted(self._samples().items())]


class _HistogramState:
    """Per-series histogram accumulator."""

    __slots__ = ("bucket_counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Instrument):
    """Distribution with fixed buckets (latencies, batch sizes).

    Buckets are *upper bounds* in ascending order; an implicit ``+Inf``
    bucket tops the ladder.  Quantiles are estimated by linear
    interpolation inside the owning bucket, clamped to the observed
    min/max so small samples don't report impossible tails.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = 4096,
    ) -> None:
        super().__init__(name, help, labelnames, max_series)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be ascending and unique"
            )
        if bounds[-1] == _INF:
            bounds = bounds[:-1]
        self.buckets = bounds

    def _new_child(self) -> _HistogramState:
        return _HistogramState(len(self.buckets) + 1)

    def observe(self, value: float, **labels: object) -> None:
        state = self._child(labels)
        state.bucket_counts[bisect_left(self.buckets, value)] += 1
        state.sum += value
        state.count += 1
        state.min = min(state.min, value)
        state.max = max(state.max, value)

    # -- reading back -----------------------------------------------------
    def _merged(self, labels: Optional[Dict[str, object]]) -> Optional[_HistogramState]:
        """One series, or every series merged (``labels=None``)."""
        if labels is not None:
            return self._children.get(self._key(labels))  # type: ignore[arg-type]
        merged: Optional[_HistogramState] = None
        for state in self._children.values():
            if merged is None:
                merged = _HistogramState(len(self.buckets) + 1)
            merged.bucket_counts = [
                a + b for a, b in zip(merged.bucket_counts, state.bucket_counts)
            ]
            merged.sum += state.sum
            merged.count += state.count
            merged.min = min(merged.min, state.min)
            merged.max = max(merged.max, state.max)
        return merged

    def total_count(self) -> int:
        return sum(s.count for s in self._children.values())

    def count_le(self, bound: float, **labels: object) -> int:
        """Observations known to be ≤ ``bound``: the cumulative count of
        every bucket whose upper bound is ≤ ``bound``.

        Conservative by construction — observations in the bucket
        straddling ``bound`` (and in the ``+Inf`` overflow) are *not*
        counted, so an SLO computed from this never over-reports
        compliance.  Merges every series when labels are omitted.
        """
        state = self._merged(labels if labels else None)
        if state is None or state.count == 0:
            return 0
        k = bisect_right(self.buckets, bound)
        return sum(state.bucket_counts[:k])

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """Estimated q-quantile (q in [0, 1]) of one series, or of all
        series merged when the metric's labels are not specified."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q!r} not in [0, 1]")
        state = self._merged(labels if labels else None)
        if state is None or state.count == 0:
            return None
        rank = q * state.count
        cumulative = 0
        for i, in_bucket in enumerate(state.bucket_counts):
            if in_bucket == 0:
                continue
            if cumulative + in_bucket >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i] if i < len(self.buckets) else state.max
                fraction = (max(rank, 1) - cumulative) / in_bucket
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, state.min), state.max)
            cumulative += in_bucket
        return state.max  # pragma: no cover - rank <= count always lands

    def percentiles(
        self, ps: Sequence[float] = (50.0, 95.0, 99.0), **labels: object
    ) -> Dict[str, Optional[float]]:
        """The panel shorthand: ``{"p50": …, "p95": …, "p99": …}``."""
        return {f"p{p:g}": self.quantile(p / 100.0, **labels) for p in ps}

    def expose(self, lines: List[str]) -> None:
        names = self.labelnames + ("le",)
        for key, state in self.series():
            cumulative = 0
            for bound, in_bucket in zip(
                self.buckets + (_INF,), state.bucket_counts
            ):
                cumulative += in_bucket
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(names, key + (_fmt(bound),))} "
                    f"{cumulative}"
                )
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_fmt(state.sum)}")
            lines.append(f"{self.name}_count{plain} {state.count}")


class MetricsRegistry:
    """Instrument factory + collection point for one deployment.

    Factories are get-or-create: asking twice for the same name returns
    the same instrument (so independently constructed components can
    share a series), but re-declaring a name as a different kind or
    with different labels is an error — silent divergence is how panels
    drift from reality.
    """

    enabled = True

    def __init__(self, max_series_per_metric: int = 4096) -> None:
        self._metrics: Dict[str, _Family] = {}
        self.max_series_per_metric = max_series_per_metric

    def _declare(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != tuple(
                labelnames
            ):
                raise MetricError(
                    f"metric {name!r} already declared as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        metric = cls(
            name, help=help, labelnames=labelnames,
            max_series=self.max_series_per_metric, **kwargs,
        )
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    def sampled(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        read: Callable[[], object],
    ) -> Sampled:
        """A family ``read`` samples when scraped; it has one source, so
        its name may not be declared again."""
        if name in self._metrics:
            raise MetricError(f"metric {name!r} already declared")
        metric = self._metrics[name] = Sampled(kind, name, help, labelnames, read)
        return metric

    def get(self, name: str) -> Optional[_Family]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Family]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def render_exposition(self) -> str:
        """Prometheus text exposition format, sorted for stable diffs."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            metric.expose(lines)
        return "\n".join(lines) + ("\n" if lines else "")


# -- the disabled twin --------------------------------------------------------

class _NullInstrument:
    """Does nothing, fast: the cost of disabled telemetry is one call."""

    kind = "null"
    name = ""
    help = ""
    labelnames: Tuple[str, ...] = ()
    enabled = False
    buckets: Tuple[float, ...] = ()
    total = 0.0

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def expose(self, lines: List[str]) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every factory returns the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def sampled(self, kind: str, name: str, help: str, labelnames, read) -> _NullInstrument:
        return _NULL_INSTRUMENT


NULL_REGISTRY = NullRegistry()


class WorkCounts:
    """Plain-int counts of work done through process-wide code.

    The extraction memo and the crypto tables serve every deployment in
    the process, so their work is counted here, in ints, and never into
    a registry.  The component that ran the work takes a
    :meth:`snapshot` before it and passes it to :meth:`add_since`
    after, which adds the growth to that component's own counters: a
    deployment's registry counts its own work and nothing else.
    Subclasses name their counts in ``__slots__``.
    """

    __slots__ = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def add_since(self, before: Dict[str, int], counters: Dict[str, Counter]) -> None:
        """Add each count's growth since ``before`` to ``counters[name]``."""
        for name, counter in counters.items():
            grown = getattr(self, name) - before[name]
            if grown:
                counter.inc(grown)
