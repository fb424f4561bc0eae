"""Span tracing on the simulated clock.

A price check is a tree of work: the ``price_check`` root fans out to
one ``fetch`` per vantage point (initiator, every IPC, every selected
PPC), then ``parse`` reconciles the rows and ``persist`` lands them.
The :class:`Tracer` records that tree as nested spans stamped with
*simulated* time — the clock the deployment itself runs on — so a
single check's timeline is inspectable end to end: which vantage was
slow, what the pool serialized, what the cache saved.

Design constraints, mirrored from :mod:`repro.obs.metrics`:

* span IDs come from a per-tracer counter, never a UUID or wall clock,
  so traced runs replay byte-identically from a seed;
* the fan-out *executes* eagerly at its dispatch instant and its
  fetches land on the world clock later: the engine records each
  ``fetch`` span (a span with no body) when its task lands, backdated
  to the instant a worker took it (``record("fetch", start=taken)``),
  so its bar is the task's time on the worker pool;
* a parent span is stretched over its children — an open ``with``
  parent and a finished one named by ``parent_id`` alike, up through
  its ancestors — so every span lies inside its parent and the root
  bar covers the whole job;
* the disabled twin (:data:`NULL_TRACER`) makes every ``span(…)`` and
  ``record(…)`` a single no-op call.

Journey tracing (the queue tier) extends the tree across servers: a
job's trace starts at admission, a retroactive ``queue_wait`` span
covers the outbox dwell (``record(..., start=record.started_at)``), and a
steal/transfer span carries a *link* — a ``(trace_id, span_id)``
reference to the prior owner's attempt — so the causal chain survives
the job changing hands.  Links are references, not parentage: the tree
stays single-rooted per job while cross-server hops stay navigable.

Export is JSONL (one span per line, ready for any trace viewer) and a
terminal renderer (:func:`render_trace`) draws the flame view;
:func:`critical_path` walks the longest-pole chain through the tree.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "critical_path",
    "render_trace",
]


@dataclass
class Span:
    """One finished unit of traced work on the simulated timeline."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)
    #: causal references to other spans — ``(trace_id, span_id)`` pairs.
    #: A steal links to the prior owner's attempt without reparenting.
    links: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "duration": round(self.duration, 6),
            "attrs": self.attrs,
            "links": [list(link) for link in self.links],
        }


class Tracer:
    """Produces nested spans stamped with the injected (sim) clock."""

    enabled = True

    def __init__(self, clock, max_spans: int = 100_000) -> None:
        self.clock = clock
        #: finished spans in completion order
        self.finished: List[Span] = []
        #: cap against unbounded growth in long deployments; the oldest
        #: complete traces are evicted first
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        #: finished spans by id: a ``parent_id`` names one of these
        self._by_id: Dict[int, Span] = {}

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: Optional[str] = None,
        start: Optional[float] = None,
        parent_id: Optional[int] = None,
        links: Optional[Sequence[Tuple[str, int]]] = None,
        **attrs: object,
    ) -> Iterator[Span]:
        """Open one span; nesting follows the ``with`` structure.

        ``trace_id`` keys the trace (the job id for price checks); a
        nested span inherits its parent's.  The span ends at whatever
        the clock reads on exit.  ``start`` backdates the span for work
        that already happened (the queue tier stamps ``queue_wait``
        with the admission time at dispatch, the engine a ``fetch``
        with the instant a worker took it); ``parent_id`` overrides
        the stack parent to chain journey stages recorded outside any
        ``with`` nesting; ``links`` attaches causal references to spans
        in other parts of the tree (a steal links the prior attempt).
        """
        parent = self._stack[-1] if self._stack else None
        span = self._open(name, parent, trace_id, start, parent_id, links, attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self._close(span, parent, parent_id)

    def record(
        self,
        name: str,
        trace_id: Optional[str] = None,
        start: Optional[float] = None,
        parent_id: Optional[int] = None,
        links: Optional[Sequence[Tuple[str, int]]] = None,
        end: Optional[float] = None,
        **attrs: object,
    ) -> Span:
        """Append a span with no body and return it: the span
        ``with span(…): pass`` records, with the same arguments, id,
        parent, timestamps and parent stretch.  ``end`` ends it at that
        instant instead of the clock's (the engine records a job's
        ``fetch`` spans when its last fetch lands, each ending at its
        own landing)."""
        parent = self._stack[-1] if self._stack else None
        span = self._open(name, parent, trace_id, start, parent_id, links, attrs)
        self._close(span, parent, parent_id, end)
        return span

    def _open(self, name, parent, trace_id, start, parent_id, links, attrs) -> Span:
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else ""
        opened = self.clock.now
        return Span(
            trace_id=trace_id or f"trace-{next(self._ids)}",
            span_id=next(self._ids),
            parent_id=(
                parent_id
                if parent_id is not None
                else (parent.span_id if parent is not None else None)
            ),
            name=name,
            start=opened if start is None else start,
            end=opened,
            attrs=attrs,
            links=list(links) if links else [],
        )

    def _close(
        self, span: Span, parent: Optional[Span], parent_id, end: Optional[float] = None
    ) -> None:
        # keep the stretch children already applied: a parent must
        # never end before its children do
        span.end = max(span.end, self.clock.now) if end is None else end
        # a parent covers its children on the timeline: the open parent
        # on the stack, or a finished one named by parent_id, and then
        # each finished ancestor above it
        node, up = span, parent if parent_id is None else self._by_id.get(parent_id)
        while up is not None and _cover(up, node):
            node, up = up, self._by_id.get(up.parent_id)
        self.finished.append(span)
        self._by_id[span.span_id] = span
        if len(self.finished) > self.max_spans:
            self._evict()

    def _evict(self) -> None:
        """Shed the oldest *complete* traces first.

        Evicting span-by-span would leave decapitated traces (a root
        gone, its children lingering); instead whole traces go, least
        recently completed first, skipping any trace still open on the
        stack (its story is still being written) and never dooming the
        final remaining trace wholesale.  If dooming whole traces
        cannot relieve the pressure — one oversized trace is all there
        is — fall back to dropping its oldest spans so the cap always
        holds.
        """
        excess = len(self.finished) - self.max_spans
        if excess <= 0:
            return
        open_traces = {s.trace_id for s in self._stack}
        last_done: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for index, span in enumerate(self.finished):
            last_done[span.trace_id] = index
            counts[span.trace_id] = counts.get(span.trace_id, 0) + 1
        doomed: set = set()
        freed = 0
        for trace_id in sorted(last_done, key=last_done.__getitem__):
            if freed >= excess:
                break
            if trace_id in open_traces:
                continue
            if len(doomed) + 1 == len(counts):
                break  # would empty the log wholesale; trim spans instead
            doomed.add(trace_id)
            freed += counts[trace_id]
        if doomed:
            self.finished = [
                s for s in self.finished if s.trace_id not in doomed
            ]
        excess = len(self.finished) - self.max_spans
        if excess > 0:
            del self.finished[:excess]
        self._by_id = {s.span_id: s for s in self.finished}

    # -- reading back ------------------------------------------------------
    def trace_ids(self) -> List[str]:
        """Distinct trace IDs in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.finished:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_for(self, trace_id: str) -> List[Span]:
        return [s for s in self.finished if s.trace_id == trace_id]

    # -- export ------------------------------------------------------------
    def export_jsonl(self, fh: TextIO, trace_id: Optional[str] = None) -> int:
        """Write spans as JSON Lines; returns the number written."""
        spans = self.finished if trace_id is None else self.spans_for(trace_id)
        for span in spans:
            fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(spans)


def _cover(parent: Span, child: Span) -> bool:
    """Stretch ``parent`` over ``child``; whether it had to move."""
    if parent.start <= child.start and child.end <= parent.end:
        return False
    parent.start = min(parent.start, child.start)
    parent.end = max(parent.end, child.end)
    return True


class _NullSpanContext:
    """The one context manager every disabled ``span(…)`` returns."""

    span = Span(trace_id="", span_id=0, parent_id=None, name="", start=0.0, end=0.0)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """The disabled twin: ``span(…)`` returns one shared inert context
    manager and a trace holds no spans.  Callers check ``enabled``
    before recording."""

    enabled = False
    finished: List[Span] = []

    _NULL_CONTEXT = _NullSpanContext()

    def span(self, name: str, trace_id=None, start=None,
             parent_id=None, links=None, **attrs) -> _NullSpanContext:
        return self._NULL_CONTEXT

    def spans_for(self, trace_id: str) -> List[Span]:
        return []


NULL_TRACER = NullTracer()


# -- critical path ------------------------------------------------------------


def critical_path(spans: Sequence[Span]) -> List[Span]:
    """The longest-pole chain through one trace's span tree.

    Starting from the root that finishes last, repeatedly descend into
    the child whose end is latest — the child that gated the parent's
    completion.  The returned chain (root first) is the sequence of
    stages an operator must speed up to move the job's end-to-end
    latency; everything off it overlapped with something slower.
    """
    if not spans:
        return []
    by_id = {s.span_id: s for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    roots = children.get(None, [])
    if not roots:
        return []
    path: List[Span] = []
    current = max(roots, key=lambda s: (s.end, s.span_id))
    while current is not None:
        path.append(current)
        kids = children.get(current.span_id, [])
        current = max(kids, key=lambda s: (s.end, s.span_id)) if kids else None
    return path


# -- terminal rendering -------------------------------------------------------

#: attrs promoted into a span's label on the flame view, in this order
_LABEL_ATTRS = (
    "vantage", "proxy_id", "server", "rows", "ok", "cache_hit",
    "reason", "src", "dst", "attempt",
)


def _span_label(span: Span) -> str:
    parts = [span.name]
    for key in _LABEL_ATTRS:
        if key in span.attrs:
            value = span.attrs[key]
            parts.append(
                f"{key}={value}" if not isinstance(value, str) else value
            )
    if span.links:
        parts.append(
            "↩" + ",".join(f"#{span_id}" for _, span_id in span.links)
        )
    return " ".join(parts)


#: characters of a span bar's window in :func:`render_trace`
BAR_WIDTH = 40


def render_trace(spans: Sequence[Span], show_critical_path: bool = False) -> str:
    """Draw one trace as an indented flame view plus a stage summary.

    Each line is one span: tree indentation, its label, a bar placed on
    the trace's ``[t0, t_end]`` window scaled to :data:`BAR_WIDTH` characters,
    and the simulated duration.  Journey traces that cross servers
    render as one tree — steal spans carry ``src``/``dst`` and a ``↩``
    link back to the prior owner's attempt.  With
    ``show_critical_path=True`` a final section walks the longest-pole
    chain with each stage's share of the end-to-end window.
    """
    if not spans:
        return "(no spans recorded)"
    by_id = {s.span_id: s for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start, s.span_id))

    t0 = min(s.start for s in spans)
    t_end = max(s.end for s in spans)
    window = max(t_end - t0, 1e-9)
    label_width = max(
        len(_span_label(s)) + 2 * _depth(s, by_id) for s in spans
    )

    lines: List[str] = []
    trace_id = spans[0].trace_id
    lines.append(
        f"trace {trace_id} · {len(spans)} spans · "
        f"{window:.3f}s on the sim clock"
    )

    def draw(span: Span, depth: int) -> None:
        offset = int((span.start - t0) / window * BAR_WIDTH)
        filled = max(1, int(round(span.duration / window * BAR_WIDTH)))
        filled = min(filled, BAR_WIDTH - offset) or 1
        bar = " " * offset + "█" * filled
        label = "  " * depth + _span_label(span)
        lines.append(
            f"{label:<{label_width}}  |{bar:<{BAR_WIDTH}}| {span.duration:8.3f}s"
        )
        for kid in children.get(span.span_id, ()):
            draw(kid, depth + 1)

    for root in children.get(None, ()):
        draw(root, 0)

    # stage summary: where the simulated seconds went, by span name
    totals: Dict[str, List[float]] = {}
    for span in spans:
        totals.setdefault(span.name, []).append(span.duration)
    lines.append("")
    lines.append(f"{'stage':<14}{'spans':>7}{'total_s':>10}{'max_s':>10}")
    for name in sorted(totals, key=lambda n: -sum(totals[n])):
        durations = totals[name]
        lines.append(
            f"{name:<14}{len(durations):>7}"
            f"{sum(durations):>10.3f}{max(durations):>10.3f}"
        )

    if show_critical_path:
        path = critical_path(spans)
        lines.append("")
        lines.append("critical path (longest pole, root → leaf):")
        for span in path:
            share = span.duration / window
            lines.append(
                f"  {_span_label(span):<{max(label_width, 1)}}"
                f" {span.duration:8.3f}s  {share:6.1%} of window"
            )
    return "\n".join(lines)


def _depth(span: Span, by_id: Dict[int, Span]) -> int:
    depth = 0
    current = span
    while current.parent_id is not None and current.parent_id in by_id:
        current = by_id[current.parent_id]
        depth += 1
    return depth
