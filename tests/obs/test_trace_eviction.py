"""Tracer eviction under ``max_spans`` pressure.

The policy is oldest-complete-trace-first: when the finished-span log
overflows, whole traces are dropped in first-seen order — a journey
either survives intact or is gone, so ``repro journey`` never renders a
tree with its root missing.  Traces still open on the span stack are
never evicted (their story is still being written), and a single trace
too big for the buffer falls back to dropping its oldest spans.
"""

from repro.net.events import Clock
from repro.obs.trace import Tracer, critical_path, render_trace


def _finish(tr, trace_id, n_spans=1):
    """Record one complete trace of ``n_spans`` sibling spans."""
    for i in range(n_spans):
        with tr.span(f"s{i}", trace_id=trace_id):
            pass


class TestWholeTraceEviction:
    def test_evicts_complete_traces_in_first_seen_order(self):
        tr = Tracer(Clock(), max_spans=4)
        _finish(tr, "t0", 2)
        _finish(tr, "t1", 2)
        _finish(tr, "t2", 2)  # overflow: t0 must go, whole
        assert tr.trace_ids() == ["t1", "t2"]
        assert tr.spans_for("t0") == []
        assert len(tr.spans_for("t1")) == 2

    def test_no_partial_trace_survives(self):
        """Eviction frees whole traces even when dropping just one span
        would relieve the pressure — a truncated journey is worse than
        a missing one."""
        tr = Tracer(Clock(), max_spans=5)
        _finish(tr, "t0", 3)
        _finish(tr, "t1", 3)  # 6 > 5: t0 (all 3 spans) goes
        assert tr.trace_ids() == ["t1"]
        assert len(tr.finished) == 3

    def test_open_traces_are_never_evicted(self):
        tr = Tracer(Clock(), max_spans=3)
        with tr.span("root", trace_id="open"):
            with tr.span("child"):
                pass
            # "open" has one finished span and one on the stack; the
            # pressure from the complete traces must skip it
            _finish(tr, "t1", 2)
            _finish(tr, "t2", 2)
        assert "open" in tr.trace_ids()
        assert len(tr.spans_for("open")) == 2

    def test_single_oversized_trace_drops_oldest_spans(self):
        tr = Tracer(Clock(), max_spans=3)
        _finish(tr, "big", 5)
        assert len(tr.finished) == 3
        assert [s.name for s in tr.finished] == ["s2", "s3", "s4"]

    def test_survivor_links_intact(self):
        tr = Tracer(Clock(), max_spans=4)
        _finish(tr, "t0", 2)
        with tr.span("steal", trace_id="t1", links=[("t0", 1)]) as span:
            pass
        _finish(tr, "t1", 1)
        _finish(tr, "t2", 2)  # evicts t0; t1's link text must survive
        assert span in tr.spans_for("t1")
        assert span.links == [("t0", 1)]
        assert "↩#1" in render_trace(tr.spans_for("t1"))


class TestCriticalPath:
    def test_descends_into_latest_ending_child(self):
        clock = Clock()
        tr = Tracer(clock)
        with tr.span("root", trace_id="j") as root:
            pass
        clock.advance(1.0)
        tr.record("fast", trace_id="j", parent_id=root.span_id, start=0.0)
        clock.advance(3.0)
        slow = tr.record("slow", trace_id="j", parent_id=root.span_id, start=0.0)
        path = critical_path(tr.spans_for("j"))
        assert [s.span_id for s in path] == [root.span_id, slow.span_id]

    def test_render_shows_critical_path_section(self):
        tr = Tracer(Clock())
        with tr.span("root", trace_id="j"):
            with tr.span("slow", vantage="IPC"):
                tr.clock.advance(4.0)
        out = render_trace(tr.spans_for("j"), show_critical_path=True)
        assert "critical path" in out
        assert "slow IPC" in out
        out_plain = render_trace(tr.spans_for("j"))
        assert "critical path" not in out_plain

    def test_empty(self):
        assert critical_path([]) == []
