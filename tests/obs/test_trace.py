"""Span tracing on the sim clock: nesting, ordering, export, rendering."""

import io
import json

from repro.net.events import Clock
from repro.obs.trace import NULL_TRACER, Tracer, render_trace


def _tracer():
    return Tracer(Clock())


class TestSpanNesting:
    def test_children_inherit_trace_and_parent(self):
        tr = _tracer()
        with tr.span("price_check", trace_id="job-1") as root:
            with tr.span("fetch") as fetch:
                tr.clock.advance(2.0)
            with tr.span("parse") as parse:
                pass
        assert fetch.trace_id == "job-1"
        assert parse.trace_id == "job-1"
        assert fetch.parent_id == root.span_id
        assert parse.parent_id == root.span_id
        assert root.parent_id is None

    def test_completion_order_is_children_first(self):
        tr = _tracer()
        with tr.span("price_check", trace_id="job-1"):
            with tr.span("fetch"):
                tr.clock.advance(1.0)
            with tr.span("persist"):
                pass
        assert [s.name for s in tr.finished] == [
            "fetch", "persist", "price_check",
        ]

    def test_parent_stretches_over_scheduled_children(self):
        """The fan-out's root closes at its dispatch instant; each fetch
        span is recorded when its task lands, backdated to when a worker
        took it, and names the root as its parent.  The root must cover
        them."""
        tr = _tracer()
        with tr.span("price_check", trace_id="job-1") as root:
            pass
        tr.clock.advance(1.0)
        tr.record("fetch", trace_id="job-1", parent_id=root.span_id, start=0.0)
        tr.clock.advance(2.5)
        fetch = tr.record("fetch", trace_id="job-1", parent_id=root.span_id,
                          start=1.0)
        assert (fetch.start, fetch.end) == (1.0, 3.5)
        assert (root.start, root.end) == (0.0, 3.5)

    def test_sim_clock_timestamps(self):
        clock = Clock()
        tr = Tracer(clock)
        clock.advance(100.0)
        with tr.span("a") as a:
            clock.advance(7.0)
        assert a.start == 100.0
        assert a.end == 107.0
        assert a.duration == 7.0

    def test_span_ids_are_deterministic(self):
        ids_a = [s.span_id for s in _run_fixed_tree()]
        ids_b = [s.span_id for s in _run_fixed_tree()]
        assert ids_a == ids_b

    def test_trace_ids_first_seen_order(self):
        tr = _tracer()
        for job in ("job-2", "job-1", "job-3"):
            with tr.span("price_check", trace_id=job):
                pass
        assert tr.trace_ids() == ["job-2", "job-1", "job-3"]
        assert len(tr.spans_for("job-1")) == 1

    def test_max_spans_evicts_oldest(self):
        tr = Tracer(Clock(), max_spans=3)
        for i in range(5):
            with tr.span("s", trace_id=f"t{i}"):
                pass
        assert len(tr.finished) == 3
        assert tr.trace_ids() == ["t2", "t3", "t4"]


def _run_fixed_tree():
    tr = _tracer()
    with tr.span("root", trace_id="job-1"):
        with tr.span("fetch"):
            tr.clock.advance(1.0)
        with tr.span("parse"):
            pass
    return tr.finished


class TestExport:
    def test_jsonl_roundtrip(self):
        tr = _tracer()
        with tr.span("price_check", trace_id="job-1", server="ms-0"):
            with tr.span("fetch", vantage="IPC", ok=True):
                tr.clock.advance(2.0)
        fh = io.StringIO()
        assert tr.export_jsonl(fh) == 2
        lines = [json.loads(line) for line in fh.getvalue().splitlines()]
        assert [line["name"] for line in lines] == ["fetch", "price_check"]
        assert lines[0]["attrs"] == {"vantage": "IPC", "ok": True}
        assert lines[0]["duration"] == 2.0
        assert lines[1]["duration"] == 2.0  # covers the child

    def test_jsonl_filter_by_trace(self):
        tr = _tracer()
        for job in ("job-1", "job-2"):
            with tr.span("price_check", trace_id=job):
                pass
        job2, every = io.StringIO(), io.StringIO()
        assert tr.export_jsonl(job2, "job-2") == 1
        assert tr.export_jsonl(every) == 2
        assert len(job2.getvalue().splitlines()) == 1
        assert len(every.getvalue().splitlines()) == 2


class TestRendering:
    def test_render_contains_tree_and_summary(self):
        tr = _tracer()
        with tr.span("price_check", trace_id="job-1", server="ms-0"):
            with tr.span("fetch", vantage="IPC", proxy_id="ipc-0"):
                tr.clock.advance(2.0)
            with tr.span("parse", rows=3):
                pass
        out = render_trace(tr.spans_for("job-1"))
        assert "trace job-1" in out
        assert "price_check ms-0" in out
        assert "  fetch IPC ipc-0" in out  # indented under the root
        assert "rows=3" in out
        assert "stage" in out and "total_s" in out

    def test_render_empty(self):
        assert render_trace([]) == "(no spans recorded)"


def _with_pass(tr, name, **kwargs):
    with tr.span(name, **kwargs) as span:
        pass
    return span


def _zero_body_tree(zero_body):
    """A fan-out, journey stages and a retroactive span, each recorded
    with no body by ``zero_body(tracer, name, **kwargs)``."""
    clock = Clock()
    tr = Tracer(clock)
    returned = [zero_body(tr, "assign", trace_id="job-1", server="ms-0")]
    clock.advance(3.0)
    with tr.span("price_check", trace_id="job-1") as root:
        returned.append(zero_body(tr, "fetch", vantage="IPC", proxy_id="ipc-0",
                                  ok=True))
        returned.append(zero_body(tr, "steal", parent_id=returned[0].span_id,
                                  links=[("job-1", 1)], src="ms-0", dst="ms-1"))
        clock.advance(1.5)
        returned.append(zero_body(tr, "parse", rows=3))
    # fetches that land after the root closed, backdated to when a
    # worker took them
    for i, (took, advance) in enumerate(((3.0, 1.0), (4.0, 0.0)), start=1):
        clock.advance(advance)
        returned.append(zero_body(tr, "fetch", trace_id="job-1",
                                  parent_id=root.span_id, start=took,
                                  vantage="IPC", proxy_id=f"ipc-{i}", ok=True))
    returned.append(zero_body(tr, "queue_wait", trace_id="job-2", start=1.0))
    returned.append(zero_body(tr, "orphan"))
    return tr.finished, returned


class TestRecord:
    def test_record_appends_the_span_with_pass_would(self):
        spans, returned = _zero_body_tree(lambda tr, name, **kw: tr.record(name, **kw))
        reference, reference_returned = _zero_body_tree(_with_pass)
        assert [s.to_dict() for s in spans] == [s.to_dict() for s in reference]
        assert [s.to_dict() for s in returned] == [s.to_dict() for s in reference_returned]
        root = next(s for s in spans if s.name == "price_check")
        assert (root.start, root.end) == (3.0, 5.5)  # stretched over the late fetch


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", trace_id="x", start=5.0) as s:
            assert s.duration == 0.0
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.spans_for("x") == []

    def test_span_is_one_shared_context_manager(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", trace_id="x", start=2.0)
