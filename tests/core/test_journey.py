"""Acceptance: one trace id reconstructs a stolen job end to end.

The journey drill (:mod:`repro.workloads.journey`) stages the forced
steal from the queue-equivalence property test under full telemetry.
These tests pin the tentpole promises: the span tree of a stolen job is
a complete causal chain (admission → queue wait → steal → dispatch →
fan-out → persist) across two Measurement servers; the journey plane is
deterministic run to run; and turning it on or off never changes a
persisted row, on either storage backend.
"""

import pytest

from repro.workloads.journey import JourneyConfig, run_journey

BACKENDS = ("memory", "sqlite")

#: the measurement-tier spans: the part of the tree that must be
#: identical whether the job reached the server via the queue or not
MEASUREMENT_SPANS = ("price_check", "fetch", "parse", "persist")


def _rows(sheriff):
    return [
        tuple(sorted((k, v) for k, v in row.items() if k != "_id"))
        for row in sheriff.db.scan("responses")
    ]


def _span_index(spans):
    return {s.span_id: s for s in spans}


class TestStolenJobCausalTree:
    @pytest.fixture(scope="class")
    def run(self):
        return run_journey()

    def test_drill_steals_and_lands_rows(self, run):
        assert run.steals.get("imbalance", 0) >= 1
        assert run.stolen_job_ids
        assert run.rows > 0

    def test_causal_chain_is_complete(self, run):
        job_id = run.stolen_job_ids[0]
        journey = run.sheriff.journey(job_id)
        spans = journey["spans"]
        assert spans and all(s.trace_id == job_id for s in spans)
        by_id = _span_index(spans)
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        (assign,) = by_name["assign"]
        assert assign.parent_id is None
        (admission,) = by_name["admission"]
        assert admission.parent_id == assign.span_id
        # the head-of-queue dwell hangs under admission beside the path;
        # the steal chains under admission and *links* back to the dwell
        # on the prior owner
        (queue_wait,) = by_name["queue_wait"]
        assert queue_wait.parent_id == admission.span_id
        (steal,) = by_name["steal"]
        assert steal.parent_id == admission.span_id
        assert steal.links == [(job_id, queue_wait.span_id)]
        assert steal.attrs["reason"] == "imbalance"
        assert steal.attrs["src"] != steal.attrs["dst"]
        assert steal.links
        link_trace, link_span = steal.links[0]
        assert link_trace == job_id and link_span in by_id

        (dispatch,) = by_name["dispatch"]
        assert dispatch.parent_id == steal.span_id
        assert dispatch.attrs["server"] == steal.attrs["dst"]
        (price_check,) = by_name["price_check"]
        assert price_check.parent_id == dispatch.span_id
        fetches = by_name["fetch"]
        assert fetches
        assert all(f.parent_id == price_check.span_id for f in fetches)
        for stage in ("parse", "persist"):
            (span,) = by_name[stage]
            assert span.parent_id == price_check.span_id

    def test_steal_span_and_ticket_agree(self, run):
        job_id = run.stolen_job_ids[0]
        journey = run.sheriff.journey(job_id)
        assert set(journey) == {"job_id", "spans", "ticket"}
        names = [s.name for s in journey["spans"]]
        assert names.index("admission") < names.index("steal") < names.index(
            "dispatch"
        )
        steal = next(s for s in journey["spans"] if s.name == "steal")
        assert steal.attrs["reason"] == "imbalance"
        assert journey["ticket"]["failed"] is False
        assert journey["ticket"]["completed"] is True
        # the ticket's terminal owner is the steal's destination
        assert journey["ticket"]["server_name"] == steal.attrs["dst"]

    def test_every_span_lies_inside_its_parent(self, run):
        """One clock: in every job's tree (``repro journey`` renders
        job-1 by default, and job-4 on request) each span starts and
        ends within its parent — a journey stage covers the stages
        after it, the dispatch its fan-out."""
        tracer = run.sheriff.telemetry.tracer
        assert {"job-1", "job-4"} <= set(run.job_ids)
        for job_id in run.job_ids:
            spans = tracer.spans_for(job_id)
            by_id = _span_index(spans)
            nested = [s for s in spans if s.parent_id in by_id]
            assert len(nested) == len(spans) - 1, job_id  # one root
            for span in nested:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start, (job_id, span.name)
                assert span.end <= parent.end, (job_id, span.name)

    def test_queue_wait_sits_between_admission_and_dispatch(self, run):
        """Every job's ``queue_wait`` is stamped on the clock its other
        journey spans read: it starts at or after the job's admission
        and ends at or before its dispatch starts, in every wave (the
        engine loop's private clock runs far behind the world clock
        after the first wave's gap)."""
        tracer = run.sheriff.telemetry.tracer
        assert len(run.job_ids) == 9
        for job_id in run.job_ids:
            by_name = {s.name: s for s in tracer.spans_for(job_id)}
            admission = by_name["admission"]
            queue_wait = by_name["queue_wait"]
            dispatch = by_name["dispatch"]
            assert admission.start <= queue_wait.start, job_id
            assert queue_wait.end <= dispatch.start, job_id


class TestDeterminism:
    def test_journey_spans_identical_across_runs(self):
        first = run_journey()
        second = run_journey()
        assert first.job_ids == second.job_ids
        assert first.stolen_job_ids == second.stolen_job_ids
        for job_id in first.job_ids:
            a = [s.to_dict() for s in first.telemetry.tracer.spans_for(job_id)]
            b = [
                s.to_dict()
                for s in second.telemetry.tracer.spans_for(job_id)
            ]
            assert a == b and a

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tracing_on_off_row_identical(self, backend):
        on = run_journey(JourneyConfig(db_backend=backend))
        off = run_journey(
            JourneyConfig(db_backend=backend, telemetry=False)
        )
        assert not off.telemetry.enabled
        assert off.telemetry.tracer.spans_for(on.job_ids[0]) == []
        assert on.rows == off.rows > 0
        assert _rows(on.sheriff) == _rows(off.sheriff)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_measurement_spans_identical_queued_vs_direct(self, backend):
        """The fan-out's spans (price_check → fetch/parse/persist) are
        byte-identical whether the job arrived through the queue tier
        or went straight to its server: queueing reschedules, it never
        reshapes the work."""
        queued = run_journey(
            JourneyConfig(
                db_backend=backend, disrupt=False, queue_steal_threshold=16
            )
        )
        direct = run_journey(
            JourneyConfig(db_backend=backend, disrupt=False, job_queue=False)
        )
        assert queued.job_ids == direct.job_ids
        for job_id in queued.job_ids:
            def fanout(run):
                return [
                    (s.name, s.start, s.end, s.attrs)
                    for s in run.telemetry.tracer.spans_for(job_id)
                    if s.name in MEASUREMENT_SPANS
                ]
            assert fanout(queued) == fanout(direct)
            assert fanout(queued)
