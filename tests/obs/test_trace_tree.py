"""A job's trace is one tree whose root covers the job.

Two drills pin it.  ``repro trace --requests 24`` runs checks on the
direct tier: each job's fan-out (``price_check``) chains under its
``assign`` stage, so every trace id has exactly one root.  The journey
drill runs them through the queue tier with more fetches than workers:
each ``fetch`` span is recorded when its task lands, so a job's root
ends when its last fetch lands — the instant its completion is reported
to the Coordinator.
"""

import json


from repro.cli import main
from repro.core.coordinator import Coordinator
from repro.workloads.journey import run_journey


def test_every_trace_of_the_trace_drill_has_one_root(tmp_path, capsys):
    out = tmp_path / "spans.jsonl"
    assert main(["trace", "--requests", "24", "--out", str(out)]) == 0
    capsys.readouterr()
    roots = {}
    for line in out.read_text().splitlines():
        span = json.loads(line)
        roots.setdefault(span["trace_id"], [])
        if span["parent_id"] is None:
            roots[span["trace_id"]].append(span["name"])
    assert len(roots) >= 24
    assert {trace_id: names for trace_id, names in roots.items()
            if names != ["assign"]} == {}


def test_every_journey_job_root_ends_at_its_last_landing(monkeypatch):
    completed_at = {}
    job_completed = Coordinator.job_completed

    def job_completed_recorded(self, job_id):
        completed_at[job_id] = self.clock.now
        job_completed(self, job_id)

    monkeypatch.setattr(Coordinator, "job_completed", job_completed_recorded)
    run = run_journey()
    assert run.job_ids and sorted(completed_at) == sorted(run.job_ids)
    for job_id in run.job_ids:
        spans = run.sheriff.journey(job_id)["spans"]
        (root,) = [s for s in spans if s.parent_id is None]
        fetches = [s for s in spans if s.name == "fetch"]
        assert fetches, job_id
        assert root.end == completed_at[job_id], job_id
        assert max(f.end for f in fetches) == root.end, job_id
