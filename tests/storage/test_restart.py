"""Crash drill: SIGKILL a process that is writing price checks into a
file-backed sqlite Database server, reopen the file, carry on.

The child does what a Measurement server does at the end of every check
— one ``sp_record_job``: the request and 36 response rows — in a loop,
with no pause, so the kill lands inside a write more often than not.
What must hold of the file afterwards:

* whole jobs only: every job has its request and 36 response rows or
  nothing, no ``(job, proxy)`` pair and no request twice, everything the
  child reported as stored is there;
* the reopened engine continues the one shared ``_id`` sequence, on
  ``requests`` and on ``responses``, through ``insert`` and a batched
  write — a restarted server takes the next check.
"""

import os
import signal
import subprocess
import sys
from collections import Counter

import repro
from repro.core.database import DatabaseServer
from repro.storage import SqliteBackend

ROWS_PER_JOB = 36
#: jobs the child must report before the kill (it keeps writing after)
JOBS_BEFORE_KILL = 25

CHILD = """
import sys
from repro.core.database import DatabaseServer
from repro.storage import SqliteBackend

db = DatabaseServer(backend=SqliteBackend(sys.argv[1]))
job = 0
while True:
    db.sp_record_job(f"job-{job}", "user-1", f"http://shop.example/p/{job}",
                     "shop.example", float(job), [
        {"proxy_id": f"ipc-{i:02d}", "amount": job + i / 100.0, "currency": "EUR",
         "error": None, "time": float(job)}
        for i in range(%d)
    ])
    print(job, flush=True)
    job += 1
""" % ROWS_PER_JOB


def _kill_mid_run(path: str) -> int:
    """Run the child until it has reported enough jobs, SIGKILL it;
    returns the last job it reported as stored."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    try:
        reported = -1
        while reported < JOBS_BEFORE_KILL - 1:
            line = child.stdout.readline()
            assert line, f"child died early: {child.stderr.read()}"
            reported = int(line)
    finally:
        child.send_signal(signal.SIGKILL)
        rest, _ = child.communicate(timeout=30)
    assert child.returncode == -signal.SIGKILL
    return max([reported] + [int(line) for line in rest.split()])


def test_killed_writer_leaves_whole_batches_and_a_usable_sequence(tmp_path):
    path = str(tmp_path / "sheriff.db")
    last_reported = _kill_mid_run(path)

    db = DatabaseServer(backend=SqliteBackend(path))
    requests = db.scan("requests")
    responses = db.scan("responses")

    per_job = Counter(row["job_id"] for row in responses)
    assert set(per_job.values()) <= {ROWS_PER_JOB}, "a torn batch survived the kill"
    pairs = Counter((row["job_id"], row["proxy_id"]) for row in responses)
    assert max(pairs.values()) == 1
    jobs = [row["job_id"] for row in requests]
    assert len(jobs) == len(set(jobs))
    # committed means durable; the job in flight is whole or absent
    assert set(per_job) >= {f"job-{n}" for n in range(last_reported + 1)}
    assert set(per_job) == set(jobs)

    ids = [row["_id"] for row in requests + responses]
    assert len(ids) == len(set(ids))
    top = max(ids)
    assert db.sp_record_request("job-after", "user-1", "http://shop.example/p/x",
                                "shop.example", 1e6) == top + 1
    assert db.sp_record_responses(
        "job-after", [{"proxy_id": f"ipc-{i:02d}"} for i in range(ROWS_PER_JOB)]
    ) == list(range(top + 2, top + 2 + ROWS_PER_JOB))
    assert db.insert("responses", {"job_id": "job-after", "proxy_id": "you"}) \
        == top + 2 + ROWS_PER_JOB
    assert len(db.sp_responses_for_job("job-after")) == ROWS_PER_JOB + 1
    assert len(db.sp_responses_for_job(f"job-{last_reported}")) == ROWS_PER_JOB
    db.backend.close()
