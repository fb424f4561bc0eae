"""What a :class:`~repro.core.diffstorage.DiffStorage` holds, read
through its private layout: the open job as live objects, every other
job sealed into one ``bytes``.  The tests read the layout through these
helpers only, and decode a sealed job themselves, so that reading never
touches the store's read cache.
"""

import marshal
import zlib
from typing import Dict, List, Optional, Tuple

from repro.core.diffstorage import DiffStorage

#: job → ``(reference, proxy → record, proxy → (reference, record))``
Jobs = Dict[str, Tuple[str, Dict[str, bytes], Dict[str, Tuple[str, bytes]]]]


def stored_jobs(store: DiffStorage) -> Jobs:
    """Every job the store holds, sealed ones decoded."""
    jobs = {job: marshal.loads(zlib.decompress(blob)) for job, blob in store._sealed.items()}
    job = store._open
    if job is not None:
        jobs[job.job_id] = (job.reference, job.diffs, job.aliases)
    return jobs


def reference_of(store: DiffStorage, job_id: str) -> Optional[str]:
    stored = stored_jobs(store).get(job_id)
    return None if stored is None else stored[0]


def diffs_of(store: DiffStorage) -> Dict[Tuple[str, str], bytes]:
    """``(job, proxy)`` → record, for every name stored as a diff."""
    return {
        (job, proxy): record
        for job, (_, diffs, _) in stored_jobs(store).items()
        for proxy, record in diffs.items()
    }


def aliases_of(store: DiffStorage) -> Dict[Tuple[str, str], Tuple[str, bytes]]:
    """``(job, proxy)`` → ``(reference, record)``, for every alias."""
    return {
        (job, proxy): alias
        for job, (_, _, aliases) in stored_jobs(store).items()
        for proxy, alias in aliases.items()
    }


def live_jobs(store: DiffStorage) -> List[str]:
    """The jobs held as live objects: the open one, then the read
    cache's; asserts that every other job is one sealed ``bytes``."""
    assert all(type(blob) is bytes for blob in store._sealed.values())
    live = []
    if store._open is not None:
        assert store._open.job_id not in store._sealed
        live.append(store._open.job_id)
    if store._read_cache is not None:
        assert store._read_cache[0] in store._sealed
        live.append(store._read_cache[0])
    return live
