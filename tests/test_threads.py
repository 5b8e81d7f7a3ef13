"""The store and provider locks under threads.

Each test starts at most ``THREADS`` threads, released together by a barrier
and switched often, so their calls overlap.
"""

import sys
import threading

from qbench.circuit import build_benchmark
from qbench.providers import SimProvider, target_profile
from qbench.store import JobStore, StoreError
from test_store import make_record, processed_record

THREADS = 8
PER_THREAD = 50


def _run_together(work):
    """Run ``work(i)`` for i in range(THREADS) on that many threads; return what each raised."""
    barrier = threading.Barrier(THREADS)
    raised = [None] * THREADS

    def run(i):
        barrier.wait()
        try:
            work(i)
        except Exception as exc:  # collected for the test to inspect
            raised[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return raised


def _record(i):
    return processed_record(i) if i % 2 else make_record(i)


def test_concurrent_appends_write_every_line_whole(tmp_path):
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:

        def work(t):
            for k in range(PER_THREAD):
                store.append(_record(t * PER_THREAD + k))

        assert _run_together(work) == [None] * THREADS
    total = THREADS * PER_THREAD
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == total + 1
    reopened = JobStore(path)
    expected = {r.job_id: r for r in map(_record, range(total))}
    assert len(reopened) == len(store) == total
    assert {r.job_id: r for r in reopened.records()} == expected


def test_concurrent_appends_of_one_id_admit_exactly_one(tmp_path):
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        raised = _run_together(lambda t: store.append(make_record(0, seed=t)))
    assert raised.count(None) == 1
    assert all(isinstance(exc, StoreError) for exc in raised if exc is not None)
    assert len(path.read_bytes().splitlines()) == 1 and len(JobStore(path)) == 1


def test_concurrent_auto_ids_are_numbered_once_each():
    provider = SimProvider(target_profile("garnet-aws"))
    circuit = build_benchmark(4, 3)
    ids = [[] for _ in range(THREADS)]

    def work(t):
        for k in range(PER_THREAD):
            ids[t].append(provider.submit(circuit, 10, k, seed=k).job_id)

    assert _run_together(work) == [None] * THREADS
    got = sorted(job_id for per_thread in ids for job_id in per_thread)
    assert got == [f"garnet-aws-{n:06d}" for n in range(THREADS * PER_THREAD)]
