"""Differential oracle for ``SimProvider._queue_position``.

``oracle_queue_position`` is the earlier scan: the provider kept every
``JobHandle`` it had issued and counted the live ones ahead of a job by
reading each handle's status and execution span.  The provider now keeps
only each job's ``(exec_start, exec_end)``, set to None once the job stops
counting, so the test keeps the handles itself and both scans must agree on
every position, whatever the order and clocks of submits, polls, cancels and
execution failures.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.circuit import build_benchmark
from qbench.providers import (
    ACCEPT_HOLD,
    DAY,
    AlwaysSchedule,
    DailyWindowSchedule,
    JobStatus,
    RecurringOutageSchedule,
    SimProvider,
    reduced_capacity,
    target_profile,
)

H = 3600


def oracle_queue_position(handles, handle, clock):
    mine = handle.exec_start if handle.exec_start is not None else math.inf
    ahead = 0
    for other in handles:
        if other.job_id == handle.job_id or other.exec_end is None:
            continue
        if other.status in (JobStatus.ERROR, JobStatus.UNAVAILABLE, JobStatus.CANCELED):
            continue
        if other.exec_end > clock and (other.exec_start or 0) < mine:
            ahead += 1
    return ahead + 1


class FailingProvider(SimProvider):
    """A provider whose execution of the jobs in ``failing`` raises ValueError."""

    def __init__(self, target):
        super().__init__(target)
        self.failing = set()

    def _execute(self, handle):
        if handle.job_id in self.failing:
            raise ValueError("injected failure")
        return super()._execute(handle)


# outages refuse submissions, a daily window holds them, reduced capacity runs
# narrow jobs only, and a held target that never comes back leaves jobs with no span
SCHEDULES = {
    "outage": RecurringOutageSchedule(36 * H, outage_start=30 * H, outage_len=6 * H),
    "window": DailyWindowSchedule(start=17 * H, end=2 * H),
    "reduced": RecurringOutageSchedule(
        DAY,
        outage_start=6 * H,
        outage_len=12 * H,
        outage_status=reduced_capacity(3),
    ),
    "held-forever": AlwaysSchedule(ACCEPT_HOLD),
}

CLOCKS = st.integers(min_value=0, max_value=3 * DAY)
OPS = st.one_of(
    st.tuples(st.just("submit"), CLOCKS, st.integers(2, 6), st.integers(0, 2**32 - 1)),
    st.tuples(st.sampled_from(["poll", "cancel", "fail"]), CLOCKS, st.integers(0, 1000)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SCHEDULES)),
    st.integers(min_value=0, max_value=4 * H),
    st.lists(OPS, min_size=1, max_size=30),
)
def test_span_scan_matches_handle_scan(schedule, execution_seconds, ops):
    # five qubits: a six-qubit benchmark is refused for its width at submission
    profile = dataclasses.replace(
        target_profile("aria1-aws"),
        qubits=5,
        schedule=SCHEDULES[schedule],
        execution_seconds=execution_seconds,
    )
    assert profile.exposes_queue_position
    prov = FailingProvider(profile)
    handles = []
    for op in ops:
        if op[0] == "submit":
            _, clock, q, seed = op
            handles.append(prov.submit(build_benchmark(q, seed % (1 << q)), 20, clock, seed=seed))
            continue
        if not handles:
            continue
        kind, clock, pick = op
        handle = handles[pick % len(handles)]
        if kind == "cancel":
            prov.cancel(handle, clock)
        else:
            if kind == "fail":
                prov.failing.add(handle.job_id)
                clock = max(clock, handle.exec_end or 0)
            result = prov.poll(handle, clock)
            want = oracle_queue_position(handles, handle, clock)
            exposed = result.status is JobStatus.SUBMITTED
            assert result.queue_position == (want if exposed else None)
        for other in handles:
            assert prov._queue_position(other, clock) == oracle_queue_position(handles, other, clock)


def test_failed_and_canceled_jobs_leave_the_queue():
    profile = dataclasses.replace(target_profile("garnet-aws"), execution_seconds=600)
    prov = FailingProvider(profile)
    handles = [prov.submit(build_benchmark(4, i), 20, 0, seed=i) for i in range(4)]
    first = min(handles, key=lambda h: h.exec_start)
    last = max(handles, key=lambda h: h.exec_start)
    clock = first.exec_start
    assert prov._queue_position(last, clock) == 4
    prov.failing.add(first.job_id)
    assert prov.poll(first, first.exec_end).status is JobStatus.ERROR
    waiting = [h for h in handles if h not in (first, last)]
    assert prov.cancel(waiting[0], 0) is JobStatus.CANCELED
    assert prov._queue_position(last, clock) == 2
    assert prov._queue_position(last, clock) == oracle_queue_position(handles, last, clock)
