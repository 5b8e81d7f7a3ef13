"""Differential oracle for the periodic availability schedules in ``providers``.

``OracleDailyWindow`` and ``OracleRecurringOutage`` are the earlier forms of
the two periodic schedules: a window class with its own membership test and
next-window formula, and an outage class that refused an outage running past
the end of its period.  ``DailyWindowSchedule`` is now the daily outage from
``end`` to the next ``start``, built as a ``RecurringOutageSchedule``.  Both
must give the oracle's status and next available instant at every clock, and
refuse what it refused.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.providers import (
    ACCEPT_HOLD,
    AVAILABLE,
    DAY,
    PRESET_NAMES,
    UNAVAILABLE,
    AlwaysSchedule,
    DailyWindowSchedule,
    RecurringOutageSchedule,
    TargetState,
    TargetStatus,
    reduced_capacity,
    target_profile,
)

H = 3600


@dataclass(frozen=True)
class OracleDailyWindow:
    start: int
    end: int
    outside: TargetStatus = ACCEPT_HOLD

    def __post_init__(self) -> None:
        if not (0 <= self.start < DAY and 0 <= self.end < DAY):
            raise ValueError("window start and end must lie within [0, DAY)")
        if self.start == self.end:
            raise ValueError("window start must differ from end")
        if self.outside.state is TargetState.AVAILABLE:
            raise ValueError("the status outside the window must not be available")

    def _inside(self, clock: int) -> bool:
        s = clock % DAY
        if self.start <= self.end:
            return self.start <= s < self.end
        return s >= self.start or s < self.end

    def status_at(self, clock: int) -> TargetStatus:
        return AVAILABLE if self._inside(clock) else self.outside

    def next_available_at(self, clock: int) -> int:
        if self._inside(clock):
            return clock
        return clock + (self.start - clock) % DAY  # the next window start


@dataclass(frozen=True)
class OracleRecurringOutage:
    period: int
    outage_start: int
    outage_len: int
    outage_status: TargetStatus = UNAVAILABLE

    def __post_init__(self) -> None:
        if self.period <= 0 or self.outage_len <= 0:
            raise ValueError("period and outage_len must be positive")
        if not 0 <= self.outage_start < self.period:
            raise ValueError("outage_start must lie within the period")
        if self.outage_start + self.outage_len > self.period:
            raise ValueError("outage must not wrap the period")
        if self.outage_len == self.period:
            raise ValueError("outage must leave part of the period available")
        if self.outage_status.state is TargetState.AVAILABLE:
            raise ValueError("the outage status must not be available")

    def _in_outage(self, clock: int) -> bool:
        s = clock % self.period
        return self.outage_start <= s < self.outage_start + self.outage_len

    def status_at(self, clock: int) -> TargetStatus:
        return self.outage_status if self._in_outage(clock) else AVAILABLE

    def next_available_at(self, clock: int) -> int:
        if not self._in_outage(clock):
            return clock
        return clock - clock % self.period + self.outage_start + self.outage_len


# all four statuses; a window refuses AVAILABLE outside it, and an outage refuses it
STATUSES = st.one_of(
    st.sampled_from([AVAILABLE, UNAVAILABLE, ACCEPT_HOLD]),
    st.builds(reduced_capacity, st.integers(1, 60)),
)
CLOCKS = st.lists(st.integers(0, 10 * DAY), min_size=1, max_size=20)


def _made(make, *args):
    """The schedule ``make`` built from ``args``, or the message it refused them with."""
    try:
        return make(*args)
    except ValueError as exc:
        return str(exc)


def _assert_same_at(got, want, clocks):
    for clock in clocks:
        assert got.status_at(clock) == want.status_at(clock), clock
        assert got.next_available_at(clock) == want.next_available_at(clock), clock


@settings(max_examples=1000, deadline=None)
@given(st.integers(-2, DAY + 1), st.integers(-2, DAY + 1), STATUSES, CLOCKS)
def test_daily_window_matches_the_window_class(start, end, outside, clocks):
    got = _made(DailyWindowSchedule, start, end, outside)
    want = _made(OracleDailyWindow, start, end, outside)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, RecurringOutageSchedule)
    _assert_same_at(got, want, clocks)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, DAY - 1), st.integers(0, DAY - 1), STATUSES, st.integers(0, 10 * DAY))
def test_midnight_wrapping_window_matches_the_window_class(start, end, outside, clock):
    start, end = max(start, end), min(start, end)  # start > end: the window wraps midnight
    want = _made(OracleDailyWindow, start, end, outside)
    got = _made(DailyWindowSchedule, start, end, outside)
    if isinstance(want, str):
        assert got == want
        return
    _assert_same_at(got, want, [clock, clock - clock % DAY + start, clock - clock % DAY + end])


@st.composite
def unwrapped_outages(draw):
    """Outages, valid or not, that do not run past the end of their period."""
    period = draw(st.integers(1, 3 * DAY))
    start = draw(st.integers(-1, period))
    length = draw(st.integers(-1, max(0, period - start)))
    return period, start, length, draw(STATUSES)


@settings(max_examples=1000, deadline=None)
@given(unwrapped_outages(), CLOCKS)
def test_unwrapped_outage_matches_the_outage_class(args, clocks):
    want = _made(OracleRecurringOutage, *args)
    got = _made(RecurringOutageSchedule, *args)
    if isinstance(want, str):
        assert isinstance(got, str)
        return
    _assert_same_at(got, want, clocks)


# the schedule each preset had under the earlier classes
ORACLE_SCHEDULES = {
    "aria1-aws": OracleRecurringOutage(36 * H, 30 * H, 6 * H),
    "aria1-azure": OracleRecurringOutage(36 * H, 24 * H, 12 * H),
    "aria2-aws": AlwaysSchedule(UNAVAILABLE),
    "aria2-azure": AlwaysSchedule(UNAVAILABLE),
    "forte1-aws": AlwaysSchedule(),
    "garnet-aws": AlwaysSchedule(),
    "h1-azure": OracleDailyWindow(17 * H, 2 * H),
    "h2-azure": AlwaysSchedule(),
    "aria1-emulator": AlwaysSchedule(),
    "forte1-emulator": AlwaysSchedule(),
    "h1-emulator": AlwaysSchedule(),
    "h2-emulator": AlwaysSchedule(),
}


def test_oracle_covers_every_preset():
    assert tuple(ORACLE_SCHEDULES) == PRESET_NAMES


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_schedule_matches_oracle_over_ninety_days(name):
    _assert_same_at(
        target_profile(name).schedule, ORACLE_SCHEDULES[name], range(0, 90 * DAY, 300)
    )
