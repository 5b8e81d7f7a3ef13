"""Simulated cloud targets: submission, queuing, availability, execution.

Everything runs on an explicit integer clock (seconds since the campaign
epoch); no wall time is read anywhere, which is what makes whole campaigns
reproducible byte-for-byte.  A provider accepts circuits against a target
profile (cloud, width, gate limit, billing, noise, queue model, availability
schedule; the cloud fixes the gate-set lowering and the published queue
figure) and hands back job handles whose lifecycle is a pure function of the
submission seed and the polling clock.  Admission is decided here alone: a
job is refused when its width exceeds the target's capacity or its lowered
gate count exceeds the gate limit, which ``default_gate_limit`` sets for the
presets that have one.

Status model:

* targets are Available, Degraded, or Unavailable at any instant.  Degraded
  comes in two observed flavors: accept-and-hold (submissions are accepted
  but execution waits for the next Available window) and reduced capacity
  (the target runs but with fewer usable qubits).
* jobs are submitted, processed, error, canceled, or unavailable; the last
  four are terminal.  A submission attempt against an Unavailable target
  terminates immediately (and costs nothing).

Queue waits are lognormal.  The published wait estimate is the distribution
median scaled by ``predictor_bias``; with bias 1 the estimate lands above the
actual wait for half the jobs in the long run, and calibrating bias below 1
reproduces vendors that overestimate less often than they underestimate.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from importlib import resources
from typing import get_args

import numpy as np

from .circuit import Circuit, GateCensus, build_benchmark
from .costing import CostModel, Money
from .rng import derive_seed
from .simulator import GlobalDepolarizing, NoiseSpec, run_noisy, sample_depolarized
from .transpiler import (
    EFFICIENT,
    REDUNDANT,
    GateSetProfile,
    TranspileResult,
    lowered_census,
    transpile,
)

DAY = 86_400


class JobStatus(str, Enum):
    SUBMITTED = "submitted"
    PROCESSED = "processed"
    ERROR = "error"
    CANCELED = "canceled"
    UNAVAILABLE = "unavailable"


class TargetState(str, Enum):
    AVAILABLE = "available"
    DEGRADED = "degraded"
    UNAVAILABLE = "unavailable"


class DegradedKind(str, Enum):
    ACCEPT_HOLD = "accept_hold"
    REDUCED_CAPACITY = "reduced_capacity"


@dataclass(frozen=True)
class TargetStatus:
    state: TargetState
    degraded: DegradedKind | None = None
    reduced_width: int | None = None

    def __post_init__(self) -> None:
        if (self.state is TargetState.DEGRADED) != (self.degraded is not None):
            raise ValueError("degraded kind set iff state is degraded")
        width, reduced = self.reduced_width, self.degraded is DegradedKind.REDUCED_CAPACITY
        if (type(width) is not int or width < 1) if reduced else width is not None:
            raise ValueError(f"reduced_width {width!r}: an int >= 1 on reduced capacity, else None")


AVAILABLE = TargetStatus(TargetState.AVAILABLE)
UNAVAILABLE = TargetStatus(TargetState.UNAVAILABLE)
ACCEPT_HOLD = TargetStatus(TargetState.DEGRADED, DegradedKind.ACCEPT_HOLD)


def reduced_capacity(width: int) -> TargetStatus:
    return TargetStatus(TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, width)


# --- availability schedules ---------------------------------------------------


@dataclass(frozen=True)
class AlwaysSchedule:
    """Constant status; Unavailable targets never come back."""

    status: TargetStatus = AVAILABLE

    def status_at(self, clock: int) -> TargetStatus:
        return self.status

    def next_available_at(self, clock: int) -> int | None:
        return clock if self.status.state is TargetState.AVAILABLE else None


@dataclass(frozen=True)
class RecurringOutageSchedule:
    """Available except for an outage of ``outage_len`` seconds in every period.

    The outage starts ``outage_start`` seconds into each period and may run
    past the period's end into the next one.
    """

    period: int
    outage_start: int
    outage_len: int
    outage_status: TargetStatus = UNAVAILABLE

    def __post_init__(self) -> None:
        if not all(type(v) is int for v in (self.period, self.outage_start, self.outage_len)):
            raise ValueError("period, outage_start and outage_len must be ints")
        if self.period <= 0 or self.outage_len <= 0:
            raise ValueError("period and outage_len must be positive")
        if not 0 <= self.outage_start < self.period:
            raise ValueError("outage_start must lie within the period")
        if self.outage_len >= self.period:
            raise ValueError("outage must leave part of the period available")
        if self.outage_status.state is TargetState.AVAILABLE:
            raise ValueError("the outage status must not be available")

    def status_at(self, clock: int) -> TargetStatus:
        into = (clock - self.outage_start) % self.period
        return self.outage_status if into < self.outage_len else AVAILABLE

    def next_available_at(self, clock: int) -> int:
        into = (clock - self.outage_start) % self.period
        if into < self.outage_len:
            return clock + self.outage_len - into  # the end of the outage
        return clock


def DailyWindowSchedule(
    start: int, end: int, outside: TargetStatus = ACCEPT_HOLD
) -> RecurringOutageSchedule:
    """Available inside a daily [start, end) second-of-day window, else ``outside``.

    The window may wrap midnight (start > end), e.g. an evening-to-early-morning
    operations window.  It is the daily outage from ``end`` to the next ``start``.
    """
    if type(start) is not int or type(end) is not int:
        raise ValueError("window start and end must be ints")
    if not (0 <= start < DAY and 0 <= end < DAY):
        raise ValueError("window start and end must lie within [0, DAY)")
    if start == end:
        raise ValueError("window start must differ from end")
    if outside.state is TargetState.AVAILABLE:
        raise ValueError("the status outside the window must not be available")
    return RecurringOutageSchedule(DAY, end, (start - end) % DAY, outside)


Schedule = AlwaysSchedule | RecurringOutageSchedule


# --- queue model ---------------------------------------------------------------

# numpy's standard_normal returns no |z| above about 13.7 (its ziggurat tail
# draws from 53-bit uniforms), and P(|z| > 14) is about 1e-44 for any normal
# source, so bounding the exponent mu + sigma * z at z = 14 keeps waits finite
_MAX_NORMAL = 14.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class QueueModel:
    """Lognormal wait-time model: wait = exp(mu + sigma * N(0,1)) seconds."""

    mu: float
    sigma: float
    predictor_bias: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mu, self.sigma, self.predictor_bias))):
            raise ValueError("queue mu, sigma and predictor_bias must be finite")
        if self.sigma < 0 or self.predictor_bias < 0:
            raise ValueError("queue sigma and predictor_bias must be >= 0")
        if self.mu + _MAX_NORMAL * self.sigma > _LOG_FLOAT_MAX or not math.isfinite(
            self.predicted_wait()
        ):
            raise ValueError(
                f"queue mu + {_MAX_NORMAL:g} * sigma must be <= {_LOG_FLOAT_MAX:.2f}"
                " and the predicted wait finite, or a wait overflows a float"
            )

    def draw_wait(self, rng: np.random.Generator) -> float:
        return float(math.exp(self.mu + self.sigma * rng.standard_normal()))

    def predicted_wait(self) -> float:
        """The estimate a status endpoint would publish: biased median."""
        return self.predictor_bias * math.exp(self.mu)


# --- target profile ------------------------------------------------------------

# the cloud path fixes the lowering pipeline and the one queue figure it publishes
_CLOUDS = {
    "SimAWS": {"gate_profile": REDUNDANT, "exposes_queue_position": True},
    "SimAzure": {"gate_profile": EFFICIENT, "exposes_avg_queue_time": True},
}


@dataclass(frozen=True)
class TargetProfile:
    """One target on one cloud; the last three fields come from its row in ``_CLOUDS``."""

    name: str
    cloud: str
    qubits: int
    billing: CostModel
    noise: NoiseSpec
    queue: QueueModel
    schedule: Schedule
    gate_limit: int | None = None
    execution_seconds: int = 60
    error_mitigated: bool = False
    gate_profile: GateSetProfile = field(init=False)
    exposes_avg_queue_time: bool = field(default=False, init=False)
    exposes_queue_position: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.cloud not in _CLOUDS:
            raise ValueError(f"{self.name}: unknown cloud {self.cloud!r}; known: {sorted(_CLOUDS)}")
        for key, value in _CLOUDS[self.cloud].items():
            object.__setattr__(self, key, value)
        if type(self.qubits) is not int or self.qubits < 1:
            raise ValueError(f"{self.name}: qubits must be an int >= 1")
        if type(self.execution_seconds) is not int or self.execution_seconds < 0:
            raise ValueError(f"{self.name}: execution_seconds must be an int >= 0")
        limit = self.gate_limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError(f"{self.name}: gate_limit must be none or an int >= 0")


@dataclass
class JobHandle:
    """Mutable lifecycle record of one job, held by its caller; not persisted directly.

    ``census`` is the lowered census, set once the width is accepted.
    ``circuit`` is the source circuit, kept once the gate limit accepts it.
    ``lowered`` is set only when the target runs the lowered gates.
    """

    job_id: str
    target: TargetProfile
    shots: int
    seed: int
    submitted_at: int
    status: JobStatus
    census: GateCensus | None = None
    circuit: Circuit | None = None
    lowered: TranspileResult | None = None
    error_message: str | None = None
    predicted_wait: float | None = None
    actual_wait: float | None = None
    exec_start: int | None = None
    exec_end: int | None = None
    _counts: dict[str, int] | None = field(default=None, repr=False)


@dataclass(frozen=True)
class PollResult:
    status: JobStatus
    counts: dict[str, int] | None = None
    error_message: str | None = None
    queue_position: int | None = None


class SimProvider:
    """One simulated access path to one target machine."""

    def __init__(self, target: TargetProfile):
        self.target = target
        self._lock = threading.Lock()
        # job id -> (exec_start, exec_end) of every job submitted here, or None
        # once the job no longer counts toward queue positions: refused at
        # submission, never runnable, failed in execution, or canceled.  Only
        # the spans are kept, so a handle lives as long as its caller holds it.
        # Every accepted submit adds one key, so its size numbers the auto ids.
        self._spans: dict[str, tuple[int, int] | None] = {}

    # -- submission ------------------------------------------------------------

    def submit(
        self, circuit: Circuit, shots: int, clock: int, *, seed: int, job_id: str | None = None
    ) -> JobHandle:
        """Validate, count the lowering, and enqueue; returns a handle, possibly terminal."""
        if type(shots) is not int or shots < 1:
            raise ValueError(f"shots {shots!r} is not an int >= 1")
        with self._lock:
            if job_id is None:
                job_id = f"{self.target.name}-{len(self._spans):06d}"
            if job_id in self._spans:
                raise ValueError(f"duplicate job id {job_id}")
            handle = self._build_handle(circuit, shots, clock, seed, job_id)
            span = None if handle.exec_end is None else (handle.exec_start, handle.exec_end)
            self._spans[job_id] = span
            return handle

    def _build_handle(
        self, circuit: Circuit, shots: int, clock: int, seed: int, job_id: str
    ) -> JobHandle:
        t = self.target
        handle = JobHandle(
            job_id=job_id,
            target=t,
            shots=shots,
            seed=seed,
            submitted_at=clock,
            status=JobStatus.SUBMITTED,
        )
        status = t.schedule.status_at(clock)
        if status.state is TargetState.UNAVAILABLE:
            handle.status = JobStatus.UNAVAILABLE
            handle.error_message = "target unavailable at submission"
            return handle
        effective_width = t.qubits
        if status.degraded is DegradedKind.REDUCED_CAPACITY:
            effective_width = min(effective_width, status.reduced_width)
        if circuit.width > effective_width:
            handle.status = JobStatus.ERROR
            handle.error_message = (
                f"circuit width {circuit.width} exceeds target capacity {effective_width}"
            )
            return handle
        handle.census = lowered_census(circuit, t.gate_profile)
        if t.gate_limit is not None and handle.census.total > t.gate_limit:
            handle.status = JobStatus.ERROR
            handle.error_message = (
                f"lowered gate count {handle.census.total} exceeds limit {t.gate_limit}"
            )
            return handle
        handle.circuit = circuit
        rng = np.random.default_rng(derive_seed(seed, "queue"))
        wait = t.queue.draw_wait(rng)
        handle.actual_wait = wait
        if t.exposes_avg_queue_time:
            handle.predicted_wait = t.queue.predicted_wait()
        ready = clock + math.ceil(wait)
        handle.exec_start = self._next_runnable(ready, circuit.width)
        if handle.exec_start is not None:
            handle.exec_end = handle.exec_start + t.execution_seconds
        return handle

    def _next_runnable(self, clock: int, width: int) -> int | None:
        """Earliest instant >= clock when the target will actually run a job."""
        status = self.target.schedule.status_at(clock)
        if status.degraded is DegradedKind.REDUCED_CAPACITY and width <= status.reduced_width:
            return clock  # degraded but still running jobs of this width
        return self.target.schedule.next_available_at(clock)

    # -- lifecycle ---------------------------------------------------------------

    def poll(self, handle: JobHandle, clock: int) -> PollResult:
        """Status at ``clock``; idempotent for a fixed clock."""
        with self._lock:
            status = self._status_at(handle, clock)
            if status is JobStatus.PROCESSED and handle._counts is None:
                try:
                    handle._counts = self._execute(handle)
                except ValueError as exc:
                    handle.status = JobStatus.ERROR
                    handle.error_message = f"execution failed: {exc}"
                    status = JobStatus.ERROR
                    self._spans[handle.job_id] = None
            handle.status = status if handle.status is JobStatus.SUBMITTED else handle.status
            position = None
            if self.target.exposes_queue_position and status is JobStatus.SUBMITTED:
                position = self._queue_position(handle, clock)
            return PollResult(
                status=status,
                counts=handle._counts if status is JobStatus.PROCESSED else None,
                error_message=handle.error_message,
                queue_position=position,
            )

    def _execute(self, handle: JobHandle) -> dict[str, int]:
        noise, seed = self.target.noise, derive_seed(handle.seed, "shots")
        if isinstance(noise, GlobalDepolarizing):
            return sample_depolarized(handle.circuit, handle.census.n_2q, noise, handle.shots, seed)
        # a trajectory injects its errors gate by gate, so it runs the lowering
        handle.lowered = transpile(handle.circuit, self.target.gate_profile)
        return run_noisy(handle.lowered.circuit, noise, handle.shots, seed)

    def _status_at(self, handle: JobHandle, clock: int) -> JobStatus:
        if handle.status in (JobStatus.UNAVAILABLE, JobStatus.ERROR, JobStatus.CANCELED):
            return handle.status
        if handle.exec_end is not None and clock >= handle.exec_end:
            return JobStatus.PROCESSED
        return JobStatus.SUBMITTED

    def _queue_position(self, handle: JobHandle, clock: int) -> int:
        """1 + the live jobs that start before this one and have not ended by ``clock``."""
        mine = handle.exec_start if handle.exec_start is not None else math.inf
        spans = filter(None, self._spans.values())
        return 1 + sum(1 for start, end in spans if end > clock and start < mine)

    def cancel(self, handle: JobHandle, clock: int) -> JobStatus:
        """Cancel if execution has not begun; otherwise report the real status."""
        with self._lock:
            status = self._status_at(handle, clock)
            if status is not JobStatus.SUBMITTED:
                return status
            if handle.exec_start is None or clock < handle.exec_start:
                handle.status = JobStatus.CANCELED
                self._spans[handle.job_id] = None
                return JobStatus.CANCELED
            return JobStatus.SUBMITTED  # already running; too late to cancel

    # -- billing -------------------------------------------------------------------

    def job_cost(self, handle: JobHandle) -> Money:
        """Cost of a job in its current status; non-processed jobs cost nothing."""
        if handle.status is not JobStatus.PROCESSED:
            return Money.zero()
        return self.target.billing.job_cost(
            handle.census,
            handle.shots,
            handle.circuit.width,
            error_mitigated=self.target.error_mitigated,
        )


# --- shipped target presets -------------------------------------------------------


@cache
def _price_rows() -> dict[str, dict[str, str]]:
    text = resources.files("qbench.data").joinpath("price_table.json").read_text("utf-8")
    return json.loads(text)["bills"]


_COST_MODELS = {model.__name__: model for model in get_args(CostModel)}


def _bill(name: str) -> CostModel:
    """The named row of ``price_table.json``: its model, with every USD amount parsed."""
    row = dict(_price_rows()[name])
    model = _COST_MODELS[row.pop("model")]
    return model(**{key: Money.from_usd(usd) for key, usd in row.items()})


_AWS_QUEUE = QueueModel(mu=math.log(300.0), sigma=1.0)
# bias 0.65 with sigma 1.2: the published estimate exceeds the actual wait for
# roughly a third of jobs, matching observed status-endpoint behavior
_AZURE_QUEUE = QueueModel(mu=math.log(600.0), sigma=1.2, predictor_bias=0.65)
_SLOW_QUEUE = QueueModel(mu=math.log(3600.0), sigma=1.3, predictor_bias=0.65)
_EMULATOR_QUEUE = QueueModel(mu=math.log(10.0), sigma=0.5)

# machine: qubits, two-qubit gate fidelity
_DEVICES = {
    "aria": (25, 0.9995),
    "forte": (36, 0.9993),
    "garnet": (20, 0.97),
    "h1": (20, 0.9998),
    "h2": (56, 0.9999),
}

_ALWAYS = AlwaysSchedule()
_NEVER = AlwaysSchedule(UNAVAILABLE)
# aria1 is down 6 h of every 36 h on the AWS path and 12 h on the Azure path
_ARIA1_AWS_HOURS = RecurringOutageSchedule(36 * 3600, outage_start=30 * 3600, outage_len=6 * 3600)
_ARIA1_AZURE_HOURS = RecurringOutageSchedule(36 * 3600, outage_start=24 * 3600, outage_len=12 * 3600)
# h1's nightly operations window, 17:00 to 02:00; submissions outside it are
# accepted and held
_H1_NIGHTS = DailyWindowSchedule(start=17 * 3600, end=2 * 3600)


@cache
def default_gate_limit(accept_q: int = 16, reject_q: int = 18) -> int:
    """Submission gate cap splitting two benchmark widths under REDUNDANT.

    Computed as the midpoint between the largest possible accept_q total
    (all input bits set) and the smallest possible reject_q total (input 0),
    so acceptance depends only on width, never on the benchmark input.
    """
    hi = lowered_census(build_benchmark(accept_q, (1 << accept_q) - 1), REDUNDANT).total
    lo = lowered_census(build_benchmark(reject_q, 0), REDUNDANT).total
    if hi >= lo:
        raise ValueError(f"widths {accept_q}/{reject_q} do not separate")
    return (hi + lo) // 2


# preset: machine, cloud, price row, queue, schedule, gate-limit widths
# (the accept/reject widths ``default_gate_limit`` splits; None: no limit)
_PRESETS = {
    "aria1-aws": ("aria", "SimAWS", "aria-per-shot", _AWS_QUEUE, _ARIA1_AWS_HOURS, (16, 18)),
    "aria1-azure": ("aria", "SimAzure", "ionq-gate-rate", _AZURE_QUEUE, _ARIA1_AZURE_HOURS, None),
    "aria2-aws": ("aria", "SimAWS", "aria-per-shot", _AWS_QUEUE, _NEVER, (16, 18)),
    "aria2-azure": ("aria", "SimAzure", "ionq-gate-rate", _AZURE_QUEUE, _NEVER, None),
    "forte1-aws": ("forte", "SimAWS", "forte-per-shot", _AWS_QUEUE, _ALWAYS, (20, 22)),
    "garnet-aws": ("garnet", "SimAWS", "garnet-per-shot", _AWS_QUEUE, _ALWAYS, None),
    "h1-azure": ("h1", "SimAzure", "quantinuum-hardware", _SLOW_QUEUE, _H1_NIGHTS, None),
    "h2-azure": ("h2", "SimAzure", "quantinuum-hardware", _SLOW_QUEUE, _ALWAYS, None),
    "aria1-emulator": ("aria", "SimAzure", "free", _EMULATOR_QUEUE, _ALWAYS, None),
    "forte1-emulator": ("forte", "SimAzure", "free", _EMULATOR_QUEUE, _ALWAYS, None),
    "h1-emulator": ("h1", "SimAzure", "quantinuum-emulator", _EMULATOR_QUEUE, _ALWAYS, None),
    "h2-emulator": ("h2", "SimAzure", "quantinuum-emulator", _EMULATOR_QUEUE, _ALWAYS, None),
}

PRESET_NAMES = tuple(_PRESETS)


@cache
def target_profile(name: str) -> TargetProfile:
    """Resolve a shipped preset by name; raises KeyError for unknown names."""
    try:
        device, cloud, billing, queue, schedule, limit_widths = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown target preset {name!r}; known: {sorted(_PRESETS)}") from None
    qubits, f_2qg = _DEVICES[device]
    return TargetProfile(
        name=name,
        cloud=cloud,
        qubits=qubits,
        billing=_bill(billing),
        noise=GlobalDepolarizing(f_2qg),
        queue=queue,
        schedule=schedule,
        gate_limit=None if limit_widths is None else default_gate_limit(*limit_widths),
    )
