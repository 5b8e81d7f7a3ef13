import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qbench.circuit import (
    Circuit,
    Gate,
    GateKind,
    benchmark_input,
    build_benchmark,
    circuit_from_json,
    circuit_to_json,
    random_input,
)
from qbench.cli import load_config, run_campaign
from qbench.costing import CreditBilling, Money, credit_charge
from qbench.providers import (
    ACCEPT_HOLD,
    AVAILABLE,
    DAY,
    UNAVAILABLE,
    AlwaysSchedule,
    DailyWindowSchedule,
    DegradedKind,
    JobStatus,
    PRESET_NAMES,
    QueueModel,
    RecurringOutageSchedule,
    SimProvider,
    TargetState,
    TargetStatus,
    reduced_capacity,
    target_profile,
)
from qbench.rng import derive_seed
from qbench.simulator import PauliTrajectory, run_noisy
from qbench.transpiler import transpile

H = 3600


# --- schedules -------------------------------------------------------------------


def test_always_schedule():
    s = AlwaysSchedule()
    assert s.status_at(0) is AVAILABLE
    assert s.next_available_at(12345) == 12345
    down = AlwaysSchedule(UNAVAILABLE)
    assert down.status_at(99) is UNAVAILABLE
    assert down.next_available_at(99) is None


def test_daily_window_plain():
    s = DailyWindowSchedule(start=9 * H, end=17 * H)
    assert s.status_at(10 * H).state is TargetState.AVAILABLE
    assert s.status_at(8 * H) == ACCEPT_HOLD
    assert s.status_at(17 * H) == ACCEPT_HOLD  # end exclusive
    assert s.next_available_at(8 * H) == 9 * H
    assert s.next_available_at(10 * H) == 10 * H
    assert s.next_available_at(18 * H) == DAY + 9 * H  # tomorrow


def test_daily_window_wrapping_midnight():
    s = DailyWindowSchedule(start=17 * H, end=2 * H)
    assert s.status_at(18 * H).state is TargetState.AVAILABLE
    assert s.status_at(1 * H).state is TargetState.AVAILABLE  # early-morning tail
    assert s.status_at(2 * H) == ACCEPT_HOLD
    assert s.status_at(12 * H) == ACCEPT_HOLD
    assert s.next_available_at(3 * H) == 17 * H
    assert s.next_available_at(3 * DAY + 12 * H) == 3 * DAY + 17 * H


def test_recurring_outage():
    s = RecurringOutageSchedule(period=36 * H, outage_start=30 * H, outage_len=6 * H)
    assert s.status_at(29 * H).state is TargetState.AVAILABLE
    assert s.status_at(30 * H).state is TargetState.UNAVAILABLE
    assert s.status_at(35 * H + 3599).state is TargetState.UNAVAILABLE
    assert s.status_at(36 * H).state is TargetState.AVAILABLE  # next period
    assert s.next_available_at(31 * H) == 36 * H
    assert s.next_available_at(5 * H) == 5 * H


def test_recurring_outage_validation():
    with pytest.raises(ValueError):
        RecurringOutageSchedule(period=10, outage_start=12, outage_len=1)


def test_recurring_outage_may_run_into_the_next_period():
    s = RecurringOutageSchedule(period=10, outage_start=8, outage_len=5)
    for clock in (0, 1, 2):  # the tail of the outage that began at -2
        assert s.status_at(clock) is UNAVAILABLE
        assert s.next_available_at(clock) == 3
    for period_start in (0, 10, 70):
        for clock in (8, 9, 10, 11, 12):
            assert s.status_at(period_start + clock) is UNAVAILABLE
            assert s.next_available_at(period_start + clock) == period_start + 13
        for clock in (3, 4, 7):
            assert s.status_at(period_start + clock) is AVAILABLE
            assert s.next_available_at(period_start + clock) == period_start + clock


@pytest.mark.parametrize(
    "start, end",
    [(-1, 2 * H), (DAY, 2 * H), (9 * H, -1), (9 * H, DAY), (9 * H, 9 * H)],
    ids=["start-negative", "start-past-day", "end-negative", "end-past-day", "start-equals-end"],
)
def test_daily_window_validation(start, end):
    with pytest.raises(ValueError):
        DailyWindowSchedule(start=start, end=end)


@pytest.mark.parametrize(
    "period, outage_len",
    [(0, 1), (-10, 1), (10, 0), (10, -1)],
    ids=["period-zero", "period-negative", "outage-len-zero", "outage-len-negative"],
)
def test_recurring_outage_rejects_nonpositive(period, outage_len):
    with pytest.raises(ValueError):
        RecurringOutageSchedule(period=period, outage_start=0, outage_len=outage_len)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DailyWindowSchedule(start=1, end=0, outside=AVAILABLE),
        lambda: RecurringOutageSchedule(10, outage_start=2, outage_len=3, outage_status=AVAILABLE),
        lambda: RecurringOutageSchedule(H, outage_start=0, outage_len=H, outage_status=ACCEPT_HOLD),
    ],
    ids=["window-outside-available", "outage-available", "outage-whole-period"],
)
def test_schedule_rejects_outages_that_are_available_or_never_end(make):
    with pytest.raises(ValueError):
        make()


STATUSES = st.one_of(
    st.sampled_from([AVAILABLE, UNAVAILABLE, ACCEPT_HOLD]),
    st.builds(reduced_capacity, st.integers(1, 60)),
)


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["always", "window", "outage"]))
    status = draw(STATUSES)
    try:
        if kind == "always":
            return AlwaysSchedule(status)
        if kind == "window":
            start, end = draw(st.integers(0, DAY - 1)), draw(st.integers(0, DAY - 1))
            return DailyWindowSchedule(start=start, end=end, outside=status)
        period = draw(st.integers(1, 3 * DAY))
        start = draw(st.integers(0, period - 1))
        length = draw(st.integers(1, period))  # may run past the period's end
        return RecurringOutageSchedule(period, start, length, outage_status=status)
    except ValueError:
        reject()


@settings(max_examples=500, deadline=None)
@given(schedules(), st.integers(0, 10 * DAY))
def test_next_available_is_the_first_available_instant(schedule, clock):
    nxt = schedule.next_available_at(clock)
    available = schedule.status_at(clock).state is TargetState.AVAILABLE
    assert nxt is None or nxt >= clock
    assert nxt is None or schedule.status_at(nxt).state is TargetState.AVAILABLE
    assert not available or nxt == clock


def test_target_status_validation():
    with pytest.raises(ValueError):
        TargetStatus(TargetState.DEGRADED)  # kind missing
    with pytest.raises(ValueError):
        TargetStatus(TargetState.AVAILABLE, DegradedKind.ACCEPT_HOLD)
    with pytest.raises(ValueError):
        TargetStatus(TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY)
    assert reduced_capacity(10).reduced_width == 10
    assert reduced_capacity(1).reduced_width == 1


@pytest.mark.parametrize(
    "state, kind, width",
    [
        (TargetState.AVAILABLE, None, 5),
        (TargetState.UNAVAILABLE, None, 5),
        (TargetState.DEGRADED, DegradedKind.ACCEPT_HOLD, 3),
        (TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, 0),
        (TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, -4),
        (TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, 2.5),
        (TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, True),
        (TargetState.DEGRADED, DegradedKind.REDUCED_CAPACITY, "3"),
    ],
)
def test_reduced_width_is_a_positive_int_on_reduced_capacity_only(state, kind, width):
    with pytest.raises(ValueError, match="reduced_width"):
        TargetStatus(state, kind, width)


# --- queue model -------------------------------------------------------------------


def _overestimate_fraction(model, samples=10_000, seed=5):
    rng = np.random.default_rng(seed)
    pred = model.predicted_wait()
    over = sum(1 for _ in range(samples) if pred > model.draw_wait(rng))
    return over / samples


@pytest.mark.parametrize(
    "mu, sigma, bias",
    [
        (800.0, 0.0, 1.0),
        (709.8, 0.0, 1.0),
        (600.0, 8.0, 1.0),
        (0.0, 51.0, 1.0),
        (700.0, 0.0, 1e10),
    ],
)
def test_queue_whose_wait_can_overflow_is_refused(mu, sigma, bias):
    with pytest.raises(ValueError, match="overflows a float"):
        QueueModel(mu=mu, sigma=sigma, predictor_bias=bias)


@pytest.mark.parametrize("mu, sigma", [(709.7, 0.0), (600.0, 7.8), (-5000.0, 400.0)])
def test_queue_at_the_overflow_bound_draws_finite_waits(mu, sigma):
    queue = QueueModel(mu=mu, sigma=sigma)
    rng = np.random.default_rng(3)
    assert all(math.isfinite(queue.draw_wait(rng)) for _ in range(1000))
    assert math.isfinite(queue.predicted_wait())


def test_unbiased_predictor_overestimates_half_the_time():
    frac = _overestimate_fraction(QueueModel(mu=math.log(300.0), sigma=1.0))
    assert abs(frac - 0.5) < 0.025  # 5 sigma at 10k samples


def test_optimistic_bias_overestimates_more_than_half():
    frac = _overestimate_fraction(QueueModel(mu=math.log(300.0), sigma=1.0, predictor_bias=2.0))
    assert frac > 0.53
    # Phi(ln 2 / 1.0) = 0.7558
    assert abs(frac - 0.7558) < 0.025


def test_shipped_status_endpoint_bias_lands_near_a_third():
    frac = _overestimate_fraction(QueueModel(mu=math.log(600.0), sigma=1.2, predictor_bias=0.65))
    # Phi(ln 0.65 / 1.2) = 0.3598
    assert abs(frac - 0.3598) < 0.025


# --- submission lifecycle ------------------------------------------------------------


def _provider(name):
    return SimProvider(target_profile(name))


def test_submit_then_process():
    prov = _provider("garnet-aws")
    c = build_benchmark(6, 20)
    h = prov.submit(c, 500, 0, seed=4)
    assert h.status is JobStatus.SUBMITTED
    assert h.exec_end == h.exec_start + prov.target.execution_seconds
    assert h.exec_start >= math.ceil(h.actual_wait)
    early = prov.poll(h, h.exec_end - 1)
    assert early.status is JobStatus.SUBMITTED
    assert early.counts is None
    done = prov.poll(h, h.exec_end)
    assert done.status is JobStatus.PROCESSED
    assert sum(done.counts.values()) == 500
    again = prov.poll(h, h.exec_end + 999)
    assert again.counts == done.counts


def test_submission_is_deterministic():
    c = build_benchmark(5, 9)
    runs = []
    for _ in range(2):
        prov = _provider("garnet-aws")
        h = prov.submit(c, 300, 1234, seed=77, job_id="fixed")
        runs.append((h.exec_start, h.exec_end, prov.poll(h, h.exec_end).counts))
    assert runs[0] == runs[1]


def _count_gate_scans(monkeypatch) -> list:
    """Record each circuit whose gates ``benchmark_input`` scans."""
    scans = []
    prop = vars(Circuit)["_input"]  # the cached_property that runs the scan
    scan = prop.func

    def counted(circuit):
        scans.append(circuit)
        return scan(circuit)

    monkeypatch.setattr(prop, "func", counted)
    return scans


def test_a_processed_job_recognises_its_benchmark_once(monkeypatch, tmp_path):
    config = tmp_path / "c.ini"
    config.write_text(
        "[campaign]\nqubits = 4,8,12\nshots = 100\nseed = 3\n"
        "[targets]\nuse = h2-azure, garnet-aws\n"
    )
    cfg = load_config(str(config))  # resolving presets recognises the gate-limit benchmarks
    prov = _provider("h2-azure")
    scans = _count_gate_scans(monkeypatch)
    circuit = build_benchmark(8, 77)
    h = prov.submit(circuit, 500, 0, seed=5)
    assert len(scans) == 1  # at submission, for the lowered census
    assert prov.poll(h, h.exec_end).status is JobStatus.PROCESSED
    prov.job_cost(h)
    assert benchmark_input(circuit) == 77
    assert len(scans) == 1  # execution and billing read what the circuit kept
    scans.clear()
    summary = run_campaign(cfg, str(tmp_path / "s.jsonl"))
    assert summary["by_status"] == {"processed": 6}
    assert len(set(map(id, scans))) == len(scans) == 6  # one per job's circuit


def test_a_circuit_is_recognised_by_its_own_gates(monkeypatch):
    circuit = build_benchmark(8, 77)
    assert benchmark_input(circuit) == 77
    scans = _count_gate_scans(monkeypatch)
    # an edited copy keeps the metadata naming the benchmark, but not its answer
    last = circuit.gates[-1]
    edited = dataclasses.replace(circuit, gates=(*circuit.gates[:-1], Gate(GateKind.X, last.targets)))
    assert edited.metadata == circuit.metadata
    assert benchmark_input(edited) is None
    assert benchmark_input(circuit_from_json(circuit_to_json(circuit))) == 77
    assert len(scans) == 2


def test_duplicate_job_id_rejected():
    prov = _provider("garnet-aws")
    c = build_benchmark(3, 1)
    prov.submit(c, 10, 0, seed=1, job_id="dup")
    with pytest.raises(ValueError):
        prov.submit(c, 10, 0, seed=2, job_id="dup")


def test_shots_must_be_positive():
    with pytest.raises(ValueError):
        _provider("garnet-aws").submit(build_benchmark(3, 1), 0, 0, seed=1)


def test_unavailable_target_refuses_without_lowering():
    prov = _provider("aria2-aws")
    h = prov.submit(build_benchmark(8, 1), 500, 0, seed=9)
    assert h.status is JobStatus.UNAVAILABLE
    assert h.lowered is None
    assert h.error_message
    assert prov.poll(h, 10 * DAY).status is JobStatus.UNAVAILABLE
    assert prov.job_cost(h) == Money.zero()


def test_width_overflow_is_an_error():
    prov = _provider("garnet-aws")  # 20 qubits
    h = prov.submit(build_benchmark(21, 0), 100, 0, seed=3)
    assert h.status is JobStatus.ERROR
    assert "width" in h.error_message


def test_gate_limit_rejection_on_the_redundant_path():
    prov = _provider("aria1-aws")
    ok = prov.submit(build_benchmark(16, (1 << 16) - 1), 100, 0, seed=5)
    assert ok.status is JobStatus.SUBMITTED
    too_big = prov.submit(build_benchmark(18, 0), 100, 0, seed=6)
    assert too_big.status is JobStatus.ERROR
    assert "limit" in too_big.error_message
    assert prov.job_cost(too_big) == Money.zero()


def test_reduced_capacity_window():
    base = target_profile("garnet-aws")
    prof = dataclasses.replace(
        base, name="garnet-reduced", schedule=AlwaysSchedule(reduced_capacity(10))
    )
    prov = SimProvider(prof)
    wide = prov.submit(build_benchmark(12, 0), 100, 0, seed=1)
    assert wide.status is JobStatus.ERROR
    narrow = prov.submit(build_benchmark(8, 0), 100, 0, seed=2)
    assert narrow.status is JobStatus.SUBMITTED
    # degraded-but-fitting jobs run without waiting for full availability
    assert narrow.exec_start == narrow.submitted_at + math.ceil(narrow.actual_wait)


def test_accept_hold_defers_to_the_window():
    prov = _provider("h1-azure")  # nightly window 17:00-02:00
    for seed in range(6):
        h = prov.submit(build_benchmark(6, 5), 100, 4 * H, seed=seed)
        assert h.status is JobStatus.SUBMITTED
        second_of_day = h.exec_start % DAY
        assert second_of_day >= 17 * H or second_of_day < 2 * H
        assert h.exec_start >= 17 * H


def test_accept_hold_without_any_window_never_schedules():
    prof = dataclasses.replace(
        target_profile("garnet-aws"), name="held-forever", schedule=AlwaysSchedule(ACCEPT_HOLD)
    )
    prov = SimProvider(prof)
    h = prov.submit(build_benchmark(4, 2), 50, 0, seed=8)
    assert h.status is JobStatus.SUBMITTED
    assert h.exec_start is None
    assert prov.poll(h, 100 * DAY).status is JobStatus.SUBMITTED
    assert prov.cancel(h, 100 * DAY) is JobStatus.CANCELED


def test_cancel_before_start_and_after_finish():
    prov = _provider("h1-azure")
    h = prov.submit(build_benchmark(5, 3), 100, 4 * H, seed=2)
    assert h.exec_start > 5 * H
    assert prov.cancel(h, 5 * H) is JobStatus.CANCELED
    assert prov.poll(h, h.exec_start + 10).status is JobStatus.CANCELED
    assert prov.job_cost(h) == Money.zero()

    h2 = prov.submit(build_benchmark(5, 3), 100, 4 * H, seed=3)
    assert prov.poll(h2, h2.exec_end).status is JobStatus.PROCESSED
    assert prov.cancel(h2, h2.exec_end + 1) is JobStatus.PROCESSED


def test_cancel_while_running_is_too_late():
    prof = dataclasses.replace(
        target_profile("garnet-aws"), name="slow-exec", execution_seconds=1000
    )
    prov = SimProvider(prof)
    h = prov.submit(build_benchmark(4, 1), 50, 0, seed=4)
    mid = h.exec_start + 500
    assert prov.cancel(h, mid) is JobStatus.SUBMITTED
    assert prov.poll(h, h.exec_end).status is JobStatus.PROCESSED


def test_queue_position_exposure():
    prov = _provider("aria1-aws")
    first = prov.submit(build_benchmark(6, 0), 100, 0, seed=1)
    second = prov.submit(build_benchmark(6, 1), 100, 1, seed=2)
    lo, hi = sorted([first, second], key=lambda h: h.exec_start)
    r = prov.poll(hi, min(lo.exec_start, hi.exec_start) - 1)
    assert r.queue_position == 2
    azure = _provider("aria1-azure")
    h = azure.submit(build_benchmark(6, 0), 100, 0, seed=1)
    assert azure.poll(h, h.exec_start - 1).queue_position is None


def test_predicted_wait_only_where_exposed():
    azure = _provider("aria1-azure").submit(build_benchmark(5, 1), 100, 0, seed=1)
    assert azure.predicted_wait == pytest.approx(0.65 * 600.0)
    aws = _provider("aria1-aws").submit(build_benchmark(5, 1), 100, 0, seed=1)
    assert aws.predicted_wait is None
    assert aws.actual_wait is not None


def test_azure_outage_window_refuses():
    prov = _provider("aria1-azure")  # outage covers [24h, 36h) of each 36h cycle
    h = prov.submit(build_benchmark(6, 3), 100, 25 * H, seed=1)
    assert h.status is JobStatus.UNAVAILABLE
    ok = prov.submit(build_benchmark(6, 3), 100, 37 * H, seed=2)
    assert ok.status is JobStatus.SUBMITTED


# --- billing through the provider ---------------------------------------------------


def _processed_handle(name, q, shots, seed=11, clock=0):
    prov = SimProvider(target_profile(name))
    h = prov.submit(build_benchmark(q, 0), shots, clock, seed=seed)
    assert prov.poll(h, h.exec_end).status is JobStatus.PROCESSED
    return prov, h


def test_per_shot_bill_is_flat_across_widths():
    _, h8 = _processed_handle("aria1-aws", 8, 500)
    prov, h16 = _processed_handle("aria1-aws", 16, 500)
    assert str(prov.job_cost(h16)) == "$15.30"
    assert prov.job_cost(h8) == prov.job_cost(h16)


def test_gate_rate_bill_hits_the_minimum_on_small_jobs():
    prov, h = _processed_handle("aria1-azure", 2, 500)
    assert prov.job_cost(h) == Money.from_usd("12.42")


def test_gate_rate_bill_grows_with_the_circuit():
    prov, h = _processed_handle("aria1-azure", 8, 500)
    census = h.census
    expect = (census.n_1q * Money.from_usd("0.00022") + census.n_2q * Money.from_usd("0.000975")) * 500
    assert prov.job_cost(h) == expect


def test_error_mitigated_target_bills_the_mitigated_minimum():
    profile = dataclasses.replace(target_profile("aria1-azure"), error_mitigated=True)
    prov = SimProvider(profile)
    h = prov.submit(build_benchmark(2, 0), 500, 0, seed=11)
    assert prov.poll(h, h.exec_end).status is JobStatus.PROCESSED
    assert prov.job_cost(h) == Money.from_usd("97.50")


def test_credit_bill_matches_the_formula():
    prov, h = _processed_handle("h1-azure", 6, 200, clock=18 * H)
    credits = credit_charge(h.census, 200, h.circuit.width)
    assert prov.job_cost(h) == CreditBilling(Money.from_usd("9.7941")).usd_per_credit.scale(credits)


def test_emulators_are_free_or_cheap():
    prov, h = _processed_handle("aria1-emulator", 6, 500)
    assert prov.job_cost(h) == Money.zero()
    emu_prov, emu_h = _processed_handle("h1-emulator", 6, 500)
    hw_prov, hw_h = _processed_handle("h1-azure", 6, 500, clock=18 * H)
    assert Money.zero() < emu_prov.job_cost(emu_h) < hw_prov.job_cost(hw_h)


def test_unpriced_submissions_cost_nothing():
    prov = _provider("h1-azure")
    h = prov.submit(build_benchmark(5, 0), 100, 4 * H, seed=6)
    assert prov.job_cost(h) == Money.zero()  # still queued


# --- execution: census-first jobs against lowering every job --------------------


def _run_and_lower(profile, q, shots, seed):
    """The provider's counts and census, and the lowering the job stands for."""
    prov = SimProvider(profile)
    circuit = build_benchmark(q, random_input(q, seed), seed=seed)
    h = prov.submit(circuit, shots, 0, seed=seed)
    result = prov.poll(h, h.exec_end)
    assert result.status is JobStatus.PROCESSED
    return h, result.counts, transpile(circuit, profile.gate_profile)


@pytest.mark.parametrize(
    "name", ["aria1-aws", "aria1-azure", "garnet-aws", "h2-azure", "h1-emulator"]
)
@pytest.mark.parametrize("q", [2, 5, 8, 10])
def test_depolarizing_job_matches_running_its_lowering(name, q):
    profile = target_profile(name)
    h, counts, lowered = _run_and_lower(profile, q, 400, seed=q)
    assert h.census == lowered.census
    assert h.lowered is None  # nothing ran the lowered gates
    # the lowered benchmark is simulated here, so this is the channel on the
    # gates the job stands for
    assert counts == run_noisy(lowered.circuit, profile.noise, 400, derive_seed(q, "shots"))


@pytest.mark.parametrize("name,q", [("h2-azure", 30), ("forte1-aws", 20), ("garnet-aws", 16)])
def test_depolarizing_job_census_matches_its_lowering_past_the_statevector_cap(name, q):
    h, _, lowered = _run_and_lower(target_profile(name), q, 100, seed=q)
    assert h.census == lowered.census


@pytest.mark.parametrize("q", [1, 3, 6])
def test_trajectory_job_runs_its_lowering(q):
    noise = PauliTrajectory(0.05)
    profile = dataclasses.replace(target_profile("aria1-azure"), noise=noise)
    h, counts, lowered = _run_and_lower(profile, q, 60, seed=q)
    assert h.lowered == lowered
    assert h.census == lowered.census
    assert counts == run_noisy(lowered.circuit, noise, 60, derive_seed(q, "shots"))


def test_all_presets_resolve():
    for name in PRESET_NAMES:
        profile = target_profile(name)
        assert profile.name == name
        assert profile.cloud in ("SimAWS", "SimAzure")
    with pytest.raises(KeyError):
        target_profile("nope")
