"""End-to-end acceptance checks.

Each test prints exactly one verdict line so a full run reads as a
ten-line scorecard.  The checks exercise the public surface only:
benchmark circuits, both transpile profiles, provider lifecycle, exact
billing, noise-model round trips, the store, and the campaign driver.
"""

import math
import random
import time
from fractions import Fraction

from qbench import (
    DAY,
    EFFICIENT,
    REDUNDANT,
    Circuit,
    Gate,
    GateCensus,
    GateKind,
    GlobalDepolarizing,
    JobStatus,
    JobStore,
    Money,
    SimProvider,
    TargetState,
    aggregate,
    build_benchmark,
    census,
    classify_success,
    debias_uniform_floor,
    hellinger_fidelity,
    ideal_output,
    infer_f2qg,
    random_input,
    run_noisy,
    run_statevector,
    sample,
    target_profile,
    transpile,
    verify_equivalence,
    write_report,
)
from qbench.cli import load_config, run_campaign

from test_store import make_record, processed_record


def verdict(number, slug, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"criterion {number:02d} {slug}: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_benchmark_correctness():
    start = time.perf_counter()
    ok = True
    for q in (4, 6, 8, 10, 12):
        for k in range(20):
            n = random_input(q, seed=k)
            state = run_statevector(build_benchmark(q, n))
            counts = sample(state, shots=500, seed=k)
            ok = ok and counts == {ideal_output(q, n): 500}
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(1, "benchmark-correctness", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_02_transpiler_equivalence():
    ok = True
    for q in (2, 4, 6, 8):
        source = build_benchmark(q, random_input(q, seed=q))
        for profile in (EFFICIENT, REDUNDANT):
            lowered = transpile(source, profile)
            ok = ok and verify_equivalence(source, lowered.circuit) >= 1.0 - 1e-9

    # a controlled-phase population costs exactly twice the entanglers
    # when lowered through CX pairs instead of one ZZ each
    rng = random.Random(7)
    cp_only = Circuit(
        width=4,
        gates=tuple(
            Gate(GateKind.CP, (k % 4, (k + 1 + k % 3) % 4), rng.uniform(0.1, 3.0))
            for k in range(40)
        ),
    )
    cp_eff = transpile(cp_only, EFFICIENT).census
    cp_red = transpile(cp_only, REDUNDANT).census
    ok = ok and cp_eff.n_2q == 40 and cp_red.n_2q == 80

    ratios = []
    for q in (8, 12, 16):
        source = build_benchmark(q, 0)
        eff = transpile(source, EFFICIENT).census
        red = transpile(source, REDUNDANT).census
        ratios.append((red.n_1q + red.n_2q) / (eff.n_1q + eff.n_2q))
    ok = ok and all(2.5 <= r <= 3.5 for r in ratios)
    verdict(2, "transpiler-equivalence", ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_03_gate_limit_phenomenon():
    aws = SimProvider(target_profile("aria1-aws"))
    accepted = aws.submit(build_benchmark(16, 2**16 - 1), shots=500, clock=0, seed=1)
    rejected = aws.submit(build_benchmark(18, 0), shots=500, clock=0, seed=2)
    azure = SimProvider(target_profile("aria1-azure"))
    wide = azure.submit(build_benchmark(25, 0), shots=500, clock=0, seed=3)
    ok = (
        accepted.status is JobStatus.SUBMITTED
        and rejected.status is JobStatus.ERROR
        and "limit" in rejected.error_message
        and wide.status is JobStatus.SUBMITTED
    )
    verdict(3, "gate-limit-phenomenon", ok)
    assert ok


def _processed_cost(preset, q, shots=500):
    provider = SimProvider(target_profile(preset))
    handle = provider.submit(build_benchmark(q, 1), shots=shots, clock=0, seed=q)
    provider.poll(handle, clock=handle.exec_end)
    return provider.job_cost(handle)


def test_criterion_04_cost_oracles():
    tiny = GateCensus(n_1q=1, n_2q=1)
    ok = str(target_profile("aria1-aws").billing.job_cost(tiny, 500, 2)) == "$15.30"
    ok = ok and str(target_profile("forte1-aws").billing.job_cost(tiny, 500, 2)) == "$40.30"
    ok = ok and str(target_profile("garnet-aws").billing.job_cost(tiny, 500, 2)) == "$1.03"

    hq = target_profile("h1-azure").billing
    ok = ok and str(hq.usd_per_credit.scale(Fraction(2338, 10))) == "$2289.86"

    ionq = target_profile("aria1-azure").billing
    ok = ok and str(ionq.job_cost(tiny, 1, 2)) == "$12.42"
    ok = ok and str(ionq.job_cost(tiny, 1, 2, error_mitigated=True)) == "$97.50"

    # per-shot clouds charge by volume alone: width never moves the bill
    small, large = _processed_cost("aria1-aws", 8), _processed_cost("aria1-aws", 16)
    ok = ok and small == large == Money.from_usd("15.30")

    flat = Money.from_usd("15.30")
    rows = aggregate(processed_record(i, cost=flat) for i in range(4))
    ok = ok and rows[0].cost_std == Money(0) and str(rows[0].cost_std) == "$0.00"
    verdict(4, "cost-oracles", ok)
    assert ok


def test_criterion_05_noise_round_trip():
    start = time.perf_counter()
    q, shots = 8, 100_000
    bench = build_benchmark(q, 0)
    n_2q = census(bench).n_2q
    ok = n_2q == 64
    recovered = []
    for f in (0.999, 0.99, 0.95):
        counts = run_noisy(bench, GlobalDepolarizing(f), shots=shots, seed=round(f * 1000))
        observed = counts.get(ideal_output(q, 0), 0) / shots
        estimate = infer_f2qg(debias_uniform_floor(observed, q), n_2q)
        recovered.append(estimate)
        ok = ok and abs((1 - estimate) - (1 - f)) <= 0.1 * (1 - f)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    extra = ", ".join(f"{v:.5f}" for v in recovered) + f"; {elapsed:.1f}s"
    verdict(5, "noise-round-trip", ok, extra)
    assert ok


def test_criterion_06_hellinger_suite():
    rng = random.Random(20240917)

    def draw():
        keys = rng.sample(range(64), rng.randint(1, 12))
        return {format(k, "06b"): rng.uniform(0.01, 5.0) for k in keys}

    ok = True
    for _ in range(1000):
        p, q = draw(), draw()
        fpq = hellinger_fidelity(p, q)
        ok = ok and abs(fpq - hellinger_fidelity(q, p)) <= 1e-12
        ok = ok and -1e-12 <= fpq <= 1.0 + 1e-12
        ok = ok and abs(hellinger_fidelity(p, p) - 1.0) <= 1e-12
        scaled = {k: 7.25 * v for k, v in p.items()}
        ok = ok and abs(hellinger_fidelity(scaled, q) - fpq) <= 1e-12

    ok = ok and abs(hellinger_fidelity({"0": 3}, {"0": 11}) - 1.0) <= 1e-12
    ok = ok and abs(hellinger_fidelity({"0": 1}, {"1": 1}) - 0.0) <= 1e-12
    ok = ok and abs(hellinger_fidelity({"00": 1}, {"00": 1, "01": 1}) - 0.5) <= 1e-12
    verdict(6, "hellinger-suite", ok)
    assert ok


def _oracle_match(record, key, want):
    name, _, op = key.partition("__")
    value = getattr(record, name)
    if name == "cost":
        value = value.micros
    if not op:
        return value == want
    cmp = {"ge": value >= want, "gt": value > want, "le": value <= want, "lt": value < want}
    return cmp[op]


def test_criterion_07_store_oracle(tmp_path):
    path = tmp_path / "acceptance.jsonl"
    fixture = [processed_record(i) if i % 3 else make_record(i) for i in range(1000)]
    with JobStore(path) as store:
        for record in fixture:
            store.append(record)

    reread = list(JobStore(path).records())
    ok = len(reread) == 1000 and all(a == b for a, b in zip(fixture, reread))

    batteries = [
        {"status": "processed"},
        {"qubits__ge": 8},
        {"cloud": "SimAWS", "qubits__lt": 10},
        {"cost__gt": 0},
        {"success": True},
        {"submitted_at__ge": 30_000, "status": "submitted"},
    ]
    for filters in batteries:
        expect = [r for r in fixture if all(_oracle_match(r, k, v) for k, v in filters.items())]
        expect.sort(key=lambda r: (r.submitted_at, r.job_id))
        got = store.query(**filters)
        ok = ok and got == expect

    # chop mid-record: everything before the torn tail must survive
    data = path.read_bytes()
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[:-17])
    with JobStore(torn) as recovered:
        ok = ok and len(recovered) >= 999
        recovered.append(make_record(2000))
    ok = ok and len(JobStore(torn)) == len(recovered)
    verdict(7, "store-oracle", ok)
    assert ok


CAMPAIGN_FIXTURE = """
[campaign]
qubits = 8..16:2
shots = 500
days = 3
seed = 20240917

[targets]
use = aria1-aws, aria1-azure, h1-azure, garnet-aws
"""


def test_criterion_08_campaign_determinism(tmp_path):
    start = time.perf_counter()
    config_path = tmp_path / "fixture.ini"
    config_path.write_text(CAMPAIGN_FIXTURE)
    cfg = load_config(str(config_path))

    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    run_campaign(cfg, str(first))
    run_campaign(cfg, str(second))
    ok = first.read_bytes() == second.read_bytes()

    records = list(JobStore(first).records())
    ok = ok and len(records) == 3 * 4 * 5  # one record per submission attempt

    processed = [r for r in records if r.status is JobStatus.PROCESSED]
    groups = {(r.qubits, r.cloud, r.target) for r in processed}
    out = tmp_path / "table6.csv"
    rows = write_report("table6", records, str(out))
    ok = ok and rows == len(groups)
    elapsed = time.perf_counter() - start
    verdict(8, "campaign-determinism", ok, f"{len(records)} records, {rows} rows; {elapsed:.1f}s")
    assert ok


def test_criterion_09_availability_semantics():
    held = SimProvider(target_profile("h1-azure"))
    clock = 4 * 3600  # mid-morning, hours before the nightly window opens
    handle = held.submit(build_benchmark(6, 3), shots=100, clock=clock, seed=9)
    schedule = held.target.schedule
    ok = (
        schedule.status_at(clock).state is TargetState.DEGRADED
        and handle.exec_start is not None
        and handle.exec_start >= 17 * 3600
        and schedule.status_at(handle.exec_start).state is TargetState.AVAILABLE
    )

    down = SimProvider(target_profile("aria2-aws"))
    refused = down.submit(build_benchmark(6, 3), shots=100, clock=0, seed=9)
    ok = (
        ok
        and refused.status is JobStatus.UNAVAILABLE
        and down.poll(refused, clock=10 * DAY).status is JobStatus.UNAVAILABLE
        and down.job_cost(refused) == Money(0)
    )
    verdict(9, "availability-semantics", ok)
    assert ok


def test_criterion_10_threshold_binning():
    cut = math.exp(-1)
    sweep = [i / 2000 for i in range(2001)] + [cut, cut - 1e-12, cut + 1e-12]
    ok = all(classify_success(f) == (f >= cut) for f in sweep)
    flags = [classify_success(f) for f in sorted(sweep)]
    ok = ok and flags == sorted(flags)  # single crossing, failures then successes
    ok = ok and classify_success(cut) and not classify_success(cut - 1e-12)
    verdict(10, "threshold-binning", ok)
    assert ok
