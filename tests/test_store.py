import csv
import json
import math
import random

import pytest

from qbench.circuit import GateCensus, ideal_output
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import JobRecord, JobStore, StoreError, default_store_path

TARGETS = ["aria1-aws", "aria1-azure", "h1-azure", "garnet-aws"]


def make_record(i, **over):
    fields = dict(
        job_id=f"job-{i:04d}",
        cloud="SimAWS" if i % 2 else "SimAzure",
        target=TARGETS[i % len(TARGETS)],
        qubits=4 + 2 * (i % 5),
        shots=500,
        seed=1000 + i,
        submitted_at=300 * i,
        status=JobStatus.SUBMITTED,
        cost=Money.zero(),
    )
    fields.update(over)
    return JobRecord(**fields)


def processed_record(i, fidelity=0.9, cost=Money.from_usd("15.30"), **over):
    q = 4 + 2 * (i % 5)
    key = ideal_output(q, 0)
    counts = {key: 450, format(5, f"0{q}b"): 50}
    fields = dict(
        qubits=q,
        status=JobStatus.PROCESSED,
        cost=cost,
        executed_at=300 * i + 900,
        predicted_wait=390.0,
        actual_wait=200.0 + i,
        census=GateCensus(200, 80),
        counts=counts,
        fidelity=fidelity,
        success=fidelity >= math.exp(-1),
    )
    fields.update(over)
    return make_record(i, **fields)


def test_round_trip_value_equal(tmp_path):
    path = tmp_path / "log.jsonl"
    originals = [
        make_record(0),
        processed_record(1),
        make_record(2, status=JobStatus.UNAVAILABLE, error_message="down"),
        make_record(3, status=JobStatus.CANCELED),
        make_record(4, status=JobStatus.ERROR, error_message="gate count 3582 over limit"),
        processed_record(5, fidelity=0.25, cost=Money.from_usd("1.03")),
    ]
    store = JobStore(path)
    for r in originals:
        store.append(r)
    reopened = JobStore(path)
    assert list(reopened.records()) == originals
    assert len(reopened) == len(originals)
    assert reopened.get("job-0003") == originals[3]
    assert "job-0001" in reopened and "missing" not in reopened


def test_get_missing_raises(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    with pytest.raises(StoreError):
        store.get("nope")


def test_lines_are_canonical_json(tmp_path):
    path = tmp_path / "log.jsonl"
    JobStore(path).append(processed_record(0))
    raw = path.read_text().splitlines()
    assert len(raw) == 1
    obj = json.loads(raw[0])
    assert raw[0] == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert obj["status"] == "processed"
    assert obj["cost"] == 15_300_000


def test_duplicate_append_rejected(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    store.append(make_record(0))
    with pytest.raises(StoreError):
        store.append(make_record(0, shots=7))


def test_duplicate_line_in_file_rejected(tmp_path):
    path = tmp_path / "log.jsonl"
    store = JobStore(path)
    store.append(make_record(0))
    line = path.read_text()
    with open(path, "a") as fh:
        fh.write(line)
    with pytest.raises(StoreError):
        JobStore(path)


def test_torn_tail_is_dropped_and_repaired(tmp_path):
    path = tmp_path / "log.jsonl"
    store = JobStore(path)
    for i in range(5):
        store.append(make_record(i))
    with open(path, "ab") as fh:
        fh.write(b'{"job_id": "job-9999", "cloud": "SimA')  # crash mid-write
    recovered = JobStore(path)
    assert len(recovered) == 5
    assert path.read_bytes().endswith(b"\n")
    # the repair is durable: appending continues cleanly
    recovered.append(make_record(5))
    assert len(JobStore(path)) == 6


def test_corrupt_complete_line_is_an_error(tmp_path):
    path = tmp_path / "log.jsonl"
    store = JobStore(path)
    store.append(make_record(0))
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    with pytest.raises(StoreError) as err:
        JobStore(path)
    assert ":2:" in str(err.value)


def test_append_validates(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    bad = [
        make_record(0, qubits=0),
        make_record(1, shots=0),
        make_record(2, cost=Money(-1)),
        make_record(3, status=JobStatus.PROCESSED),  # no counts/fidelity/executed_at
        processed_record(4, counts={"0100": 1}),  # counts do not sum to shots
        processed_record(5, fidelity=1.5),
        processed_record(6, fidelity=0.2, success=True),  # contradicts threshold
        processed_record(7, executed_at=None),
        make_record(8, status=JobStatus.UNAVAILABLE, cost=Money.from_usd("1.00")),
    ]
    for record in bad:
        with pytest.raises(StoreError):
            store.append(record)
    assert len(store) == 0


def _random_fixture(count, seed=7):
    rng = random.Random(seed)
    records = []
    for i in range(count):
        status = rng.choice(list(JobStatus))
        if status is JobStatus.PROCESSED:
            fid = round(rng.random(), 6)
            r = processed_record(
                i,
                fidelity=fid,
                cost=Money(rng.randrange(0, 50_000_000)),
                submitted_at=rng.randrange(0, 100_000),
            )
        else:
            r = make_record(
                i,
                status=status,
                submitted_at=rng.randrange(0, 100_000),
                cost=Money.zero(),
            )
        records.append(r)
    return records


FILTER_BATTERY = [
    {"target": "h1-azure"},
    {"status": "processed"},
    {"status": "processed", "cloud": "SimAWS"},
    {"qubits": 8},
    {"qubits__ge": 8},
    {"qubits__gt": 8, "submitted_at__le": 50_000},
    {"submitted_at__ge": 20_000, "submitted_at__lt": 70_000},
    {"fidelity__ge": 0.5},
    {"cost__gt": 10_000_000},
    {"success": True},
    {"job_id": "job-0042"},
]


def _flatten(record, name):
    value = getattr(record, name)
    if isinstance(value, JobStatus):
        return value.value
    if isinstance(value, Money):
        return value.micros
    if isinstance(value, GateCensus):
        return value.as_dict()
    return value


def _scan(records, filters):
    out = []
    for r in records:
        keep = True
        for key, want in filters.items():
            name, _, op = key.partition("__")
            have = _flatten(r, name)
            if not op:
                keep = keep and have == want
            elif have is None:
                keep = False
            else:
                keep = keep and {
                    "ge": have >= want,
                    "gt": have > want,
                    "le": have <= want,
                    "lt": have < want,
                }[op]
        if keep:
            out.append(r)
    out.sort(key=lambda r: (r.submitted_at, r.job_id))
    return out


def test_query_matches_linear_scan_oracle(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    fixture = _random_fixture(300)
    for r in fixture:
        store.append(r)
    for filters in FILTER_BATTERY:
        assert store.query(**filters) == _scan(fixture, filters), filters
    assert store.query() == _scan(fixture, {})


def test_query_rejects_unknown_fields_and_ops(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    store.append(make_record(0))
    with pytest.raises(StoreError):
        store.query(flavor="salty")
    with pytest.raises(StoreError):
        store.query(qubits__between=3)


def _money_store(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    store.append(make_record(0))
    store.append(processed_record(1, cost=Money.from_usd("1.03")))
    store.append(processed_record(2, cost=Money.from_usd("15.30")))
    return store


def test_query_equality_accepts_money(tmp_path):
    store = _money_store(tmp_path)
    assert [r.job_id for r in store.query(cost=Money.from_usd("1.03"))] == ["job-0001"]
    # the stored micro-USD form still works
    assert [r.job_id for r in store.query(cost=1_030_000)] == ["job-0001"]


def test_query_range_accepts_money(tmp_path):
    store = _money_store(tmp_path)
    assert [r.job_id for r in store.query(cost__gt=Money(5))] == ["job-0001", "job-0002"]
    assert [r.job_id for r in store.query(cost__ge=Money.from_usd("2"))] == ["job-0002"]
    assert [r.job_id for r in store.query(cost__lt=Money.from_usd("1.03"))] == ["job-0000"]


def test_query_accepts_job_status_values(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    store.append(make_record(0))
    store.append(processed_record(1))
    store.append(make_record(2, status=JobStatus.ERROR, error_message="too wide"))
    assert [r.job_id for r in store.query(status=JobStatus.ERROR)] == ["job-0002"]
    assert store.query(status=JobStatus.PROCESSED) == store.query(status="processed")
    assert store.query(status=JobStatus.CANCELED) == []


def test_export_csv_round_trip(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    tricky = processed_record(0, error_message='queue said "later", twice')
    store.append(tricky)
    store.append(make_record(1))
    out = tmp_path / "dump.csv"
    rows = store.export_csv(out)
    assert rows == 2
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["job_id"] == "job-0000"
    assert parsed[0]["error_message"] == 'queue said "later", twice'
    assert json.loads(parsed[0]["counts"]) == tricky.counts
    assert parsed[0]["cost"] == "15300000"
    assert parsed[1]["counts"] == ""


def test_export_csv_columns_and_filters(tmp_path):
    store = JobStore(tmp_path / "log.jsonl")
    for r in _random_fixture(40, seed=3):
        store.append(r)
    out = tmp_path / "dump.csv"
    rows = store.export_csv(out, columns=["job_id", "status"], status="processed")
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["job_id", "status"]
    assert len(parsed) - 1 == rows
    assert all(row[1] == "processed" for row in parsed[1:])
    with pytest.raises(StoreError):
        store.export_csv(out, columns=["job_id", "nope"])


def test_default_store_path(monkeypatch, tmp_path):
    monkeypatch.setenv("QBENCH_STORE", str(tmp_path / "env.jsonl"))
    assert str(default_store_path()) == str(tmp_path / "env.jsonl")
    monkeypatch.delenv("QBENCH_STORE")
    assert str(default_store_path()).endswith("qbench_jobs.jsonl")


def test_empty_store(tmp_path):
    store = JobStore(tmp_path / "fresh.jsonl")
    assert len(store) == 0
    assert store.query() == []
    assert store.export_csv(tmp_path / "empty.csv") == 0


def _bump_one_count(obj):
    key = next(iter(obj["counts"]))
    obj["counts"][key] += 1


# hand edits of a valid processed record line, each one that append refuses
MALFORMED_EDITS = {
    "qubits-as-text": lambda obj: obj.update(qubits=str(obj["qubits"])),
    "float-cost": lambda obj: obj.update(cost=1.5),
    "processed-without-results": lambda obj: obj.update(counts=None, fidelity=None, success=None),
    "counts-miss-shots": _bump_one_count,
    "census-total-off-by-one": lambda obj: obj["census"].update(total=obj["census"]["total"] + 1),
    "null-job-id": lambda obj: obj.update(job_id=None),
    "missing-key": lambda obj: obj.pop("seed"),
}


def write_malformed_store(path, case):
    """Two good records, then the edited one on line 3."""
    store = JobStore(path)
    store.append(make_record(0))
    store.append(processed_record(1))
    obj = processed_record(2).to_dict()
    MALFORMED_EDITS[case](obj)
    with open(path, "a") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return path


@pytest.mark.parametrize("case", sorted(MALFORMED_EDITS))
def test_malformed_line_names_path_and_line(tmp_path, case):
    path = write_malformed_store(tmp_path / "log.jsonl", case)
    with pytest.raises(StoreError, match=f"^{path}:3: "):
        JobStore(path)


@pytest.mark.parametrize(
    "value, ok",
    [(3, True), (3.0, True), (True, False), ("3", False)],
    ids=["int", "float", "bool", "text"],
)
def test_float_field_takes_an_int_but_not_a_bool(tmp_path, value, ok):
    obj = processed_record(0).to_dict()
    obj["actual_wait"] = value
    if ok:
        assert JobRecord.from_dict(obj).actual_wait == value
    else:
        with pytest.raises(StoreError, match="actual_wait"):
            JobRecord.from_dict(obj)


def test_int_field_refuses_a_bool():
    obj = make_record(0).to_dict()
    obj["submitted_at"] = True
    with pytest.raises(StoreError, match="submitted_at"):
        JobRecord.from_dict(obj)
