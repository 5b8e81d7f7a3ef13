import csv
import json
import math
import random
from pathlib import Path

import pytest

from qbench import store as store_module
from qbench.circuit import GateCensus, ideal_output
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import JobRecord, JobStore, StoreError

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


def write_store(path, records):
    """A store at ``path`` that appended ``records``; its append handle is closed."""
    with JobStore(path) as store:
        for r in records:
            store.append(r)
    return store


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
    write_store(path, originals)
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
    write_store(path, [processed_record(0)])
    raw = path.read_text().splitlines()
    assert len(raw) == 1
    obj = json.loads(raw[0])
    assert raw[0] == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert obj["status"] == "processed"
    assert obj["cost"] == 15_300_000


def test_duplicate_append_rejected(tmp_path):
    with JobStore(tmp_path / "log.jsonl") as store:
        store.append(make_record(0))
        with pytest.raises(StoreError):
            store.append(make_record(0, shots=7))


def test_duplicate_line_in_file_rejected(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(0)])
    line = path.read_text()
    with open(path, "a") as fh:
        fh.write(line)
    with pytest.raises(StoreError):
        JobStore(path)


def test_torn_tail_is_dropped_and_repaired(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(i) for i in range(5)])
    with open(path, "ab") as fh:
        fh.write(b'{"job_id": "job-9999", "cloud": "SimA')  # crash mid-write
    with JobStore(path) as recovered:
        assert len(recovered) == 5
        # the repair is durable: appending continues cleanly
        recovered.append(make_record(5))
        assert path.read_bytes().endswith(b"\n")
    assert len(JobStore(path)) == 6


def test_open_of_a_torn_store_leaves_its_bytes_and_the_first_append_cuts_the_fragment(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(i) for i in range(3)])
    whole = path.read_bytes()
    path.write_bytes(whole + b'{"job_id": "job-9999", "cloud": "SimA')
    torn = path.read_bytes()
    with JobStore(path) as store:
        assert len(store) == 3
        assert path.read_bytes() == torn  # an open only reads
        store.query()
        store.export_csv(tmp_path / "out.csv")
        assert path.read_bytes() == torn
        store.append(make_record(3))
        line = json.dumps(make_record(3).to_dict(), sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == whole + line.encode() + b"\n"
        store.append(make_record(4))  # the cut happens once
    assert [r.job_id for r in JobStore(path).records()] == [f"job-{i:04d}" for i in range(5)]


def test_corrupt_complete_line_is_an_error(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(0)])
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    with pytest.raises(StoreError) as err:
        JobStore(path)
    assert ":2:" in str(err.value)


def test_line_that_is_not_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(0)])
    with open(path, "ab") as fh:
        fh.write(b'{"job_id":"\xff"}\n')
    with pytest.raises(StoreError, match=f"^{path}:2: record line is not UTF-8$"):
        JobStore(path)


def test_failed_open_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [make_record(0)])
    with open(path, "ab") as fh:
        fh.write(b"this is not json\n" + b'{"job_id": "job-9999", "cloud": "SimA')
    before = path.read_bytes()
    with pytest.raises(StoreError, match=":2: corrupt record line"):
        JobStore(path)
    assert path.read_bytes() == before


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


# records whose stored form the open refuses; most pass their own validate()
APPEND_REFUSES = {
    # a job that never ran holds no result, not even one of the three
    "error-with-fidelity": make_record(0, status=JobStatus.ERROR, fidelity=0.5),
    "unavailable-with-results": make_record(
        0, status=JobStatus.UNAVAILABLE, success=False, counts={"0": 1}
    ),
    "bool-predicted-wait": make_record(0, predicted_wait=True),
    "int-cloud": make_record(0, cloud=5),
    "float-cost": make_record(0, cost=Money(1.5)),
    "float-census": make_record(0, census=GateCensus(1.0, 2.0)),
    "bool-count": processed_record(0, shots=1, counts={"0101": True}),
    # validate() skips its unavailable check for a status held as text
    "billed-unavailable-text": make_record(0, status="unavailable", cost=Money(5)),
    # a line cannot hold these: JSON writes the key 6 as "6", and cannot sort 6 with "6"
    "int-count-key": processed_record(0, counts={6: 500}),
    "mixed-count-keys": processed_record(0, counts={6: 250, "6": 250}),
    # a processed record whose counts sum to shots but hold a count below 1, or without a census
    "negative-count": processed_record(0, counts={"0000": 501, "0001": -1}),
    "zero-count": processed_record(0, counts={"0000": 500, "0011": 0}),
    "processed-without-census": processed_record(0, census=None),
}

# JSON object keys are always text, so only the Python API can hand these in
KEYS_NO_LINE_HOLDS = {"int-count-key", "mixed-count-keys"}


@pytest.mark.parametrize("case", sorted(APPEND_REFUSES))
def test_append_refuses_what_the_open_refuses(tmp_path, case):
    record = APPEND_REFUSES[case]
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        store.append(make_record(1))
        before = path.read_bytes()
        with pytest.raises(StoreError) as refused:
            store.append(record)
    assert path.read_bytes() == before
    assert record.job_id not in store and len(JobStore(path)) == 1
    if case in KEYS_NO_LINE_HOLDS:
        assert str(refused.value) == "counts: keys are not all str"
        return

    # the same record written by hand fails the open with the same message
    with open(path, "a") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(StoreError) as opened:
        JobStore(path)
    assert str(opened.value) == f"{path}:2: {refused.value}"


@pytest.mark.parametrize("field", ["predicted_wait", "actual_wait"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_wait_is_refused_by_append_and_by_the_open(tmp_path, field, value):
    record = processed_record(0, **{field: value})
    path = tmp_path / "log.jsonl"
    store = JobStore(path)
    with pytest.raises(StoreError, match=f"^job-0000: {field} is not finite$"):
        store.append(record)
    assert path.read_bytes() == b""

    # json writes NaN and Infinity bare and reads them back; the open refuses them
    with open(path, "a") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(StoreError, match=f"^{path}:1: job-0000: {field} is not finite$"):
        JobStore(path)


def test_append_holds_the_record_a_reopen_reads(tmp_path):
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        store.append(make_record(0, status="error", cost=5))  # stored forms, not the field types
    held = store.get("job-0000")
    assert held.status is JobStatus.ERROR and held.cost == Money(5)
    assert JobStore(path).get("job-0000") == held


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
    fixture = _random_fixture(300)
    store = write_store(tmp_path / "log.jsonl", fixture)
    for filters in FILTER_BATTERY:
        assert store.query(**filters) == _scan(fixture, filters), filters
    assert store.query() == _scan(fixture, {})


def test_query_rejects_unknown_fields_and_ops(tmp_path):
    store = write_store(tmp_path / "log.jsonl", [make_record(0)])
    with pytest.raises(StoreError):
        store.query(flavor="salty")
    with pytest.raises(StoreError):
        store.query(qubits__between=3)


def _money_store(tmp_path):
    return write_store(
        tmp_path / "log.jsonl",
        [
            make_record(0),
            processed_record(1, cost=Money.from_usd("1.03")),
            processed_record(2, cost=Money.from_usd("15.30")),
        ],
    )


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
    store = write_store(
        tmp_path / "log.jsonl",
        [
            make_record(0),
            processed_record(1),
            make_record(2, status=JobStatus.ERROR, error_message="too wide"),
        ],
    )
    assert [r.job_id for r in store.query(status=JobStatus.ERROR)] == ["job-0002"]
    assert store.query(status=JobStatus.PROCESSED) == store.query(status="processed")
    assert store.query(status=JobStatus.CANCELED) == []


def test_query_takes_each_field_type_or_its_stored_form(tmp_path):
    done = processed_record(1)
    store = write_store(tmp_path / "log.jsonl", [make_record(0), done])
    ids = lambda **filters: [r.job_id for r in store.query(**filters)]
    assert ids(fidelity=None) == ["job-0000"]  # None matches an optional field
    assert ids(fidelity__ge=0) == ["job-0001"]  # an int passes for a float
    assert ids(census=GateCensus(200, 80)) == ids(census=done.census.as_dict()) == ["job-0001"]
    assert ids(counts=done.counts) == ["job-0001"]
    assert ids(success=True) == ids(status="processed") == ["job-0001"]


@pytest.mark.parametrize(
    "filters",
    [
        {"qubits": "4"},
        {"qubits__ge": "4"},
        {"qubits": True},  # a bool never passes for an int
        {"qubits": 4.0},
        {"qubits": None},  # not an optional field
        {"status": "procesed"},
        {"cost__gt": "x"},
        {"cost": 1.03},  # neither Money nor micro-USD
        {"census__ge": {}},
        {"census__lt": GateCensus(1, 1)},
        {"counts__gt": {}},
        {"fidelity__ge": None},
        {"fidelity": "0.9"},
        {"success": 1},
    ],
    ids=repr,
)
def test_query_refuses_a_mistyped_filter(tmp_path, filters):
    store = write_store(tmp_path / "log.jsonl", [make_record(0), processed_record(1)])
    (key,) = filters
    field = key.partition("__")[0]
    with pytest.raises(StoreError, match=f"query field '{field}'"):
        store.query(**filters)
    with pytest.raises(StoreError, match=f"query field '{field}'"):
        store.export_csv(tmp_path / "out.csv", **filters)


def test_query_checks_its_filters_with_no_record_to_test(tmp_path):
    store = JobStore(tmp_path / "empty.jsonl")
    with pytest.raises(StoreError, match="query field 'qubits'"):
        store.query(qubits__ge="4")


def test_export_csv_round_trip(tmp_path):
    tricky = processed_record(0, error_message='queue said "later", twice')
    store = write_store(tmp_path / "log.jsonl", [tricky, make_record(1)])
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
    store = write_store(tmp_path / "log.jsonl", _random_fixture(40, seed=3))
    out = tmp_path / "dump.csv"
    rows = store.export_csv(out, columns=["job_id", "status"], status="processed")
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["job_id", "status"]
    assert len(parsed) - 1 == rows
    assert all(row[1] == "processed" for row in parsed[1:])
    with pytest.raises(StoreError):
        store.export_csv(out, columns=["job_id", "nope"])


def test_empty_store(tmp_path):
    store = JobStore(tmp_path / "fresh.jsonl")
    assert len(store) == 0
    assert store.query() == []
    assert store.export_csv(tmp_path / "empty.csv") == 0


def _bump_one_count(obj):
    key = next(iter(obj["counts"]))
    obj["counts"][key] += 1


def _retype_one_count(to):
    def edit(obj):
        key = next(iter(obj["counts"]))
        obj["counts"][key] = to(obj["counts"][key])

    return edit


def _counts(obj, moved):
    """Counts summing to shots: ``moved`` added to the first outcome, taken from a new one."""
    first = next(iter(obj["counts"]))
    return {first: obj["counts"][first] + moved, "1" * obj["qubits"]: -moved}


# hand edits of a valid processed record line, each one that append refuses
MALFORMED_EDITS = {
    "qubits-as-text": lambda obj: obj.update(qubits=str(obj["qubits"])),
    "float-cost": lambda obj: obj.update(cost=1.5),
    "processed-without-results": lambda obj: obj.update(counts=None, fidelity=None, success=None),
    "counts-miss-shots": _bump_one_count,
    "census-total-off-by-one": lambda obj: obj["census"].update(total=obj["census"]["total"] + 1),
    "null-job-id": lambda obj: obj.update(job_id=None),
    "missing-key": lambda obj: obj.pop("seed"),
    "unknown-status": lambda obj: obj.update(status="finished"),
    "count-as-float": _retype_one_count(float),
    "count-as-bool": _retype_one_count(bool),
    "census-extra-key": lambda obj: obj["census"].update(n_3q=0),
    "predicted-wait-nan": lambda obj: obj.update(predicted_wait=math.nan),
    "actual-wait-infinity": lambda obj: obj.update(actual_wait=math.inf),
    "error-with-fidelity": lambda obj: obj.update(status="error", counts=None, success=None),
    "unavailable-with-results": lambda obj: obj.update(status="unavailable", cost=0, fidelity=None),
    # the counts still sum to shots
    "negative-count": lambda obj: obj["counts"].update(_counts(obj, 1)),
    "zero-count": lambda obj: obj["counts"].update(_counts(obj, 0)),
    "processed-without-census": lambda obj: obj.update(census=None),
}


def write_malformed_store(path, case):
    """Two good records, then the edited one on line 3."""
    with JobStore(path) as store:
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


class RecordingOpen:
    """Stands in for ``open`` in ``store``, keeping each file it opens with its mode."""

    def __init__(self):
        self.files = []  # (path, mode, file object)

    def __call__(self, file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        self.files.append((Path(file), mode, fh))
        return fh

    def appenders(self):
        return [fh for _, mode, fh in self.files if "a" in mode]


def test_store_appends_through_one_handle_until_closed(tmp_path, monkeypatch):
    opens = RecordingOpen()
    monkeypatch.setattr(store_module, "open", opens, raising=False)
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        for i in range(3):
            store.append(make_record(i))
            # each line is on disk once append returns
            assert len(path.read_bytes().splitlines()) == i + 1
        (appender,) = opens.appenders()
        assert not appender.closed
    assert appender.closed
    store.close()  # closing twice is harmless
    with store:
        store.append(make_record(3))  # and a later append opens the file again
    assert len(opens.appenders()) == 2 and all(fh.closed for fh in opens.appenders())
    assert [r.job_id for r in JobStore(path).records()] == [f"job-{i:04d}" for i in range(4)]


def test_reading_a_store_never_opens_it_to_write(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        for r in _random_fixture(20):
            store.append(r)
    opens = RecordingOpen()
    monkeypatch.setattr(store_module, "open", opens, raising=False)
    with JobStore(path) as store:
        store.query(status="processed")
        store.export_csv(tmp_path / "out.csv")
    assert [mode for file, mode, _ in opens.files if file == path] == ["rb"]
