"""Differential oracles for the ``JobRecord`` codec in ``store``.

``oracle_to_dict`` and ``oracle_from_dict`` are the earlier hand-written
codec: one line per field, each type's stored form spelled out.
``walk_to_dict`` and ``walk_from_dict`` are the codec that came after it and
before the generated one: a walk over the annotations at every call, through
``_codec`` and ``_decode_object``.  The generated codec must write the same
objects as both, read them back to equal records, and refuse what the walk
refuses with the same text.  There is one store reader per field set: the
campaign's ``_RowStore`` of no fields runs the same checks without building
the record, a report's holds a row, and every field's holds the record.  Each
must refuse what ``JobStore`` refuses, in the same words, and only the reader
of every field may build a record.
"""

import contextlib
import dataclasses
import json
import math
from functools import partial
from operator import attrgetter
from types import NoneType, SimpleNamespace
from typing import Any, get_args, get_origin

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qbench.analysis import _REPORTS
from qbench.circuit import GateCensus
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import (
    RECORD_FIELDS,
    SUCCESS_THRESHOLD,
    JobRecord,
    JobStore,
    StoreError,
    _RowStore,
    _VALIDATED,
    _validate,
)
from test_report_oracle import every_status_records
from test_store import _forged_money, _random_fixture, make_record, processed_record, write_store


def oracle_to_dict(r):
    return {
        "job_id": r.job_id,
        "cloud": r.cloud,
        "target": r.target,
        "qubits": r.qubits,
        "shots": r.shots,
        "seed": r.seed,
        "submitted_at": r.submitted_at,
        "executed_at": r.executed_at,
        "predicted_wait": r.predicted_wait,
        "actual_wait": r.actual_wait,
        "status": r.status.value,
        "census": None if r.census is None else r.census.as_dict(),
        "counts": r.counts,
        "fidelity": r.fidelity,
        "success": r.success,
        "cost": r.cost.micros,
        "error_message": r.error_message,
    }


def oracle_from_dict(obj):
    try:
        cen = obj["census"]
        census = None if cen is None else GateCensus(n_1q=cen["n_1q"], n_2q=cen["n_2q"])
        if census is not None and census.total != cen["total"]:
            raise StoreError(f"census total mismatch in {obj.get('job_id')}")
        return JobRecord(
            job_id=obj["job_id"],
            cloud=obj["cloud"],
            target=obj["target"],
            qubits=obj["qubits"],
            shots=obj["shots"],
            seed=obj["seed"],
            submitted_at=obj["submitted_at"],
            executed_at=obj["executed_at"],
            predicted_wait=obj["predicted_wait"],
            actual_wait=obj["actual_wait"],
            status=JobStatus(obj["status"]),
            census=census,
            counts=obj["counts"],
            fidelity=obj["fidelity"],
            success=obj["success"],
            cost=Money(obj["cost"]),
            error_message=obj["error_message"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed record object: {exc}") from exc


def _census_from_json(obj):
    census = GateCensus(n_1q=obj.get("n_1q", 0), n_2q=obj.get("n_2q", 0))
    if census.as_dict() != obj:  # a missing or unknown key, or a wrong total
        raise ValueError(f"{obj} is not {census.as_dict()}")
    return census


# field types not stored as themselves: type -> (JSON type, to JSON, from JSON)
_STORED_AS = {
    JobStatus: (str, attrgetter("value"), JobStatus),
    Money: (int, attrgetter("micros"), Money),
    GateCensus: (dict[str, int], GateCensus.as_dict, _census_from_json),
}


def _flat(value):
    codec = _STORED_AS.get(type(value))
    return value if codec is None else codec[1](value)


def _codec(typ, optional):
    """(the JSON types a stored value may have, its check-and-decode or None)."""
    json_type, _, decode = _STORED_AS.get(typ, (typ, None, None))
    if get_origin(json_type) is dict:  # JSON object keys are always text
        json_type, decode = dict, partial(_decode_object, get_args(json_type), decode)
    # an int passes for a float, a bool never for an int
    types = {json_type, int} if json_type is float else {json_type}
    return types | {NoneType} if optional else types, decode


def _decode_object(key_value_types, decode, obj):
    key_type, value_type = key_value_types
    if not set(map(type, obj.values())) <= {value_type}:
        raise ValueError(f"values are not all {value_type.__name__}")
    # the walk checked values only; keys are checked since the generated codec came
    if not set(map(type, obj)) <= {key_type}:
        raise ValueError(f"keys are not all {key_type.__name__}")
    return obj if decode is None else decode(obj)


_CODECS = {name: _codec(typ, optional) for name, (typ, optional) in RECORD_FIELDS.items()}


def walk_to_dict(record) -> dict[str, Any]:
    return {name: _flat(getattr(record, name)) for name in RECORD_FIELDS}


def walk_field(name, value):
    """The walk's check of one field's stored value: the value decoded, or StoreError."""
    types, decode = _CODECS[name]
    if type(value) not in types:
        typ = RECORD_FIELDS[name][0]
        raise StoreError(f"{name} holds {value!r:.40}, not a stored {typ.__name__}")
    if decode is None or value is None:
        return value
    try:
        return decode(value)
    except ValueError as exc:
        raise StoreError(f"{name}: {exc}") from exc


def walk_from_dict(obj) -> JobRecord:
    if type(obj) is not dict:
        raise StoreError("a record line must hold a JSON object")
    if obj.keys() != RECORD_FIELDS.keys():
        raise StoreError(f"missing or unknown keys {sorted(obj.keys() ^ RECORD_FIELDS.keys())}")
    record = JobRecord(**{name: walk_field(name, obj[name]) for name in _CODECS})
    # the rules across fields themselves: ``validate`` runs the generated reader this checks
    _validate(*attrgetter(*_VALIDATED)(record))
    return record


def _line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


FIXTURES = {
    "every_status": every_status_records,
    "random": lambda: _random_fixture(300, seed=11),
    "census": lambda: [
        make_record(0, status=JobStatus.ERROR, census=GateCensus(3000, 1200), error_message="x"),
        processed_record(1, census=GateCensus(0, 0), predicted_wait=None),
        processed_record(2, cost=Money(0), error_message='said "later"'),
    ],
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_to_dict_matches_oracle(fixture):
    for r in FIXTURES[fixture]():
        assert r.to_dict() == oracle_to_dict(r)
        assert _line(r.to_dict()) == _line(oracle_to_dict(r))


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_from_dict_reads_oracle_objects(fixture):
    for r in FIXTURES[fixture]():
        stored = json.loads(_line(oracle_to_dict(r)))
        assert JobRecord.from_dict(stored) == r
        assert JobRecord.from_dict(stored) == oracle_from_dict(stored)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_store_lines_match_oracle(fixture, tmp_path):
    records = FIXTURES[fixture]()
    with JobStore(tmp_path / "log.jsonl") as store:
        for r in records:
            store.append(r)
    want = "".join(_line(oracle_to_dict(r)) + "\n" for r in records)
    assert (tmp_path / "log.jsonl").read_text() == want
    assert list(JobStore(tmp_path / "log.jsonl").records()) == records


# --- the generated codec against the annotation walk, on drawn inputs --------

TEXT = st.text(max_size=6)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.floats(allow_nan=False), TEXT
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(TEXT, JSON_SCALARS, max_size=3),
)
CENSUSES = st.builds(GateCensus, st.integers(0, 10**4), st.integers(0, 10**4))
# anything a caller of the Python API could put in a field
ANY_VALUE = st.one_of(
    JSON_VALUES,
    st.floats(),
    st.builds(Money, st.integers(-10, 10**8)),
    st.builds(_forged_money, st.floats(0, 10)),  # a float past Money's own check
    st.sampled_from(list(JobStatus)),
    CENSUSES,
    st.dictionaries(st.integers(0, 64) | TEXT, st.integers(0, 500), max_size=3),
)


@st.composite
def records(draw):
    """A record ``validate`` passes, of any status."""
    status = draw(st.sampled_from(list(JobStatus)))
    shots = draw(st.integers(1, 1000))
    counts = fidelity = success = executed_at = actual_wait = None
    if status is JobStatus.PROCESSED:
        bitstrings = st.text("01", min_size=1, max_size=8)
        keys = draw(st.lists(bitstrings, min_size=1, max_size=min(6, shots), unique=True))
        # distinct cuts inside (0, shots), so every outcome is seen at least once
        cut = st.integers(1, max(1, shots - 1))
        n_cuts = len(keys) - 1
        cuts = sorted(draw(st.lists(cut, min_size=n_cuts, max_size=n_cuts, unique=True)))
        counts = {k: hi - lo for k, lo, hi in zip(keys, [0, *cuts], [*cuts, shots])}
        fidelity = draw(st.floats(0, 1))
        success = fidelity >= SUCCESS_THRESHOLD
        executed_at = draw(st.integers(0, 10**7))
        actual_wait = draw(st.floats(0, 1e6) | st.integers(0, 10**6))
    return JobRecord(
        job_id=draw(TEXT),
        cloud=draw(st.sampled_from(["SimAWS", "SimAzure"])),
        target=draw(TEXT),
        qubits=draw(st.integers(1, 60)),
        shots=shots,
        seed=draw(st.integers(0, 2**64 - 1)),
        submitted_at=draw(st.integers(0, 10**7)),
        status=status,
        cost=Money(0 if status is JobStatus.UNAVAILABLE else draw(st.integers(0, 10**9))),
        executed_at=executed_at,
        predicted_wait=draw(st.none() | st.floats(0, 1e6)),
        actual_wait=actual_wait,
        census=draw(CENSUSES if status is JobStatus.PROCESSED else st.none() | CENSUSES),
        counts=counts,
        fidelity=fidelity,
        success=success,
        error_message=draw(st.none() | TEXT),
    )


def _outcome(fn, arg):
    """What ``fn`` made of ``arg``: its repr (NaN equals itself there), or its refusal."""
    try:
        return "made", repr(fn(arg))
    except StoreError as exc:
        return "refused", str(exc)


def _encoded(stored):
    """The line of a stored object, or how the JSON encoder refused it."""
    try:
        return _line(stored)
    except (TypeError, ValueError) as exc:  # e.g. counts keys 6 and "6" do not sort
        return type(exc).__name__, str(exc)


INT_FIELDS = [name for name, (typ, _) in RECORD_FIELDS.items() if typ is int]
FLOAT_FIELDS = [name for name, (typ, _) in RECORD_FIELDS.items() if typ is float]
FIELDS = st.sampled_from(list(RECORD_FIELDS))


def _set(obj, name, value):
    return {**obj, name: value}


def _retyped(names, values):
    """A corruption that sets one of the fields ``names`` to a drawn value."""
    return lambda obj, draw: _set(obj, draw(st.sampled_from(names)), draw(values))


def _drop(obj, draw):
    name = draw(FIELDS)
    return {k: v for k, v in obj.items() if k != name}


def _extra_key(obj, draw):
    return _set(obj, draw(TEXT.filter(lambda k: k not in obj)), draw(JSON_VALUES))


def _bad_total(obj, draw):
    n_1q, n_2q = draw(st.integers(0, 100)), draw(st.integers(0, 100))
    total = draw(st.integers(0, 300).filter(lambda t: t != n_1q + n_2q))
    return _set(obj, "census", {"n_1q": n_1q, "n_2q": n_2q, "total": total})


def _negative_census(obj, draw):
    """A census whose keys and total are right but that holds a count below 0."""
    n_1q, n_2q = draw(st.integers(-100, 100)), draw(st.integers(-100, -1))
    n_1q, n_2q = draw(st.permutations([n_1q, n_2q]))
    return _set(obj, "census", {"n_1q": n_1q, "n_2q": n_2q, "total": n_1q + n_2q})


def _census_keys(obj, draw):
    keys = st.sampled_from(["n_1q", "n_2q", "total", "n_3q", 1])
    return _set(obj, "census", {k: draw(st.integers(0, 100)) for k in draw(st.sets(keys))})


def _counts_keys(obj, draw):
    """Counts of the right total whose keys are not all text, as only the Python API can hold."""
    shots = obj["shots"] if type(obj["shots"]) is int else 1
    key = draw(st.integers(0, 64))
    shapes = [{key: shots}, {key: shots - 1, str(key): 1}, {str(key): shots, None: 0}]
    return _set(obj, "counts", draw(st.sampled_from(shapes)))


# each a way a stored object can be wrong: obj, draw -> the corrupted object
CORRUPTIONS = {
    "any-json-type": _retyped(list(RECORD_FIELDS), JSON_VALUES),
    "any-value": _retyped(list(RECORD_FIELDS), ANY_VALUE),
    "bool-for-int": _retyped(INT_FIELDS, st.booleans()),
    "int-for-float": _retyped(FLOAT_FIELDS, st.integers(-5, 5)),
    "missing-key": _drop,
    "extra-key": _extra_key,
    "unknown-status": _retyped(["status"], TEXT),
    "census-total": _bad_total,
    "census-negative": _negative_census,
    "census-keys": _census_keys,
    "counts-keys": _counts_keys,
    "non-finite-float": _retyped(FLOAT_FIELDS, st.sampled_from([math.nan, math.inf, -math.inf])),
    "not-an-object": lambda obj, draw: draw(JSON_VALUES.filter(lambda v: type(v) is not dict)),
}

CODEC_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@CODEC_SETTINGS
@given(records())
def test_generated_codec_round_trips_as_the_walk_does(record):
    stored = record.to_dict()
    assert stored == walk_to_dict(record) == oracle_to_dict(record)
    assert _line(stored) == _line(walk_to_dict(record))
    read = json.loads(_line(stored))
    assert JobRecord.from_dict(read) == walk_from_dict(read) == record
    assert JobRecord.from_dict(stored) == record


@CODEC_SETTINGS
@given(records(), FIELDS, ANY_VALUE)
def test_generated_encoder_flattens_any_value_as_the_walk_does(record, name, value):
    record = dataclasses.replace(record, **{name: value})
    stored = record.to_dict()
    assert repr(stored) == repr(walk_to_dict(record))
    assert _encoded(stored) == _encoded(walk_to_dict(record))
    assert _outcome(JobRecord.from_dict, stored) == _outcome(walk_from_dict, stored)


@CODEC_SETTINGS
@given(records(), FIELDS, ANY_VALUE)
def test_validate_refuses_any_value_as_append_does(scratch_dir, record, name, value):
    """``validate`` refuses a record exactly when ``append`` does, in the same words,
    whatever a field holds; it raises nothing but StoreError."""
    record = dataclasses.replace(record, **{name: value})
    appended = _appended(JobStore, scratch_dir / "log.jsonl", record.to_dict())
    want = ("made", "None") if appended[0] == "made" else appended
    assert _outcome(JobRecord.validate, record) == want


@CODEC_SETTINGS
@given(records(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_generated_decoder_refuses_as_the_walk_does(record, kind, data):
    obj = CORRUPTIONS[kind](record.to_dict(), data.draw)
    assert _outcome(JobRecord.from_dict, obj) == _outcome(walk_from_dict, obj)


@contextlib.contextmanager
def records_built():
    """A list that grows by one for each ``JobRecord`` constructed inside the block."""
    built, init = [], JobRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(JobRecord, "__init__", counted)
        yield built


def _appended(store_type, path, obj):
    """What ``append`` of a record whose stored form is ``obj`` made of a new store at
    ``path``: the bytes it wrote, or its refusal.  ``append`` reads a record only
    through ``to_dict``, so a stand-in hands it any object a line can hold."""
    path.unlink(missing_ok=True)
    with store_type(path) as store:
        try:
            store.append(SimpleNamespace(to_dict=lambda: obj))
        except StoreError as exc:
            return "refused", str(exc)
    return "made", path.read_bytes()


def _opened(store_type, path):
    """The ids a store opened at ``path`` took, or its refusal (with ``path:line``)."""
    try:
        return "made", list(store_type(path)._records)
    except StoreError as exc:
        return "refused", str(exc)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


# the campaign's id store, one report's row store, and a row store of every field
ROW_FIELD_SETS = [(), _REPORTS["table6"][1], tuple(RECORD_FIELDS)]


@CODEC_SETTINGS
@given(records(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_id_store_refuses_as_the_job_store_does(scratch_dir, record, kind, data):
    """Each row store's read refuses what ``JobStore``'s refuses, in the same words, on
    append and on the open of a one-line file; only the one of every field builds a record."""
    obj = CORRUPTIONS[kind](record.to_dict(), data.draw)
    path = scratch_dir / "log.jsonl"
    appended = _appended(JobStore, path, obj)
    for fields in ROW_FIELD_SETS:
        with records_built() as built:
            assert _appended(partial(_RowStore, fields=fields), path, obj) == appended
        assert built == [] or fields == tuple(RECORD_FIELDS)

    line = _encoded(obj)
    assume(type(line) is str)  # a line JSON cannot write is refused by append alone
    path.write_text(line + "\n")
    opened = _opened(JobStore, path)
    for fields in ROW_FIELD_SETS:
        with records_built() as built:
            assert _opened(partial(_RowStore, fields=fields), path) == opened
        assert built == [] or fields == tuple(RECORD_FIELDS)
    if opened[0] == "refused":
        assert opened[1].startswith(f"{path}:1: ")


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_id_store_reads_and_writes_without_building_a_record(fixture, tmp_path):
    records = FIXTURES[fixture]()
    kept = write_store(tmp_path / "kept.jsonl", records)
    with records_built() as built:
        with _RowStore(tmp_path / "ids.jsonl", ()) as ids:
            for r in records:
                ids.append(r)
        reopened = _RowStore(tmp_path / "kept.jsonl", ())
    assert built == []
    assert (tmp_path / "ids.jsonl").read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
    assert list(ids._records) == list(reopened._records) == list(kept._records)
    with records_built() as built:  # the count sees each record the open builds
        JobStore(tmp_path / "kept.jsonl")
    assert len(built) == len(records)


@pytest.fixture(scope="module")
def two_record_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("query") / "log.jsonl"
    return write_store(path, [make_record(0), processed_record(1)])


@CODEC_SETTINGS
@given(FIELDS, ANY_VALUE)
def test_query_reads_a_filter_as_the_walk_reads_its_field(two_record_store, name, value):
    """Filters and record lines share one rule: a query refuses a finite, non-None
    filter exactly when the walk refuses its stored form as that field, in the same words."""
    flat = _flat(value)
    assume(flat is not None and not (type(flat) is float and not math.isfinite(flat)))
    walked = _outcome(partial(walk_field, name), flat)
    queried = _outcome(lambda want: two_record_store.query(**{name: want}), value)
    if walked[0] == "refused":
        assert queried == ("refused", f"query field {name!r}: {walked[1]}")
    else:
        assert queried[0] == "made"
