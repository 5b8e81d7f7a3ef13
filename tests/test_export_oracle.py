"""Differential oracles for the export's generated row writer and the store's shared decode.

``oracle_export_csv`` is the earlier export: each cell through
``oracle_export_cell`` (the field's stored value, an object as its JSON text)
and each row through the earlier ``oracle_csv_line``.  The generated writer
must write its bytes for any column list.  ``oracle_from_dict`` is the
generated decode with the earlier decoders: a new ``GateCensus`` and a new
``Money`` for every stored value.  The memoised decode must read the same
records and refuse with the same text, and equal stored values must decode to
one object.  The query and the reports sort with ``attrgetter`` keys and count
statuses with one ``Counter``; ``_scan`` (in ``test_store``) and
``oracle_write_report`` (in ``test_report_oracle``) sort with the earlier
lambda keys and count by hand.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import store as store_module
from qbench.analysis import REPORT_KINDS, write_report
from qbench.circuit import GateCensus
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import (
    RECORD_FIELDS,
    JobRecord,
    JobStore,
    StoreError,
    _compile,
    _decoder_source,
    _flat,
    _json_text,
    _reader_source,
    classify_success,
)
from test_report_oracle import every_status_records, oracle_write_report
from test_store import _scan, processed_record, write_store


def oracle_csv_line(fields):
    cells = ["" if f is None else str(f) for f in fields]
    for i, cell in enumerate(cells):
        if '"' in cell or "," in cell or "\r" in cell or "\n" in cell:
            cells[i] = '"' + cell.replace('"', '""') + '"'
    if cells == [""]:
        return '""\r\n'
    return ",".join(cells) + "\r\n"


def oracle_export_cell(value):
    value = _flat(value)
    return _json_text(value) if type(value) is dict else value


def oracle_export_csv(store, out_path, columns=None, **filters):
    cols = list(columns) if columns is not None else list(RECORD_FIELDS)
    rows = store.query(**filters)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(oracle_csv_line(cols))
        for r in rows:
            fh.write(oracle_csv_line([oracle_export_cell(getattr(r, c)) for c in cols]))
    return len(rows)


def oracle_census(obj):
    census = GateCensus(n_1q=obj.get("n_1q", 0), n_2q=obj.get("n_2q", 0))
    if census.as_dict() != obj:  # a missing or unknown key, or a wrong total
        raise ValueError(f"{obj} is not {census.as_dict()}")
    return census


def _with_earlier_decoders(source, qualname, **names):
    """The store's generated ``source``, decoding each census and cost anew."""
    fn = _compile(source, qualname, **names)
    fn.__globals__.update(_from_GateCensus=oracle_census, _from_Money=Money)
    return fn


oracle_read = _with_earlier_decoders(
    _decoder_source(tuple(RECORD_FIELDS)), "read", _Held=JobRecord
)


def oracle_from_dict(obj):
    return oracle_read(obj)[1]


oracle_read_census = _with_earlier_decoders(_reader_source("census"), "read_census")


# --- random stores ----------------------------------------------------------------------

# text a CSV cell must quote, and text it need not
TEXT = st.text(st.sampled_from(['"', ",", "\r", "\n", "\0", " ", "a", "é", "☃"]), max_size=6)
TEXT |= st.text(max_size=6)
WAITS = st.none() | st.integers(0, 10**6) | st.floats(0, 1e6) | st.sampled_from([0.0, 390.0])
FIDELITIES = st.floats(0, 1) | st.sampled_from([0, 1, 0.0, 1.0, 0.5])
CENSUSES = st.builds(GateCensus, st.integers(0, 5000), st.integers(0, 5000))


@st.composite
def stored_record(draw, i):
    """A record of any status that ``append`` keeps; its job_id ends in ``i``."""
    status = draw(st.sampled_from(list(JobStatus)))
    processed = status is JobStatus.PROCESSED
    shots = draw(st.integers(1, 50))
    fields = dict(
        job_id=f"{draw(TEXT)}-{i}",
        cloud=draw(TEXT),
        target=draw(TEXT),
        qubits=draw(st.integers(1, 6)),
        shots=shots,
        seed=draw(st.integers(0, 2**64 - 1)),
        submitted_at=draw(st.integers(0, 5)),  # few values, so the query order breaks ties
        status=status,
        cost=Money(0 if status is JobStatus.UNAVAILABLE else draw(st.integers(0, 10**9))),
        executed_at=draw(st.integers(0, 10**6) if processed else st.none() | st.integers(0, 9)),
        predicted_wait=draw(WAITS),
        actual_wait=draw(WAITS),
        census=draw(CENSUSES if processed else st.none() | CENSUSES),
        error_message=draw(st.none() | TEXT),
    )
    if processed:
        keys = draw(st.lists(TEXT, min_size=1, max_size=min(shots, 3), unique=True))
        counts = dict.fromkeys(keys, 1)
        counts[keys[0]] += shots - len(keys)
        fidelity = draw(FIDELITIES)
        fields.update(counts=counts, fidelity=fidelity, success=classify_success(fidelity))
    return JobRecord(**fields)


@st.composite
def stored_records(draw):
    return [draw(stored_record(i)) for i in range(draw(st.integers(0, 8)))]


FIELDS = list(RECORD_FIELDS)


def _leading(names):
    return st.integers(1, len(names)).map(lambda k: names[:k])


COLUMNS = st.one_of(
    st.none(),  # every column
    st.sampled_from(FIELDS).map(lambda name: [name]),
    st.lists(st.sampled_from(FIELDS), min_size=1, max_size=len(FIELDS) + 4),  # with repeats
    st.permutations(FIELDS).flatmap(_leading),  # a subset, in any order
)
FILTERS = st.sampled_from([{}, {"status": "processed"}, {"qubits__ge": 3}, {"success": None}])


def exported(store, export, out, **kwargs):
    """(rows, bytes) of one export, or the text of its ``StoreError``."""
    try:
        rows = export(store, out, **kwargs)
    except StoreError as exc:
        return str(exc)
    return rows, out.read_bytes()


@settings(max_examples=300, deadline=None)
@given(stored_records(), COLUMNS, FILTERS)
def test_export_writes_the_earlier_exports_bytes(records, columns, filters):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        store = write_store(tmp / "log.jsonl", records)
        got = exported(store, JobStore.export_csv, tmp / "got.csv", columns=columns, **filters)
        want = exported(store, oracle_export_csv, tmp / "want.csv", columns=columns, **filters)
    assert got == want


@pytest.mark.parametrize("name", FIELDS)
def test_each_single_column_writes_the_earlier_exports_bytes(tmp_path, name):
    records = every_status_records() + [processed_record(90, error_message="")]
    store = write_store(tmp_path / "log.jsonl", records)
    got = exported(store, JobStore.export_csv, tmp_path / "got.csv", columns=[name])
    want = exported(store, oracle_export_csv, tmp_path / "want.csv", columns=[name])
    assert got == want
    assert got[0] == len(records)


@settings(max_examples=200, deadline=None)
@given(stored_records())
def test_query_and_reports_keep_the_earlier_order(records):
    with tempfile.TemporaryDirectory() as tmp:
        store = write_store(Path(tmp) / "log.jsonl", records)
        assert store.query() == _scan(records, {})
        for kind in REPORT_KINDS:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            assert write_report(kind, records, str(got)) == oracle_write_report(kind, records, want)
            assert got.read_bytes() == want.read_bytes(), kind


# --- decode -----------------------------------------------------------------------------


@st.composite
def stored_census(draw):
    """A census as a line may hold it: in any key order, maybe missing, extra or off."""
    n_1q, n_2q = draw(st.integers(0, 5000)), draw(st.integers(0, 5000))
    obj = {"n_1q": n_1q, "n_2q": n_2q, "total": n_1q + n_2q}
    edit = draw(st.sampled_from(["none", "missing", "unknown", "total"]))
    if edit == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif edit == "unknown":
        obj[draw(st.sampled_from(["n_3q", "Total", ""]))] = draw(st.integers(0, 9))
    elif edit == "total":
        obj["total"] += draw(st.integers(-3, 3).filter(bool))
    return dict(draw(st.permutations(list(obj.items()))))


def decoded(from_dict, obj):
    """The record ``from_dict`` reads from ``obj``, or the text of its ``StoreError``."""
    try:
        return from_dict(obj)
    except StoreError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(stored_census(), st.integers(-5, 10**9), st.booleans())
def test_decode_matches_the_earlier_decode_and_shares_equal_values(census, micros, processed):
    obj = processed_record(1).to_dict() | {"census": census, "cost": micros}
    if not processed:
        obj |= {"status": "error", "counts": None, "fidelity": None, "success": None}
    got = decoded(JobRecord.from_dict, obj)
    assert got == decoded(oracle_from_dict, copy.deepcopy(obj))
    again = decoded(JobRecord.from_dict, copy.deepcopy(obj))
    assert again == got
    if isinstance(got, JobRecord):
        assert again.census is got.census and again.cost is got.cost
    # a census query filter is read by the same decode
    read = store_module._READERS["census"]
    assert decoded(read, census) == decoded(oracle_read_census, census)
    if isinstance(got, JobRecord):
        assert read(census) is got.census


def test_every_cache_is_bounded():
    caches = [
        store_module._row_writer,
        store_module._object_cell,
        store_module._census_from_items,
        store_module._STORED_AS[Money][2],
    ]
    assert all(cache.cache_info().maxsize is not None for cache in caches)
