"""Slotted records with shared text, the CLI's projected reads, and the line decode.

A ``JobRecord`` is slotted: it has no ``__dict__``, and a read holds equal
``cloud``, ``target`` and ``error_message`` text as one object.  The CLI's
``report``, ``jobs poll`` and ``store export`` read a ``_RowStore``, which
holds of each record only the fields the command reads; with a full
``JobStore`` in its place (the oracle) every command must exit, print and
write the same.  The open reads each line as ``json.loads`` reads UTF-8 bytes,
without its encoding sniff: ``OracleStore`` opens with that ``json.loads`` and
must accept and refuse the same lines, with the same text, except lines that
``json.detect_encoding`` reads as UTF-16 or UTF-32 (a NUL in the first four
bytes, or a UTF-16 or UTF-32 BOM), which the open refuses.
"""

import copy
import dataclasses
import json
import pickle
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qbench import cli
from qbench import store as store_module
from qbench.analysis import _REPORTS, REPORT_KINDS
from qbench.providers import JobStatus
from qbench.store import JobStore, StoreError, _RowStore
from test_cli import run_cli
from test_export_oracle import COLUMNS, stored_records
from test_store import (
    MALFORMED_EDITS,
    make_record,
    processed_record,
    write_malformed_store,
    write_store,
)


def _fresh(text):
    """Text equal to ``text`` in a new object, as a JSON decode gives it."""
    return "".join(list(text))


# --- records ----------------------------------------------------------------------------


def test_a_record_has_no_dict_and_still_copies():
    record = processed_record(3, error_message="late")
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.qubits = 5
    assert weakref.ref(record)() is record
    moved = dataclasses.replace(record, qubits=5)
    assert moved.to_dict() == record.to_dict() | {"qubits": 5}
    for clone in (copy.deepcopy(record), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and clone.to_dict() == record.to_dict()
    assert dataclasses.asdict(record)["error_message"] == "late"


def test_shared_text_is_every_text_field_but_the_job_id():
    assert store_module._SHARED_TEXT == {"cloud", "target", "error_message"}


def test_equal_text_decodes_to_one_object_through_the_open_and_append(tmp_path):
    records = [
        make_record(
            i, cloud=_fresh("SimAWS"), target=_fresh("aria1-aws"),
            status=JobStatus.ERROR, error_message=_fresh("device offline"),
        )
        for i in range(3)
    ]
    assert records[0].cloud is not records[1].cloud
    path = tmp_path / "log.jsonl"
    with JobStore(path) as store:
        for r in records:
            store.append(r)
        appended = [store.get(r.job_id) for r in records]
    reads = {
        "append": appended,
        "open": list(JobStore(path).records()),
        "rows": list(_RowStore(path, ["cloud", "target", "error_message"]).records()),
    }
    for read, held in reads.items():
        assert [r.job_id for r in held] == [r.job_id for r in records], read
        for name in ("cloud", "target", "error_message"):
            assert len({id(getattr(r, name)) for r in held}) == 1, (read, name)
            assert getattr(held[0], name) == getattr(records[0], name)


# --- projected reads ---------------------------------------------------------------------


def test_a_row_store_holds_only_what_it_is_asked_for_and_the_query_order(tmp_path):
    path = tmp_path / "log.jsonl"
    write_store(path, [processed_record(1), make_record(2)])
    store = _RowStore(path, ["cost", "no_such_field", "cloud"])
    rows = store.query()
    assert [row._fields for row in rows] == [("job_id", "cloud", "submitted_at", "cost")] * 2
    assert [row.cost for row in rows] == [r.cost for r in JobStore(path).query()]
    for kind in REPORT_KINDS:  # a report's rows hold no counts
        assert "counts" not in cli._open_store(str(path), _REPORTS[kind][1]).query()[0]._fields


@pytest.mark.parametrize("case", sorted(MALFORMED_EDITS))
def test_a_row_store_refuses_what_the_open_refuses(tmp_path, case):
    path = write_malformed_store(tmp_path / "bad.jsonl", case)
    with pytest.raises(StoreError) as full:
        JobStore(path)
    with pytest.raises(StoreError) as rows:
        _RowStore(path, ["target"])
    assert str(rows.value) == str(full.value)


# filters of every field type, ranges, a None, a dict field, a bad value and an unknown field
CLI_FILTERS = st.lists(
    st.sampled_from([
        "status=processed", "status=error", "qubits__ge=3", "success=true", "cost__gt=1.50",
        "fidelity__lt=0.9", "cloud=a", "target__le=b", "error_message=a", "predicted_wait__ge=2",
        "executed_at__lt=7", "census__ge=1", "qubits=many", "no_such_field=1",
    ]),
    max_size=3,
    unique=True,
)
COMMANDS = st.one_of(
    st.sampled_from(REPORT_KINDS).map(lambda kind: ["report", kind]),
    (COLUMNS | st.just(["job_id", "no_such_column"])).map(
        lambda cols: ["store", "export"] + ([] if cols is None else ["--columns", ",".join(cols)])
    ),
    st.just(["jobs", "poll"]),
)


def _cli(path, command, filters, out):
    """(exit code, stdout, stderr, bytes of --out) of one CLI read."""
    args = ["--json", "--store", str(path), *command]
    if command[0] != "jobs":
        args += ["--out", str(out), *(arg for f in filters for arg in ("--filter", f))]
    code, stdout, stderr = run_cli(*args)
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout, stderr, written


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stored_records(), COMMANDS, CLI_FILTERS)
def test_projected_reads_write_what_full_reads_write(records, command, filters):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "log.jsonl"
        write_store(path, records)
        got = _cli(path, command, filters, tmp / "out.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_RowStore", lambda path, fields: JobStore(path))
            want = _cli(path, command, filters, tmp / "out.csv")
    assert got == want


# --- the line decode ---------------------------------------------------------------------


class OracleStore(JobStore):
    """The earlier open: each line through ``json.loads`` of its bytes."""

    def _load(self, line, lineno):
        try:
            job_id, held = self._read(json.loads(line))
        except UnicodeDecodeError as exc:
            raise StoreError(f"{self.path}:{lineno}: record line is not UTF-8") from exc
        except (ValueError, RecursionError) as exc:
            raise StoreError(f"{self.path}:{lineno}: corrupt record line") from exc
        except StoreError as exc:
            raise StoreError(f"{self.path}:{lineno}: {exc}") from exc
        if job_id in self._records:
            raise StoreError(f"{self.path}:{lineno}: duplicate job_id {job_id}")
        self._records[job_id] = held


def _opened(store_type, path):
    """The records a store of ``store_type`` opens at ``path``, or its refusal's text."""
    try:
        return [r.to_dict() for r in store_type(path).records()]
    except StoreError as exc:
        return str(exc)


BOM = b"\xef\xbb\xbf"
LINE = json.dumps(make_record(0).to_dict(), sort_keys=True, separators=(",", ":")).encode()
OTHER = LINE.replace(b"job-0000", b"job-0001")


@pytest.mark.parametrize(
    "data",
    [BOM + LINE + b"\n" + OTHER + b"\n", LINE + b"\n" + BOM + OTHER + b"\n"],
    ids=["line-1", "line-2"],
)
def test_a_line_may_start_with_one_bom(tmp_path, data):
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    assert [r.job_id for r in JobStore(path).records()] == ["job-0000", "job-0001"]


@pytest.mark.parametrize(
    "line, reason",
    [
        (BOM + BOM + LINE, "corrupt record line"),
        (b"\x00" + LINE, "corrupt record line"),
        (b"\x00 " + LINE, "corrupt record line"),  # json.loads: "not UTF-8"
        (LINE.decode().encode("utf-16-be"), "corrupt record line"),  # json.loads opens it
        (LINE.replace(b"SimAzure", "Sim\xe9".encode("latin-1")), "record line is not UTF-8"),
        (b"\xff\xfe" + LINE.decode().encode("utf-16-le"), "record line is not UTF-8"),
        (LINE + b"\x0c", "corrupt record line"),
        (LINE + b"{}", "corrupt record line"),
    ],
    ids=["two-boms", "nul-led", "nul-led-even", "utf-16-be", "latin-1", "utf-16-bom", "form-feed",
         "extra-data"],
)
def test_a_line_that_is_not_one_utf8_json_value_is_refused(tmp_path, line, reason):
    path = tmp_path / "log.jsonl"
    path.write_bytes(LINE.replace(b"job-0000", b"job-0009") + b"\n" + line + b"\n")
    with pytest.raises(StoreError, match=f"^{path}:2: {reason}$"):
        JobStore(path)


# bytes around and inside a good line: JSON and other whitespace, BOMs, stray and
# broken UTF-8, NULs, and encoded surrogates, which json.loads passes through
PIECES = st.sampled_from([
    b"", b" ", b"\t", b"\r", b"\x0b", b"\x0c", BOM, b"\x00", b"\xc3", b"\xe9", b"\xed\xa0\x80",
    b"\xff\xfe", b"{}", b"x", b"\xc3\xa9",
]) | st.binary(max_size=3).filter(lambda piece: b"\n" not in piece)  # one line


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECES, max_size=3), st.lists(PIECES, max_size=3), PIECES, st.integers(0, 400))
def test_the_open_reads_each_line_as_json_loads_reads_utf8(before, after, inside, at):
    line = b"".join(before) + LINE[:at] + inside + LINE[at:] + b"".join(after)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(OTHER + b"\n" + line + b"\n")
        got = _opened(JobStore, path)
        if json.detect_encoding(line) in ("utf-8", "utf-8-sig"):
            assert got == _opened(OracleStore, path)
        else:  # a line json.loads would read as UTF-16 or UTF-32
            assert isinstance(got, str), got


# --- export columns ----------------------------------------------------------------------


@pytest.mark.parametrize("columns", ["job_id", "cost"])
def test_export_refuses_columns_given_as_one_text_before_it_writes(tmp_path, columns):
    store = write_store(tmp_path / "log.jsonl", [processed_record(1)])
    out = tmp_path / "out.csv"
    with pytest.raises(StoreError, match=f"^export columns take a list of column names, not '{columns}'$"):
        store.export_csv(out, columns=columns)
    assert not out.exists()
