"""Differential oracles for the streamed store open and the CSV row formatter.

``OracleStore`` opens a store the earlier way: read the whole file, truncate
a torn tail, then split what is left into lines.  ``oracle_export_csv`` is the
earlier ``csv.writer`` export (the reports' ``csv.writer`` oracle is in
``test_report_oracle``).  The streamed open must load the same records and
raise the same messages without writing to the file; its first append must
leave the bytes the oracle's cut left plus the appended line.  ``csv_line``
must write what ``csv.writer`` writes.

The oracle open splits lines with ``bytes.splitlines``, which also breaks at a
lone CR; the streamed open breaks at LF only.  ``append`` never writes a raw
CR (JSON escapes it), so the stores below end their lines in LF or CRLF.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench.cli import load_config, run_campaign
from qbench.providers import JobStatus
from qbench.store import JobRecord, JobStore, StoreError, csv_line
from test_acceptance import CAMPAIGN_FIXTURE
from test_report_oracle import every_status_records
from test_store import MALFORMED_EDITS, _random_fixture, make_record, processed_record


class OracleStore(JobStore):
    def _open(self):
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()
        raw = self.path.read_bytes()
        keep = len(raw)
        if raw and not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1
            with open(self.path, "r+b") as fh:
                fh.truncate(keep)
        for lineno, line in enumerate(raw[:keep].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = JobRecord.from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise StoreError(f"{self.path}:{lineno}: corrupt record line") from exc
            except StoreError as exc:
                raise StoreError(f"{self.path}:{lineno}: {exc}") from exc
            if record.job_id in self:
                raise StoreError(f"{self.path}:{lineno}: duplicate job_id {record.job_id}")
            self._records[record.job_id] = record


def oracle_export_csv(store, out_path, columns=None, **filters):
    cols = list(columns) if columns is not None else list(make_record(0).to_dict())
    rows = store.query(**filters)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rows:
            stored = r.to_dict()
            out = []
            for c in cols:
                v = stored[c]
                if isinstance(v, dict):
                    v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                elif v is None:
                    v = ""
                out.append(v)
            writer.writerow(out)
    return len(rows)


def writer_line(row):
    out = io.StringIO()
    csv.writer(out).writerow(row)
    return out.getvalue()


# --- csv_line -------------------------------------------------------------------------

SPECIAL_TEXT = st.text(
    alphabet=st.sampled_from(['"', ",", "\r", "\n", "\0", " ", "a", "é", "☃"])
)
CELLS = st.one_of(
    SPECIAL_TEXT,
    st.text(),
    st.just(""),
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(CELLS, max_size=8))
def test_csv_line_matches_csv_writer(row):
    assert csv_line(row) == writer_line(row)


@pytest.mark.parametrize(
    "row",
    [[], [""], [None], ["", ""], [None, None], [" "], ['"'], ["\0"], ["a\rb"], [1.5, True, 2**70]],
    ids=repr,
)
def test_csv_line_edge_rows(row):
    assert csv_line(row) == writer_line(row)


# --- export ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("campaign")
    config_path = tmp / "fixture.ini"
    config_path.write_text(CAMPAIGN_FIXTURE)
    path = tmp / "store.jsonl"
    run_campaign(load_config(str(config_path)), str(path))
    return path


def tricky_store(path):
    messages = ['queue said "later", twice', "line\nbreak", "cr\rhere", "", "ünï,cödé\0"]
    with JobStore(path) as store:
        for r in every_status_records():
            store.append(r)
        for i, message in enumerate(messages, start=100):
            store.append(make_record(i, status=JobStatus.ERROR, error_message=message))
    return path


EXPORTS = [
    {},
    {"columns": ["job_id"]},
    {"columns": ["counts"], "status": "processed"},
    {"columns": ["error_message", "census", "cost", "success"]},
    {"qubits__ge": 12},
]


@pytest.mark.parametrize("export", EXPORTS, ids=repr)
@pytest.mark.parametrize("source", ["campaign", "tricky"])
def test_export_bytes_match_csv_writer(campaign_store, tmp_path, source, export):
    path = campaign_store if source == "campaign" else tricky_store(tmp_path / "t.jsonl")
    store = JobStore(path)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert store.export_csv(got, **export) == oracle_export_csv(store, want, **export)
    assert got.read_bytes() == want.read_bytes()


# --- open -----------------------------------------------------------------------------


def opened(cls, path, content):
    """(records or error message, file bytes after the open) of one open."""
    path.write_bytes(content)
    try:
        outcome = list(cls(path).records())
    except StoreError as exc:
        outcome = str(exc)
    return outcome, path.read_bytes()


def assert_same_open(path, content):
    want, want_bytes = opened(OracleStore, path, content)
    got, got_bytes = opened(JobStore, path, content)
    assert got == want
    # the whole-file open truncated a torn tail before it read the lines; the
    # streamed one only reads, and its first append makes the same cut
    assert got_bytes == content
    if not isinstance(got, str):
        with JobStore(path) as store:
            store.append(APPENDED)
        assert path.read_bytes() == want_bytes + _line(APPENDED)
    return got


def _line(record):
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")).encode() + b"\n"


GOOD = b"".join(_line(processed_record(i) if i % 2 else make_record(i)) for i in range(4))
TORN = b'{"job_id": "job-9999", "cloud": "SimA'
APPENDED = make_record(9998)  # an id no store below holds


def _malformed(case):
    obj = processed_record(7).to_dict()
    MALFORMED_EDITS[case](obj)
    return GOOD + json.dumps(obj).encode() + b"\n"


OPEN_CASES = {
    "empty": b"",
    "clean": GOOD,
    "torn-tail": GOOD + TORN,
    "torn-tail-of-whitespace": GOOD + b" \t ",
    "torn-tail-complete-record": GOOD + _line(make_record(9))[:-1],
    "blank-lines": b"\n" + GOOD.replace(b"}\n", b"}\n  \n\t\n", 2) + b"\n",
    "crlf": GOOD.replace(b"\n", b"\r\n") + b"\r\n",
    "one-partial-line": TORN,
    "one-newline": b"\n",
    "corrupt-line": GOOD + b"not json\n" + GOOD,
    "duplicate-line": GOOD + GOOD[: GOOD.index(b"\n") + 1],
    **{f"malformed-{case}": _malformed(case) for case in sorted(MALFORMED_EDITS)},
}


@pytest.mark.parametrize("case", sorted(OPEN_CASES))
def test_open_matches_whole_file_open(tmp_path, case):
    outcome = assert_same_open(tmp_path / "log.jsonl", OPEN_CASES[case])
    refused = case.startswith(("corrupt", "duplicate", "malformed"))
    assert isinstance(outcome, str) == refused


def test_open_matches_on_a_large_store(tmp_path):
    content = b"".join(map(_line, _random_fixture(300, seed=5)))
    outcome = assert_same_open(tmp_path / "log.jsonl", content + TORN)
    assert len(outcome) == 300


PIECES = st.sampled_from(
    [_line(make_record(i)) for i in range(3)]
    + [_line(processed_record(i)) for i in range(3, 5)]
    + [b"\n", b"   \n", b"\t\r\n", b"{\n", b"[]\n", b"null\n", b"{}\n"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(PIECES, max_size=8), st.binary(max_size=12).filter(lambda b: b"\n" not in b))
def test_open_matches_on_generated_stores(pieces, tail):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_open(Path(tmp) / "log.jsonl", b"".join(pieces) + tail)
