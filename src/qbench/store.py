"""Append-only JSONL persistence for job records.

One record per line, canonical key order, lower_snake_case field names.  The
format is deliberately dumb: a torn final write (process killed mid-append)
loses at most that one line.  Opening the store streams the file one line at
a time, so it never holds the file or a list of its lines; a final line
without its newline is truncated away before anything new is appended.  The
records are kept in append order, and an index from job_id to list position
is rebuilt on every open and kept in memory only.  A campaign writes through
``_IdStore``, which keeps the ids and drops the records.

``JobRecord``'s annotations are the format: each field is stored under its
name as its declared type, except the three types ``_STORED_AS`` maps to JSON
(a ``JobStatus`` as its text, ``Money`` as integer micro-USD under ``cost``, a
``GateCensus`` as ``{n_1q, n_2q, total}``).  Reads check every value against
its declared type, then ``validate`` it, so a line that ``append`` would have
refused fails the open with ``path:line``.  Timestamps are integer seconds
from the campaign epoch.  Query supports equality on any field and
range operators via ``field__ge / __gt / __le / __lt`` suffixes; a filter
value may be given as the field's type (``Money``, ``JobStatus``) or in its
stored form (micro-USD, status text).  Results are ordered by (submitted_at,
job_id) so equal filters always produce identical bytes on export.  CSV rows
(export and reports) go through ``csv_line``, which writes the bytes of
``csv.writer``'s default dialect.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Iterable, Iterator, get_args, get_origin, get_type_hints

from .circuit import GateCensus
from .costing import Money
from .providers import JobStatus

SUCCESS_THRESHOLD = math.exp(-1)  # fidelity >= 1/e is a success; analysis.classify_success too


class StoreError(Exception):
    """Raised for malformed stores, duplicate ids, or invalid records."""


@dataclass(frozen=True)
class JobRecord:
    """One submission attempt, terminal or not."""

    job_id: str
    cloud: str
    target: str
    qubits: int
    shots: int
    seed: int
    submitted_at: int
    status: JobStatus
    cost: Money
    executed_at: int | None = None
    predicted_wait: float | None = None
    actual_wait: float | None = None
    census: GateCensus | None = None
    counts: dict[str, int] | None = None
    fidelity: float | None = None
    success: bool | None = None
    error_message: str | None = None

    def validate(self) -> None:
        if self.qubits < 1 or self.shots < 1:
            raise StoreError(f"{self.job_id}: qubits and shots must be positive")
        if self.cost.micros < 0:
            raise StoreError(f"{self.job_id}: negative cost")
        processed = self.status is JobStatus.PROCESSED
        have_results = (
            self.counts is not None and self.fidelity is not None and self.success is not None
        )
        if processed != have_results:
            raise StoreError(
                f"{self.job_id}: counts/fidelity/success present iff status is processed"
            )
        if processed:
            if sum(self.counts.values()) != self.shots:
                raise StoreError(f"{self.job_id}: counts do not sum to shots")
            if not 0.0 <= self.fidelity <= 1.0:
                raise StoreError(f"{self.job_id}: fidelity outside [0, 1]")
            if self.success != (self.fidelity >= SUCCESS_THRESHOLD):
                raise StoreError(f"{self.job_id}: success flag contradicts fidelity")
            if self.executed_at is None:
                raise StoreError(f"{self.job_id}: processed record missing executed_at")
        if self.status is JobStatus.UNAVAILABLE and self.cost.micros != 0:
            raise StoreError(f"{self.job_id}: unavailable submissions cost nothing")

    def to_dict(self) -> dict[str, Any]:
        return {name: _flat(getattr(self, name)) for name in RECORD_FIELDS}

    @classmethod
    def from_dict(cls, obj: Any) -> "JobRecord":
        """Decode a stored object; raises StoreError for anything ``append`` refuses."""
        if type(obj) is not dict:
            raise StoreError("a record line must hold a JSON object")
        if obj.keys() != RECORD_FIELDS.keys():
            raise StoreError(f"missing or unknown keys {sorted(obj.keys() ^ RECORD_FIELDS.keys())}")
        values = dict(obj)
        for name, (types, decode) in _CODECS.items():
            value = obj[name]
            if type(value) not in types:
                typ = RECORD_FIELDS[name][0]
                raise StoreError(f"{name} holds {value!r:.40}, not a stored {typ.__name__}")
            if decode is not None and value is not None:
                try:
                    values[name] = decode(value)
                except ValueError as exc:
                    raise StoreError(f"{name}: {exc}") from exc
        record = cls(**values)
        record.validate()
        return record


def _declared(hint: Any) -> tuple[Any, bool]:
    """A field annotation as (type, may be None)."""
    if isinstance(hint, UnionType):
        (typ,) = [t for t in get_args(hint) if t is not NoneType]
        return typ, True
    return hint, False


# the stored format: field name -> (declared type, may be None), in field order
RECORD_FIELDS = {name: _declared(hint) for name, hint in get_type_hints(JobRecord).items()}


def _census_from_json(obj: dict[str, int]) -> GateCensus:
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


# a field value as the store writes it, query filters compare it and CSV cells show it
def _flat(value: Any) -> Any:
    codec = _STORED_AS.get(type(value))
    return value if codec is None else codec[1](value)


# the one JSON encoding of the store: record lines, and counts and census cells in CSV
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _export_cell(value: Any) -> Any:
    value = _flat(value)
    return _json_text(value) if type(value) is dict else value


def csv_line(fields: Iterable[Any]) -> str:
    """One CSV row, byte for byte as ``csv.writer`` writes it in its default dialect.

    A cell is ``str`` of its value (None is empty).  It is quoted only when it
    holds a quote, comma, CR or LF, with its quotes doubled.  Rows end in CRLF,
    and a row of one empty cell is written ``""`` so it does not read as blank.
    """
    cells = ["" if f is None else str(f) for f in fields]
    for i, cell in enumerate(cells):
        if '"' in cell or "," in cell or "\r" in cell or "\n" in cell:
            cells[i] = '"' + cell.replace('"', '""') + '"'
    if cells == [""]:
        return '""\r\n'
    return ",".join(cells) + "\r\n"


def _codec(typ: Any, optional: bool):
    """(the JSON types a stored value may have, its check-and-decode or None)."""
    json_type, _, decode = _STORED_AS.get(typ, (typ, None, None))
    if get_origin(json_type) is dict:  # JSON object keys are always text
        json_type, decode = dict, partial(_decode_object, get_args(json_type)[1], decode)
    # an int passes for a float, a bool never for an int
    types = {json_type, int} if json_type is float else {json_type}
    return types | {NoneType} if optional else types, decode


def _decode_object(value_type: type, decode, obj: dict) -> Any:
    if not set(map(type, obj.values())) <= {value_type}:
        raise ValueError(f"values are not all {value_type.__name__}")
    return obj if decode is None else decode(obj)


_CODECS = {name: _codec(typ, optional) for name, (typ, optional) in RECORD_FIELDS.items()}

_RANGE_OPS = {
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
}


def _predicate(key: str, want: Any):
    name, _, op = key.partition("__")
    if name not in RECORD_FIELDS:
        raise StoreError(f"unknown query field {name!r}")
    want = _flat(want)  # a Money or JobStatus filter compares like the stored field
    if not op:
        return lambda r: _flat(getattr(r, name)) == want
    if op not in _RANGE_OPS:
        raise StoreError(f"unknown query operator {op!r}")
    cmp = _RANGE_OPS[op]

    def test(r: JobRecord) -> bool:
        value = _flat(getattr(r, name))
        return value is not None and cmp(value, want)

    return test


class JobStore:
    """Append-only record log; safe for one writer, many readers in-process."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: list[JobRecord] = []
        self._index: dict[str, int | None] = {}  # job_id -> position in _records, or None
        try:
            self._open()
        except OSError as exc:  # a directory, a parent that cannot be made, an unreadable file
            raise StoreError(f"cannot open store {self.path}: {exc.strerror or exc}") from exc

    def _open(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()
        with open(self.path, "rb") as fh:  # read-only, so an archived store still opens
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    # torn final append: cut the file back to where the partial line starts
                    os.truncate(self.path, fh.tell() - len(line))
                    break
                if line.strip():
                    self._load(line, lineno)

    def _load(self, line: bytes, lineno: int) -> None:
        try:
            record = JobRecord.from_dict(json.loads(line))
        except json.JSONDecodeError as exc:
            raise StoreError(f"{self.path}:{lineno}: corrupt record line") from exc
        except UnicodeDecodeError as exc:
            raise StoreError(f"{self.path}:{lineno}: record line is not UTF-8") from exc
        except StoreError as exc:
            raise StoreError(f"{self.path}:{lineno}: {exc}") from exc
        if record.job_id in self._index:
            raise StoreError(f"{self.path}:{lineno}: duplicate job_id {record.job_id}")
        self._keep(record)

    def _keep(self, record: JobRecord) -> None:
        """Hold a record just read or appended; its job_id was checked to be new."""
        self._index[record.job_id] = len(self._records)
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._index

    def get(self, job_id: str) -> JobRecord:
        try:
            return self._records[self._index[job_id]]
        except KeyError:
            raise StoreError(f"no record {job_id!r}") from None

    def append(self, record: JobRecord) -> None:
        record.validate()
        with self._lock:
            if record.job_id in self._index:
                raise StoreError(f"duplicate job_id {record.job_id}")
            line = _json_text(record.to_dict())
            with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
                fh.write(line + "\n")
                fh.flush()
            self._keep(record)

    def records(self) -> Iterator[JobRecord]:
        """All records in append order."""
        return iter(list(self._records))

    def query(self, **filters: Any) -> list[JobRecord]:
        """Equality / range filtering with stable (submitted_at, job_id) order."""
        tests = [_predicate(k, v) for k, v in filters.items()]
        hits = [r for r in self._records if all(t(r) for t in tests)]
        hits.sort(key=lambda r: (r.submitted_at, r.job_id))
        return hits

    def export_csv(
        self,
        out_path: str | os.PathLike[str],
        *,
        columns: Iterable[str] | None = None,
        **filters: Any,
    ) -> int:
        """Write matching records as RFC-4180 CSV; returns the row count."""
        cols = list(columns) if columns is not None else list(RECORD_FIELDS)
        for c in cols:
            if c not in RECORD_FIELDS:
                raise StoreError(f"unknown export column {c!r}")
        rows = self.query(**filters)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_line(cols))
            fh.writelines(csv_line([_export_cell(getattr(r, c)) for c in cols]) for r in rows)
        return len(rows)


class _IdStore(JobStore):
    """A ``JobStore`` that keeps the job ids of its records, not the records.

    It opens, checks and appends exactly as ``JobStore`` does, so a writer
    gets the same bytes and the same ``path:line`` errors, and ``len`` and
    ``in`` answer as usual; but its memory grows by one id per record, not
    by the record.  It holds no records to get, list, query or export.
    """

    def _keep(self, record: JobRecord) -> None:
        self._index[record.job_id] = None  # the id is taken; no record is held


def default_store_path() -> Path:
    """Store location: QBENCH_STORE env var, else ./qbench_jobs.jsonl."""
    return Path(os.environ.get("QBENCH_STORE", "qbench_jobs.jsonl"))
