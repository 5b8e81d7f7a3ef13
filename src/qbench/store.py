"""Append-only JSONL persistence for job records.

One record per line, canonical key order, lower_snake_case field names.  The
format is deliberately dumb: a torn final write (process killed mid-append)
loses at most that one line, and opening the store repairs the tail by
truncating the incomplete line before appending anything new.  An offset
index keyed by job_id is rebuilt on every open and kept in memory only;
campaign-scale stores (thousands of lines) scan in milliseconds, so there is
nothing to be gained from persisting it.

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
job_id) so equal filters always produce identical bytes on export.
"""

from __future__ import annotations

import csv
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
        self._index: dict[str, int] = {}
        self._open()

    def _open(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()
        raw = self.path.read_bytes()
        keep = len(raw)
        if raw and not raw.endswith(b"\n"):
            # torn final append: drop the partial line, then repair the file
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
            if record.job_id in self._index:
                raise StoreError(f"{self.path}:{lineno}: duplicate job_id {record.job_id}")
            self._index[record.job_id] = len(self._records)
            self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

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
            line = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
            with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
                fh.write(line + "\n")
                fh.flush()
            self._index[record.job_id] = len(self._records)
            self._records.append(record)

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
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in rows:
                out = []
                for c in cols:
                    v = _flat(getattr(r, c))
                    if isinstance(v, dict):
                        v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                    elif v is None:
                        v = ""
                    out.append(v)
                writer.writerow(out)
        return len(rows)


def default_store_path() -> Path:
    """Store location: QBENCH_STORE env var, else ./qbench_jobs.jsonl."""
    return Path(os.environ.get("QBENCH_STORE", "qbench_jobs.jsonl"))
