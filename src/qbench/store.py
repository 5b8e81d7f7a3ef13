"""Append-only JSONL persistence for job records.

One record per line, canonical key order, lower_snake_case field names.  The
format is deliberately dumb: a torn final write (process killed mid-append)
loses at most that one line, and opening the store repairs the tail by
truncating the incomplete line before appending anything new.  An offset
index keyed by job_id is rebuilt on every open and kept in memory only;
campaign-scale stores (thousands of lines) scan in milliseconds, so there is
nothing to be gained from persisting it.

Money is stored as integer micro-USD under ``cost``.  Timestamps are integer
seconds from the campaign epoch.  Query supports equality on any field and
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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator

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
        return {
            "job_id": self.job_id,
            "cloud": self.cloud,
            "target": self.target,
            "qubits": self.qubits,
            "shots": self.shots,
            "seed": self.seed,
            "submitted_at": self.submitted_at,
            "executed_at": self.executed_at,
            "predicted_wait": self.predicted_wait,
            "actual_wait": self.actual_wait,
            "status": self.status.value,
            "census": None if self.census is None else self.census.as_dict(),
            "counts": self.counts,
            "fidelity": self.fidelity,
            "success": self.success,
            "cost": self.cost.micros,
            "error_message": self.error_message,
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> "JobRecord":
        try:
            cen = obj["census"]
            census = None if cen is None else GateCensus(n_1q=cen["n_1q"], n_2q=cen["n_2q"])
            if census is not None and census.total != cen["total"]:
                raise StoreError(f"census total mismatch in {obj.get('job_id')}")
            return cls(
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


_FIELD_NAMES = frozenset(f.name for f in fields(JobRecord))

# a field value as query filters compare it and CSV cells show it
def _flat(value: Any) -> Any:
    if isinstance(value, JobStatus):
        return value.value
    if isinstance(value, Money):
        return value.micros
    if isinstance(value, GateCensus):
        return value.as_dict()
    return value


_RANGE_OPS = {
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
}


def _predicate(key: str, want: Any):
    name, _, op = key.partition("__")
    if name not in _FIELD_NAMES:
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
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StoreError(f"{self.path}:{lineno}: corrupt record line") from exc
            record = JobRecord.from_dict(obj)
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
        cols = list(columns) if columns is not None else [f.name for f in fields(JobRecord)]
        for c in cols:
            if c not in _FIELD_NAMES:
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
