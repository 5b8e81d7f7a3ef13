"""Append-only JSONL persistence for job records.

One record per line, canonical key order, lower_snake_case field names.  The
format is deliberately dumb: a torn final write (process killed mid-append)
loses at most that one line.  Opening the store streams the file one line at
a time, so it never holds the file or a list of its lines.  A final line
without its newline is skipped, and the first ``append`` cuts it away before
it writes; the open itself never writes, so a read-only store opens even with
a torn tail, and a read cannot cut a line another process is writing.  The
records are kept in one map from job_id to record, in append order, rebuilt on
every open.  A campaign writes through ``_IdStore``, which keeps the ids and
drops the records.  A store that appends holds its file open, in append mode,
from its first ``append`` until ``close()`` or the end of its ``with`` block,
and flushes each line as it writes it; a store that only reads never opens
its file to write.

``JobRecord``'s annotations are the format: each field is stored under its
name as its declared type, except the three types ``_STORED_AS`` maps to JSON
(a ``JobStatus`` as its text, ``Money`` as integer micro-USD under ``cost``, a
``GateCensus`` as ``{n_1q, n_2q, total}``).  The codec is generated once, at
import, from the annotations and ``_STORED_AS``: ``to_dict`` is one dict
display and ``from_dict`` one unrolled run of checks, each built with
``exec`` the way ``dataclasses`` builds ``__init__``.  Reads check every
value against its declared type (the keys of an object field too), then
``validate`` it.  ``append`` decodes each record's stored form the same way
and holds the decoded record, so it refuses what the open refuses (the open
adds ``path:line``) and holds each field as its declared type.  Timestamps
are integer seconds from the campaign epoch.  Query supports equality on any
field and range operators via ``field__ge / __gt / __le / __lt`` suffixes,
except on ``census`` and ``counts``.  A filter value must be the field's type
(``Money``, ``JobStatus``) or its stored form (micro-USD, status text naming a
status), checked as a read checks it; None matches an optional field by
equality only.  Any other filter raises ``StoreError``.  Results are ordered by
(submitted_at, job_id) so equal filters always produce identical bytes on
export.  CSV rows (export and reports) go through ``csv_line``, which writes
the bytes of ``csv.writer``'s default dialect.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Iterable, Iterator, TextIO, get_args, get_origin, get_type_hints

from .circuit import GateCensus
from .costing import Money
from .providers import JobStatus

SUCCESS_THRESHOLD = math.exp(-1)  # fidelity >= 1/e is a success; analysis.classify_success too


class StoreError(Exception):
    """Raised for malformed stores, duplicate ids, or invalid records."""


@dataclass(frozen=True)
class JobRecord:
    """One submission attempt, terminal or not.

    ``to_dict`` and ``from_dict``, the store codec, are generated from these
    annotations once the class is made (see ``_compile``).
    """

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
        # NaN and infinities are not JSON (RFC 8259), though json writes and reads them
        if not (self.predicted_wait is None or math.isfinite(self.predicted_wait)):
            raise StoreError(f"{self.job_id}: predicted_wait is not finite")
        if not (self.actual_wait is None or math.isfinite(self.actual_wait)):
            raise StoreError(f"{self.job_id}: actual_wait is not finite")
        processed = self.status is JobStatus.PROCESSED
        # each result on its own: a job that never ran holds none of them
        for result in (self.counts, self.fidelity, self.success):
            if processed != (result is not None):
                raise StoreError(
                    f"{self.job_id}: counts/fidelity/success present iff status is processed"
                )
        if processed:
            if sum(self.counts.values()) != self.shots:
                raise StoreError(f"{self.job_id}: counts do not sum to shots")
            if min(self.counts.values()) < 1:  # not empty: the counts sum to shots >= 1
                raise StoreError(f"{self.job_id}: counts hold a count below 1")
            if not 0.0 <= self.fidelity <= 1.0:
                raise StoreError(f"{self.job_id}: fidelity outside [0, 1]")
            if self.success != (self.fidelity >= SUCCESS_THRESHOLD):
                raise StoreError(f"{self.job_id}: success flag contradicts fidelity")
            if self.executed_at is None:
                raise StoreError(f"{self.job_id}: processed record missing executed_at")
            if self.census is None:
                raise StoreError(f"{self.job_id}: processed record missing census")
        if self.status is JobStatus.UNAVAILABLE and self.cost.micros != 0:
            raise StoreError(f"{self.job_id}: unavailable submissions cost nothing")


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


_STATUSES = {status.value: status for status in JobStatus}


def _status_from_json(text: str) -> JobStatus:
    status = _STATUSES.get(text)
    return JobStatus(text) if status is None else status  # JobStatus(text) raises for unknown text


# field types not stored as themselves: type -> (JSON type, to JSON, from JSON)
_STORED_AS = {
    JobStatus: (str, attrgetter("_value_"), _status_from_json),
    Money: (int, attrgetter("micros"), Money),
    GateCensus: (dict[str, int], GateCensus.as_dict, _census_from_json),
}


# a field value as the store writes it, query filters compare it and CSV cells show it
def _flat(value: Any) -> Any:
    codec = _STORED_AS.get(type(value))
    return value if codec is None else codec[1](value)


def _encoder_source() -> str:
    """``to_dict``: one dict display whose every value is ``_flat`` of its field.

    A field holding its declared type converts inline; any other value (None
    of an optional field, or a mistyped one) goes through ``_flat`` itself.
    """
    lines = [
        "def to_dict(self):",
        '    """The record as the store writes it: each field as ``_flat`` gives it."""',
        *(f"    {name} = self.{name}" for name in RECORD_FIELDS),
        "    return {",
    ]
    for name, (typ, optional) in RECORD_FIELDS.items():
        held = (get_origin(typ) or typ).__name__
        if typ in _STORED_AS:
            value = f"_to_{held}({name})"
        else:
            value, held = name, f"{held} or {name} is None" if optional else held
        lines.append(f"        {name!r}: {value} if type({name}) is {held} else _flat({name}),")
    return "\n".join([*lines, "    }"])


def _decoder_source() -> str:
    """``from_dict``: every check of the stored format, unrolled in field order."""
    lines = [
        "def from_dict(cls, obj):",
        '    """Decode a stored object; raises StoreError for anything ``append`` refuses.',
        "",
        "    The one check of the format: the open runs it on every line read, and",
        "    ``append`` on every record's stored form before writing it.",
        '    """',
        "    if type(obj) is not dict:",
        "        raise StoreError('a record line must hold a JSON object')",
        "    if obj.keys() != _FIELDS:",
        "        raise StoreError(f'missing or unknown keys {sorted(obj.keys() ^ _FIELDS)}')",
    ]
    for name, (typ, optional) in RECORD_FIELDS.items():
        json_type, _, decode = _STORED_AS.get(typ, (typ, None, None))
        # an int passes for a float, a bool never for an int
        allowed = [float, int] if json_type is float else [get_origin(json_type) or json_type]
        mistyped = " and ".join(f"type({name}) is not {t.__name__}" for t in allowed)
        if optional:
            mistyped += f" and {name} is not None"
        lines += [
            f"    {name} = obj[{name!r}]",
            f"    if {mistyped}:",
            f"        raise StoreError(f'{name} holds {{{name}!r:.40}}, "
            f"not a stored {typ.__name__}')",
        ]
        checks = []
        if get_origin(json_type) is dict:  # JSON object keys are text, so check them too
            key_type, value_type = get_args(json_type)
            parts = (("values", f"{name}.values()", value_type), ("keys", name, key_type))
            for part, of, held in parts:
                checks += [
                    f"if not set(map(type, {of})) <= {{{held.__name__}}}:",
                    f"    raise StoreError('{name}: {part} are not all {held.__name__}')",
                ]
        if decode is not None:
            checks += [
                "try:",
                f"    {name} = _from_{typ.__name__}({name})",
                "except ValueError as exc:",
                f"    raise StoreError(f'{name}: {{exc}}') from exc",
            ]
        if optional and checks:
            lines.append(f"    if {name} is not None:")
            checks = ["    " + line for line in checks]
        lines += ["    " + line for line in checks]
    lines += [
        f"    record = cls({', '.join(RECORD_FIELDS)})",
        "    record.validate()",
        "    return record",
    ]
    return "\n".join(lines)


def _compile(source: str, name: str) -> Any:
    """The function ``name`` that ``source`` defines, with the store's names in scope."""
    scope: dict[str, Any] = {"StoreError": StoreError, "_flat": _flat}
    scope["_FIELDS"] = RECORD_FIELDS.keys()
    for typ, (_, to_json, from_json) in _STORED_AS.items():
        held = typ.__name__
        scope |= {held: typ, f"_to_{held}": to_json, f"_from_{held}": from_json}
    exec(source, scope)
    fn = scope[name]
    fn.__qualname__ = f"JobRecord.{name}"
    return fn


# built once, at import, from the annotations, the way dataclasses builds __init__
JobRecord.to_dict = _compile(_encoder_source(), "to_dict")
JobRecord.from_dict = classmethod(_compile(_decoder_source(), "from_dict"))


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


_RANGE_OPS = {
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
}


def _filter_types(typ: Any) -> frozenset[type]:
    """The types a filter on a field of type ``typ`` may hold: ``typ`` and its
    stored form's; an int passes for a float, and a bool never for an int."""
    stored = _STORED_AS.get(typ, (typ,))[0]
    types = {get_origin(typ) or typ, get_origin(stored) or stored}
    return frozenset(types | {int} if typ is float else types)


_FILTER_TYPES = {name: _filter_types(typ) for name, (typ, _) in RECORD_FIELDS.items()}


def _predicate(key: str, want: Any):
    """One filter's test, with the filter checked here, once, not per record."""
    name, _, op = key.partition("__")
    if name not in RECORD_FIELDS:
        raise StoreError(f"unknown query field {name!r}")
    if op and op not in _RANGE_OPS:
        raise StoreError(f"unknown query operator {op!r}")
    (typ, optional), types = RECORD_FIELDS[name], _FILTER_TYPES[name]
    if op and dict in types:  # census and counts are stored as JSON objects, which do not order
        raise StoreError(f"query field {name!r} takes no range operator")
    if want is None:
        if not optional:
            raise StoreError(f"query field {name!r} is never None")
        if op:
            raise StoreError(f"query field {name!r}: None takes no range operator")
    elif type(want) not in types:
        raise StoreError(f"query field {name!r} holds {typ.__name__}, not {want!r:.40}")
    elif type(want) is str and typ is JobStatus and want not in _STATUSES:
        raise StoreError(f"query field {name!r}: {want!r:.40} names no job status")
    want = _flat(want)  # a Money or JobStatus filter compares like the stored field
    if not op:
        return lambda r: _flat(getattr(r, name)) == want
    cmp = _RANGE_OPS[op]

    def test(r: JobRecord) -> bool:
        value = _flat(getattr(r, name))
        return value is not None and cmp(value, want)

    return test


class JobStore:
    """Append-only record log; safe for one writer, many readers in-process.

    ``close()``, or leaving a ``with JobStore(...)`` block, closes the file
    that ``append`` keeps open.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord | None] = {}  # job_id -> record, in append order
        self._appender: TextIO | None = None  # opened by the first append, kept until close()
        self._torn_at: int | None = None  # where a torn final line starts; append cuts it
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
                if not line.endswith(b"\n"):  # a torn final append
                    self._torn_at = fh.tell() - len(line)
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
        if record.job_id in self._records:
            raise StoreError(f"{self.path}:{lineno}: duplicate job_id {record.job_id}")
        self._keep(record)

    def _keep(self, record: JobRecord) -> None:
        """Hold a record just read or appended; its job_id was checked to be new."""
        self._records[record.job_id] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._records

    def get(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise StoreError(f"no record {job_id!r}")
        return record

    def append(self, record: JobRecord) -> None:
        stored = record.to_dict()
        record = JobRecord.from_dict(stored)  # refused, or decoded, as the open would
        with self._lock:
            if record.job_id in self._records:
                raise StoreError(f"duplicate job_id {record.job_id}")
            line = _json_text(stored)
            if self._appender is None:
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)
                    self._torn_at = None
                self._appender = open(self.path, "a", encoding="utf-8", newline="\n")
            self._appender.write(line + "\n")
            self._appender.flush()  # a kill loses at most the line being written
            self._keep(record)

    def close(self) -> None:
        """Close the file ``append`` holds open, if any; a later append opens it again."""
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def records(self) -> Iterator[JobRecord]:
        """All held records in append order."""
        return iter(list(filter(None, self._records.values())))

    def query(self, **filters: Any) -> list[JobRecord]:
        """Equality / range filtering with stable (submitted_at, job_id) order."""
        tests = [_predicate(k, v) for k, v in filters.items()]
        hits = [r for r in filter(None, self._records.values()) if all(t(r) for t in tests)]
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
    by the record.  It holds no records: ``get`` raises ``StoreError``, and
    it lists, queries and exports none.
    """

    def _keep(self, record: JobRecord) -> None:
        self._records[record.job_id] = None  # the id is taken; no record is held
