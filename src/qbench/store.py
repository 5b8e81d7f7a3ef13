"""Append-only JSONL persistence for job records.

One record per line, canonical key order, lower_snake_case field names.  The
format is deliberately dumb: a torn final write (process killed mid-append)
loses at most that one line.  Opening the store streams the file one line at a
time, so it never holds the file or a list of its lines.  A final line without
its newline is skipped, and the first ``append`` cuts it away before it
writes; the open itself never writes, so a read-only store opens even with a
torn tail, and a read cannot cut a line another process is writing.  The
records are kept in one map from job_id to record, in append order, rebuilt on
every open.  A campaign writes through ``_IdStore``, which checks each line
and holds no record, only its id; the CLI's reads go through ``_RowStore``,
which checks each line and holds a row of the fields its command reads.  A
record is slotted (no ``__dict__``: ``to_dict`` or ``dataclasses.asdict``
gives its fields, ``vars`` does not), and a read holds equal text of every
text field but the job_id as one interned object.  A line is UTF-8, read as
``json.loads`` reads bytes: one leading BOM is skipped, and a NUL-led line
(UTF-16 or UTF-32) is corrupt.  A store that appends holds its file open,
in append mode, from its first ``append`` until ``close()`` or the end of its
``with`` block, and flushes each line as it writes it; a store that only reads
never opens its file to write.  An append the operating system refuses raises
``StoreError``, holds no record, and leaves what part of its line reached the
file for the next ``append`` to cut.

``JobRecord``'s annotations are the format: each field is stored under its
name as its declared type, except the three types ``_STORED_AS`` maps to JSON
(a ``JobStatus`` as its text, ``Money`` as integer micro-USD under ``cost``, a
``GateCensus`` as ``{n_1q, n_2q, total}``).  The codec is generated once, at
import, from the annotations and ``_STORED_AS``: ``to_dict`` is one dict
display and ``from_dict`` one unrolled run of checks, each built with ``exec``
the way ``dataclasses`` builds ``__init__``.  Equal stored censuses and costs
decode, after their checks, to one shared object.  Reads check every value
against its declared type (the keys of an object field too), then the rules
across fields (``_validate``, which ``validate`` runs too).  ``_check`` is that
run without the record: it returns the job_id; a row's ``from_dict`` is that run
holding some fields.  ``append`` reads each record's
stored form the same way, so it refuses what the open refuses (the open adds
``path:line``), and ``JobStore`` holds each field as its declared type.
Timestamps are integer seconds from the campaign epoch.  Query supports
equality on any field and range operators via
``field__ge / __gt / __le / __lt`` suffixes, except on ``census`` and
``counts``.  A filter is read by ``_READERS``, the open's own checks of its
field: it must be the field's type (``Money``, ``JobStatus``) or its stored
form (micro-USD, status text naming a status), with a dict's contents checked,
and finite; None matches an optional field by equality only.  Any other filter
raises ``StoreError``.  Results are ordered by (submitted_at, job_id) so equal
filters always produce identical bytes on export.  Every CSV cell is quoted by
one rule, ``_quote``, as ``csv.writer``'s default dialect quotes it.  Report
rows go through ``csv_line``; export rows through a row writer generated, like
the codec, from the annotations and ``_STORED_AS`` once per column list, which
writes the bytes ``csv_line`` writes of the stored values.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import os
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, ge, gt, le, lt
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, Iterable, Iterator, TextIO, get_args, get_origin, get_type_hints

from .circuit import GateCensus
from .costing import Money
from .providers import JobStatus

SUCCESS_THRESHOLD = math.exp(-1)


def classify_success(fidelity: float) -> bool:
    """Threshold at 1/e, boundary inclusive."""
    return fidelity >= SUCCESS_THRESHOLD


class StoreError(Exception):
    """Raised for malformed stores, duplicate ids, or invalid records."""


@dataclass(frozen=True, slots=True, weakref_slot=True)
class JobRecord:
    """One submission attempt, terminal or not.

    ``to_dict`` and ``from_dict``, the store codec, are generated from these
    annotations once the class is made (see ``_compile``).  A record is slotted:
    it has no ``__dict__``, so ``to_dict`` or ``dataclasses.asdict`` gives its
    fields, not ``vars``.
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
        _validate(*attrgetter(*_VALIDATED)(self))


def _validate(job_id, qubits, shots, status, cost, executed_at, predicted_wait, actual_wait,
              census, counts, fidelity, success) -> None:
    """The record rules across fields, on field values of their declared types."""
    if qubits < 1 or shots < 1:
        raise StoreError(f"{job_id}: qubits and shots must be positive")
    if cost.micros < 0:
        raise StoreError(f"{job_id}: negative cost")
    for name, wait in (("predicted_wait", predicted_wait), ("actual_wait", actual_wait)):
        # NaN and infinities are not JSON (RFC 8259), though json writes and reads them
        if not (wait is None or math.isfinite(wait)):
            raise StoreError(f"{job_id}: {name} is not finite")
        if wait is not None and wait < 0:  # an exp(...) draw, or its biased median
            raise StoreError(f"{job_id}: {name} is negative")
    processed = status is JobStatus.PROCESSED
    # each result on its own: a job that never ran holds none of them
    for result in (counts, fidelity, success):
        if processed != (result is not None):
            raise StoreError(f"{job_id}: counts/fidelity/success present iff status is processed")
    if processed:
        if sum(counts.values()) != shots:
            raise StoreError(f"{job_id}: counts do not sum to shots")
        if min(counts.values()) < 1:  # not empty: the counts sum to shots >= 1
            raise StoreError(f"{job_id}: counts hold a count below 1")
        if not 0.0 <= fidelity <= 1.0:
            raise StoreError(f"{job_id}: fidelity outside [0, 1]")
        if success != classify_success(fidelity):
            raise StoreError(f"{job_id}: success flag contradicts fidelity")
        if executed_at is None:
            raise StoreError(f"{job_id}: processed record missing executed_at")
        if census is None:
            raise StoreError(f"{job_id}: processed record missing census")
    if status is JobStatus.UNAVAILABLE and cost.micros != 0:
        raise StoreError(f"{job_id}: unavailable submissions cost nothing")


_VALIDATED = tuple(inspect.signature(_validate).parameters)  # the fields it reads, in order


def _declared(hint: Any) -> tuple[Any, bool]:
    """A field annotation as (type, may be None)."""
    if isinstance(hint, UnionType):
        (typ,) = [t for t in get_args(hint) if t is not NoneType]
        return typ, True
    return hint, False


# the stored format: field name -> (declared type, may be None), in field order
RECORD_FIELDS = {name: _declared(hint) for name, hint in get_type_hints(JobRecord).items()}


def _census_from_json(obj: dict[str, int]) -> GateCensus:
    return _census_from_items(tuple(obj.items()))


@lru_cache(maxsize=1024)  # equal stored censuses decode to one shared object
def _census_from_items(items: tuple[tuple[str, int], ...]) -> GateCensus:
    obj = dict(items)
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
    Money: (int, attrgetter("micros"), lru_cache(maxsize=1024)(Money)),  # equal costs share one
    GateCensus: (dict[str, int], GateCensus.as_dict, _census_from_json),
}


# a field value as the store writes it, query filters are read from it and CSV cells show it
def _flat(value: Any) -> Any:
    codec = _STORED_AS.get(type(value))
    return value if codec is None else codec[1](value)


# the one JSON encoding of the store: record lines, and counts and census cells in CSV
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# the one JSON decoding of a store line: a value, then JSON whitespace (space, tab, LF, CR)
_json_value = json.JSONDecoder().raw_decode
_json_space = json.decoder.WHITESPACE.match


def _quote(cell: str) -> str:
    """A CSV cell as ``csv.writer`` writes it: quoted, with its quotes doubled, only
    when it holds a quote, comma, CR or LF."""
    if '"' in cell or "," in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


# a census's CSV cell, made once per census: equal stored censuses decode to one object
_object_cell = lru_cache(maxsize=1024)(lambda value: _quote(_json_text(_flat(value))))


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


def _field_checks(name: str) -> list[str]:
    """The lines that check and decode field ``name``'s stored value, held in a local ``name``."""
    typ, optional = RECORD_FIELDS[name]
    json_type, _, decode = _STORED_AS.get(typ, (typ, None, None))
    # an int passes for a float, a bool never for an int
    allowed = [float, int] if json_type is float else [get_origin(json_type) or json_type]
    mistyped = " and ".join(f"type({name}) is not {t.__name__}" for t in allowed)
    if optional:
        mistyped += f" and {name} is not None"
    lines = [
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
    return lines + ["    " + line for line in checks]


# the held text that equal records share: every text field but job_id, the store's key
_SHARED_TEXT = {name for name, (typ, _) in RECORD_FIELDS.items() if typ is str} - {"job_id"}


def _held(name: str) -> str:
    """Field ``name`` as a read holds it: shared text is interned once its checks pass."""
    if name not in _SHARED_TEXT:
        return name
    if RECORD_FIELDS[name][1]:  # optional
        return f"None if {name} is None else _intern({name})"
    return f"_intern({name})"


def _decoder_source(fields: tuple[str, ...]) -> str:
    """A read of a stored object, every check of the format unrolled, holding ``fields``.

    All of them make ``from_dict``, some a row's ``from_dict`` (each returns ``cls``
    of its fields), and none ``_check``, which returns the job_id.
    """
    lines = [
        "def from_dict(cls, obj):" if fields else "def _check(obj):",
        '    """Read a stored object; raises StoreError for anything ``append`` refuses.',
        "",
        "    The one check of the format: the open runs it on every line read, and",
        "    ``append`` on every record's stored form before writing it.",
        '    """',
        "    if type(obj) is not dict:",
        "        raise StoreError('a record line must hold a JSON object')",
        "    if obj.keys() != _FIELDS:",
        "        raise StoreError(f'missing or unknown keys {sorted(obj.keys() ^ _FIELDS)}')",
    ]
    for name in RECORD_FIELDS:
        lines += [f"    {name} = obj[{name!r}]", *_field_checks(name)]
    lines += [
        f"    _validate({', '.join(_VALIDATED)})",
        f"    return cls({', '.join(map(_held, fields))})" if fields else "    return job_id",
    ]
    return "\n".join(lines)


def _reader_source(name: str) -> str:
    """``read_<name>``: ``from_dict``'s checks of the field ``name``, run on one stored value."""
    return "\n".join([f"def read_{name}({name}):", *_field_checks(name), f"    return {name}"])


def _compile(source: str, qualname: str) -> Any:
    """The function ``source`` defines, named ``qualname``, with the store's names in scope."""
    scope: dict[str, Any] = {"StoreError": StoreError, "_flat": _flat, "_validate": _validate}
    scope["_intern"] = sys.intern  # mortal: a shared text is freed with its last holder
    scope |= {"_json_text": _json_text, "_quote": _quote, "_object_cell": _object_cell}
    scope["_FIELDS"] = RECORD_FIELDS.keys()
    for typ, (_, to_json, from_json) in _STORED_AS.items():
        held = typ.__name__
        scope |= {held: typ, f"_to_{held}": to_json, f"_from_{held}": from_json}
    exec(source, scope)
    fn = scope[qualname.rpartition(".")[2]]
    fn.__qualname__ = qualname
    return fn


# built once, at import, from the annotations, the way dataclasses builds __init__
JobRecord.to_dict = _compile(_encoder_source(), "JobRecord.to_dict")
JobRecord.from_dict = classmethod(
    _compile(_decoder_source(tuple(RECORD_FIELDS)), "JobRecord.from_dict")
)
_check = _compile(_decoder_source(()), "_check")
# field name -> a filter value checked and decoded as ``from_dict`` reads that field
_READERS = {name: _compile(_reader_source(name), f"read_{name}") for name in RECORD_FIELDS}


def csv_line(fields: Iterable[Any]) -> str:
    """One CSV row, byte for byte as ``csv.writer`` writes it in its default dialect.

    A cell is ``str`` of its value (None is empty), through ``_quote``.  Rows
    end in CRLF, and a row of one empty cell is written ``""`` so it does not
    read as blank.
    """
    cells = [_quote("" if f is None else str(f)) for f in fields]
    if cells == [""]:
        return '""\r\n'
    return ",".join(cells) + "\r\n"


def _cell_source(name: str) -> str:
    """Field ``name``'s CSV cell, as ``csv_line`` writes its stored value: an expression on
    the local ``name`` that holds the field."""
    typ, optional = RECORD_FIELDS[name]
    json_type = _STORED_AS.get(typ, (typ,))[0]
    if get_origin(json_type) is dict:  # JSON text, quoted; a census's is memoised
        cell = f"_object_cell({name})" if typ in _STORED_AS else f"_quote(_json_text({name}))"
    else:  # text is quoted as it needs; a number's or a bool's never needs it
        cell = f"_to_{typ.__name__}({name})" if typ in _STORED_AS else name
        cell = f"_quote({cell})" if json_type is str else cell
    return f"('' if {name} is None else {cell})" if optional else cell


@lru_cache(maxsize=64)
def _row_writer(columns: tuple[str, ...]) -> Any:
    """``export_row(record)``: the record's CSV line of ``columns``, the bytes ``csv_line``
    writes of their stored values; generated once per column list, like the codec."""
    line = ",".join(f"{{{_cell_source(name)}}}" for name in columns)
    if len(columns) == 1:  # a row of one empty cell is written ""
        line = f"""(f"{line}" or '""') + '\\r\\n'"""
    else:
        line = f'f"{line}\\r\\n"'
    source = [
        "def export_row(r):",
        *(f"    {name} = r.{name}" for name in dict.fromkeys(columns)),  # a repeat is read once
        f"    return {line}",
    ]
    return _compile("\n".join(source), "export_row")


_RANGE_OPS = {"ge": ge, "gt": gt, "le": le, "lt": lt}


def _predicate(key: str, want: Any):
    """One filter's test; the filter is read once, here, as a line's field is read, and
    each record's field is compared with it in its declared type."""
    name, _, op = key.partition("__")
    read = _READERS.get(name)
    if read is None:
        raise StoreError(f"unknown query field {name!r}")
    if op and op not in _RANGE_OPS:
        raise StoreError(f"unknown query operator {op!r}")
    typ = RECORD_FIELDS[name][0]
    if op and get_origin(_STORED_AS.get(typ, (typ,))[0]) is dict:  # JSON objects do not order
        raise StoreError(f"query field {name!r} takes no range operator")
    try:
        want = read(_flat(want))
    except StoreError as exc:
        raise StoreError(f"query field {name!r}: {exc}") from exc
    if type(want) is float and not math.isfinite(want):
        raise StoreError(f"query field {name!r}: {want!r} is not finite")
    field = attrgetter(name)
    if not op:
        return lambda r: field(r) == want
    if want is None:
        raise StoreError(f"query field {name!r}: None takes no range operator")
    cmp = _RANGE_OPS[op]

    def test(r: JobRecord) -> bool:
        value = field(r)
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
        self._torn_at: int | None = None  # where a torn or failed line starts; append cuts it
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
                if not line.isspace():
                    self._load(line, lineno)

    def _load(self, line: bytes, lineno: int) -> None:
        try:
            # as json.loads reads UTF-8 bytes, less its per-call encoding sniff: it
            # skips one leading BOM and passes encoded surrogates, so this does too
            text = line.decode("utf-8", "surrogatepass")
            start = _json_space(text, 1 if text.startswith("\ufeff") else 0).end()
            obj, end = _json_value(text, start)
            if _json_space(text, end).end() != len(text):
                raise ValueError("extra data after the record")
            job_id, held = self._read(obj)
        except UnicodeDecodeError as exc:
            raise StoreError(f"{self.path}:{lineno}: record line is not UTF-8") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, a too-long int, deep nesting
            raise StoreError(f"{self.path}:{lineno}: corrupt record line") from exc
        except StoreError as exc:
            raise StoreError(f"{self.path}:{lineno}: {exc}") from exc
        if job_id in self._records:
            raise StoreError(f"{self.path}:{lineno}: duplicate job_id {job_id}")
        self._records[job_id] = held

    def _read(self, obj: Any) -> tuple[str, Any]:
        """A stored object's job_id and what the store holds under it (the record); may refuse.

        The one hook a subclass overrides: the open and ``append`` read each line through it.
        """
        record = JobRecord.from_dict(obj)
        return record.job_id, record

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
        job_id, held = self._read(stored)  # refused, or read, as the open would
        with self._lock:
            if job_id in self._records:
                raise StoreError(f"duplicate job_id {job_id}")
            line = _json_text(stored)
            start = self._torn_at  # where the file ends good, until the appender tells
            try:  # a read-only file system, a full disk, no permission
                if self._appender is None:
                    if self._torn_at is not None:
                        os.truncate(self.path, self._torn_at)
                        self._torn_at = None
                    self._appender = open(self.path, "a", encoding="utf-8", newline="\n")
                start = self._appender.tell()
                self._appender.write(line + "\n")
                self._appender.flush()  # a kill loses at most the line being written
            except OSError as exc:
                self._torn_at = start  # the next append cuts what reached the file
                if self._appender is not None:
                    with contextlib.suppress(OSError):  # its flush of the line may fail again
                        self._appender.close()
                    self._appender = None
                reason = exc.strerror or exc
                raise StoreError(f"cannot append to store {self.path}: {reason}") from exc
            self._records[job_id] = held

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
        hits.sort(key=attrgetter("submitted_at", "job_id"))
        return hits

    def export_csv(
        self,
        out_path: str | os.PathLike[str],
        *,
        columns: Iterable[str] | None = None,
        **filters: Any,
    ) -> int:
        """Write matching records as RFC-4180 CSV; returns the row count."""
        if isinstance(columns, str):  # not one name a character
            raise StoreError(f"export columns take a list of column names, not {columns!r}")
        cols = tuple(columns) if columns is not None else tuple(RECORD_FIELDS)
        if not cols:
            raise StoreError("export needs at least one column")
        for c in cols:
            if c not in RECORD_FIELDS:
                raise StoreError(f"unknown export column {c!r}")
        rows = self.query(**filters)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_line(cols))
            fh.writelines(map(_row_writer(cols), rows))
        return len(rows)


class _IdStore(JobStore):
    """A ``JobStore`` that keeps the job ids of its records, not the records.

    Its ``_read`` checks each line it opens, and each record's stored form it
    appends, with ``_check``: ``from_dict``'s checks, without building the
    record.  So a writer gets ``JobStore``'s bytes and ``path:line`` errors,
    ``len`` and ``in`` answer as usual, and its memory grows by one id per
    record.  It holds no records: ``get`` raises ``StoreError``; it lists,
    queries and exports none.
    """

    def _read(self, obj: Any) -> tuple[str, None]:
        return _check(obj), None  # the id is taken; no record is held


class _RowStore(JobStore):
    """A ``JobStore`` that holds, of each record, a row of the ``fields`` a reader reads.

    Its ``_read`` runs ``from_dict``'s checks on each line, so it opens or refuses
    a store as ``JobStore`` does, then holds a named tuple of ``fields`` with the
    job_id and submitted_at, which ``query`` sorts by.  Names that are no field are
    left for ``query`` or ``export_csv`` to refuse.  Its rows stand in for records
    wherever only those fields are read: ``query``, ``export_csv`` of held columns,
    and the reports.
    """

    def __init__(self, path: str | os.PathLike[str], fields: Iterable[str]):
        held = {"job_id", "submitted_at", *fields}
        row = namedtuple("Row", [name for name in RECORD_FIELDS if name in held])
        row.from_dict = classmethod(_compile(_decoder_source(row._fields), "Row.from_dict"))
        self._from_dict = row.from_dict
        super().__init__(path)

    def _read(self, obj: Any) -> tuple[str, Any]:
        row = self._from_dict(obj)
        return row.job_id, row
