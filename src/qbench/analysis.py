"""Fidelity scoring, error-rate inference, and campaign aggregation.

Distribution closeness uses the Hellinger-affinity fidelity
F = (sum_x sqrt(p(x) q(x)))**2, with both counts maps normalized first.  A
key outside either support adds nothing, so the sum runs over the shared
support.  A run is a success when F >= 1/e, boundary inclusive (the store's
``classify_success``, re-exported here).  For benchmark circuits the reference
distribution is the analytic delta on the expected output, at any width.

The zero-order device model predicts observed fidelity
F_obs = f**n_2q + (1 - f**n_2q) / 2**q for a width-q benchmark.  The second
term is the floor contributed by uniformly scrambled shots landing on the
ideal outcome; ``debias_uniform_floor`` removes it, after which the per-gate
fidelity follows from an n_2q-th root.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping

from .circuit import ideal_output
from .costing import Money
from .providers import JobStatus
from .store import SUCCESS_THRESHOLD, JobRecord, classify_success, csv_line


def hellinger_fidelity(
    p: Mapping[str, float | int], q: Mapping[str, float | int]
) -> float:
    """Squared Bhattacharyya coefficient of two (will-be-normalized) distributions."""
    pt = float(sum(p.values()))
    qt = float(sum(q.values()))
    if pt <= 0 or qt <= 0:
        raise ValueError("distributions must have positive mass")
    bc = 0.0
    # a key outside either support adds exactly 0.0, so only shared keys are summed
    for key in p.keys() & q.keys():
        bc += math.sqrt((p[key] / pt) * (q[key] / qt))
    return bc * bc


def benchmark_fidelity(counts: Mapping[str, int], q: int, n: int) -> float:
    """Fidelity of measured counts against the analytic benchmark output delta."""
    return hellinger_fidelity(counts, {ideal_output(q, n): 1.0})


def debias_uniform_floor(observed: float, q: int) -> float:
    """Remove the uniform-scramble floor from an observed benchmark fidelity."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if not 0.0 <= observed <= 1.0:  # NaN fails this too
        raise ValueError(f"observed fidelity {observed} is not in [0, 1]")
    floor = 0.5 ** q
    return max(0.0, (observed - floor) / (1.0 - floor))


def infer_f2qg(circuit_fidelity: float, n_2q: int) -> float | None:
    """Per-two-qubit-gate fidelity from a circuit fidelity; None when undefined."""
    if not circuit_fidelity <= 1.0:  # NaN fails this too
        raise ValueError(f"circuit fidelity {circuit_fidelity} is not at most 1")
    if n_2q <= 0 or circuit_fidelity <= 0.0:
        return None
    return circuit_fidelity ** (1.0 / n_2q)


# --- aggregation -----------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    qubits: int
    cloud: str
    target: str
    jobs: int
    mean_fidelity: float
    fidelity_std: float
    mean_cost: Money
    cost_std: Money


def _population_std(values: list[float]) -> float:
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def aggregate(records: Iterable[JobRecord]) -> list[AggregateRow]:
    """Group processed records by (qubits, cloud, target); means and population stds."""
    groups: dict[tuple[int, str, str], list[JobRecord]] = {}
    for r in records:
        if r.status is not JobStatus.PROCESSED:
            continue
        groups.setdefault((r.qubits, r.cloud, r.target), []).append(r)
    rows = []
    for (qubits, cloud, target), members in sorted(groups.items()):
        fids = [r.fidelity for r in members]
        costs = [r.cost.micros for r in members]
        mean_micros = Fraction(sum(costs), len(costs))
        rows.append(
            AggregateRow(
                qubits=qubits,
                cloud=cloud,
                target=target,
                jobs=len(members),
                mean_fidelity=sum(fids) / len(fids),
                fidelity_std=_population_std(fids),
                mean_cost=Money(math.floor(mean_micros + Fraction(1, 2))),
                cost_std=Money(round(_population_std([float(c) for c in costs]))),
            )
        )
    return rows


@dataclass(frozen=True)
class QueuePrediction:
    fraction_overestimated: float
    pairs: tuple[tuple[str, float, float], ...]  # (job_id, predicted, actual)


def queue_prediction(records: Iterable[JobRecord]) -> QueuePrediction:
    """Compare published wait estimates against realized waits."""
    pairs = [
        (r.job_id, r.predicted_wait, r.actual_wait)
        for r in records
        if r.predicted_wait is not None and r.actual_wait is not None
    ]
    if not pairs:
        return QueuePrediction(fraction_overestimated=math.nan, pairs=())
    over = sum(1 for _, p, a in pairs if p > a)
    return QueuePrediction(
        fraction_overestimated=over / len(pairs), pairs=tuple(pairs)
    )


# --- report tables ---------------------------------------------------------------

_Table = tuple[list[str], list[list]]  # header, rows


def _usd(m: Money) -> str:
    return str(m).replace("$", "", 1)


def _processed(records: list[JobRecord], key) -> list[JobRecord]:
    return sorted((r for r in records if r.status is JobStatus.PROCESSED), key=key)


def _fidelity_vs_qubits(records: list[JobRecord]) -> _Table:
    header = ["qubits", "cloud", "target", "fidelity", "job_id"]
    done = _processed(records, attrgetter("qubits", "cloud", "target", "submitted_at", "job_id"))
    return header, [[r.qubits, r.cloud, r.target, repr(r.fidelity), r.job_id] for r in done]


def _fidelity_vs_time(records: list[JobRecord]) -> _Table:
    header = ["submitted_at", "cloud", "target", "qubits", "fidelity", "job_id"]
    done = _processed(records, attrgetter("submitted_at", "job_id"))
    return header, [
        [r.submitted_at, r.cloud, r.target, r.qubits, repr(r.fidelity), r.job_id] for r in done
    ]


def _cost_vs_fidelity(records: list[JobRecord]) -> _Table:
    header = ["qubits", "cloud", "target", "jobs", "cost", "fidelity"]
    return header, [
        [a.qubits, a.cloud, a.target, a.jobs, _usd(a.mean_cost), f"{a.mean_fidelity:.6f}"]
        for a in aggregate(records)
    ]


_STATUS_COLUMNS = ("processed", "submitted", "error", "canceled", "unavailable")


def _availability(records: list[JobRecord]) -> _Table:
    header = ["target", "cloud", "attempts", *_STATUS_COLUMNS, "accepting_fraction"]
    counted = Counter(map(attrgetter("target", "cloud", "status"), records))
    by_target: dict[tuple[str, str], Counter[str]] = {}
    for (target, cloud, status), n in counted.items():
        by_target.setdefault((target, cloud), Counter())[status.value] = n
    rows = []
    for (target, cloud), seen in sorted(by_target.items()):
        n = seen.total()
        accepting = (n - seen["unavailable"]) / n
        rows.append([target, cloud, n, *(seen[s] for s in _STATUS_COLUMNS), f"{accepting:.4f}"])
    return header, rows


def _queue_prediction(records: list[JobRecord]) -> _Table:
    header = ["job_id", "predicted_wait", "actual_wait", "overestimated"]
    pairs = queue_prediction(records).pairs
    return header, [[job_id, repr(p), repr(a), str(p > a).lower()] for job_id, p, a in pairs]


def _table6(records: list[JobRecord]) -> _Table:
    header = [
        "index", "qubits", "cloud", "target", "fidelity", "fid_std", "jobs", "cost", "cost_std"
    ]
    rows = [
        [
            i,
            a.qubits,
            a.cloud,
            a.target,
            f"{a.mean_fidelity:.6f}",
            f"{a.fidelity_std:.6f}",
            a.jobs,
            _usd(a.mean_cost),
            _usd(a.cost_std),
        ]
        for i, a in enumerate(aggregate(records))
    ]
    return header, rows


# the record fields read by the reports of one row per job, and of one row per group
_BY_JOB = ("status", "qubits", "cloud", "target", "fidelity", "submitted_at", "job_id")
_BY_GROUP = ("status", "qubits", "cloud", "target", "fidelity", "cost")

# report kind -> (builder returning (header, rows), the record fields it reads)
_REPORTS = {
    "fidelity_vs_qubits": (_fidelity_vs_qubits, _BY_JOB),
    "fidelity_vs_time": (_fidelity_vs_time, _BY_JOB),
    "cost_vs_fidelity": (_cost_vs_fidelity, _BY_GROUP),
    "availability": (_availability, ("target", "cloud", "status")),
    "queue_prediction": (_queue_prediction, ("job_id", "predicted_wait", "actual_wait")),
    "table6": (_table6, _BY_GROUP),
}

REPORT_KINDS = tuple(_REPORTS)


def write_report(kind: str, records: list[JobRecord], out_path: str) -> int:
    """Write one CSV data file; returns the number of data rows."""
    if kind not in _REPORTS:
        raise ValueError(f"unknown report kind {kind!r}")
    header, rows = _REPORTS[kind][0](records)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_line(header))
        fh.writelines(map(csv_line, rows))
    return len(rows)
