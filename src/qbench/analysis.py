"""Fidelity scoring, error-rate inference, and campaign aggregation.

Distribution closeness uses the Hellinger-affinity fidelity
F = (sum_x sqrt(p(x) q(x)))**2 over the union of supports, with both counts
maps normalized first.  A run counts as a success when F >= 1/e; the
boundary is inclusive.  For benchmark circuits the reference distribution is
the analytic delta on the expected output, so scoring works at any width.

The zero-order device model predicts observed fidelity
F_obs = f**n_2q + (1 - f**n_2q) / 2**q for a width-q benchmark.  The second
term is the floor contributed by uniformly scrambled shots landing on the
ideal outcome; ``debias_uniform_floor`` removes it, after which the per-gate
fidelity follows from an n_2q-th root.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .circuit import ideal_output
from .costing import Money
from .providers import JobStatus
from .store import SUCCESS_THRESHOLD, JobRecord


def hellinger_fidelity(
    p: Mapping[str, float | int], q: Mapping[str, float | int]
) -> float:
    """Squared Bhattacharyya coefficient of two (will-be-normalized) distributions."""
    pt = float(sum(p.values()))
    qt = float(sum(q.values()))
    if pt <= 0 or qt <= 0:
        raise ValueError("distributions must have positive mass")
    bc = 0.0
    for key in p.keys() | q.keys():
        bc += math.sqrt((p.get(key, 0) / pt) * (q.get(key, 0) / qt))
    return bc * bc


def classify_success(fidelity: float) -> bool:
    """Threshold at 1/e, boundary inclusive."""
    return fidelity >= SUCCESS_THRESHOLD


@dataclass(frozen=True)
class FidelityScore:
    value: float
    shots: int
    reference: str

    @property
    def success(self) -> bool:
        return classify_success(self.value)


def benchmark_fidelity(counts: Mapping[str, int], q: int, n: int) -> FidelityScore:
    """Score measured counts against the analytic benchmark output delta."""
    target = ideal_output(q, n)
    value = hellinger_fidelity(counts, {target: 1.0})
    return FidelityScore(
        value=value, shots=int(sum(counts.values())), reference=f"fourier_adder:{target}"
    )


def debias_uniform_floor(observed: float, q: int) -> float:
    """Remove the uniform-scramble floor from an observed benchmark fidelity."""
    floor = 0.5 ** q
    return max(0.0, (observed - floor) / (1.0 - floor))


@dataclass(frozen=True)
class TwoQubitGateEstimate:
    f_2qg: float
    n_2q: int

    @property
    def error(self) -> float:
        return 1.0 - self.f_2qg


def infer_f2qg(circuit_fidelity: float, n_2q: int) -> TwoQubitGateEstimate | None:
    """Per-two-qubit-gate fidelity from a circuit fidelity; None when undefined."""
    if n_2q <= 0 or circuit_fidelity <= 0.0:
        return None
    return TwoQubitGateEstimate(
        f_2qg=circuit_fidelity ** (1.0 / n_2q), n_2q=n_2q
    )


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

REPORT_KINDS = (
    "fidelity_vs_qubits",
    "fidelity_vs_time",
    "cost_vs_fidelity",
    "availability",
    "queue_prediction",
    "table6",
)


def _usd(m: Money) -> str:
    cents = m.cents_half_up()
    sign = "-" if cents < 0 else ""
    return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def write_report(kind: str, records: list[JobRecord], out_path: str) -> int:
    """Write one CSV data file; returns the number of data rows."""
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    rows: list[list] = []
    if kind == "fidelity_vs_qubits":
        header = ["qubits", "cloud", "target", "fidelity", "job_id"]
        done = [r for r in records if r.status is JobStatus.PROCESSED]
        done.sort(key=lambda r: (r.qubits, r.cloud, r.target, r.submitted_at, r.job_id))
        rows = [[r.qubits, r.cloud, r.target, repr(r.fidelity), r.job_id] for r in done]
    elif kind == "fidelity_vs_time":
        header = ["submitted_at", "cloud", "target", "qubits", "fidelity", "job_id"]
        done = [r for r in records if r.status is JobStatus.PROCESSED]
        done.sort(key=lambda r: (r.submitted_at, r.job_id))
        rows = [
            [r.submitted_at, r.cloud, r.target, r.qubits, repr(r.fidelity), r.job_id]
            for r in done
        ]
    elif kind == "cost_vs_fidelity":
        header = ["qubits", "cloud", "target", "jobs", "cost", "fidelity"]
        rows = [
            [a.qubits, a.cloud, a.target, a.jobs, _usd(a.mean_cost), f"{a.mean_fidelity:.6f}"]
            for a in aggregate(records)
        ]
    elif kind == "availability":
        header = [
            "target",
            "cloud",
            "attempts",
            "processed",
            "submitted",
            "error",
            "canceled",
            "unavailable",
            "accepting_fraction",
        ]
        by_target: dict[tuple[str, str], list[JobRecord]] = {}
        for r in records:
            by_target.setdefault((r.target, r.cloud), []).append(r)
        for (target, cloud), members in sorted(by_target.items()):
            n = len(members)
            by_status = {
                s: sum(1 for r in members if r.status is s) for s in JobStatus
            }
            accepting = (n - by_status[JobStatus.UNAVAILABLE]) / n
            rows.append(
                [
                    target,
                    cloud,
                    n,
                    by_status[JobStatus.PROCESSED],
                    by_status[JobStatus.SUBMITTED],
                    by_status[JobStatus.ERROR],
                    by_status[JobStatus.CANCELED],
                    by_status[JobStatus.UNAVAILABLE],
                    f"{accepting:.4f}",
                ]
            )
    elif kind == "queue_prediction":
        header = ["job_id", "predicted_wait", "actual_wait", "overestimated"]
        qp = queue_prediction(records)
        rows = [
            [job_id, repr(p), repr(a), str(p > a).lower()] for job_id, p, a in qp.pairs
        ]
    else:  # table6
        header = [
            "index",
            "qubits",
            "cloud",
            "target",
            "fidelity",
            "fid_std",
            "jobs",
            "cost",
            "cost_std",
        ]
        for i, a in enumerate(aggregate(records)):
            rows.append(
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
            )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)
