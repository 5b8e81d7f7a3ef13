"""Differential oracle for the report registry in ``analysis``.

``oracle_write_report`` is the earlier single function: one if/elif branch
per report kind, with its own cent formatter.  The registry must write the
same bytes for every kind.
"""

import csv

import pytest

from qbench.analysis import REPORT_KINDS, _usd, aggregate, queue_prediction, write_report
from qbench.cli import load_config, run_campaign
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import JobStore
from test_acceptance import CAMPAIGN_FIXTURE
from test_store import make_record, processed_record

ORACLE_REPORT_KINDS = (
    "fidelity_vs_qubits",
    "fidelity_vs_time",
    "cost_vs_fidelity",
    "availability",
    "queue_prediction",
    "table6",
)


def oracle_usd(m):
    cents = m.cents_half_up()
    sign = "-" if cents < 0 else ""
    return f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"


def oracle_write_report(kind, records, out_path):
    if kind not in ORACLE_REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    rows = []
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
            [a.qubits, a.cloud, a.target, a.jobs, oracle_usd(a.mean_cost), f"{a.mean_fidelity:.6f}"]
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
        by_target = {}
        for r in records:
            by_target.setdefault((r.target, r.cloud), []).append(r)
        for (target, cloud), members in sorted(by_target.items()):
            n = len(members)
            by_status = {s: sum(1 for r in members if r.status is s) for s in JobStatus}
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
        rows = [[job_id, repr(p), repr(a), str(p > a).lower()] for job_id, p, a in qp.pairs]
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
                    oracle_usd(a.mean_cost),
                    oracle_usd(a.cost_std),
                ]
            )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def every_status_records():
    """Records of all five statuses over several targets, clouds and widths."""
    costs = ["15.30", "1.03", "0.005", "0.015", "12.42", "97.50", "0.30"]
    records = []
    for i in range(40):
        status = list(JobStatus)[i % len(JobStatus)]
        if status is JobStatus.PROCESSED:
            cost = Money.from_usd(costs[i % len(costs)])
            fidelity = (0.1 + 0.77 * i / 40) % 1.0
            over = {} if i % 3 else {"predicted_wait": None}
            records.append(processed_record(i, fidelity=fidelity, cost=cost, **over))
        else:
            over = {"error_message": "down"} if status is not JobStatus.SUBMITTED else {}
            if i % 4 == 0:
                over.update(predicted_wait=120.0 + i, actual_wait=90.0 + 3 * i)
            records.append(make_record(i, status=status, **over))
    assert {r.status for r in records} == set(JobStatus)
    return records


def campaign_records(tmp_path):
    config_path = tmp_path / "fixture.ini"
    config_path.write_text(CAMPAIGN_FIXTURE)
    store = tmp_path / "store.jsonl"
    run_campaign(load_config(str(config_path)), str(store))
    return list(JobStore(store).records())


def test_kinds_keep_their_order():
    assert REPORT_KINDS == ORACLE_REPORT_KINDS


@pytest.mark.parametrize("source", ["every_status", "empty", "campaign"])
@pytest.mark.parametrize("kind", ORACLE_REPORT_KINDS)
def test_report_bytes_match_oracle(kind, source, tmp_path):
    records = {
        "every_status": every_status_records,
        "empty": lambda: [],
        "campaign": lambda: campaign_records(tmp_path),
    }[source]()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert write_report(kind, records, str(got)) == oracle_write_report(kind, records, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_unknown_kind_is_still_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="unknown report kind 'pie_chart'"):
        write_report("pie_chart", [], str(tmp_path / "x.csv"))


@pytest.mark.parametrize(
    "micros", [0, 1, 4_999, 5_000, 15_000, 1_030_000, 99_995_000, -1, -5_000, -15_000, -1_234_567]
)
def test_usd_text_matches_oracle(micros):
    assert _usd(Money(micros)) == oracle_usd(Money(micros))
