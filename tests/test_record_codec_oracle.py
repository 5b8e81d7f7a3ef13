"""Differential oracle for the ``JobRecord`` codec in ``store``.

``oracle_to_dict`` and ``oracle_from_dict`` are the earlier hand-written
codec: one line per field, each type's stored form spelled out.  The codec
derived from the annotations must write the same objects and read them back
to equal records.
"""

import json

import pytest

from qbench.circuit import GateCensus
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import JobRecord, JobStore, StoreError
from test_report_oracle import every_status_records
from test_store import _random_fixture, make_record, processed_record


def oracle_to_dict(r):
    return {
        "job_id": r.job_id,
        "cloud": r.cloud,
        "target": r.target,
        "qubits": r.qubits,
        "shots": r.shots,
        "seed": r.seed,
        "submitted_at": r.submitted_at,
        "executed_at": r.executed_at,
        "predicted_wait": r.predicted_wait,
        "actual_wait": r.actual_wait,
        "status": r.status.value,
        "census": None if r.census is None else r.census.as_dict(),
        "counts": r.counts,
        "fidelity": r.fidelity,
        "success": r.success,
        "cost": r.cost.micros,
        "error_message": r.error_message,
    }


def oracle_from_dict(obj):
    try:
        cen = obj["census"]
        census = None if cen is None else GateCensus(n_1q=cen["n_1q"], n_2q=cen["n_2q"])
        if census is not None and census.total != cen["total"]:
            raise StoreError(f"census total mismatch in {obj.get('job_id')}")
        return JobRecord(
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


def _line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


FIXTURES = {
    "every_status": every_status_records,
    "random": lambda: _random_fixture(300, seed=11),
    "census": lambda: [
        make_record(0, status=JobStatus.ERROR, census=GateCensus(3000, 1200), error_message="x"),
        processed_record(1, census=GateCensus(0, 0), predicted_wait=None),
        processed_record(2, cost=Money(0), error_message='said "later"'),
    ],
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_to_dict_matches_oracle(fixture):
    for r in FIXTURES[fixture]():
        assert r.to_dict() == oracle_to_dict(r)
        assert _line(r.to_dict()) == _line(oracle_to_dict(r))


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_from_dict_reads_oracle_objects(fixture):
    for r in FIXTURES[fixture]():
        stored = json.loads(_line(oracle_to_dict(r)))
        assert JobRecord.from_dict(stored) == r
        assert JobRecord.from_dict(stored) == oracle_from_dict(stored)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_store_lines_match_oracle(fixture, tmp_path):
    records = FIXTURES[fixture]()
    store = JobStore(tmp_path / "log.jsonl")
    for r in records:
        store.append(r)
    want = "".join(_line(oracle_to_dict(r)) + "\n" for r in records)
    assert (tmp_path / "log.jsonl").read_text() == want
    assert list(JobStore(tmp_path / "log.jsonl").records()) == records
