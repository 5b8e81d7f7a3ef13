"""A campaign holds nothing of the jobs it has written.

``run_campaign`` writes through a ``store._RowStore`` of no fields, which keeps
job ids, not records, with the one reader of that field set: compiled once per
process, not per campaign.  Each provider keeps a job's execution span, not its
handle.  So
once job k's line is written, its ``JobRecord`` and ``JobHandle`` (with the
circuit, census and counts they hold) must be freed before job k+1 is
appended, and the campaign's memory does not grow with the records.

Nor may a job leave memory behind that no object holds: building a benchmark
must not park a short tuple on one of CPython's free lists each time, which
would make a campaign's peak RSS climb with the number of jobs it has run.
"""

import gc
import sys
import weakref

import pytest

from qbench import store as store_module
from qbench.circuit import build_benchmark, random_input
from qbench.cli import load_config, run_campaign
from qbench.providers import SimProvider
from qbench.store import RECORD_FIELDS, JobStore, StoreError, _RowStore
from test_acceptance import CAMPAIGN_FIXTURE
from test_store import make_record, processed_record


def test_campaign_frees_each_job_before_the_next_is_appended(tmp_path, monkeypatch):
    config = tmp_path / "c.ini"
    config.write_text(CAMPAIGN_FIXTURE)
    cfg = load_config(str(config))
    handles, records = {}, []
    submit, append = SimProvider.submit, JobStore.append

    def tracked_submit(provider, *args, **kwargs):
        handle = submit(provider, *args, **kwargs)
        handles[handle.job_id] = weakref.ref(handle)
        return handle

    def tracked_append(store, record):
        # every earlier job's record and handle is dead by now
        assert [r() for r in records] == [None] * len(records)
        live = [job_id for job_id, ref in handles.items() if ref() is not None]
        assert live == [record.job_id]
        append(store, record)
        records.append(weakref.ref(record))

    monkeypatch.setattr(SimProvider, "submit", tracked_submit)
    monkeypatch.setattr(JobStore, "append", tracked_append)
    summary = run_campaign(cfg, str(tmp_path / "run.jsonl"))
    assert len(records) == len(handles) == summary["jobs"] == 60
    assert summary["by_status"]["processed"] > 0


def _mixed_records():
    return [make_record(0), processed_record(1), make_record(2), processed_record(3)]


def test_id_store_writes_what_job_store_writes_and_keeps_only_ids(tmp_path):
    with JobStore(tmp_path / "kept.jsonl") as kept, _RowStore(tmp_path / "ids.jsonl", ()) as ids:
        for record in _mixed_records():
            kept.append(record)
            ids.append(record)
        assert (tmp_path / "ids.jsonl").read_bytes() == (tmp_path / "kept.jsonl").read_bytes()
        assert len(ids) == 4 and "job-0003" in ids and "job-0004" not in ids
        assert set(ids._records.values()) == {None}
        with pytest.raises(StoreError, match="duplicate job_id job-0001"):
            ids.append(processed_record(1))

    reopened = _RowStore(tmp_path / "kept.jsonl", ())
    assert len(reopened) == 4 and "job-0002" in reopened
    assert set(reopened._records.values()) == {None}
    with pytest.raises(StoreError, match="duplicate job_id job-0000"):
        reopened.append(make_record(0))


def test_id_store_get_of_a_held_id_is_a_store_error(tmp_path):
    with _RowStore(tmp_path / "ids.jsonl", ()) as ids:
        ids.append(make_record(0))
    assert "job-0000" in ids
    with pytest.raises(StoreError, match="no record 'job-0000'"):
        ids.get("job-0000")
    assert list(ids.records()) == [] and ids.query() == []


def test_stores_of_one_field_set_share_a_reader_and_a_second_campaign_compiles_none(
    tmp_path, monkeypatch
):
    first, second = _RowStore(tmp_path / "a.jsonl", ()), _RowStore(tmp_path / "b.jsonl", [])
    assert first._read is second._read
    # a field set is read in field order, plus what the query sorts by
    rows = _RowStore(tmp_path / "a.jsonl", ["cost", "target"])
    again = _RowStore(tmp_path / "b.jsonl", ("target", "submitted_at", "cost"))
    assert rows._read is again._read is not first._read
    assert _RowStore(tmp_path / "a.jsonl", RECORD_FIELDS)._read is JobStore._read

    config = tmp_path / "c.ini"
    config.write_text(CAMPAIGN_FIXTURE)
    cfg = load_config(str(config))
    run_campaign(cfg, str(tmp_path / "run-1.jsonl"))
    compiled, compile_ = [], store_module._compile
    monkeypatch.setattr(
        store_module, "_compile", lambda *args, **kw: compiled.append(args) or compile_(*args, **kw)
    )
    run_campaign(cfg, str(tmp_path / "run-2.jsonl"))
    assert compiled == []
    assert (tmp_path / "run-2.jsonl").read_bytes() == (tmp_path / "run-1.jsonl").read_bytes()


def test_building_benchmarks_leaves_no_blocks_behind():
    widths = range(8, 37, 4)
    for q in widths:  # cache each width's body and the shared X gates
        build_benchmark(q, random_input(q, 0))
    gc.collect()  # a full collection empties the tuple free lists
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for seed in range(2500):
            for q in widths:
                build_benchmark(q, random_input(q, seed))
        grown = sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()
    # a prefix made by tuple(<generator>) parks ~18,000 tuples here
    assert grown < 2000, grown
