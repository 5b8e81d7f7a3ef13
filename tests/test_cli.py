import contextlib
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbench
from qbench import cli
from qbench import store as store_module
from qbench.cli import (
    DEFAULT_SEED,
    SUBMIT_SPACING,
    ConfigError,
    _parse_qubits,
    load_config,
    main,
    record_from_poll,
    run_campaign,
)
from qbench.costing import Money
from qbench.providers import DAY, PRESET_NAMES, JobStatus
from qbench.store import JobStore
from test_store import (
    MALFORMED_EDITS,
    RecordingOpen,
    make_record,
    processed_record,
    write_malformed_store,
)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_config(path, body):
    path.write_text(body)
    return str(path)


BASE_CONFIG = """
[campaign]
qubits = 4,6
shots = 100
days = 1
seed = 20240917

[targets]
use = aria1-emulator, garnet-aws
"""


def test_parse_qubits_forms():
    assert _parse_qubits("8..16:2") == (8, 10, 12, 14, 16)
    assert _parse_qubits("8..10") == (8, 9, 10)
    assert _parse_qubits("4, 6,8") == (4, 6, 8)
    for bad in ("", "16..8", "4..8:0", "1,4", "61"):
        with pytest.raises((ConfigError, ValueError)):
            _parse_qubits(bad)


def test_wide_qubit_range_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"qubit sizes out of range in '2\.\.100000'"):
            _parse_qubits("2..100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_long_qubit_list_with_repeats_is_refused_quickly():
    text = ",".join(str(2 + i % 59) for i in range(50_000))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"qubits = lists 2, 3, .*, 60 more than once"):
        _parse_qubits(text)
    assert time.perf_counter() - start < 1.0


def test_load_config_defaults_and_overrides(tmp_path):
    cfg_text = """
[campaign]
qubits = 8..12:2
shots = 250
days = 2
seed = 7
store = /tmp/somewhere.jsonl
budget_cap = 1500.00

[targets]
use = garnet-aws, h1-azure

[target:garnet-aws]
f_2qg = 0.99
gate_limit = 4000
qubits = 18
queue_mu = 5.0
"""
    cfg = load_config(write_config(tmp_path / "c.ini", cfg_text))
    assert cfg.qubits == (8, 10, 12)
    assert cfg.shots == 250 and cfg.days == 2 and cfg.seed == 7
    assert cfg.store == "/tmp/somewhere.jsonl"
    assert cfg.budget_cap == Money.from_usd("1500")
    garnet = cfg.targets[0]
    assert garnet.noise.f_2qg == 0.99
    assert garnet.gate_limit == 4000
    assert garnet.qubits == 18
    assert garnet.queue.mu == 5.0
    assert garnet.queue.sigma == 1.0  # untouched fields keep preset values


def test_load_config_rejects_bad_input(tmp_path):
    for body in (
        "[campaign]\nqubits = 4\n",  # no targets section
        "[campaign]\nqubits = 4\n[targets]\nuse =\n",  # empty target list
        "[campaign]\nqubits = 4\n[targets]\nuse = warp-drive\n",  # unknown preset
        BASE_CONFIG + "[target:garnet-aws]\ncolor = red\n",  # unknown override
        "[campaign]\nqubits = 4\nshots = -5\n[targets]\nuse = garnet-aws\n",
    ):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "bad.ini", body))


@pytest.mark.parametrize(
    "line",
    [
        "budget_cap = -5",
        "execution_seconds = -100",
        "gate_limit = -1",
        "qubits = 0",
        "queue_bias = -1",
        "queue_sigma = -0.5",
        "queue_mu = nan",
        "queue_sigma = inf",
        "queue_mu = 800",
        "queue_sigma = 60",
        "queue_bias = 1e308",
    ],
)
def test_out_of_range_config_value_is_exit_2(tmp_path, line):
    in_campaign = line.startswith("budget_cap")
    body = f"""
[campaign]
qubits = 4
{line if in_campaign else ""}
[targets]
use = garnet-aws
[target:garnet-aws]
{"" if in_campaign else line}
"""
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert "config error" in err
    assert not store_path.exists()


def test_target_listed_twice_is_exit_2(tmp_path):
    body = "[campaign]\nqubits = 4\n[targets]\nuse = garnet-aws, aria1-emulator, garnet-aws\n"
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert "use = lists garnet-aws more than once" in err
    assert not store_path.exists()


def test_qubit_size_listed_twice_is_exit_2(tmp_path):
    body = "[campaign]\nqubits = 8,6,8\n[targets]\nuse = garnet-aws\n"
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert "qubits = lists 8 more than once" in err
    assert not store_path.exists()


def test_budget_cap_that_is_not_finite_is_exit_2(tmp_path):
    body = "[campaign]\nqubits = 4\nbudget_cap = sNaN\n[targets]\nuse = garnet-aws\n"
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert "'sNaN' is not finite" in err
    assert not store_path.exists()


ONE_TARGET = "[campaign]\nqubits = 4\n[targets]\nuse = garnet-aws\n"


def seeded(seed):
    return ONE_TARGET.replace("qubits = 4", f"qubits = 4\nseed = {seed}")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_exit_2_and_creates_no_store(tmp_path, seed):
    # rng folds a seed to 64 bits, so -1 and 2**64 would run 2**64 - 1's and 0's campaigns
    cfg = write_config(tmp_path / "c.ini", seeded(seed))
    store_path = tmp_path / "run.jsonl"
    code, out, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert (code, out, err) == (2, "", f"config error: seed {seed} is not in [0, 2**64)\n")
    assert not store_path.exists()


def test_largest_64_bit_seed_still_runs(tmp_path):
    cfg = write_config(tmp_path / "c.ini", seeded(2**64 - 1))
    store_path = tmp_path / "run.jsonl"
    assert load_config(cfg).seed == 2**64 - 1
    assert run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)[0] == 0
    assert len(JobStore(store_path)) == 1


def sweeps_config(sweeps):
    return (
        f"[campaign]\nqubits = 8,10\ndays = 1\nsweeps_per_day = {sweeps}\n"
        "[targets]\nuse = garnet-aws, h2-azure\n"
    )


def test_sweeps_too_short_for_their_slots_are_exit_2_and_create_no_store(tmp_path):
    # 288 sweeps leave 300 s each, so four slots 300 s apart ran into the next
    # sweep and past the only day, and gave one target two jobs at one clock
    cfg = write_config(tmp_path / "c.ini", sweeps_config(288))
    store_path = tmp_path / "run.jsonl"
    code, out, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    message = "sweeps_per_day = 288 leaves 300 s a sweep, too short for 4 slots 300 s apart"
    assert (code, out, err) == (2, "", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


@pytest.mark.parametrize(
    "sweeps, loads",
    [
        (72, True),  # 1,200 s a sweep: four slots fill it at their spacing
        (90, True),  # 960 s: the last slot is at 900 s, the largest count that fits
        (96, False),  # 900 s: the last slot would share the next sweep's first clock
    ],
)
def test_sweeps_per_day_fits_every_slot_before_the_next_sweep(tmp_path, sweeps, loads):
    path = write_config(tmp_path / "c.ini", sweeps_config(sweeps))
    if loads:
        assert load_config(path).sweeps_per_day == sweeps
    else:
        with pytest.raises(ConfigError, match=f"sweeps_per_day = {sweeps} leaves 900 s a sweep"):
            load_config(path)


# a config line no setting reads, and what the error must name
CONFIG_TYPOS = {
    "campaign-key": (ONE_TARGET.replace("qubits = 4", "qubits = 4\nshot = 7"), "['shot']"),
    "targets-key": (ONE_TARGET + "uses = h1-azure\n", "['uses']"),
    "override-not-in-use": (ONE_TARGET + "[target:garnett-aws]\nf_2qg = 0.9\n", "garnett-aws"),
    "unknown-section": (ONE_TARGET + "[targetz]\nuse = h1-azure\n", "[targetz]"),
    "default-key": ("[DEFAULT]\nshots = 7\n" + ONE_TARGET, "[DEFAULT] keys are not read"),
    # refused with the other sections' keys, before the bad shots is read
    "override-key": (
        ONE_TARGET.replace("qubits = 4", "qubits = 4\nshots = many") + "[target:garnet-aws]\ncolor = red\n",
        "unknown keys in [target:garnet-aws]: ['color']",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_TYPOS))
def test_config_key_or_section_no_setting_reads_is_exit_2(tmp_path, case):
    body, named = CONFIG_TYPOS[case]
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert err.startswith("config error: ") and named in err
    assert not store_path.exists()


@pytest.mark.parametrize(
    "body",
    [
        "; caf\xe9\n".encode("latin-1") + ONE_TARGET.encode(),  # a Latin-1 comment
        (ONE_TARGET + "[campaign]\nshots = 7\n").encode(),  # [campaign] twice
        b"qubits = 4\n" + ONE_TARGET.encode(),  # a key before any section header
    ],
    ids=["not-utf8", "duplicate-section", "no-section-header"],
)
def test_config_file_that_cannot_be_parsed_is_exit_2(tmp_path, body):
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(body)
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"config error: bad config {cfg}: ")
    assert not store_path.exists()


@pytest.mark.parametrize("name", ["runs%1.jsonl", "s%(seed)s.jsonl"])
def test_percent_in_a_config_value_is_read_as_written(tmp_path, name):
    body = seeded(3).replace("qubits = 4", f"qubits = 4\nstore = {tmp_path / name}")
    code, _, err = run_cli("campaign", "run", "--config", write_config(tmp_path / "c.ini", body))
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.ini", name])
    assert len(JobStore(tmp_path / name)) == 1


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("qubits = 4", "qubits = 4\nshots = 5%", "bad config value"),
        ("use = garnet-aws", "use = garnet-aws%", "unknown target preset 'garnet-aws%'"),
    ],
)
def test_percent_in_a_config_value_is_no_setting_and_exit_2(tmp_path, old, new, named):
    cfg = write_config(tmp_path / "c.ini", ONE_TARGET.replace(old, new))
    store_path = tmp_path / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 2
    assert err.startswith("config error: ") and named in err
    assert not store_path.exists()


def test_inline_comments_are_stripped(tmp_path):
    body = """
[campaign]
qubits = 4,6        ; two small sizes
shots = 100         # fast

[targets]
use = garnet-aws
"""
    cfg = load_config(write_config(tmp_path / "c.ini", body))
    assert cfg.qubits == (4, 6)
    assert cfg.shots == 100


@pytest.mark.parametrize("env_seed", ["abc", "-1", str(2**64)])
def test_env_seed_is_not_read_when_config_sets_seed(tmp_path, monkeypatch, env_seed):
    # nor when it sets none: a seedless config runs DEFAULT_SEED in any environment
    for name, body, seed in (("seeded", seeded(5), 5), ("seedless", ONE_TARGET, DEFAULT_SEED)):
        cfg = write_config(tmp_path / f"{name}.ini", body)
        plain = tmp_path / f"{name}-plain.jsonl"
        monkeypatch.delenv("QBENCH_SEED", raising=False)
        assert run_cli("--store", str(plain), "campaign", "run", "--config", cfg)[0] == 0
        monkeypatch.setenv("QBENCH_SEED", env_seed)
        assert load_config(cfg).seed == seed
        store_path = tmp_path / f"{name}-env.jsonl"
        assert run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)[0] == 0
        assert store_path.read_bytes() == plain.read_bytes()


def test_campaign_run_end_to_end(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    code, out, _ = run_cli("--store", str(store_path), "--json", "campaign", "run", "--config", cfg)
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 4  # 2 targets x 2 sizes x 1 day
    store = JobStore(store_path)
    assert len(store) == 4
    for record in store.records():
        assert record.status is JobStatus.PROCESSED
        assert sum(record.counts.values()) == 100
        assert record.fidelity is not None


def test_campaign_is_deterministic_across_runs(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    stores = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, _, _ = run_cli("--store", str(path), "campaign", "run", "--config", cfg)
        assert code == 0
        stores.append(path.read_bytes())
    assert stores[0] == stores[1]


def test_budget_cap_stops_submissions(tmp_path):
    body = """
[campaign]
qubits = 4,6
shots = 500
days = 1
seed = 5
budget_cap = 1.00

[targets]
use = garnet-aws
"""
    cfg = write_config(tmp_path / "c.ini", body)
    store_path = tmp_path / "capped.jsonl"
    code, out, _ = run_cli("--store", str(store_path), "--json", "campaign", "run", "--config", cfg)
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 1  # $1.03 spent after the first job blows the cap
    assert summary["skipped_budget"] == 1


# sweep counts that divide a day, up to 96 (900 s sweeps); a config draws one its
# slots fit in, as more sweeps would add jobs but no new order
SWEEP_COUNTS = [n for n in range(1, 97) if DAY % n == 0]
BINDING_CAP = "budget_cap = 0.50\n"  # garnet-aws's second 100-shot job passes it


@st.composite
def small_campaigns(draw):
    use = draw(st.lists(st.sampled_from(PRESET_NAMES), min_size=1, max_size=3, unique=True))
    sizes = st.sampled_from([2, 5, 8, 16, 18, 22])
    qubits = draw(st.lists(sizes, min_size=1, max_size=3, unique=True))
    slots = len(use) * len(qubits)
    fits = [n for n in SWEEP_COUNTS if (slots - 1) * SUBMIT_SPACING < DAY // n]
    return (
        f"[campaign]\nqubits = {','.join(map(str, qubits))}\nshots = 100\n"
        f"days = {draw(st.integers(1, 2))}\nsweeps_per_day = {draw(st.sampled_from(fits))}\n"
        f"seed = {draw(st.integers(0, 1000))}\n{draw(st.sampled_from(['', BINDING_CAP]))}"
        f"[targets]\nuse = {', '.join(use)}\n"
    )


@settings(max_examples=40, deadline=None)
@example(
    "[campaign]\nqubits = 2,5\nshots = 100\ndays = 2\nsweeps_per_day = 4\nseed = 1\n"
    f"{BINDING_CAP}[targets]\nuse = garnet-aws, h2-azure\n"
)
@given(small_campaigns())
def test_campaign_store_is_in_query_order(body):
    # every slot has its own clock, so (submitted_at, job_id) strictly rises
    # line by line, budget skips included
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "run.jsonl")
        summary = run_campaign(load_config(write_config(Path(tmp) / "c.ini", body)), store_path)
        with open(store_path, encoding="utf-8") as fh:
            keys = [(r["submitted_at"], r["job_id"]) for r in map(json.loads, fh)]
    assert len(keys) == summary["jobs"]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_jobs_poll_summarizes(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    code, out, _ = run_cli("--store", str(store_path), "--json", "jobs", "poll")
    assert code == 0
    summary = json.loads(out)
    assert summary["jobs"] == 4
    assert summary["by_target_status"]["garnet-aws/processed"] == 2


def test_report_and_empty_report_exit_codes(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    out_csv = tmp_path / "t6.csv"
    code, out, _ = run_cli(
        "--store", str(store_path), "--json", "report", "table6", "--out", str(out_csv)
    )
    assert code == 0
    assert json.loads(out)["rows"] == 4
    assert out_csv.exists()

    code, _, err = run_cli(
        "--store", str(store_path), "report", "table6",
        "--filter", "status=canceled", "--out", str(tmp_path / "empty.csv"),
    )
    assert code == 4
    assert "no matching rows" in err


def test_report_filters_coerce_types(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    out_csv = tmp_path / "fq.csv"
    code, out, _ = run_cli(
        "--store", str(store_path), "--json", "report", "fidelity_vs_qubits",
        "--filter", "qubits__ge=6", "--out", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["rows"] == 2


def _export_ids(store_path, tmp_path, *filters):
    out_csv = tmp_path / "ids.csv"
    args = ["--store", str(store_path), "store", "export", "--columns", "job_id"]
    for f in filters:
        args += ["--filter", f]
    code, _, err = run_cli(*args, "--out", str(out_csv))
    ids = out_csv.read_text().splitlines()[1:] if code == 0 else []
    return code, ids, err


@pytest.fixture
def typed_store(tmp_path):
    path = tmp_path / "typed.jsonl"
    with JobStore(path) as store:
        store.append(make_record(1, job_id="000123"))
        store.append(make_record(2, job_id="123"))
        store.append(processed_record(3, cost=Money.from_usd("1.03")))
        store.append(processed_record(4, fidelity=0.25, cost=Money.from_usd("15.30")))
    return path


def test_filter_string_field_keeps_leading_zeros(typed_store, tmp_path):
    assert _export_ids(typed_store, tmp_path, "job_id=000123")[:2] == (0, ["000123"])
    assert _export_ids(typed_store, tmp_path, "job_id=123")[:2] == (0, ["123"])


def test_filter_cost_is_read_in_usd(typed_store, tmp_path):
    assert _export_ids(typed_store, tmp_path, "cost__gt=1.5")[:2] == (0, ["job-0004"])
    assert _export_ids(typed_store, tmp_path, "cost=1.03")[:2] == (0, ["job-0003"])
    assert _export_ids(typed_store, tmp_path, "cost__le=1.03", "cost__ge=0.5")[:2] == (
        0,
        ["job-0003"],
    )


def test_filter_values_follow_field_types(typed_store, tmp_path):
    assert _export_ids(typed_store, tmp_path, "qubits=010", "success=TRUE")[:2] == (
        0,
        ["job-0003"],
    )
    assert _export_ids(typed_store, tmp_path, "fidelity__lt=0.5")[1] == ["job-0004"]
    assert _export_ids(typed_store, tmp_path, "status=processed", "shots=500")[1] == [
        "job-0003",
        "job-0004",
    ]


@pytest.mark.parametrize(
    "bad",
    [
        "qubits=six",
        "shots__ge=1.5",
        "cost__gt=0.0000001",
        "cost=twelve",
        "status=finished",
        "success=yes",
        "fidelity__ge=nan",
        "census=280",
        "counts=1",
        "qubits__zz=3",
    ],
)
def test_filter_value_of_the_wrong_type_is_exit_2(typed_store, tmp_path, bad):
    code, _, err = _export_ids(typed_store, tmp_path, bad)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("bad", ["cost__gt=inf", "cost=sNaN", "cost=1e999999999", "cost__lt=nan"])
def test_filter_cost_that_is_not_finite_is_exit_2(typed_store, tmp_path, bad):
    out = tmp_path / "t.csv"
    args = ["--store", str(typed_store), "report", "table6", "--out", str(out), "--filter", bad]
    code, _, err = run_cli(*args)
    assert code == 2
    assert "is not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, words",
    [
        ("status=finished", "query field 'status': status: 'finished' is not a valid JobStatus"),
        ("census=280", "query field 'census': census holds '280', not a stored GateCensus"),
        ("counts__ge=1", "query field 'counts' takes no range operator"),
    ],
)
def test_filter_on_a_field_the_store_reads_as_text_is_refused_in_its_words(
    typed_store, tmp_path, bad, words
):
    code, _, err = _export_ids(typed_store, tmp_path, bad)
    assert (code, err) == (2, f"config error: {words}\n")


def test_filter_on_unknown_field_is_exit_2(typed_store, tmp_path):
    code, _, err = _export_ids(typed_store, tmp_path, "qbits=6")
    assert code == 2
    assert "config error: unknown query field 'qbits'" in err


def test_repeated_filter_key_in_store_export_is_exit_2(typed_store, tmp_path):
    code, ids, err = _export_ids(typed_store, tmp_path, "qubits=8", "qubits=10")
    assert (code, ids, err) == (2, [], "config error: --filter lists qubits more than once\n")
    assert [p.name for p in tmp_path.iterdir()] == [typed_store.name]
    # distinct keys on one field are a range, not a repeat
    assert _export_ids(typed_store, tmp_path, "qubits__ge=8", "qubits__le=10")[:2] == (
        0,
        ["123", "job-0003"],
    )


def test_repeated_filter_key_in_report_is_exit_2(typed_store, tmp_path):
    out = tmp_path / "t.csv"
    args = ["--store", str(typed_store), "report", "table6", "--out", str(out)]
    code, _, err = run_cli(*args, "--filter", "status=processed", "--filter", "status=processed")
    assert (code, err) == (2, "config error: --filter lists status more than once\n")
    assert not out.exists()


def test_export_of_an_unknown_column_is_exit_2_and_writes_nothing(typed_store, tmp_path):
    out = tmp_path / "cols.csv"
    args = ["--store", str(typed_store), "store", "export", "--columns", "job_id,bogus"]
    code, _, err = run_cli(*args, "--out", str(out))
    assert code == 2
    assert "config error: unknown export column 'bogus'" in err
    assert [p.name for p in tmp_path.iterdir()] == [typed_store.name]


def test_store_export_subcommand(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    out_csv = tmp_path / "dump.csv"
    code, out, _ = run_cli(
        "--store", str(store_path), "--json", "store", "export",
        "--columns", "job_id,target,cost", "--out", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["rows"] == 4
    header = out_csv.read_text().splitlines()[0]
    assert header == "job_id,target,cost"


def test_bad_config_path_is_exit_2(tmp_path):
    code, _, err = run_cli("campaign", "run", "--config", str(tmp_path / "missing.ini"))
    assert code == 2
    assert "config error" in err


def test_bad_filter_shape_is_exit_2(tmp_path):
    store_path = tmp_path / "x.jsonl"
    code, _, err = run_cli(
        "--store", str(store_path), "report", "table6",
        "--filter", "oops", "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2


def test_corrupt_store_is_exit_3(tmp_path):
    store_path = tmp_path / "run.jsonl"
    store_path.write_text("not a record\n")
    code, _, err = run_cli("--store", str(store_path), "jobs", "poll")
    assert code == 3
    assert "store error" in err


def test_store_line_that_is_not_utf8_is_exit_3(tmp_path):
    store_path = tmp_path / "run.jsonl"
    store_path.write_bytes(b'{"job_id":"\xff"}\n')
    code, _, err = run_cli("--store", str(store_path), "jobs", "poll")
    assert code == 3
    assert f"store error: {store_path}:1: record line is not UTF-8" in err


@pytest.mark.parametrize(
    "line",
    [b"[" * 200_000 + b"\n", b"9" * 5_000 + b"\n"],  # deeper than recursion, an int past 4,300 digits
    ids=["deep-nesting", "long-int"],
)
def test_store_line_the_json_decoder_refuses_is_exit_3(tmp_path, line):
    store_path = tmp_path / "run.jsonl"
    store_path.write_bytes(line)
    cfg = write_config(tmp_path / "c.ini", ONE_TARGET)
    for args in (("jobs", "poll"), ("campaign", "run", "--config", cfg)):
        code, _, err = run_cli("--store", str(store_path), *args)
        assert (code, err) == (3, f"store error: {store_path}:1: corrupt record line\n")
        assert store_path.read_bytes() == line


@pytest.mark.parametrize("case", sorted(MALFORMED_EDITS))
def test_malformed_store_line_is_exit_3(tmp_path, case):
    store_path = write_malformed_store(tmp_path / "bad.jsonl", case)
    code, _, err = run_cli(
        "--store", str(store_path), "report", "table6", "--out", str(tmp_path / "t6.csv")
    )
    assert code == 3
    assert f"store error: {store_path}:3: " in err


def test_unknown_report_kind_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("report", "pie_chart", "--out", str(tmp_path / "x.csv"))
    assert err.value.code == 2


def test_env_store_is_honored(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    env_store = tmp_path / "env.jsonl"
    monkeypatch.setenv("QBENCH_STORE", str(env_store))
    code, _, _ = run_cli("campaign", "run", "--config", cfg)
    assert code == 0
    assert len(JobStore(env_store)) == 4


def test_json_campaign_with_default_store(tmp_path, monkeypatch):
    # no --store flag, no store key and no $QBENCH_STORE: ./qbench_jobs.jsonl
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QBENCH_STORE", raising=False)
    code, out, _ = run_cli("--json", "campaign", "run", "--config", cfg)
    assert code == 0
    summary = json.loads(out)
    assert summary["store"] == "qbench_jobs.jsonl"
    assert len(JobStore(tmp_path / "qbench_jobs.jsonl")) == summary["jobs"] == 4


def test_empty_env_store_counts_as_unset(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QBENCH_STORE", "")
    code, out, _ = run_cli("--json", "campaign", "run", "--config", cfg)
    assert code == 0
    assert json.loads(out)["store"] == "qbench_jobs.jsonl"
    assert len(JobStore(tmp_path / "qbench_jobs.jsonl")) == 4


def test_empty_env_store_poll_names_the_default_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QBENCH_STORE", "")
    code, _, err = run_cli("jobs", "poll")
    assert code == 3
    assert "store error: no store file at qbench_jobs.jsonl\n" in err


READ_ONLY_COMMANDS = {
    "report": ("report", "table6", "--out"),
    "store-export": ("store", "export", "--out"),
    "jobs-poll": ("jobs", "poll"),
}


@pytest.mark.parametrize("command", sorted(READ_ONLY_COMMANDS))
def test_read_only_command_on_a_missing_store_is_exit_3_and_creates_nothing(tmp_path, command):
    store_path = tmp_path / "newdir" / "sub" / "typo.jsonl"
    args = READ_ONLY_COMMANDS[command]
    if args[-1] == "--out":
        args = (*args, str(tmp_path / "out.csv"))
    code, _, err = run_cli("--store", str(store_path), *args)
    assert code == 3
    assert f"store error: no store file at {store_path}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(READ_ONLY_COMMANDS))
def test_read_only_command_leaves_a_torn_store_as_it_was(tmp_path, command):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    assert run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)[0] == 0
    with open(store_path, "ab") as fh:
        fh.write(b'{"job_id": "torn-by-a-kil')  # a campaign killed mid-append
    torn = store_path.read_bytes()
    args = READ_ONLY_COMMANDS[command]
    if args[-1] == "--out":
        args = (*args, str(tmp_path / "out.csv"))
    assert run_cli("--store", str(store_path), *args)[0] == 0
    assert store_path.read_bytes() == torn


UNWRITABLE_OUTS = {
    "missing-parent": lambda tmp_path: tmp_path / "missing_dir" / "t.csv",
    "a-directory": lambda tmp_path: tmp_path,
}


@pytest.mark.parametrize("out", sorted(UNWRITABLE_OUTS))
@pytest.mark.parametrize("command", ["report", "store-export"])
def test_out_that_cannot_be_written_is_exit_2(tmp_path, command, out):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    assert run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)[0] == 0
    out_path = UNWRITABLE_OUTS[out](tmp_path)
    args = (*READ_ONLY_COMMANDS[command], str(out_path))
    code, stdout, err = run_cli("--store", str(store_path), *args)
    assert code == 2
    assert err.startswith(f"config error: cannot write --out {out_path}: ")
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "run.jsonl"]


# three targets, one over its width (an error record) and one over its budget
# cap (a skip); every path below is relative to the directory the CLI runs in
GOLDEN_CONFIG = """
[campaign]
qubits = 4,6
shots = 100
days = 1
seed = 5
budget_cap = 1.00

[targets]
use = aria1-emulator, garnet-aws, h1-azure

[target:aria1-emulator]
qubits = 5
"""

GOLDEN_CAMPAIGN_TEXT = """\
wrote 5 jobs to c.jsonl
  error        1
  processed    4
  aria1-emulator   jobs=2 cost=$0.00
  garnet-aws       jobs=2 cost=$0.90
  h1-azure         jobs=1 cost=$71.11
  skipped (budget cap): 1
total cost $72.01
"""

GOLDEN_CAMPAIGN_JSON = (
    '{"by_status": {"error": 1, "processed": 4}, "by_target": {"aria1-emulator": '
    '{"cost_usd": "$0.00", "jobs": 2, "statuses": {"error": 1, "processed": 1}}, '
    '"garnet-aws": {"cost_usd": "$0.90", "jobs": 2, "statuses": {"processed": 2}}, '
    '"h1-azure": {"cost_usd": "$71.11", "jobs": 1, "statuses": {"processed": 1}}}, '
    '"command": "campaign run", "jobs": 5, "skipped_budget": 1, "store": "c.jsonl", '
    '"total_cost_usd": "$72.01"}\n'
)

GOLDEN_POLL_TEXT = """\
aria1-emulator   error        1
aria1-emulator   processed    1
garnet-aws       processed    2
h1-azure         processed    1
"""

GOLDEN_POLL_JSON = (
    '{"by_target_status": {"aria1-emulator/error": 1, "aria1-emulator/processed": 1, '
    '"garnet-aws/processed": 2, "h1-azure/processed": 1}, "command": "jobs poll", "jobs": 5}\n'
)

NO_DIR = "config error: cannot write --out nodir/o.csv: No such file or directory\n"

# case -> (arguments, stdout, stderr, exit code); s.jsonl holds GOLDEN_CONFIG's
# campaign, e.jsonl is empty, and a campaign without --store writes c.jsonl
GOLDEN = {
    "campaign-text": (("campaign", "run", "--config", "c.ini"), GOLDEN_CAMPAIGN_TEXT, "", 0),
    "campaign-json": (
        ("--json", "campaign", "run", "--config", "c.ini"), GOLDEN_CAMPAIGN_JSON, "", 0,
    ),
    "poll-text": (("--store", "s.jsonl", "jobs", "poll"), GOLDEN_POLL_TEXT, "", 0),
    "poll-json": (("--store", "s.jsonl", "--json", "jobs", "poll"), GOLDEN_POLL_JSON, "", 0),
    "poll-empty-text": (("--store", "e.jsonl", "jobs", "poll"), "no jobs in store\n", "", 0),
    "poll-empty-json": (
        ("--store", "e.jsonl", "--json", "jobs", "poll"),
        '{"by_target_status": {}, "command": "jobs poll", "jobs": 0}\n', "", 0,
    ),
    "report-text": (
        ("--store", "s.jsonl", "report", "table6", "--out", "t6.csv"),
        "wrote 4 rows to t6.csv\n", "", 0,
    ),
    "report-json": (
        ("--store", "s.jsonl", "--json", "report", "table6", "--out", "t6.csv"),
        '{"command": "report", "kind": "table6", "out": "t6.csv", "rows": 4}\n', "", 0,
    ),
    "report-empty-text": (
        ("--store", "s.jsonl", "report", "table6", "--filter", "status=canceled", "--out", "o.csv"),
        "", "report table6: no matching rows\n", 4,
    ),
    "report-empty-json": (
        ("--store", "s.jsonl", "--json", "report", "availability",
         "--filter", "qubits__gt=6", "--out", "o.csv"),
        "", "report availability: no matching rows\n", 4,
    ),
    "report-unwritable": (
        ("--store", "s.jsonl", "report", "table6", "--out", "nodir/o.csv"), "", NO_DIR, 2,
    ),
    "export-text": (
        ("--store", "s.jsonl", "store", "export",
         "--columns", "job_id,status,cost", "--out", "x.csv"),
        "wrote 5 rows to x.csv\n", "", 0,
    ),
    "export-json": (
        ("--store", "s.jsonl", "--json", "store", "export",
         "--filter", "status=error", "--out", "x.csv"),
        '{"command": "store export", "out": "x.csv", "rows": 1}\n', "", 0,
    ),
    "export-empty-text": (
        ("--store", "s.jsonl", "store", "export", "--filter", "qubits__gt=6", "--out", "o.csv"),
        "", "store export: no matching rows\n", 4,
    ),
    "export-empty-json": (
        ("--store", "e.jsonl", "--json", "store", "export", "--out", "o.csv"),
        "", "store export: no matching rows\n", 4,
    ),
    "export-unwritable": (
        ("--store", "s.jsonl", "store", "export", "--out", "nodir/o.csv"), "", NO_DIR, 2,
    ),
}

# the CSV files the golden cases that exit 0 write
GOLDEN_CSV = {
    "report-text": ("t6.csv", """\
index,qubits,cloud,target,fidelity,fid_std,jobs,cost,cost_std
0,4,SimAWS,garnet-aws,0.260000,0.000000,1,0.45,0.00
1,4,SimAzure,aria1-emulator,0.990000,0.000000,1,0.00,0.00
2,4,SimAzure,h1-azure,1.000000,0.000000,1,71.11,0.00
3,6,SimAWS,garnet-aws,0.040000,0.000000,1,0.45,0.00
"""),
    "export-text": ("x.csv", """\
job_id,status,cost
aria1-emulator-d00s0-q04,processed,0
aria1-emulator-d00s0-q06,error,0
garnet-aws-d00s0-q04,processed,450000
garnet-aws-d00s0-q06,processed,450000
h1-azure-d00s0-q04,processed,71110000
"""),
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QBENCH_STORE", "c.jsonl")
    write_config(tmp_path / "c.ini", GOLDEN_CONFIG)
    assert run_cli("--store", "s.jsonl", "campaign", "run", "--config", "c.ini")[0] == 0
    (tmp_path / "e.jsonl").touch()
    return tmp_path


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_stdout_stderr_and_exit_code(golden_dir, case):
    args, stdout, stderr, code = GOLDEN[case]
    assert run_cli(*args) == (code, stdout, stderr)
    if case in GOLDEN_CSV:
        name, text = GOLDEN_CSV[case]
        assert (golden_dir / name).read_text() == text


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --out -> a name for the store file s.jsonl, made in the directory given
STORE_ALIASES = {
    "same-name": lambda d: "s.jsonl",
    "dot-slash": lambda d: "./s.jsonl",
    "absolute": lambda d: str(d / "s.jsonl"),
    "symlink": lambda d: (d / "link.jsonl").symlink_to("s.jsonl") or "link.jsonl",
    "hard-link": lambda d: os.link(d / "s.jsonl", d / "hard.jsonl") or "hard.jsonl",
}


@pytest.mark.parametrize("alias", sorted(STORE_ALIASES))
@pytest.mark.parametrize("command", ["report", "store-export"])
def test_out_that_is_the_store_is_exit_2_and_leaves_it_untouched(golden_dir, command, alias):
    before = _sha256("s.jsonl")
    out = STORE_ALIASES[alias](golden_dir)
    code, stdout, err = run_cli("--store", "s.jsonl", *READ_ONLY_COMMANDS[command], out)
    assert (code, stdout, err) == (2, "", f"config error: --out {out} is the store s.jsonl\n")
    assert _sha256("s.jsonl") == before
    assert run_cli("--store", "s.jsonl", "jobs", "poll") == (0, GOLDEN_POLL_TEXT, "")


def test_campaign_run_creates_a_missing_store(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "newdir" / "sub" / "run.jsonl"
    code, _, _ = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 0
    assert len(JobStore(store_path)) == 4


@pytest.mark.parametrize("case", sorted(MALFORMED_EDITS))
def test_campaign_run_on_a_malformed_store_is_exit_3_and_appends_nothing(tmp_path, case):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = write_malformed_store(tmp_path / "bad.jsonl", case)
    before = store_path.read_bytes()
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 3
    assert f"store error: {store_path}:3: " in err
    assert store_path.read_bytes() == before


def test_campaign_run_on_a_directory_store_is_exit_3_and_creates_nothing(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "dirstore"
    store_path.mkdir()
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 3
    assert f"store error: cannot open store {store_path}: " in err
    assert list(store_path.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "dirstore"]


def test_campaign_run_under_a_parent_that_cannot_be_made_is_exit_3_and_creates_nothing(tmp_path):
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    store_path = tmp_path / "blocker" / "sub" / "run.jsonl"
    code, _, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert code == 3
    assert f"store error: cannot open store {store_path}: " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "c.ini"]
    assert (tmp_path / "blocker").read_text() == "a file, not a directory\n"


def test_store_that_cannot_be_appended_is_exit_3(tmp_path, monkeypatch):
    def read_only(file, mode="r", *args, **kwargs):
        if "a" in mode:
            raise OSError(errno.EROFS, "Read-only file system", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(store_module, "open", read_only, raising=False)
    cfg = write_config(tmp_path / "c.ini", BASE_CONFIG)
    store_path = tmp_path / "run.jsonl"
    code, out, err = run_cli("--store", str(store_path), "campaign", "run", "--config", cfg)
    assert (code, out) == (3, "")
    assert err == f"store error: cannot append to store {store_path}: Read-only file system\n"
    assert store_path.read_bytes() == b""


KILL_CONFIG = """
[campaign]
qubits = 4,6,8
shots = 100
days = 2
sweeps_per_day = 2
seed = 20240917

[targets]
use = aria1-emulator, garnet-aws
"""

# runs a campaign that SIGKILLs its own process right after its k-th append
KILLED_CAMPAIGN = """
import os, signal, sys
from qbench import cli
from qbench.store import JobStore

config, store_path, kill_after = sys.argv[1], sys.argv[2], int(sys.argv[3])
append, appended = JobStore.append, 0

def append_then_die(store, record):
    global appended
    append(store, record)
    appended += 1
    if appended == kill_after:
        os.kill(os.getpid(), signal.SIGKILL)

JobStore.append = append_then_die
cli.run_campaign(cli.load_config(config), store_path)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_campaign_killed_after_an_append_keeps_exactly_the_lines_before_it(tmp_path):
    cfg = write_config(tmp_path / "c.ini", KILL_CONFIG)
    whole = tmp_path / "whole.jsonl"
    assert run_cli("--store", str(whole), "campaign", "run", "--config", cfg)[0] == 0
    lines = whole.read_bytes().splitlines(keepends=True)
    kill_after = 9
    assert len(lines) == 24 > kill_after

    killed = tmp_path / "killed.jsonl"
    src = str(Path(qbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", KILLED_CAMPAIGN, cfg, str(killed), str(kill_after)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == -signal.SIGKILL, run.stderr
    assert killed.read_bytes() == b"".join(lines[:kill_after])
    assert [r.job_id for r in JobStore(killed).records()] == [
        json.loads(line)["job_id"] for line in lines[:kill_after]
    ]


def test_campaign_that_raises_mid_run_closes_its_store(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.ini", KILL_CONFIG)
    store_path = tmp_path / "run.jsonl"
    opens = RecordingOpen()
    polled = 0

    def record_or_fail(*args):
        nonlocal polled
        polled += 1
        if polled == 4:
            raise RuntimeError("provider went away")
        return record_from_poll(*args)

    monkeypatch.setattr(store_module, "open", opens, raising=False)
    monkeypatch.setattr(cli, "record_from_poll", record_or_fail)
    with pytest.raises(RuntimeError, match="provider went away"):
        cli.run_campaign(load_config(cfg), str(store_path))
    (appender,) = opens.appenders()
    assert appender.closed
    assert len(JobStore(store_path)) == 3


def _listing(d):
    return sorted(p.name for p in d.iterdir())


@pytest.mark.parametrize("command", ["report", "store-export"])
def test_exit_4_leaves_an_existing_out_untouched_and_makes_no_new_one(golden_dir, command):
    # s.jsonl holds no record above 6 qubits
    args = ("--store", "s.jsonl", *READ_ONLY_COMMANDS[command][:-1], "--filter", "qubits__gt=6")
    Path("old.csv").write_text("earlier rows\n")
    before = _listing(golden_dir)
    assert run_cli(*args, "--out", "old.csv")[0] == 4
    assert run_cli(*args, "--out", "new.csv")[0] == 4
    assert Path("old.csv").read_text() == "earlier rows\n"
    assert _listing(golden_dir) == before


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"), KeyError("x")])
def test_writer_that_raises_mid_write_leaves_out_untouched(golden_dir, monkeypatch, error):
    def half_then_raise(kind, records, out_path):
        with open(out_path, "w") as fh:
            fh.write("index,qub")
        raise error

    monkeypatch.setattr(cli, "write_report", half_then_raise)
    Path("t6.csv").write_text("earlier rows\n")
    before = _listing(golden_dir)
    args = ("--store", "s.jsonl", "report", "table6", "--out", "t6.csv")
    if isinstance(error, OSError):
        code, stdout, err = run_cli(*args)
        assert (code, stdout) == (2, "")
        assert err == "config error: cannot write --out t6.csv: No space left on device\n"
    else:
        with pytest.raises(KeyError):
            run_cli(*args)
    assert Path("t6.csv").read_text() == "earlier rows\n"
    assert _listing(golden_dir) == before


def test_symlinked_out_is_written_through_and_kept_on_exit_4(golden_dir):
    Path("target.csv").write_text("earlier rows\n")
    Path("link.csv").symlink_to("target.csv")
    empty = ("--store", "s.jsonl", "report", "table6", "--filter", "status=canceled")
    assert run_cli(*empty, "--out", "link.csv")[0] == 4
    assert Path("target.csv").read_text() == "earlier rows\n"
    assert run_cli("--store", "s.jsonl", "report", "table6", "--out", "link.csv")[0] == 0
    assert os.readlink("link.csv") == "target.csv"
    assert Path("target.csv").read_text() == GOLDEN_CSV["report-text"][1]
    assert _listing(golden_dir) == ["c.ini", "e.jsonl", "link.csv", "s.jsonl", "target.csv"]
