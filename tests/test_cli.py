import contextlib
import io
import json

import pytest

from qbench.cli import ConfigError, _parse_qubits, load_config, main
from qbench.costing import Money
from qbench.providers import JobStatus
from qbench.store import JobStore
from test_store import MALFORMED_EDITS, make_record, processed_record, write_malformed_store


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
    assert cfg.budget_cap.usd == 1500.0
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


def test_env_seed_fills_in_when_config_is_silent(tmp_path, monkeypatch):
    body = "[campaign]\nqubits = 4\n[targets]\nuse = garnet-aws\n"
    monkeypatch.setenv("QBENCH_SEED", "4242")
    assert load_config(write_config(tmp_path / "c.ini", body)).seed == 4242
    monkeypatch.delenv("QBENCH_SEED")
    assert load_config(write_config(tmp_path / "c.ini", body)).seed == 20240917


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
    store = JobStore(path)
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
    ],
)
def test_filter_value_of_the_wrong_type_is_exit_2(typed_store, tmp_path, bad):
    code, _, err = _export_ids(typed_store, tmp_path, bad)
    assert code == 2
    assert "config error" in err


def test_filter_on_unknown_field_is_a_store_error(typed_store, tmp_path):
    code, _, err = _export_ids(typed_store, tmp_path, "qbits=6")
    assert code == 3
    assert "unknown query field" in err


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
