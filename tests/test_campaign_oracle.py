"""Differential oracle for ``cli.run_campaign``.

``oracle_run_campaign`` is the earlier single loop: day, sweep, target and
qubit size nested in one function that builds each record inline and keeps
its own status, per-target and cost tallies.  The job iterator plus
``record_from_poll`` must write the same store bytes and the same summary.
"""

import pytest

from qbench.analysis import benchmark_fidelity
from qbench.circuit import build_benchmark, random_input
from qbench.cli import SUBMIT_SPACING, load_config, run_campaign
from qbench.costing import Money
from qbench.providers import DAY, JobStatus, SimProvider
from qbench.rng import derive_seed
from qbench.store import JobRecord, JobStore


def oracle_run_campaign(cfg, store_path):
    providers = {p.name: SimProvider(p) for p in cfg.targets}
    spent = {p.name: Money(0) for p in cfg.targets}
    by_status = {}
    by_target = {p.name: {"jobs": 0, "statuses": {}, "cost_usd": "$0.00"} for p in cfg.targets}
    skipped_budget = 0
    sweep_len = DAY // cfg.sweeps_per_day
    with JobStore(store_path) as store:
        for day in range(cfg.days):
            for sweep in range(cfg.sweeps_per_day):
                idx = 0
                for profile in cfg.targets:
                    provider = providers[profile.name]
                    for q in cfg.qubits:
                        clock = day * DAY + sweep * sweep_len + idx * SUBMIT_SPACING
                        idx += 1
                        if cfg.budget_cap is not None and spent[profile.name] >= cfg.budget_cap:
                            skipped_budget += 1
                            continue
                        job_seed = derive_seed(cfg.seed, day, sweep, profile.name, q)
                        n = random_input(q, job_seed)
                        circuit = build_benchmark(q, n)
                        job_id = f"{profile.name}-d{day:02d}s{sweep}-q{q:02d}"
                        handle = provider.submit(
                            circuit, cfg.shots, clock, seed=job_seed, job_id=job_id
                        )
                        poll_clock = handle.exec_end if handle.exec_end is not None else clock
                        result = provider.poll(handle, poll_clock)
                        cost = provider.job_cost(handle)
                        fidelity = success = None
                        if result.status is JobStatus.PROCESSED:
                            score = benchmark_fidelity(result.counts, q, n)
                            fidelity, success = score.value, score.success
                        processed = result.status is JobStatus.PROCESSED
                        store.append(
                            JobRecord(
                                job_id=job_id,
                                cloud=profile.cloud,
                                target=profile.name,
                                qubits=q,
                                shots=cfg.shots,
                                seed=job_seed,
                                submitted_at=clock,
                                status=result.status,
                                cost=cost,
                                executed_at=handle.exec_end if processed else None,
                                predicted_wait=handle.predicted_wait,
                                actual_wait=handle.actual_wait if processed else None,
                                census=handle.census,
                                counts=result.counts,
                                fidelity=fidelity,
                                success=success,
                                error_message=result.error_message,
                            )
                        )
                        spent[profile.name] = spent[profile.name] + cost
                        by_status[result.status.value] = by_status.get(result.status.value, 0) + 1
                        slot = by_target[profile.name]
                        slot["jobs"] += 1
                        slot["statuses"][result.status.value] = (
                            slot["statuses"].get(result.status.value, 0) + 1
                        )
    total = Money(0)
    for name, m in spent.items():
        by_target[name]["cost_usd"] = str(m)
        total = total + m
    return {
        "command": "campaign run",
        "store": store_path,
        "jobs": sum(by_status.values()),
        "by_status": dict(sorted(by_status.items())),
        "by_target": by_target,
        "skipped_budget": skipped_budget,
        "total_cost_usd": str(total),
    }


CONFIGS = {
    # garnet-aws bills $1.03 a job, so its cap trips after its second job, in
    # the middle of the first sweep, and it skips the rest of the campaign;
    # the free emulator never trips it
    "budget-cap-mid-sweep": """
[campaign]
qubits = 4,6,8
shots = 500
sweeps_per_day = 2
seed = 11
budget_cap = 2.00
[targets]
use = garnet-aws, aria1-emulator
""",
    "always-unavailable": """
[campaign]
qubits = 4,6
shots = 100
seed = 12
[targets]
use = aria2-aws, garnet-aws
""",
    # aria1-aws takes 16 qubits and refuses 18 by its gate limit; garnet-aws
    # has 20 qubits, so 22 is a width error
    "gate-limit-and-width": """
[campaign]
qubits = 16,18,22
shots = 200
seed = 13
[targets]
use = aria1-aws, garnet-aws
""",
    "two-days-two-sweeps": """
[campaign]
qubits = 4,6
shots = 100
days = 2
sweeps_per_day = 2
seed = 14
[targets]
use = h1-azure, aria1-azure, forte1-aws
""",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_campaign_matches_oracle(name, tmp_path):
    config_path = tmp_path / "c.ini"
    config_path.write_text(CONFIGS[name])
    cfg = load_config(str(config_path))
    got_path, want_path = str(tmp_path / "got.jsonl"), str(tmp_path / "want.jsonl")
    got = run_campaign(cfg, got_path)
    want = oracle_run_campaign(cfg, want_path)
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert got == {**want, "store": got_path}
    # each config shows the case it is named for
    statuses = want["by_status"]
    assert {
        "budget-cap-mid-sweep": want["skipped_budget"] == 4 and statuses == {"processed": 8},
        "always-unavailable": statuses == {"processed": 2, "unavailable": 2},
        "gate-limit-and-width": statuses.get("error") == 3,
        "two-days-two-sweeps": want["jobs"] == 24,
    }[name], want
