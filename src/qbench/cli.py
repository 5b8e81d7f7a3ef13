"""Command-line front end: campaign driver, store queries, report tables.

Subcommands
    campaign run --config FILE     drive simulated submissions day by day
    jobs poll                      status summary of the stored job log
    report KIND --out FILE         write one analysis CSV from the log
    store export --out FILE        dump the log (optionally filtered) as CSV

Exit codes: 0 success; 2 configuration or usage problem, including a seed
outside [0, 2**64), a filter or column the store refuses and an ``--out``
that cannot be written or that is the store itself; 3 store problem; 4 report
or export with no matching rows.  The store path resolves as the first set
(non-empty) of --store, the config file's ``store`` key (campaign only),
$QBENCH_STORE and ./qbench_jobs.jsonl.
Only ``campaign run`` creates a missing store; the read-only commands exit 3.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .analysis import _REPORTS, REPORT_KINDS, benchmark_fidelity, write_report
from .circuit import build_benchmark, random_input
from .costing import Money
from .providers import (
    DAY,
    JobHandle,
    JobStatus,
    PollResult,
    PRESET_NAMES,
    SimProvider,
    TargetProfile,
    target_profile,
)
from .rng import derive_seed
from .simulator import GlobalDepolarizing
from .store import (
    RECORD_FIELDS,
    JobRecord,
    JobStore,
    StoreError,
    _IdStore,
    _RowStore,
    classify_success,
)

DEFAULT_SEED = 20240917
SUBMIT_SPACING = 300  # seconds between consecutive submissions in a sweep


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class CampaignConfig:
    qubits: tuple[int, ...]
    shots: int
    days: int
    sweeps_per_day: int
    seed: int
    store: str | None
    budget_cap: Money | None
    targets: tuple[TargetProfile, ...]


def _parse_qubits(text: str) -> tuple[int, ...]:
    """Accept ``8..16:2`` range syntax or a comma list like ``8,10,12``."""
    text = text.strip()
    if ".." in text:
        lo_part, _, rest = text.partition("..")
        hi_part, _, step_part = rest.partition(":")
        lo, hi = int(lo_part), int(hi_part)
        step = int(step_part) if step_part else 1
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad qubits range {text!r}")
        values = range(lo, hi + 1, step)
        ends = (lo, values[-1])  # so a wide range is refused before it is built
    else:
        values = ends = tuple(int(p) for p in text.split(",") if p.strip())
    if not values or any(q < 2 or q > 60 for q in ends):
        raise ConfigError(f"qubit sizes out of range in {text!r}")
    _refuse_repeats("qubits =", values)
    return tuple(values)


def _refuse_repeats(setting: str, items: Iterable) -> None:
    twice = sorted(item for item, n in Counter(items).items() if n > 1)
    if twice:
        raise ConfigError(f"{setting} lists {', '.join(map(str, twice))} more than once")


_CAMPAIGN_KEYS = {f.name for f in dataclasses.fields(CampaignConfig)} - {"targets"}

# queue override key -> QueueModel field
_QUEUE_KEYS = {"queue_mu": "mu", "queue_sigma": "sigma", "queue_bias": "predictor_bias"}
_OVERRIDE_KEYS = {"f_2qg", "gate_limit", "qubits", "execution_seconds", *_QUEUE_KEYS}


def _apply_overrides(profile: TargetProfile, section) -> TargetProfile:
    changes: dict = {}
    if "f_2qg" in section:
        changes["noise"] = GlobalDepolarizing(section.getfloat("f_2qg"))
    if "gate_limit" in section:
        raw = section.get("gate_limit").strip().lower()
        changes["gate_limit"] = None if raw == "none" else int(raw)
    if "qubits" in section:
        changes["qubits"] = section.getint("qubits")
    if "execution_seconds" in section:
        changes["execution_seconds"] = section.getint("execution_seconds")
    queue = {field: section.getfloat(key) for key, field in _QUEUE_KEYS.items() if key in section}
    if queue:
        changes["queue"] = dataclasses.replace(profile.queue, **queue)
    return dataclasses.replace(profile, **changes)


def _check_names(parser: configparser.ConfigParser, use: list[str]) -> None:
    """Refuse a key or section that no setting reads, so a typo is no silent default."""
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] keys are not read: {sorted(parser.defaults())}")
    known = {"campaign": _CAMPAIGN_KEYS, "targets": {"use"}}
    known |= {f"target:{name}": _OVERRIDE_KEYS for name in use}
    for section, keys in known.items():
        unknown = set(parser[section]) - keys if section in parser else set()
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for section in parser.sections():
        if section.startswith("target:") and section not in known:
            raise ConfigError(f"[{section}] overrides a target not in [targets] use =")
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")


def load_config(path: str) -> CampaignConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    if "campaign" not in parser or "targets" not in parser:
        raise ConfigError("config needs [campaign] and [targets] sections")
    camp = parser["campaign"]
    use = [p.strip() for p in parser["targets"].get("use", "").split(",") if p.strip()]
    _check_names(parser, use)
    try:
        qubits = _parse_qubits(camp.get("qubits", "8..16:2"))
        shots = camp.getint("shots", 500)
        days = camp.getint("days", 1)
        sweeps = camp.getint("sweeps_per_day", 1)
        seed = camp.getint("seed", DEFAULT_SEED)
        cap_text = camp.get("budget_cap", "").strip()
        budget_cap = Money.from_usd(cap_text) if cap_text else None
        if not use:
            raise ConfigError("[targets] use = must list at least one preset")
        _refuse_repeats("[targets] use =", use)
        targets = []
        for name in use:
            if name not in PRESET_NAMES:
                raise ConfigError(f"unknown target preset {name!r}")
            profile = target_profile(name)
            if parser.has_section(f"target:{name}"):
                profile = _apply_overrides(profile, parser[f"target:{name}"])
            targets.append(profile)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if shots < 1 or days < 1 or sweeps < 1 or DAY % sweeps:
        raise ConfigError("shots/days/sweeps_per_day must be positive (sweeps divide a day)")
    # a sweep's last slot must come before the next sweep's first, so every
    # slot has its own clock and a store is written in (submitted_at, job_id) order
    slots = len(targets) * len(qubits)
    if (slots - 1) * SUBMIT_SPACING >= DAY // sweeps:
        raise ConfigError(
            f"sweeps_per_day = {sweeps} leaves {DAY // sweeps} s a sweep, too short for"
            f" {slots} slots {SUBMIT_SPACING} s apart"
        )
    if budget_cap is not None and budget_cap.micros < 0:
        raise ConfigError("budget_cap must be >= 0")
    if not 0 <= seed < 1 << 64:  # rng folds a seed to 64 bits; wider ones would alias
        raise ConfigError(f"seed {seed} is not in [0, 2**64)")
    return CampaignConfig(
        qubits=qubits,
        shots=shots,
        days=days,
        sweeps_per_day=sweeps,
        seed=seed,
        store=camp.get("store", None),
        budget_cap=budget_cap,
        targets=tuple(targets),
    )


def _jobs(cfg: CampaignConfig) -> Iterator[tuple[int, TargetProfile, int, int, str]]:
    """(clock, profile, qubits, seed, job_id) of each submission slot, in campaign order.

    A sweep spaces its (target, qubits) slots SUBMIT_SPACING seconds apart.
    """
    sweep_len = DAY // cfg.sweeps_per_day
    for day in range(cfg.days):
        for sweep in range(cfg.sweeps_per_day):
            slots = itertools.product(cfg.targets, cfg.qubits)
            for idx, (profile, q) in enumerate(slots):
                clock = day * DAY + sweep * sweep_len + idx * SUBMIT_SPACING
                seed = derive_seed(cfg.seed, day, sweep, profile.name, q)
                yield clock, profile, q, seed, f"{profile.name}-d{day:02d}s{sweep}-q{q:02d}"


def record_from_poll(
    handle: JobHandle, result: PollResult, cost: Money, q: int, n: int
) -> JobRecord:
    """The stored record of a polled benchmark job on ``q`` qubits with input ``n``.

    Results, scores and execution times are kept only when the job was processed.
    """
    processed = result.status is JobStatus.PROCESSED
    fidelity = benchmark_fidelity(result.counts, q, n) if processed else None
    return JobRecord(
        job_id=handle.job_id,
        cloud=handle.target.cloud,
        target=handle.target.name,
        qubits=q,
        shots=handle.shots,
        seed=handle.seed,
        submitted_at=handle.submitted_at,
        status=result.status,
        cost=cost,
        executed_at=handle.exec_end if processed else None,
        predicted_wait=handle.predicted_wait,
        actual_wait=handle.actual_wait if processed else None,
        census=handle.census,
        counts=result.counts,
        fidelity=fidelity,
        success=classify_success(fidelity) if processed else None,
        error_message=result.error_message,
    )


def run_campaign(cfg: CampaignConfig, store_path: str) -> dict:
    """Submit, poll, bill and store every job of ``cfg``; returns the run summary.

    Each job's handle and record are dropped once its line is written: the
    store keeps job ids and each provider the execution spans, so memory
    stays flat however many days the campaign runs.
    """
    with _IdStore(store_path) as store:  # closed on every exit, exceptions included
        providers = {p.name: SimProvider(p) for p in cfg.targets}
        spent = {p.name: Money(0) for p in cfg.targets}
        statuses: dict[str, Counter[str]] = {p.name: Counter() for p in cfg.targets}
        skipped = 0  # slots not submitted because their target's spend reached the cap
        for clock, profile, q, seed, job_id in _jobs(cfg):
            if cfg.budget_cap is not None and spent[profile.name] >= cfg.budget_cap:
                skipped += 1
                continue
            provider = providers[profile.name]
            n = random_input(q, seed)
            circuit = build_benchmark(q, n)
            handle = provider.submit(circuit, cfg.shots, clock, seed=seed, job_id=job_id)
            result = provider.poll(handle, clock if handle.exec_end is None else handle.exec_end)
            cost = provider.job_cost(handle)
            store.append(record_from_poll(handle, result, cost, q, n))
            spent[profile.name] += cost
            statuses[profile.name][result.status.value] += 1
    by_status = sum(statuses.values(), Counter())
    return {
        "command": "campaign run",
        "store": store_path,
        "jobs": by_status.total(),
        "by_status": dict(sorted(by_status.items())),
        "by_target": {
            name: {"jobs": tally.total(), "statuses": dict(tally), "cost_usd": str(spent[name])}
            for name, tally in statuses.items()
        },
        "skipped_budget": skipped,
        "total_cost_usd": str(sum(spent.values(), Money(0))),
    }


def _campaign_lines(summary: dict) -> list[str]:
    lines = [f"wrote {summary['jobs']} jobs to {summary['store']}"]
    for status, count in summary["by_status"].items():
        lines.append(f"  {status:12s} {count}")
    for name, slot in summary["by_target"].items():
        lines.append(f"  {name:16s} jobs={slot['jobs']} cost={slot['cost_usd']}")
    if summary["skipped_budget"]:
        lines.append(f"  skipped (budget cap): {summary['skipped_budget']}")
    return lines + [f"total cost {summary['total_cost_usd']}"]


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"{text!r} is not true or false")
    return text.lower() == "true"


# filter text to a number, a boolean or money (written in USD); the store reads all other text
_PARSE_BY_TYPE = {
    int: int,
    float: float,
    bool: _parse_bool,
    Money: Money.from_usd,
}


def _coerce_filter_value(key: str, text: str):
    """Parse a number, boolean or USD filter value by the type of the field ``key`` names.

    Other text goes to the store, which reads it as the open reads its field, or refuses it.
    """
    name = key.partition("__")[0]
    parse = _PARSE_BY_TYPE.get(RECORD_FIELDS.get(name, (None,))[0])
    if parse is None:
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for filter {key!r}: {exc}") from exc


def _parse_filters(pairs: Sequence[str]) -> dict:
    filters = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"filters take key=value form, got {pair!r}")
        filters[key] = _coerce_filter_value(key, value)
    _refuse_repeats("--filter", (pair.partition("=")[0] for pair in pairs))
    return filters


def _resolve_store(flag: str | None, config_value: str | None = None) -> str:
    return flag or config_value or os.environ.get("QBENCH_STORE") or "qbench_jobs.jsonl"


def _open_store(flag: str | None, fields: Iterable[str]) -> JobStore:
    """The store a read-only command reads, holding of each record only the ``fields``
    the command reads; a missing one is an error, never created."""
    path = _resolve_store(flag)
    if not os.path.isfile(path):
        raise StoreError(f"no store file at {path}")
    return _RowStore(path, fields)


def _emit(args, summary: dict, lines: list[str]) -> None:
    """Print a command's summary: one sorted JSON object under ``--json``, else ``lines``."""
    print(json.dumps(summary, sort_keys=True) if args.json else "\n".join(lines))


def _write_out(args, summary: dict, write, fields: Iterable[str], filters: dict) -> int:
    """Run ``write(store, path)`` into ``--out`` and report its row count.

    ``summary`` holds the command's name fields, which also label the exit-4
    message.  An ``--out`` that is the store file, under any name, is refused
    before anything is written.  Rows go to a new file beside ``--out`` (or its
    symlink's target) that replaces it only if it holds any, so an exit 4 or
    a failed write leaves an existing ``--out`` as it was.  The store holds the
    ``fields`` that ``write`` reads and those the ``filters`` it queries with test.
    """
    tested = (key.partition("__")[0] for key in filters)
    store = _open_store(args.store, [*fields, *tested])
    if os.path.exists(args.out) and os.path.samefile(args.out, store.path):
        raise ConfigError(f"--out {args.out} is the store {store.path}")
    real = os.path.realpath(args.out)
    tmp = f"{real}.{os.getpid()}.tmp"
    try:  # a missing parent directory, a directory, no permission, a full disk
        open(tmp, "x").close()  # mode "x": the permissions a new --out gets
        try:
            rows = write(store, tmp)
            if rows:
                os.replace(tmp, real)
        except StoreError as exc:  # the store is open, so a filter or a column was refused
            raise ConfigError(str(exc)) from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    if rows == 0:
        print(f"{' '.join(summary.values())}: no matching rows", file=sys.stderr)
        return 4
    _emit(args, {**summary, "rows": rows, "out": args.out}, [f"wrote {rows} rows to {args.out}"])
    return 0


def cmd_campaign_run(args) -> int:
    cfg = load_config(args.config)
    summary = run_campaign(cfg, _resolve_store(args.store, cfg.store))
    _emit(args, summary, _campaign_lines(summary))
    return 0


def cmd_jobs_poll(args) -> int:
    store = _open_store(args.store, ("target", "status"))
    counts = sorted(Counter((r.target, r.status.value) for r in store.records()).items())
    summary = {
        "command": "jobs poll",
        "jobs": len(store),
        "by_target_status": {f"{t}/{s}": n for (t, s), n in counts},
    }
    lines = [f"{target:16s} {status:12s} {n}" for (target, status), n in counts]
    _emit(args, summary, lines or ["no jobs in store"])
    return 0


def cmd_report(args) -> int:
    filters = _parse_filters(args.filter)
    write = lambda store, out: write_report(args.kind, store.query(**filters), out)
    summary = {"command": "report", "kind": args.kind}
    return _write_out(args, summary, write, _REPORTS[args.kind][1], filters)


def cmd_store_export(args) -> int:
    columns = [c.strip() for c in args.columns.split(",")] if args.columns else None
    filters = _parse_filters(args.filter)
    write = lambda store, out: store.export_csv(out, columns=columns, **filters)
    return _write_out(args, {"command": "store export"}, write, columns or RECORD_FIELDS, filters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbench", description="simulated quantum-cloud benchmarking campaigns"
    )
    parser.add_argument("--store", help="job log path (overrides config and env)")
    parser.add_argument("--json", action="store_true", help="machine-readable summary")
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="campaign operations")
    campaign_sub = campaign.add_subparsers(dest="subcommand", required=True)
    run = campaign_sub.add_parser("run", help="run a configured campaign")
    run.add_argument("--config", required=True, help="INI config file")
    run.set_defaults(func=cmd_campaign_run)

    jobs = sub.add_parser("jobs", help="job-log operations")
    jobs_sub = jobs.add_subparsers(dest="subcommand", required=True)
    poll = jobs_sub.add_parser("poll", help="summarize job statuses")
    poll.set_defaults(func=cmd_jobs_poll)

    report = sub.add_parser("report", help="write an analysis CSV")
    report.add_argument("kind", choices=REPORT_KINDS)

    store = sub.add_parser("store", help="job-log storage operations")
    store_sub = store.add_subparsers(dest="subcommand", required=True)
    export = store_sub.add_parser("export", help="dump records as CSV")
    for writer, func in ((report, cmd_report), (export, cmd_store_export)):
        writer.add_argument("--out", required=True)
        writer.add_argument(
            "--filter", action="append", default=[], metavar="KEY=VALUE",
            help="record filter, repeatable; supports __ge/__gt/__le/__lt suffixes",
        )
        writer.set_defaults(func=func)
    export.add_argument("--columns", help="comma-separated column subset")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
