"""The benchmark's workloads: inputs made from a seed, one pass of work, checks.

Every workload calls the program through its public names (``qbench.X`` and
``qbench.cli.X``), looked up at call time, so the tracer can wrap them.  A
pass returns its wall time, the durations of its timed segments (the same
segment keys on every pass, scaled to a fixed host speed by ``hostspeed``),
the operations it attempted and how many of them failed a check, and the
exact outputs that must repeat on every pass of a run.

The simulated clouds refuse and reject jobs on purpose: a record with
status ``error`` (too wide for the target, or over its gate limit) or
``unavailable`` (submitted during an outage) is the modelled cloud behaving
correctly.  A failed operation is one whose output is wrong: a store that is
not byte-identical from pass to pass, status counts that differ from the
model's, a state off its ideal output, a lowering that is not equivalent, or
a report with the wrong number of rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import qbench
from hostspeed import SegmentTimer
from qbench import cli
from qbench.store import JobStore

TARGETS = ("aria1-aws", "aria1-azure", "h1-azure", "garnet-aws", "forte1-aws", "h2-azure")

CAMPAIGN_INI = """\
[campaign]
qubits = {qubits}
shots = 500
days = {days}
sweeps_per_day = {sweeps}
seed = {seed}

[targets]
use = {targets}
"""

# a state or lowering is correct when at least this much probability lands
# where the exact answer puts it
FIDELITY_FLOOR = 1 - 1e-9


def write_campaign_config(path: Path, *, seed: int, days: int, sweeps: int, qubits: str):
    path.write_text(
        CAMPAIGN_INI.format(
            qubits=qubits, days=days, sweeps=sweeps, seed=seed, targets=", ".join(TARGETS)
        )
    )
    return cli.load_config(str(path))


def set_up(workdir: Path) -> None:
    """Program set-up every workload pays: presets, then one tiny job per layer.

    Loading the config resolves the six target presets, which lowers the
    q = 16..22 benchmarks that fix the gate limits.
    """
    cfg = write_campaign_config(workdir / "warmup.ini", seed=1, days=1, sweeps=1, qubits="4")
    store_path = workdir / "warmup.jsonl"
    cli.run_campaign(cfg, str(store_path))
    records = qbench.JobStore(store_path).query()
    qbench.write_report("table6", records, str(workdir / "warmup.csv"))
    circuit = qbench.build_benchmark(4, 1)
    qbench.run_statevector(circuit)
    lowered = qbench.transpile(circuit, qbench.EFFICIENT).circuit
    qbench.run_noisy(lowered, qbench.PauliTrajectory(0.01), 4, 1)
    qbench.verify_equivalence(circuit, qbench.transpile(circuit, qbench.REDUNDANT).circuit)


@dataclass
class Pass:
    wall_s: float
    segments: dict[str, float]  # the seconds metrics use (see hostspeed)
    raw_segments: dict[str, float]
    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def segment_median(passes: list[Pass], key: str, *, raw: bool = False) -> float:
    return statistics.median((p.raw_segments if raw else p.segments)[key] for p in passes)


def pass_seconds(passes: list[Pass], *, raw: bool = False) -> float:
    """Seconds per pass: the sum of each timed segment's median over passes."""
    return sum(segment_median(passes, key, raw=raw) for key in passes[0].segments)


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


class CampaignMixed:
    """The ROADMAP baseline campaign: six targets, q = 8..36:4, 2 days x 4 sweeps.

    Both lowering profiles, gate-limit and width rejections, outage refusals,
    the global depolarizing channel, all three billing models, store appends
    and scoring run on it.  Its status counts depend only on widths, gate
    limits and submission clocks, so they are the same for every seed.
    """

    name = "campaign-mixed"
    DAYS, SWEEPS, QUBITS = 2, 4, "8..36:4"
    EXPECTED_STATUS = {"error": 149, "processed": 211, "unavailable": 24}

    def __init__(self, seed: int, workdir: Path):
        self.cfg = write_campaign_config(
            workdir / "campaign.ini", seed=seed, days=self.DAYS, sweeps=self.SWEEPS, qubits=self.QUBITS
        )
        self.store_path = workdir / "campaign.jsonl"
        self.jobs_per_sweep = len(self.cfg.targets) * len(self.cfg.qubits)
        self.jobs = self.jobs_per_sweep * self.DAYS * self.SWEEPS

    def run_pass(self) -> Pass:
        self.store_path.unlink(missing_ok=True)
        # counting appended records splits the campaign into its sweeps
        timer = SegmentTimer(scaled=True)
        appended = 0
        append = JobStore.append

        def counted_append(store, record):
            nonlocal appended
            append(store, record)
            appended += 1
            if appended % self.jobs_per_sweep == 0:
                timer.stop(f"sweep{appended // self.jobs_per_sweep - 1}")
                timer.start()

        JobStore.append = counted_append
        try:
            start = time.perf_counter()
            timer.start()
            summary = cli.run_campaign(self.cfg, str(self.store_path))
            wall = time.perf_counter() - start
        finally:
            JobStore.append = append

        problems = []
        if appended != self.jobs or summary["jobs"] != self.jobs:
            problems.append(f"{summary['jobs']} jobs recorded, expected {self.jobs}")
        lines = self.store_path.read_bytes().splitlines()
        stored = dict(Counter(json.loads(line)["status"] for line in lines))
        if summary["by_status"] != self.EXPECTED_STATUS or stored != self.EXPECTED_STATUS:
            problems.append(
                f"status counts {summary['by_status']} (store {stored}), "
                f"expected {self.EXPECTED_STATUS}"
            )
        return Pass(
            wall_s=wall,
            segments=timer.segments(),
            raw_segments=timer.raw,
            attempted=self.jobs,
            failed=self.jobs if problems else 0,
            outputs={"store_sha256": _sha256(self.store_path), "by_status": stored},
            problems=problems,
        )

    def figures(self, plain: list[Pass]):
        """``ops_per_s``, and the figures under the names the docs use."""
        jobs_per_s = self.jobs / pass_seconds(plain)
        return jobs_per_s, {"jobs_per_s": (jobs_per_s, "1/s")}


class Statevector:
    """Dense simulation at q = 14/18/20, Pauli trajectories, equivalence checks.

    The states are 256 KiB, 4 MiB and 16 MiB: inside L2, past L2, and far
    past L2 but inside L3 on the reference machine, so a kernel change shows
    whether it is bound by compute or by memory.
    """

    name = "statevector"
    WIDTHS = (14, 18, 20)
    SMALL_Q = 8  # trajectory and equivalence width
    TRAJECTORY_P = 0.01
    TRAJECTORY_SHOTS = 200

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.inputs = {q: rng.randrange(1 << q) for q in (*self.WIDTHS, self.SMALL_Q)}
        self.trajectory_seed = rng.randrange(1 << 32)

    def run_pass(self) -> Pass:
        pass_start = time.perf_counter()
        timer = SegmentTimer(scaled=False)
        problems: list[str] = []
        gates = 0
        for q in self.WIDTHS:
            n = self.inputs[q]
            circuit = qbench.build_benchmark(q, n)
            timer.start()
            state = qbench.run_statevector(circuit)
            timer.stop(f"statevector.q{q}")
            gates += len(circuit.gates)
            hit = abs(state[int(qbench.ideal_output(q, n), 2)]) ** 2
            if hit < FIDELITY_FLOOR:
                problems.append(f"q={q} n={n}: {float(hit)!r} probability on the ideal output")

        q, n = self.SMALL_Q, self.inputs[self.SMALL_Q]
        circuit = qbench.build_benchmark(q, n)
        lowered = {p.name: qbench.transpile(circuit, p).circuit for p in (qbench.EFFICIENT, qbench.REDUNDANT)}
        timer.start()
        counts = qbench.run_noisy(
            lowered["efficient"],
            qbench.PauliTrajectory(self.TRAJECTORY_P),
            self.TRAJECTORY_SHOTS,
            self.trajectory_seed,
        )
        timer.stop("trajectory")
        if sum(counts.values()) != self.TRAJECTORY_SHOTS or any(len(k) != q for k in counts):
            problems.append(f"trajectory counts malformed: {counts}")
        for profile, lowered_circuit in lowered.items():
            timer.start()
            overlap = qbench.verify_equivalence(circuit, lowered_circuit)
            timer.stop(f"verify.{profile}")
            if overlap < FIDELITY_FLOOR:
                problems.append(f"{profile} lowering of q={q} n={n}: overlap {float(overlap)!r}")
        return Pass(
            wall_s=time.perf_counter() - pass_start,
            segments=timer.segments(),
            raw_segments=timer.raw,
            attempted=len(self.WIDTHS) + 1 + len(lowered),
            failed=len(problems),
            outputs={"statevector_gates": gates, "trajectory_counts": counts},
            problems=problems,
        )

    def figures(self, plain: list[Pass]):
        sv_s = sum(segment_median(plain, f"statevector.q{q}") for q in self.WIDTHS)
        gates_per_s = plain[0].outputs["statevector_gates"] / sv_s
        shots_per_s = self.TRAJECTORY_SHOTS / segment_median(plain, "trajectory")
        return gates_per_s, {
            "sv_gates_per_s": (gates_per_s, "1/s"),
            "traj_shots_per_s": (shots_per_s, "1/s"),
        }


class Report:
    """Reads of a ~10k-record store: open, one filtered query, six reports, export.

    The fixture tiles a short campaign's real records with fresh job ids and
    shifted days, written through ``JobStore.append``.  The transpiler and the
    simulator are not used while it is measured.
    """

    name = "report"
    TILES = 105  # x 96 base records = 10,080
    MIN_QUBITS = 12  # the filtered query: qubits__ge=12

    def __init__(self, seed: int, workdir: Path):
        cfg = write_campaign_config(workdir / "base.ini", seed=seed, days=2, sweeps=1, qubits="8..36:4")
        base = workdir / "base.jsonl"
        cli.run_campaign(cfg, str(base))
        records = list(qbench.JobStore(base).records())
        span = cfg.days * qbench.DAY
        self.fixture = workdir / "fixture.jsonl"
        store = qbench.JobStore(self.fixture)
        tiled = []
        for tile in range(self.TILES):
            shift = tile * span
            for r in records:
                copy = dataclasses.replace(
                    r,
                    job_id=f"{r.job_id}-t{tile:03d}",
                    submitted_at=r.submitted_at + shift,
                    executed_at=None if r.executed_at is None else r.executed_at + shift,
                )
                store.append(copy)
                tiled.append(copy)
        self.expected = self._expected_rows(tiled)
        self.out = workdir / "reports"
        self.out.mkdir()

    def _expected_rows(self, records) -> dict[str, int]:
        """Row counts by a plain scan of the records the fixture was written from."""
        processed = qbench.JobStatus.PROCESSED
        chosen = [r for r in records if r.qubits >= self.MIN_QUBITS]
        done = [r for r in chosen if r.status is processed]
        groups = len({(r.qubits, r.cloud, r.target) for r in done})
        return {
            "open": len(records),
            "query": len(chosen),
            "fidelity_vs_qubits": len(done),
            "fidelity_vs_time": len(done),
            "cost_vs_fidelity": groups,
            "availability": len({(r.target, r.cloud) for r in chosen}),
            "queue_prediction": sum(
                1 for r in chosen if r.predicted_wait is not None and r.actual_wait is not None
            ),
            "table6": groups,
            "export_csv": sum(1 for r in records if r.status is processed),
        }

    def run_pass(self) -> Pass:
        paths = [self.out / f"{kind}.csv" for kind in qbench.analysis.REPORT_KINDS]
        export = self.out / "export.csv"
        timer = SegmentTimer(scaled=True)
        store = qbench.JobStore(self.fixture)
        chosen = store.query(qubits__ge=self.MIN_QUBITS)
        rows = {
            kind: qbench.write_report(kind, chosen, str(path))
            for kind, path in zip(qbench.analysis.REPORT_KINDS, paths)
        }
        rows["export_csv"] = store.export_csv(str(export), status="processed")
        timer.stop("report")
        rows["open"], rows["query"] = len(store), len(chosen)
        problems = [
            f"{name}: {rows[name]} rows, expected {want}"
            for name, want in self.expected.items()
            if rows[name] != want
        ]
        return Pass(
            wall_s=timer.raw["report"],
            segments=timer.segments(),
            raw_segments=timer.raw,
            attempted=len(rows),
            failed=len(problems),
            outputs={"csv_sha256": _sha256(*paths, export), "rows": rows},
            problems=problems,
        )

    def figures(self, plain: list[Pass]):
        report_s = pass_seconds(plain)
        return self.expected["open"] / report_s, {"report_s": (report_s, "s")}


WORKLOADS = {w.name: w for w in (CampaignMixed, Statevector, Report)}
