"""Outside-in layer trace for the qbench benchmark.

The tracer never edits the package.  It replaces public functions at the
module attributes their callers look them up through (for example
``qbench.providers.transpile``, which ``SimProvider.submit`` calls, or
``JobStore.append``, which ``run_campaign`` calls) with wrappers that record
a span, and it restores the originals on exit.  Spans are kept in memory as
(id, parent, name, start, end, pass) and written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
The benchmark runs one thread, so spans nest and never overlap, and the
covered time of a span is the sum of its direct children's durations.

Next to spans the wrappers keep exact counters (gates built and emitted,
gate applications, provider statuses, store bytes and rows), read from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

import hostspeed
import qbench
from qbench import cli, providers, transpiler
from qbench.providers import JobStatus, SimProvider
from qbench.simulator import GlobalDepolarizing, PauliTrajectory
from qbench.store import JobStore

# bytes one gate application must at least read and write: the whole
# complex128 state once each way; computed from sizes, never measured
_STATE_BYTES_PER_AMPLITUDE = 16
_PASSES_PER_GATE = 2

REPORT_KINDS = tuple(qbench.analysis.REPORT_KINDS)
STATEVECTOR_WIDTHS = (14, 18, 20)

SPAN_NAMES = (
    "cli.run_campaign",
    "circuit.build_benchmark",
    "transpiler.transpile.efficient",
    "transpiler.transpile.redundant",
    "transpiler.verify_equivalence",
    *(f"simulator.run_statevector.q{q}" for q in STATEVECTOR_WIDTHS),
    "simulator.run_noisy.global_depolarizing",
    "simulator.run_noisy.pauli_trajectory",
    "providers.submit",
    "providers.poll",
    "providers.job_cost",
    "store.open",
    "store.append",
    "store.query",
    "store.export_csv",
    "analysis.benchmark_fidelity",
    *(f"analysis.write_report.{kind}" for kind in REPORT_KINDS),
)

COUNTER_NAMES = (
    "circuit.gates_built",
    "transpiler.gates_emitted",
    "transpiler.lowerings",
    "transpiler.lowerings_rejected",
    "simulator.gate_apps",
    "simulator.bytes_moved_computed",
    "providers.submits",
    "providers.status.processed",
    "providers.status.error",
    "providers.status.unavailable",
    "store.append.bytes",
    "store.open.records",
    "store.export_csv.rows",
    *(f"analysis.write_report.{kind}.rows" for kind in REPORT_KINDS),
)


def _state_bytes(width: int) -> int:
    return _PASSES_PER_GATE * _STATE_BYTES_PER_AMPLITUDE * (1 << width)


_CHANNELS = {GlobalDepolarizing: "global_depolarizing", PauliTrajectory: "pauli_trajectory"}


class Tracer:
    """Spans and counters for the passes run while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._next_id = 0
        self._stack: list[int] = []
        self._pass = -1
        self._store_sizes: dict[Path, int] = {}

    # -- recording ---------------------------------------------------------------

    def _timed(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._pass))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self._pass][name] += amount

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn: Callable, name_of: Callable | str | None, after: Callable | None):
        tracer = self

        def wrapper(*args, **kwargs):
            if name_of is None:
                result = fn(*args, **kwargs)
            else:
                name = name_of if isinstance(name_of, str) else name_of(*args, **kwargs)
                result = tracer._timed(name, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch_points(self):
        """(owner, attribute, span name or None, after-hook) per call site."""
        count = self.count

        def built(circuit, *a, **k):
            count("circuit.gates_built", len(circuit.gates))

        def lowered(result, circuit, profile):
            count("transpiler.gates_emitted", result.census.total)

        def simulated(state, circuit):
            count("simulator.gate_apps", len(circuit.gates))
            count("simulator.bytes_moved_computed", len(circuit.gates) * _state_bytes(circuit.width))

        def sampled(counts, circuit, noise, shots, seed):
            if isinstance(noise, PauliTrajectory):
                count("simulator.gate_apps", shots * len(circuit.gates))
                count(
                    "simulator.bytes_moved_computed",
                    shots * len(circuit.gates) * _state_bytes(circuit.width),
                )

        def submitted(handle, provider, *a, **k):
            count("providers.submits")
            if handle.lowered is not None:
                count("transpiler.lowerings")
                if handle.status is JobStatus.ERROR:
                    count("transpiler.lowerings_rejected")

        def polled(result, provider, handle, clock):
            count(f"providers.status.{result.status.value}")

        def opened(_none, store, *a, **k):
            count("store.open.records", len(store))
            self._store_sizes[store.path] = store.path.stat().st_size

        def appended(_none, store, record):
            size = store.path.stat().st_size
            count("store.append.bytes", size - self._store_sizes.get(store.path, 0))
            self._store_sizes[store.path] = size

        def exported(rows, *a, **k):
            count("store.export_csv.rows", rows)

        def reported(rows, kind, *a, **k):
            count(f"analysis.write_report.{kind}.rows", rows)

        transpile_name = lambda circuit, profile: f"transpiler.transpile.{profile.name}"
        noisy_name = lambda circuit, noise, *a, **k: f"simulator.run_noisy.{_CHANNELS[type(noise)]}"
        sv_name = lambda circuit: f"simulator.run_statevector.q{circuit.width}"
        report_name = lambda kind, *a, **k: f"analysis.write_report.{kind}"

        return (
            (cli, "run_campaign", "cli.run_campaign", None),
            (cli, "build_benchmark", "circuit.build_benchmark", built),
            (cli, "benchmark_fidelity", "analysis.benchmark_fidelity", None),
            (providers, "transpile", transpile_name, lowered),
            (providers, "run_noisy", noisy_name, sampled),
            (SimProvider, "submit", "providers.submit", submitted),
            (SimProvider, "poll", "providers.poll", polled),
            (SimProvider, "job_cost", "providers.job_cost", None),
            (JobStore, "__init__", "store.open", opened),
            (JobStore, "append", "store.append", appended),
            (JobStore, "query", "store.query", None),
            (JobStore, "export_csv", "store.export_csv", exported),
            # verify_equivalence simulates its probes through this name; it
            # is counted, and its time stays in the verify span
            (transpiler, "run_statevector", None, simulated),
            (qbench, "build_benchmark", "circuit.build_benchmark", built),
            (qbench, "transpile", transpile_name, lowered),
            (qbench, "verify_equivalence", "transpiler.verify_equivalence", None),
            (qbench, "run_statevector", sv_name, simulated),
            (qbench, "run_noisy", noisy_name, sampled),
            (qbench, "write_report", report_name, reported),
            # the campaign's sweep timer runs this inside run_campaign; its
            # own span keeps it out of cli.run_campaign's self time
            (hostspeed, "python_loop", "bench.reference_loop", None),
        )

    @contextlib.contextmanager
    def installed(self, pass_index: int):
        """Wrap every patch point for one pass; originals come back on exit."""
        self._pass = pass_index
        saved = []
        try:
            for owner, attr, name_of, after in self._patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name_of, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._pass = -1

    # -- reduction ---------------------------------------------------------------

    def pass_profile(self, pass_index: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name, for one traced pass."""
        spans = [s for s in self.spans if s[5] == pass_index]
        covered: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end, _p in spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, _parent, name, start, end, _p in spans:
            self_s[name] += (end - start) - covered[sid]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path: str | os.PathLike[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, pass_index in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "pass": pass_index,
                        }
                    )
                    + "\n"
                )
