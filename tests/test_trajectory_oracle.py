"""Batched Pauli trajectories against the shot-by-shot oracle, at their edges.

``run_noisy(..., PauliTrajectory(p), ...)`` runs the shots in chunks that keep
their working memory under ``simulator._TRAJECTORY_BYTES``.  Each chunk draws
its own shots' random numbers, in the order the oracle draws them, evolves
those shots together and picks each outcome from its shot's last uniform by
the rule the oracle's ``choice`` call applies.  Its counts must equal
``oracle_run_trajectories`` exactly, and its memory must not grow with the
shot count.
"""

import tracemalloc

import numpy as np
import pytest

from qbench import simulator
from qbench.circuit import build_benchmark, census
from qbench.simulator import PauliTrajectory, _run_trajectories, run_noisy
from qbench.transpiler import EFFICIENT, REDUNDANT, transpile
from test_kernel_oracle import EDGE_CIRCUITS, oracle_run_trajectories, random_circuit

CIRCUITS = {
    "efficient-q3": transpile(build_benchmark(3, 5), EFFICIENT).circuit,
    "redundant-q4": transpile(build_benchmark(4, 9), REDUNDANT).circuit,
    "random-q5": random_circuit(5, 30, seed=11),
    **EDGE_CIRCUITS,
}


def assert_matches_oracle(circuit, p, shots, seed):
    got = run_noisy(circuit, PauliTrajectory(p), shots, seed)
    assert got == oracle_run_trajectories(circuit, p, shots, seed)
    assert sum(got.values()) == shots
    return got


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_zero_and_one_shot(name, p):
    assert assert_matches_oracle(CIRCUITS[name], p, 0, 1) == {}
    for seed in range(1, 6):
        assert_matches_oracle(CIRCUITS[name], p, 1, seed)


def _state_after(seed, shots, per_shot):
    """A fresh generator's state after ``per_shot(rng)`` and one uniform, ``shots`` times."""
    rng = np.random.default_rng(seed)
    for _ in range(shots):
        per_shot(rng)
        rng.random()
    return rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_p_zero_draws_only_the_choices(name):
    rng = np.random.default_rng(7)
    _run_trajectories(CIRCUITS[name], 0.0, 25, rng)
    assert rng.bit_generator.state == _state_after(7, 25, lambda rng: None)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_p_one_hits_every_two_qubit_gate(name):
    circuit = CIRCUITS[name]

    def every_gate_hit(rng):
        for _ in range(census(circuit).n_2q):
            assert rng.random() < 1.0
            rng.integers(0, 15)

    rng = np.random.default_rng(7)
    _run_trajectories(circuit, 1.0, 25, rng)
    assert rng.bit_generator.state == _state_after(7, 25, every_gate_hit)
    assert_matches_oracle(circuit, 1.0, 25, 7)


def _cap_for(circuit, shots_per_chunk):
    """A byte cap that puts ``shots_per_chunk`` shots of this circuit in a chunk."""
    return 3 * shots_per_chunk * (16 << circuit.width)


@pytest.mark.parametrize("shots_per_chunk", [1, 3, 7])
@pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("name", ["efficient-q3", "redundant-q4", "random-q5"])
def test_shots_crossing_chunk_boundaries(monkeypatch, name, p, shots_per_chunk):
    circuit = CIRCUITS[name]
    whole = run_noisy(circuit, PauliTrajectory(p), 20, 3)
    monkeypatch.setattr(simulator, "_TRAJECTORY_BYTES", _cap_for(circuit, shots_per_chunk))
    assert assert_matches_oracle(circuit, p, 20, 3) == whole


def test_cap_smaller_than_one_state_runs_one_shot_at_a_time(monkeypatch):
    monkeypatch.setattr(simulator, "_TRAJECTORY_BYTES", 1)
    assert_matches_oracle(CIRCUITS["random-q5"], 0.2, 9, 4)


def _traced_peak(circuit, p, shots, seed):
    """The traced peak of one trajectory run, in bytes."""
    tracemalloc.start()
    try:
        counts = run_noisy(circuit, PauliTrajectory(p), shots, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == shots
    return peak


def test_peak_memory_stays_within_the_cap_plus_one_state(monkeypatch):
    width, shots = 14, 10
    circuit = random_circuit(width, 24, seed=6)
    state_bytes = 16 << width
    cap = _cap_for(circuit, 4)  # chunks of 4, 4 and 2 shots
    assert 3 * shots * state_bytes > cap + state_bytes  # one batch of every shot would not fit
    monkeypatch.setattr(simulator, "_TRAJECTORY_BYTES", cap)
    peak = _traced_peak(circuit, 0.3, shots, 2)
    assert peak <= cap + state_bytes, (peak, cap)


@pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
def test_many_shots_across_chunk_boundaries(monkeypatch, p):
    circuit = CIRCUITS["efficient-q3"]
    monkeypatch.setattr(simulator, "_TRAJECTORY_BYTES", _cap_for(circuit, 64))
    assert_matches_oracle(circuit, p, 1000, 8)  # 15 full chunks and one of 40 shots


def test_peak_memory_does_not_grow_with_the_shot_count(monkeypatch):
    circuit = build_benchmark(2, 1)
    monkeypatch.setattr(simulator, "_TRAJECTORY_BYTES", _cap_for(circuit, 100))
    few, many = 2_000, 20_000
    growth = _traced_peak(circuit, 0.1, many, 5) - _traced_peak(circuit, 0.1, few, 5)
    # the int64 outcomes and np.unique's working copies of them, nothing per shot beyond
    assert growth <= 32 * (many - few), growth
