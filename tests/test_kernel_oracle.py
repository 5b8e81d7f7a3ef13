"""Differential oracle for the single gate kernel in ``simulator``.

The oracle functions are the earlier per-use loops: one-qubit and two-qubit
application on a flat state vector (reshaped and flattened around every
gate), a separate tensordot loop for ``circuit_unitary``, and the
trajectory loop built on them.  The kernel must give the same arrays and
the same counts, bit for bit.
"""

import math

import numpy as np
import pytest

from qbench.circuit import (
    ONE_QUBIT_KINDS,
    PARAMETRIC_KINDS,
    Circuit,
    Gate,
    GateKind,
    build_benchmark,
)
from qbench.simulator import (
    _PAULI_1Q,
    _PAULI_2Q_PAIRS,
    PauliTrajectory,
    circuit_unitary,
    gate_matrix,
    run_noisy,
    run_statevector,
)
from qbench.transpiler import EFFICIENT, REDUNDANT, transpile


def oracle_apply_1q(state, width, mat, target):
    ax = width - 1 - target
    t = state.reshape([2] * width)
    t = np.tensordot(mat, t, axes=([1], [ax]))
    return np.moveaxis(t, 0, ax).reshape(-1)


def oracle_apply_2q(state, width, mat, a, b):
    axa, axb = width - 1 - a, width - 1 - b
    t = state.reshape([2] * width)
    t = np.tensordot(mat.reshape(2, 2, 2, 2), t, axes=([2, 3], [axa, axb]))
    return np.moveaxis(t, [0, 1], [axa, axb]).reshape(-1)


def oracle_apply_gate(state, width, gate):
    mat = gate_matrix(gate)
    if gate.arity == 1:
        return oracle_apply_1q(state, width, mat, gate.targets[0])
    return oracle_apply_2q(state, width, mat, gate.targets[0], gate.targets[1])


def oracle_run_statevector(circuit):
    state = np.zeros(1 << circuit.width, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        state = oracle_apply_gate(state, circuit.width, g)
    return state


def oracle_circuit_unitary(circuit):
    dim = 1 << circuit.width
    u = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        mat = gate_matrix(g)
        cols = u.reshape([2] * circuit.width + [dim])
        if g.arity == 1:
            ax = circuit.width - 1 - g.targets[0]
            cols = np.tensordot(mat, cols, axes=([1], [ax]))
            cols = np.moveaxis(cols, 0, ax)
        else:
            axa = circuit.width - 1 - g.targets[0]
            axb = circuit.width - 1 - g.targets[1]
            cols = np.tensordot(mat.reshape(2, 2, 2, 2), cols, axes=([2, 3], [axa, axb]))
            cols = np.moveaxis(cols, [0, 1], [axa, axb])
        u = cols.reshape(dim, dim)
    return u


def oracle_run_trajectories(circuit, p, shots, seed):
    rng = np.random.default_rng(seed)
    width = circuit.width
    counts = {}
    for _ in range(shots):
        state = np.zeros(1 << width, dtype=complex)
        state[0] = 1.0
        for g in circuit.gates:
            state = oracle_apply_gate(state, width, g)
            if g.arity == 2 and p > 0.0 and rng.random() < p:
                pa, pb = _PAULI_2Q_PAIRS[rng.integers(0, len(_PAULI_2Q_PAIRS))]
                state = oracle_apply_1q(state, width, _PAULI_1Q[pa], g.targets[0])
                state = oracle_apply_1q(state, width, _PAULI_1Q[pb], g.targets[1])
        probs = np.abs(state) ** 2
        probs = probs / probs.sum()
        v = int(rng.choice(len(probs), p=probs))
        key = format(v, f"0{width}b")
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def random_circuit(width, n_gates, seed):
    """Gates of every kind the width allows, on random targets and angles."""
    rng = np.random.default_rng(seed)
    kinds = [k for k in GateKind if width >= 2 or k in ONE_QUBIT_KINDS]
    gates = []
    for i in range(n_gates):
        kind = kinds[i % len(kinds)] if i < len(kinds) else kinds[rng.integers(len(kinds))]
        arity = 1 if kind in ONE_QUBIT_KINDS else 2
        targets = tuple(int(t) for t in rng.choice(width, size=arity, replace=False))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind in PARAMETRIC_KINDS else None
        gates.append(Gate(kind, targets, theta))
    return Circuit(width=width, gates=tuple(gates))


@pytest.mark.parametrize("width", range(1, 11))
def test_statevector_matches_oracle(width):
    for seed in range(3):
        circuit = random_circuit(width, 4 * width + 12, seed)
        got = run_statevector(circuit)
        want = oracle_run_statevector(circuit)
        assert got.shape == want.shape == (1 << width,)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("profile", [EFFICIENT, REDUNDANT], ids=lambda p: p.name)
@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_unitary_of_lowered_benchmark_matches_oracle(q, profile):
    for n in sorted({0, 1, (1 << q) - 1}):
        lowered = transpile(build_benchmark(q, n), profile).circuit
        got = circuit_unitary(lowered)
        want = oracle_circuit_unitary(lowered)
        assert got.shape == want.shape == (1 << q, 1 << q)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [1, 2, 4, 6])
def test_unitary_of_random_circuit_matches_oracle(width):
    circuit = random_circuit(width, 3 * width + 12, seed=width)
    assert np.array_equal(circuit_unitary(circuit), oracle_circuit_unitary(circuit))


@pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
def test_trajectory_counts_match_oracle(p):
    cases = [
        (transpile(build_benchmark(3, 5), EFFICIENT).circuit, 40),
        (transpile(build_benchmark(4, 9), REDUNDANT).circuit, 20),
        (random_circuit(5, 30, seed=11), 40),
    ]
    for circuit, shots in cases:
        for seed in (1, 2):
            got = run_noisy(circuit, PauliTrajectory(p), shots, seed)
            assert got == oracle_run_trajectories(circuit, p, shots, seed)


# inputs the random circuits never are: no gates at all, and a multi-qubit
# register that only one-qubit gates touch; and a one-qubit register, which
# no other trajectory case has
EDGE_CIRCUITS = {
    "no-gates": Circuit(width=3, gates=()),
    "one-qubit-only": Circuit(
        width=4, gates=tuple(g for g in random_circuit(4, 40, seed=5).gates if g.arity == 1)
    ),
    "width-1": random_circuit(1, 12, seed=4),
}


@pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
def test_edge_statevector_matches_oracle(name):
    circuit = EDGE_CIRCUITS[name]
    assert np.array_equal(run_statevector(circuit), oracle_run_statevector(circuit))


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("name", sorted(EDGE_CIRCUITS))
def test_edge_trajectory_counts_match_oracle(name, p):
    circuit = EDGE_CIRCUITS[name]
    for seed in (1, 2):
        got = run_noisy(circuit, PauliTrajectory(p), 40, seed)
        assert got == oracle_run_trajectories(circuit, p, 40, seed)
