"""Dense statevector simulation, shot sampling, and the two noise channels.

State layout follows the package bit-order convention: amplitude index v is
the integer sum(bit_i << i). Reshaping a 2**q vector to [2]*q puts qubit
q-1-j on tensor axis j (numpy C order, most significant axis first).

Widths are capped at 24 qubits (a complex128 vector at 24 qubits is 256 MiB;
anything wider is out of desk-scale scope). Noise is modeled at two levels:

* ``GlobalDepolarizing(f_2qg)`` works at the distribution level: each shot is
  drawn from the ideal output distribution with probability f_2qg ** n_2q and
  from the uniform distribution otherwise.  For benchmark circuits the ideal
  distribution is the analytic single-outcome delta, so this channel runs at
  any width the target machine supports.  It reads no gate past that, so a
  provider pairs the source benchmark with its lowering's two-qubit count.
* ``PauliTrajectory(p)`` is a per-shot trajectory: after every two-qubit gate
  a uniformly random non-identity two-qubit Pauli is applied with
  probability p, and one measurement is drawn from the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, benchmark_input, census, ideal_output

MAX_WIDTH = 24
_NORM_TOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_PAULI_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# all 15 non-identity two-qubit Paulis, as (left, right) factor indices
_PAULI_2Q_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0))


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of one gate; 4x4 matrices use basis |t0 t1> (t0 is the high bit)."""
    k, th = gate.kind, gate.theta
    if k is GateKind.X:
        return _PAULI_1Q[1]
    if k is GateKind.H:
        return np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
    if k is GateKind.P:
        return np.array([[1, 0], [0, np.exp(1j * th)]], dtype=complex)
    if k is GateKind.RZ:
        return np.array([[np.exp(-1j * th / 2), 0], [0, np.exp(1j * th / 2)]], dtype=complex)
    if k is GateKind.RX:
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if k is GateKind.RY:
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if k is GateKind.CP:
        return np.diag([1, 1, 1, np.exp(1j * th)]).astype(complex)
    if k is GateKind.CX:
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if k is GateKind.ZZ:
        e = np.exp(-1j * th / 2)
        return np.diag([e, e.conjugate(), e.conjugate(), e]).astype(complex)
    if k is GateKind.SWAP:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    raise ValueError(f"unknown gate kind {k}")


def _apply(t: np.ndarray, width: int, mat: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a 1- or 2-qubit matrix to a ``[2]*width`` tensor with any trailing batch axes."""
    k = len(targets)
    axes = [width - 1 - q for q in targets]
    t = np.tensordot(mat.reshape([2] * 2 * k), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes)


def _bitstrings(vals: np.ndarray, width: int) -> list[str]:
    """``format(v, f"0{width}b")`` of each value, rendered in one numpy pass."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = (np.asarray(vals, dtype=np.uint64)[:, None] >> shifts) & 1
    text = (bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates to |0...0>; returns the 2**width amplitude vector."""
    if circuit.width > MAX_WIDTH:
        raise ValueError(f"width {circuit.width} exceeds simulator cap {MAX_WIDTH}")
    state = np.zeros([2] * circuit.width, dtype=complex)
    state.flat[0] = 1.0
    for g in circuit.gates:
        state = _apply(state, circuit.width, gate_matrix(g), g.targets)
    state = state.reshape(-1)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ArithmeticError(f"statevector norm drifted to {norm!r}")
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary of a small circuit (width <= 10); for equivalence checks."""
    if circuit.width > 10:
        raise ValueError("unitary construction capped at 10 qubits")
    dim = 1 << circuit.width
    # basis columns ride along as a trailing batch axis
    u = np.eye(dim, dtype=complex).reshape([2] * circuit.width + [dim])
    for g in circuit.gates:
        u = _apply(u, circuit.width, gate_matrix(g), g.targets)
    return u.reshape(dim, dim)


def sample(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Multinomial shot sampling; keys are MSB-first bitstrings, ascending."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    width = int(round(math.log2(len(state))))
    if 1 << width != len(state):
        raise ValueError("state length is not a power of two")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    hits = rng.multinomial(shots, probs)
    seen = np.flatnonzero(hits)
    return dict(zip(_bitstrings(seen, width), hits[seen].tolist()))


# --- noise -------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalDepolarizing:
    """Zero-order device model: circuit fidelity f_2qg ** n_2q, uniform otherwise."""

    f_2qg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_2qg <= 1.0:
            raise ValueError("f_2qg must be in [0, 1]")


@dataclass(frozen=True)
class PauliTrajectory:
    """Per-gate error injection with probability p after each two-qubit gate."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")


NoiseSpec = GlobalDepolarizing | PauliTrajectory


def ideal_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact output distribution; analytic delta for benchmark circuits.

    A circuit whose gates are exactly a benchmark's concentrates on a single
    outcome, so no statevector is needed and any width is supported.  Every
    other circuit, a lowered benchmark included, is simulated (subject to
    MAX_WIDTH).
    """
    n = benchmark_input(circuit)
    if n is not None:
        return {ideal_output(circuit.width, n): 1.0}
    probs = np.abs(run_statevector(circuit)) ** 2
    probs = probs / probs.sum()
    support = np.flatnonzero(probs > 1e-15)
    return dict(zip(_bitstrings(support, circuit.width), probs[support].tolist()))


def _sample_from_distribution(
    dist: dict[str, float], shots: int, rng: np.random.Generator
) -> dict[str, int]:
    keys = sorted(dist)
    pvals = np.array([dist[k] for k in keys], dtype=float)
    pvals = pvals / pvals.sum()
    hits = rng.multinomial(shots, pvals)
    return {k: int(c) for k, c in zip(keys, hits) if c}


def run_noisy(
    circuit: Circuit, noise: NoiseSpec, shots: int, seed: int
) -> dict[str, int]:
    """Sample ``shots`` measurements from the circuit under the given channel."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if isinstance(noise, GlobalDepolarizing):
        return sample_depolarized(circuit, census(circuit).n_2q, noise, shots, seed)
    if isinstance(noise, PauliTrajectory):
        return _run_trajectories(circuit, noise.p, shots, np.random.default_rng(seed))
    raise TypeError(f"unknown noise spec {noise!r}")


def sample_depolarized(
    circuit: Circuit, n_2q: int, noise: GlobalDepolarizing, shots: int, seed: int
) -> dict[str, int]:
    """``GlobalDepolarizing`` counts for a circuit that ran ``n_2q`` two-qubit gates.

    The channel reads no gate past the ideal distribution, so a lowering's
    two-qubit count can be paired with its source circuit.
    """
    rng = np.random.default_rng(seed)
    p_clean = noise.f_2qg**n_2q
    ideal = ideal_distribution(circuit)
    clean = int(rng.binomial(shots, p_clean)) if shots else 0
    clean_hits = _sample_from_distribution(ideal, clean, rng) if clean else {}
    counts: dict[str, int] = {}
    scrambled = shots - clean
    if scrambled:
        draws = rng.integers(0, 1 << circuit.width, size=scrambled)
        vals, reps = np.unique(draws, return_counts=True)
        counts = dict(zip(_bitstrings(vals, circuit.width), reps.tolist()))
    # clean shots fall on the ideal support: one key for a benchmark
    for key, c in clean_hits.items():
        counts[key] = counts.get(key, 0) + c
    return dict(sorted(counts.items()))


def _run_trajectories(
    circuit: Circuit, p: float, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    if circuit.width > MAX_WIDTH:
        raise ValueError(f"width {circuit.width} exceeds simulator cap {MAX_WIDTH}")
    width = circuit.width
    outcomes = np.empty(shots, dtype=np.int64)
    for shot in range(shots):
        state = np.zeros([2] * width, dtype=complex)
        state.flat[0] = 1.0
        for g in circuit.gates:
            state = _apply(state, width, gate_matrix(g), g.targets)
            if g.arity == 2 and p > 0.0 and rng.random() < p:
                pa, pb = _PAULI_2Q_PAIRS[rng.integers(0, len(_PAULI_2Q_PAIRS))]
                state = _apply(state, width, _PAULI_1Q[pa], g.targets[:1])
                state = _apply(state, width, _PAULI_1Q[pb], g.targets[1:])
        probs = np.abs(state.reshape(-1)) ** 2
        probs = probs / probs.sum()
        outcomes[shot] = rng.choice(len(probs), p=probs)
    vals, reps = np.unique(outcomes, return_counts=True)
    return dict(zip(_bitstrings(vals, width), reps.tolist()))
