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
  any width the target machine supports.
* ``PauliTrajectory(p)`` is a per-shot trajectory: after every two-qubit gate
  a uniformly random non-identity two-qubit Pauli is applied with
  probability p, and one measurement is drawn from the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, census, ideal_output

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
    out: dict[str, int] = {}
    for v in np.flatnonzero(hits):
        out[format(int(v), f"0{width}b")] = int(hits[v])
    return out


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

    Benchmark circuits carry (q, n) in metadata and concentrate on a single
    outcome, so no statevector is needed and any width is supported.  Other
    circuits fall back to simulation (subject to MAX_WIDTH).
    """
    meta = circuit.metadata
    if (
        meta.get("benchmark") == "fourier_adder"
        and meta.get("q") == circuit.width
        and isinstance(meta.get("n"), int)
    ):
        return {ideal_output(circuit.width, meta["n"]): 1.0}
    probs = np.abs(run_statevector(circuit)) ** 2
    probs = probs / probs.sum()
    out: dict[str, float] = {}
    for v in np.flatnonzero(probs > 1e-15):
        out[format(int(v), f"0{circuit.width}b")] = float(probs[v])
    return out


def _sample_from_distribution(
    dist: dict[str, float], shots: int, rng: np.random.Generator
) -> dict[str, int]:
    keys = sorted(dist)
    pvals = np.array([dist[k] for k in keys], dtype=float)
    pvals = pvals / pvals.sum()
    hits = rng.multinomial(shots, pvals)
    return {k: int(c) for k, c in zip(keys, hits) if c}


def _merge(dst: dict[str, int], src: dict[str, int]) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + v


def run_noisy(
    circuit: Circuit, noise: NoiseSpec, shots: int, seed: int
) -> dict[str, int]:
    """Sample ``shots`` measurements from the circuit under the given channel."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    rng = np.random.default_rng(seed)
    if isinstance(noise, GlobalDepolarizing):
        n_2q = census(circuit).n_2q
        p_clean = noise.f_2qg**n_2q
        ideal = ideal_distribution(circuit)
        clean = int(rng.binomial(shots, p_clean)) if shots else 0
        counts: dict[str, int] = {}
        if clean:
            _merge(counts, _sample_from_distribution(ideal, clean, rng))
        scrambled = shots - clean
        if scrambled:
            draws = rng.integers(0, 1 << circuit.width, size=scrambled)
            vals, reps = np.unique(draws, return_counts=True)
            _merge(
                counts,
                {
                    format(int(v), f"0{circuit.width}b"): int(c)
                    for v, c in zip(vals, reps)
                },
            )
        return dict(sorted(counts.items()))
    if isinstance(noise, PauliTrajectory):
        return _run_trajectories(circuit, noise.p, shots, rng)
    raise TypeError(f"unknown noise spec {noise!r}")


def _run_trajectories(
    circuit: Circuit, p: float, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    if circuit.width > MAX_WIDTH:
        raise ValueError(f"width {circuit.width} exceeds simulator cap {MAX_WIDTH}")
    width = circuit.width
    counts: dict[str, int] = {}
    for _ in range(shots):
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
        v = int(rng.choice(len(probs), p=probs))
        key = format(v, f"0{width}b")
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
